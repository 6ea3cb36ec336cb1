"""Two-party dichotomic Bell scenarios, behaviors, and Bell expressions.

A scenario fixes ``n`` measurement settings per party (``n`` even) with two
outcomes each.  A behavior is the full table of conditional probabilities
``P(ij|xy)`` with outcomes ``i, j in {0, 1}`` and 1-based setting labels
``x`` (Alice) and ``y`` (Bob).  A Bell expression is a sparse real linear
functional over those entries, optionally carrying a classical (deterministic)
bound and a quantum bound as metadata.

Two expression families are provided:

``chsh_probability_form()``
    The eight-term CHSH functional written purely in probabilities, with
    deterministic bound 3 and quantum bound ``2 + sqrt(2)``.

``as_inequality(n)``
    The n-setting two-outcome family (even ``n``) built from three sums:
    correlated terms ``P(A_i = B_j)`` for ``j <= n - i + 1``, anti-correlated
    terms with weight ``i - 1`` on the anti-diagonal pairs
    ``(A_i, B_{n-i+2})`` and ``(A_{n+2-i}, B_i)``, and weight ``n/2`` on
    ``(A_{n/2+1}, B_{n/2+1})``.  Its deterministic bound is
    ``(n^2 + n) / 2`` and its quantum bound is
    ``((n+1) sqrt(n(n+2)) / 3 + (3 n^2 + 2 n) / 4) / 2``.
    At ``n = 2`` the family reduces term-for-term to the CHSH form.

Index conventions (fixed for serialization): setting labels are 1-based,
outcomes are ``{0, 1}``, term keys are canonically ordered by
``(x, y, i, j)``, and behavior tensors are stored with axes ``(x, y, i, j)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping

import numpy as np

SCHEMA_VERSION = "1"


class ValidationError(ValueError):
    """Inputs violate a constructor or operation contract."""


class ScenarioMismatchError(ValidationError):
    """Two objects built for different scenarios were combined."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical hygiene knobs, centralized so there is a single dial.

    normalization:
        Allowed deviation of each per-setting outcome distribution from
        summing to one.
    nonnegativity:
        Most negative probability entry accepted (guards float rounding).
    saturation:
        Slack used when comparing integer-coefficient expression values on
        deterministic behaviors; the exact values are integers, so this only
        absorbs float accumulation order.
    """

    normalization: float = 1e-12
    nonnegativity: float = 1e-12
    saturation: float = 1e-12


TOLERANCES = Tolerances()


def _checked(value, expected: type, what: str):
    """``value`` as an ``expected``, checked rather than coerced.

    Documents and config files are outside input: an int takes an integral
    number that is not a bool, a float a finite number that is not a bool,
    and any other type (bool, str, list, Mapping) only an instance of it.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected is int:
        ok = number and (isinstance(value, int) or value.is_integer())
    elif expected is float:
        # false for NaN, the infinities and ints beyond the float range
        ok = number and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, expected)
    if not ok:
        raise ValidationError(f"{what} must be of type {expected.__name__}, got {value!r}")
    return expected(value) if expected in (int, float) else value


def _field(data: Mapping, key: str, expected: type, kind: str, optional: bool = False):
    """``data[key]`` checked against ``expected``.  A missing key is an error
    unless ``optional``, when it and an explicit null read as None."""
    value = data.get(key)
    if value is None and optional:
        return None
    if key not in data:
        raise ValidationError(f"{kind} is missing key {key!r}")
    return _checked(value, expected, f"{kind} key {key!r}")


def config_from_json_dict(defaults, data: Mapping, kind: str):
    """``defaults`` (a frozen config dataclass) with the fields in ``data``,
    each checked against the type of its default."""
    _checked(data, Mapping, f"{kind} config")
    unknown = set(data) - set(defaults.to_json_dict())
    if unknown:
        raise ValidationError(f"unknown {kind} config keys: {sorted(unknown)}")
    kwargs = {
        key: _checked(value, type(getattr(defaults, key)), f"{kind} config key {key!r}")
        for key, value in data.items()
    }
    return replace(defaults, **kwargs)


@dataclass(frozen=True)
class Scenario:
    """Two parties, ``n_settings`` settings each, two outcomes each."""

    n_settings: int
    n_outcomes: int = 2
    parties: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.n_settings, int):
            raise ValidationError(
                f"n_settings must be an int, got {type(self.n_settings).__name__}"
            )
        if self.n_settings < 2 or self.n_settings % 2 != 0:
            raise ValidationError(
                f"n_settings must be an even integer >= 2, got {self.n_settings}"
            )
        if self.n_outcomes != 2 or self.parties != 2:
            raise ValidationError("only two-party, two-outcome scenarios are supported")

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "scenario",
            "n_settings": self.n_settings,
            "n_outcomes": self.n_outcomes,
            "parties": self.parties,
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "Scenario":
        _check_schema(data, "scenario")
        return Scenario(_field(data, "n_settings", int, "scenario"))


def _check_schema(data: Mapping, kind: str) -> None:
    _checked(data, Mapping, f"{kind} document")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {data.get('schema_version')!r}, expected {SCHEMA_VERSION!r}"
        )
    if data.get("kind") != kind:
        raise ValidationError(f"expected kind {kind!r}, got {data.get('kind')!r}")


class Behavior:
    """Conditional probability table ``P(ij|xy)`` for one scenario.

    The tensor is stored with axes ``(x, y, i, j)`` (settings 0-based
    internally) and is validated on construction: every per-setting
    distribution sums to one within ``TOLERANCES.normalization`` and no entry
    is below ``-TOLERANCES.nonnegativity``.  Instances are immutable.
    """

    __slots__ = ("scenario", "_p")

    def __init__(self, scenario: Scenario, p: np.ndarray):
        n = scenario.n_settings
        arr = np.asarray(p, dtype=float)
        if arr.shape != (n, n, 2, 2):
            raise ValidationError(
                f"behavior tensor must have shape {(n, n, 2, 2)}, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("behavior entries must be finite")
        if arr.min() < -TOLERANCES.nonnegativity:
            raise ValidationError(
                f"behavior has negative entry {arr.min():.3e} below tolerance"
            )
        sums = arr.sum(axis=(2, 3))
        worst = np.abs(sums - 1.0).max()
        if worst > TOLERANCES.normalization:
            raise ValidationError(
                f"behavior normalization violated by {worst:.3e} (tolerance "
                f"{TOLERANCES.normalization:.0e})"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "_p", arr)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Behavior is immutable")

    @property
    def p(self) -> np.ndarray:
        """Read-only tensor with axes ``(x, y, i, j)``, settings 0-based."""
        return self._p

    def prob(self, i: int, j: int, x: int, y: int) -> float:
        """Return ``P(ij|xy)`` for outcomes ``i, j`` and 1-based settings."""
        return float(self._p[x - 1, y - 1, i, j])

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "behavior",
            "n_settings": self.scenario.n_settings,
            "index_order": ["x", "y", "i", "j"],
            "p": [float(v) for v in self._p.ravel()],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "Behavior":
        _check_schema(data, "behavior")
        n = _field(data, "n_settings", int, "behavior")
        if data.get("index_order") != ["x", "y", "i", "j"]:
            raise ValidationError(f"unsupported index_order {data.get('index_order')!r}")
        p = [_checked(v, float, "behavior entry") for v in _field(data, "p", list, "behavior")]
        if len(p) != 4 * n * n:
            raise ValidationError(f"behavior needs {4 * n * n} entries in p, got {len(p)}")
        return Behavior(Scenario(n), np.reshape(p, (n, n, 2, 2)))


TermKey = tuple[int, int, int, int]  # (i, j, x, y)


def _canonical_sort_key(key: TermKey) -> tuple[int, int, int, int]:
    i, j, x, y = key
    return (x, y, i, j)


class BellExpression:
    """Sparse linear functional ``sum coeff * P(ij|xy)`` over one scenario.

    Terms are keyed by ``(i, j, x, y)`` with outcomes in ``{0, 1}`` and
    1-based settings.  Construction canonicalizes: duplicate keys are summed,
    exact-zero coefficients are dropped, and iteration follows the fixed
    total order ``(x, y, i, j)``.  ``classical_bound`` and ``quantum_bound``
    are optional metadata and are never enforced by :func:`evaluate`.
    """

    __slots__ = ("scenario", "_terms", "_order", "classical_bound", "quantum_bound")

    def __init__(
        self,
        scenario: Scenario,
        terms: Mapping[TermKey, float] | Iterable[tuple[TermKey, float]],
        classical_bound: float | None = None,
        quantum_bound: float | None = None,
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[TermKey, float] = {}
        n = scenario.n_settings
        for key, coeff in items:
            i, j, x, y = key
            if i not in (0, 1) or j not in (0, 1):
                raise ValidationError(f"outcomes must be 0 or 1, got term key {key}")
            if not (1 <= x <= n and 1 <= y <= n):
                raise ValidationError(
                    f"settings must lie in 1..{n}, got term key {key}"
                )
            c = float(coeff)
            if not math.isfinite(c):
                raise ValidationError(f"coefficient for {key} must be finite, got {coeff}")
            acc[(i, j, x, y)] = acc.get((i, j, x, y), 0.0) + c
        acc = {k: v for k, v in acc.items() if v != 0.0}
        order = tuple(sorted(acc, key=_canonical_sort_key))
        for name, bound in (("classical_bound", classical_bound), ("quantum_bound", quantum_bound)):
            if bound is not None and not math.isfinite(float(bound)):
                raise ValidationError(f"{name} must be finite or None")
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "_terms", acc)
        object.__setattr__(self, "_order", order)
        object.__setattr__(
            self, "classical_bound", None if classical_bound is None else float(classical_bound)
        )
        object.__setattr__(
            self, "quantum_bound", None if quantum_bound is None else float(quantum_bound)
        )

    def __setattr__(self, name, value):
        raise AttributeError("BellExpression is immutable")

    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> Iterator[tuple[TermKey, float]]:
        """Yield ``((i, j, x, y), coeff)`` in canonical ``(x, y, i, j)`` order."""
        for key in self._order:
            yield key, self._terms[key]

    def coefficient(self, i: int, j: int, x: int, y: int) -> float:
        """Coefficient of ``P(ij|xy)``; zero if the term is absent."""
        return self._terms.get((i, j, x, y), 0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BellExpression):
            return NotImplemented
        return self.scenario == other.scenario and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.scenario, tuple(sorted(self._terms.items()))))

    def drop_term(self, key: TermKey) -> "BellExpression":
        """A copy without the given term; bounds metadata is not carried over."""
        if key not in self._terms:
            raise ValidationError(f"term {key} not present in expression")
        rest = {k: v for k, v in self._terms.items() if k != key}
        return BellExpression(self.scenario, rest)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "bell_expression",
            "n_settings": self.scenario.n_settings,
            "terms": _terms_to_json(self),
            "classical_bound": self.classical_bound,
            "quantum_bound": self.quantum_bound,
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "BellExpression":
        kind = "bell_expression"
        _check_schema(data, kind)
        scenario = Scenario(_field(data, "n_settings", int, kind))
        return BellExpression(
            scenario,
            _terms_from_json(_field(data, "terms", list, kind)),
            classical_bound=_field(data, "classical_bound", float, kind, optional=True),
            quantum_bound=_field(data, "quantum_bound", float, kind, optional=True),
        )


def _terms_to_json(expr: BellExpression) -> list[dict]:
    """The terms as ``[{x, y, i, j, coeff}]`` in canonical order."""
    return [
        {"x": x, "y": y, "i": i, "j": j, "coeff": float(c)} for (i, j, x, y), c in expr.items()
    ]


def _terms_from_json(terms: list) -> dict[TermKey, float]:
    """The term map that :func:`_terms_to_json` listed, checked.

    A repeated ``(i, j, x, y)`` is rejected: a document cannot say whether it
    meant the sum of its coefficients or the last one.
    """
    out = {}
    for t in terms:
        t = _checked(t, Mapping, "term")
        key = tuple(_field(t, name, int, "term") for name in ("i", "j", "x", "y"))
        if key in out:
            raise ValidationError(f"term (i, j, x, y) = {key} is listed twice")
        out[key] = _field(t, "coeff", float, "term")
    return out


def evaluate(expr: BellExpression, behavior: Behavior) -> float:
    """Evaluate ``sum coeff * P(ij|xy)`` exactly; no clamping of the result."""
    if expr.scenario != behavior.scenario:
        raise ScenarioMismatchError(
            f"expression scenario {expr.scenario} does not match behavior scenario "
            f"{behavior.scenario}"
        )
    p = behavior.p
    total = 0.0
    for (i, j, x, y), coeff in expr.items():
        total += coeff * p[x - 1, y - 1, i, j]
    return total


def chsh_probability_form() -> BellExpression:
    """The CHSH functional in probability form.

    Eight unit-coefficient terms::

        P(11|A1B1) + P(10|A2B2) + P(00|A1B2) + P(11|A2B1)
        + P(11|A1B2) + P(00|A2B1) + P(01|A2B2) + P(00|A1B1)

    Deterministic bound 3; quantum bound ``2 + sqrt(2)``.
    """
    scenario = Scenario(2)
    terms = {
        (1, 1, 1, 1): 1.0,
        (1, 0, 2, 2): 1.0,
        (0, 0, 1, 2): 1.0,
        (1, 1, 2, 1): 1.0,
        (1, 1, 1, 2): 1.0,
        (0, 0, 2, 1): 1.0,
        (0, 1, 2, 2): 1.0,
        (0, 0, 1, 1): 1.0,
    }
    return BellExpression(
        scenario, terms, classical_bound=3.0, quantum_bound=2.0 + math.sqrt(2.0)
    )


def _require_even(n: int) -> None:
    if not isinstance(n, int) or n < 2 or n % 2 != 0:
        raise ValidationError(f"n must be an even integer >= 2, got {n!r}")


def as_classical_bound(n: int) -> float:
    """Deterministic maximum ``(n^2 + n) / 2`` of :func:`as_inequality`."""
    _require_even(n)
    return (n * n + n) / 2.0


def as_quantum_bound(n: int) -> float:
    """Quantum bound ``((n+1) sqrt(n(n+2)) / 3 + (3 n^2 + 2 n) / 4) / 2``."""
    _require_even(n)
    return ((n + 1) * math.sqrt(n * (n + 2)) / 3.0 + (3 * n * n + 2 * n) / 4.0) / 2.0


def as_inequality(n: int) -> BellExpression:
    """The n-setting two-outcome expression with bound ``(n^2 + n) / 2``.

    ``P(A_i = B_j)`` expands to ``P(00|A_iB_j) + P(11|A_iB_j)`` and
    ``P(A_i != B_j)`` to ``P(01|A_iB_j) + P(10|A_iB_j)``.  The coefficient
    map collects:

    - equality terms for ``i = 1..n``, ``j = 1..n-i+1``;
    - anti-correlation terms with weight ``i - 1`` at ``(A_i, B_{n-i+2})``
      and ``(A_{n+2-i}, B_i)`` for ``i = 2..n/2``;
    - weight ``n/2`` anti-correlation at ``(A_{n/2+1}, B_{n/2+1})``.

    For ``n = 2`` this is exactly :func:`chsh_probability_form`.
    """
    _require_even(n)
    scenario = Scenario(n)
    terms: dict[TermKey, float] = {}

    def add(i: int, j: int, x: int, y: int, w: float) -> None:
        key = (i, j, x, y)
        terms[key] = terms.get(key, 0.0) + w

    for x in range(1, n + 1):
        for y in range(1, n - x + 2):
            add(0, 0, x, y, 1.0)
            add(1, 1, x, y, 1.0)
    for x in range(2, n // 2 + 1):
        w = float(x - 1)
        add(0, 1, x, n - x + 2, w)
        add(1, 0, x, n - x + 2, w)
        add(0, 1, n + 2 - x, x, w)
        add(1, 0, n + 2 - x, x, w)
    half = n // 2 + 1
    add(0, 1, half, half, n / 2.0)
    add(1, 0, half, half, n / 2.0)

    return BellExpression(
        scenario,
        terms,
        classical_bound=as_classical_bound(n),
        quantum_bound=as_quantum_bound(n),
    )
