"""Two-party dichotomic Bell scenarios, behaviors, and Bell expressions.

A scenario fixes ``n`` measurement settings per party (``n`` even) with two
outcomes each.  A behavior is the full table of conditional probabilities
``P(ij|xy)`` with outcomes ``i, j in {0, 1}`` and 1-based setting labels
``x`` (Alice) and ``y`` (Bob).  A Bell expression is a sparse real linear
functional over those entries.

The one expression family, ``as_inequality(n)``, is the n-setting
two-outcome family (even ``n``) built from three sums: correlated terms
``P(A_i = B_j)`` for ``j <= n - i + 1``, anti-correlated terms with weight
``i - 1`` on the anti-diagonal pairs ``(A_i, B_{n-i+2})`` and
``(A_{n+2-i}, B_i)``, and weight ``n/2`` on ``(A_{n/2+1}, B_{n/2+1})``.  Its
deterministic bound ``(n^2 + n) / 2`` is :func:`as_classical_bound` and its
quantum bound ``((n+1) sqrt(n(n+2)) / 3 + (3 n^2 + 2 n) / 4) / 2`` is
:func:`as_quantum_bound`; an expression itself carries no bounds.  At
``n = 2`` it is the eight-term CHSH functional in probability form, with
deterministic bound 3 and quantum bound ``2 + sqrt(2)``.

Index conventions: setting labels are 1-based, outcomes are ``{0, 1}``, term
keys are canonically ordered by ``(x, y, i, j)`` (also in the ``--json``
payloads), and behavior tensors are stored with axes ``(x, y, i, j)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np


class ValidationError(ValueError):
    """Inputs violate a constructor or operation contract."""


class ScenarioMismatchError(ValidationError):
    """Two objects built for different scenarios were combined."""


@dataclass(frozen=True)
class Scenario:
    """Two parties, ``n_settings`` settings each, two outcomes each."""

    n_settings: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_settings, int):
            raise ValidationError(
                f"n_settings must be an int, got {type(self.n_settings).__name__}"
            )
        if self.n_settings < 2 or self.n_settings % 2 != 0:
            raise ValidationError(
                f"n_settings must be an even integer >= 2, got {self.n_settings}"
            )


#: Largest deviation of a per-setting outcome distribution from summing to
#: one that a behavior may show.
NORMALIZATION_TOL = 1e-12
#: Most negative probability entry a behavior may hold (float rounding).
NONNEGATIVITY_TOL = 1e-12


class Behavior:
    """Conditional probability table ``P(ij|xy)`` for one scenario.

    The tensor is stored with axes ``(x, y, i, j)`` (settings 0-based
    internally) and is validated on construction: every per-setting
    distribution sums to one within ``NORMALIZATION_TOL`` and no entry is
    below ``-NONNEGATIVITY_TOL``.  Instances are immutable.
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
        if arr.min() < -NONNEGATIVITY_TOL:
            raise ValidationError(
                f"behavior has negative entry {arr.min():.3e} below tolerance"
            )
        sums = arr.sum(axis=(2, 3))
        worst = np.abs(sums - 1.0).max()
        if worst > NORMALIZATION_TOL:
            raise ValidationError(
                f"behavior normalization violated by {worst:.3e} (tolerance "
                f"{NORMALIZATION_TOL:.0e})"
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


TermKey = tuple[int, int, int, int]  # (i, j, x, y)


def check_term_key(key: TermKey, scenario: Scenario) -> None:
    """Raise ``ValidationError`` unless ``key`` is an ``(i, j, x, y)`` of four
    ints (not bools) with outcomes in ``{0, 1}`` and settings in
    ``1..n_settings``."""
    if len(key) != 4 or any(type(v) is not int for v in key):
        raise ValidationError(f"term key must be four ints (i, j, x, y), got {key!r}")
    i, j, x, y = key
    n = scenario.n_settings
    if i not in (0, 1) or j not in (0, 1):
        raise ValidationError(f"outcomes must be 0 or 1, got term key {key}")
    if not (1 <= x <= n and 1 <= y <= n):
        raise ValidationError(f"settings must lie in 1..{n}, got term key {key}")


def _canonical_sort_key(key: TermKey) -> tuple[int, int, int, int]:
    i, j, x, y = key
    return (x, y, i, j)


class BellExpression:
    """Sparse linear functional ``sum coeff * P(ij|xy)`` over one scenario.

    Terms are keyed by ``(i, j, x, y)`` with outcomes in ``{0, 1}`` and
    1-based settings.  Construction canonicalizes: duplicate keys are summed,
    exact-zero coefficients are dropped, and iteration follows the fixed
    total order ``(x, y, i, j)``.  An expression carries no bounds; those of
    :func:`as_inequality` are :func:`as_classical_bound` and
    :func:`as_quantum_bound`.
    """

    __slots__ = ("scenario", "_terms", "_order")

    def __init__(
        self,
        scenario: Scenario,
        terms: Mapping[TermKey, float] | Iterable[tuple[TermKey, float]],
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[TermKey, float] = {}
        for key, coeff in items:
            key = tuple(key)
            check_term_key(key, scenario)
            c = float(coeff)
            if not math.isfinite(c):
                raise ValidationError(f"coefficient for {key} must be finite, got {coeff}")
            acc[key] = acc.get(key, 0.0) + c
        acc = {k: v for k, v in acc.items() if v != 0.0}
        order = tuple(sorted(acc, key=_canonical_sort_key))
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "_terms", acc)
        object.__setattr__(self, "_order", order)

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
        """A copy without the given term."""
        if key not in self._terms:
            raise ValidationError(f"term {key} not present in expression")
        rest = {k: v for k, v in self._terms.items() if k != key}
        return BellExpression(self.scenario, rest)


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


def as_classical_bound(n: int) -> float:
    """Deterministic maximum ``(n^2 + n) / 2`` of :func:`as_inequality`."""
    Scenario(n)  # validates n
    return (n * n + n) / 2.0


def as_quantum_bound(n: int) -> float:
    """Quantum bound ``((n+1) sqrt(n(n+2)) / 3 + (3 n^2 + 2 n) / 4) / 2``."""
    Scenario(n)  # validates n
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

    For ``n = 2`` this is the eight-term CHSH functional in probability form.
    """
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

    return BellExpression(scenario, terms)
