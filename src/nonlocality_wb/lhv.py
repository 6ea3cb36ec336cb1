"""Deterministic local strategies and exhaustive classical bounds.

A deterministic strategy assigns one fixed outcome to every setting of each
party; these are the extreme points of the local polytope, so the maximum of
a Bell expression over them is its maximum over all local models (convexity).
For ``n`` settings per party there are ``4^n`` strategies; bounds and
certificates cover all of them, for ``n <= 12``, without visiting them one by
one: for fixed outcomes of Alice a two-party expression splits over Bob's
settings, so Bob's best response is chosen setting by setting and only
Alice's ``2^n`` strategies are enumerated.  Strategies are listed in
enumeration order: lexicographic in the concatenated outcome tuple
``(a(1), ..., a(n), b(1), ..., b(n))``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .scenario import (
    SCHEMA_VERSION,
    BellExpression,
    Scenario,
    TOLERANCES,
    ValidationError,
)

if TYPE_CHECKING:
    from .hardy import HardyParadox

#: Largest setting count that bounds and certificates accept.
MAX_SETTINGS = 12


class CapacityError(ValidationError):
    """The scenario exceeds the exhaustive-enumeration limit."""


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed outcome per setting for each party.

    ``a[x - 1]`` is Alice's outcome for setting ``x``; ``b`` likewise for Bob.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.a) != len(self.b):
            raise ValidationError("strategy maps must cover the same settings")
        if not all(v in (0, 1) for v in self.a + self.b):
            raise ValidationError("strategy outcomes must be 0 or 1")

    def to_json_dict(self) -> dict:
        return {"a": list(self.a), "b": list(self.b)}


def _check_capacity(scenario: Scenario) -> None:
    if scenario.n_settings > MAX_SETTINGS:
        raise CapacityError(
            f"exhaustive enumeration is limited to n_settings <= {MAX_SETTINGS} "
            f"(4^n strategies); got n_settings = {scenario.n_settings}"
        )


def _alice_strategies(n: int) -> np.ndarray:
    """``alice[a, x]``: outcome of Alice's ``a``-th strategy for setting ``x + 1``,
    in enumeration order (setting 1 is the leading bit of ``a``)."""
    return (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def _scores(expr: BellExpression, alice: np.ndarray) -> np.ndarray:
    """``s[a, y, j] = sum_x c[a_x, j, x, y]``: the worth of Bob answering ``j``
    to setting ``y + 1`` against Alice's strategy ``a``, so that the strategy
    ``(a, b)`` is worth ``sum_y s[a, y, b_y]``."""
    n = expr.scenario.n_settings
    coeff = np.zeros((n, 2, n, 2))  # [x, i, y, j]
    for (i, j, x, y), c in expr.items():
        coeff[x - 1, i, y - 1, j] += c
    s = np.zeros((1 << n, n, 2))
    for x in range(n):
        s += coeff[x][alice[:, x]]
    return s


def _best_responses(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per Alice strategy: its best value and the mask of Bob's best answers."""
    top = s.max(axis=2)
    return top.sum(axis=1), s >= top[:, :, None] - TOLERANCES.saturation


def _strategies(a: np.ndarray, answers: np.ndarray) -> Iterator[DeterministicStrategy]:
    """Alice's strategy ``a`` against every Bob map allowed by ``answers[y, j]``,
    in lexicographic order of ``b``."""
    a = tuple(int(v) for v in a)
    for b in itertools.product(*(np.flatnonzero(row).tolist() for row in answers)):
        yield DeterministicStrategy(a, b)


def _count(answers: np.ndarray) -> int:
    """Number of strategies that pair each listed Alice strategy with a Bob map
    allowed by its ``answers[y, j]``."""
    return int(answers.sum(axis=2).prod(axis=1).sum())


class ClassicalMax:
    """Maximum ``value`` of an expression over deterministic strategies.

    ``maximizer_count`` is read off the best-response table; ``maximizers``
    lists the maximizing strategies in enumeration order, built on first
    access.
    """

    def __init__(self, value: float, alice: np.ndarray, answers: np.ndarray) -> None:
        self.value = value
        self.maximizer_count = _count(answers)
        self._alice = alice
        self._answers = answers

    @functools.cached_property
    def maximizers(self) -> tuple[DeterministicStrategy, ...]:
        return tuple(s for a, ans in zip(self._alice, self._answers) for s in _strategies(a, ans))


def classical_max(expr: BellExpression) -> ClassicalMax:
    """Maximum of ``expr`` over all deterministic strategies, with all
    maximizers (ties within ``TOLERANCES.saturation``) in enumeration order.

    For fixed Alice outcomes the expression splits over Bob's settings, so the
    maximum is ``max_a sum_y max_j s[a, y, j]`` and the maximizers are, per
    maximizing ``a``, the product of Bob's per-setting best answers.
    """
    _check_capacity(expr.scenario)
    alice = _alice_strategies(expr.scenario.n_settings)
    values, answers = _best_responses(_scores(expr, alice))
    best = values.max()
    top = values >= best - TOLERANCES.saturation
    return ClassicalMax(float(best), alice[top], answers[top])


@dataclass(frozen=True)
class SoundnessReport:
    """Outcome of the exhaustive Hardy soundness check.

    ``sound`` is true iff every deterministic strategy that saturates all
    condition targets has zero probability on the Hardy term.  Soundness over
    extreme points extends to mixtures: each condition target is the maximum
    (or minimum) of its condition, so a mixture attains it only if every
    strategy in its support does.
    """

    paradox_id: str
    n: int
    checked: int
    saturating: int
    counterexamples: tuple[DeterministicStrategy, ...]

    @property
    def sound(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "soundness_report",
            "paradox_id": self.paradox_id,
            "n": self.n,
            "checked": self.checked,
            "saturating": self.saturating,
            "counterexamples": [s.to_json_dict() for s in self.counterexamples],
            "sound": self.sound,
        }


def certify_hardy_soundness(paradox: "HardyParadox") -> SoundnessReport:
    """Check every deterministic strategy saturating the paradox conditions.

    A counterexample is a strategy whose condition values all equal their
    targets within ``TOLERANCES.saturation`` yet whose Hardy-term probability
    is 1 (deterministic behaviors only take values 0 or 1 there).

    Each target must be its condition's deterministic maximum or minimum, so
    that the saturating strategies of a condition are, per Alice strategy
    reaching the extremum, the product of Bob's per-setting best (or worst)
    answers; a target outside that range is saturated by no strategy.  A
    target strictly inside the range raises ``ValidationError``.
    """
    scenario = paradox.scenario
    _check_capacity(scenario)
    n = scenario.n_settings
    tol = TOLERANCES.saturation
    alice = _alice_strategies(n)
    allowed = np.ones(1 << n, dtype=bool)
    answers = np.ones((1 << n, n, 2), dtype=bool)
    for k, (expr, target) in enumerate(paradox.conditions):
        s = _scores(expr, alice)
        top_values, top_answers = _best_responses(s)
        low_values, low_answers = _best_responses(-s)  # values negated
        top, low = top_values.max(), s.min(axis=2).sum(axis=1).min()
        if abs(target - top) <= tol:
            allowed &= top_values >= top - tol
            answers &= top_answers
        elif abs(target - low) <= tol:
            allowed &= -low_values <= low + tol
            answers &= low_answers
        elif low < target < top:
            raise ValidationError(
                f"condition {k} target {target:g} lies strictly inside its "
                f"deterministic range [{low:g}, {top:g}]; only an extremal "
                "target defines a face of the local polytope"
            )
        else:
            allowed[:] = False

    saturating = _count(answers[allowed])
    hi, hj, hx, hy = paradox.hardy_term
    answers[:, hy - 1, 1 - hj] = False
    counterexamples: list[DeterministicStrategy] = []
    # an Alice strategy some Bob setting has no answer for yields no strategy
    nonempty = answers.any(axis=2).all(axis=1)
    for a in np.flatnonzero(allowed & nonempty & (alice[:, hx - 1] == hi)):
        counterexamples.extend(_strategies(alice[a], answers[a]))

    return SoundnessReport(
        paradox_id=paradox.paradox_id,
        n=n,
        checked=4**n,
        saturating=saturating,
        counterexamples=tuple(counterexamples),
    )
