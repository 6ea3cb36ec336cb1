"""Hardy paradoxes: the original three-condition form and realigned forms.

A paradox is plain data: condition expressions with targets, plus one
designated probability term (the Hardy value).  Local models that satisfy
every condition are forced to Hardy value zero, while entangled quantum
models reach a strictly positive value, so the same object feeds the
polytope certifier, the qubit optimizer, and the moment-matrix bound.

``original_hardy()`` is the classic two-setting paradox: three single-term
conditions pinned to zero, Hardy term ``P(00|A1B1)``, quantum maximum
``(5*sqrt(5) - 11) / 2``.

``realigned_hardy(n)`` moves the ``P(00|A1B1)`` term of the n-setting
expression out of the functional: the single condition is the remaining
terms pinned to the deterministic bound ``(n^2 + n) / 2``.  Saturating that
condition classically forces ``P(00|A1B1) = 0`` because the full expression
obeys the same bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .scenario import (
    Behavior,
    BellExpression,
    Scenario,
    ScenarioMismatchError,
    TermKey,
    ValidationError,
    as_classical_bound,
    as_inequality,
    evaluate,
)

#: Hardy values known to be reached by two-qubit models (reference metadata,
#: never used in computation).
REFERENCE_QUANTUM_VALUES = {2: 0.4140, 4: 0.7734}

ORIGINAL_HARDY_VALUE = (5.0 * math.sqrt(5.0) - 11.0) / 2.0


class Condition(NamedTuple):
    expression: BellExpression
    target: float


@dataclass(frozen=True)
class HardyParadox:
    """Condition expressions with targets plus the designated Hardy term."""

    paradox_id: str
    scenario: Scenario
    conditions: tuple[Condition, ...]
    hardy_term: TermKey
    quantum_value_reference: float | None = None

    def __post_init__(self) -> None:
        i, j, x, y = self.hardy_term
        n = self.scenario.n_settings
        if i not in (0, 1) or j not in (0, 1) or not (1 <= x <= n and 1 <= y <= n):
            raise ValidationError(f"hardy_term {self.hardy_term} is out of range")
        for expr, target in self.conditions:
            if expr.scenario != self.scenario:
                raise ScenarioMismatchError(
                    "condition expression scenario differs from paradox scenario"
                )
            if not math.isfinite(target):
                raise ValidationError("condition target must be finite")
            if expr.coefficient(*self.hardy_term) != 0.0:
                raise ValidationError(
                    "the Hardy term must not appear in any condition expression"
                )


def original_hardy() -> HardyParadox:
    """The original two-setting paradox.

    Conditions ``P(00|A2B2) = 0``, ``P(01|A1B2) = 0``, ``P(10|A2B1) = 0``;
    Hardy term ``P(00|A1B1)``; quantum maximum ``(5*sqrt(5) - 11) / 2``.
    """
    scenario = Scenario(2)
    conditions = tuple(
        Condition(BellExpression(scenario, {key: 1.0}), 0.0)
        for key in ((0, 0, 2, 2), (0, 1, 1, 2), (1, 0, 2, 1))
    )
    return HardyParadox(
        paradox_id="original",
        scenario=scenario,
        conditions=conditions,
        hardy_term=(0, 0, 1, 1),
        quantum_value_reference=ORIGINAL_HARDY_VALUE,
    )


def realigned_hardy(n: int) -> HardyParadox:
    """The single-condition paradox obtained by realigning ``as_inequality(n)``.

    The condition is the n-setting expression with its ``P(00|A1B1)`` term
    removed, pinned to the deterministic bound ``(n^2 + n) / 2``.
    """
    full = as_inequality(n)
    hardy_term: TermKey = (0, 0, 1, 1)
    condition_expr = full.drop_term(hardy_term)
    return HardyParadox(
        paradox_id=f"realigned-{n}",
        scenario=full.scenario,
        conditions=(Condition(condition_expr, as_classical_bound(n)),),
        hardy_term=hardy_term,
        quantum_value_reference=REFERENCE_QUANTUM_VALUES.get(n),
    )


def zero_sign(expr: BellExpression, target: float) -> int:
    """``+1`` or ``-1`` when ``expr = target`` forces each of its terms to zero.

    That holds when the target is 0 and every coefficient has one sign (the
    one returned): probabilities are nonnegative.  Any other condition gives 0.
    """
    signs = {math.copysign(1.0, c) for _, c in expr.items()}
    return int(signs.pop()) if target == 0.0 and len(signs) == 1 else 0


class CheckResult(NamedTuple):
    conditions_met: bool
    residuals: tuple[float, ...]
    hardy_value: float


def check(paradox: HardyParadox, behavior: Behavior, tol: float = 1e-6) -> CheckResult:
    """Evaluate condition residuals and the Hardy value on a behavior.

    ``residuals[k] = evaluate(condition_k) - target_k``; conditions are met
    iff every ``|residual| <= tol``.  The default tolerance matches the
    optimizer's constraint accuracy; use 1e-12 for deterministic behaviors,
    whose condition values are exact integers.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be positive and finite, got {tol}")
    if paradox.scenario != behavior.scenario:
        raise ScenarioMismatchError(
            f"paradox scenario {paradox.scenario} does not match behavior scenario "
            f"{behavior.scenario}"
        )
    residuals = tuple(
        evaluate(expr, behavior) - target for expr, target in paradox.conditions
    )
    met = all(abs(r) <= tol for r in residuals)
    return CheckResult(met, residuals, behavior.prob(*paradox.hardy_term))
