from dataclasses import replace

import numpy as np

from nonlocality_wb.hardy import Condition, HardyParadox, original_hardy, realigned_hardy
from nonlocality_wb.qubit import QubitModel
from nonlocality_wb.scenario import Behavior, BellExpression, Scenario

# Known-good optimized parameter sets (state angle, Alice angles, Bob angles)
# reaching the reference Hardy values 0.4140 and 0.7734.
REFERENCE_MODEL_2 = QubitModel(0.7968, (-0.1996, 0.5901), (0.1996, -0.5901))
REFERENCE_MODEL_4 = QubitModel(
    1.0793, (-1.5309, 1.3084, 2.1179, 0.9181), (-1.6107, -1.3084, -2.1179, -0.9181)
)

#: The n = 2 qubit maximum, from a 60-digit mpmath solve of its KKT conditions
#: (0.41398960806666891199847731...); no closed form is known.
QUBIT_VALUE_2 = 0.41398960806666891


def jet_components(problem, x: np.ndarray):
    """Hardy value and gradient, condition residuals and their gradients at
    the single vector ``x``, read off ``problem.jets``."""
    values, grads, _ = problem.jets(x[None])
    return values[0, 0], grads[0, 0], values[0, 1:] - problem.targets, grads[0, 1:]


def uniform_behavior(scenario: Scenario) -> Behavior:
    """The maximally mixed behavior ``P(ij|xy) = 1/4`` everywhere."""
    n = scenario.n_settings
    return Behavior(scenario, np.full((n, n, 2, 2), 0.25))


def all_zero_behavior(scenario: Scenario) -> Behavior:
    """Deterministic behavior with both parties always reporting outcome 0."""
    n = scenario.n_settings
    p = np.zeros((n, n, 2, 2))
    p[:, :, 0, 0] = 1.0
    return Behavior(scenario, p)


def random_behavior(scenario: Scenario, rng: np.random.Generator) -> Behavior:
    """A random normalized (generally signaling) behavior."""
    raw = rng.random((scenario.n_settings, scenario.n_settings, 2, 2))
    return Behavior(scenario, raw / raw.sum(axis=(2, 3), keepdims=True))


def merged_original_hardy(coeff: float) -> HardyParadox:
    """The original paradox with its three zero conditions folded into one,
    ``coeff * (P(00|A2B2) + P(01|A1B2) + P(10|A2B1)) = 0``."""
    base = original_hardy()
    terms = {key: coeff for expr, _ in base.conditions for key, _ in expr.items()}
    condition = Condition(BellExpression(base.scenario, terms), 0.0)
    return replace(base, paradox_id="original-merged", conditions=(condition,))


def unattainable_hardy(n: int) -> HardyParadox:
    """``realigned_hardy(n)`` with its condition pinned one above the sum of
    its coefficients' magnitudes, a value no behavior reaches."""
    base = realigned_hardy(n)
    (expr, _), = base.conditions
    target = sum(abs(c) for _, c in expr.items()) + 1.0
    return replace(base, paradox_id=f"unattainable-{n}", conditions=(Condition(expr, target),))
