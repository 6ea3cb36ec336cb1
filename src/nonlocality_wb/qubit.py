"""Two-qubit realizations and constrained maximization of the Hardy value.

The model is a real Schmidt-form state ``psi(theta) = cos(theta)|00> +
sin(theta)|11>`` measured with reflections in the X-Z plane,

    A(a) = [[cos 2a, sin 2a], [sin 2a, -cos 2a]],

one angle per setting and party.  Outcome probabilities follow the Born rule
``P(ij|xy) = Tr[(I + (-1)^i A_x)/2 (x) (I + (-1)^j B_y)/2 rho]``, which for
this family reduces to the closed form

    P(ij|xy) = (1 + (-1)^i c2t*cos 2a_x + (-1)^j c2t*cos 2b_y
                + (-1)^(i+j) (cos 2a_x cos 2b_y + s2t*sin 2a_x sin 2b_y)) / 4

with ``c2t = cos 2*theta``, ``s2t = sin 2*theta``.  The closed form is written
once, per term: it evaluates any list of terms ``(i, j, x, y)`` together with
the derivatives w.r.t. theta and the two angles the term depends on.  The
behavior tensor is that list over the full grid; the explicit trace form is
kept as the verification oracle and agrees to machine precision.

Maximization of a paradox's Hardy value subject to its condition equalities
uses a quadratic-penalty schedule (default 10 -> 1e6, factor 10 per stage)
with an inner quasi-Newton solve per stage and uniform multi-start over all
angles; a restart counts as converged only if every condition residual ends
within ``constraint_tol``.  The penalty objective evaluates only the terms the
paradox touches (4 of the 16 probabilities for the original paradox).  Each
result reports how many restarts ended feasible, how many of those came
within 1e-6 of the best value, and the total objective evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import minimize

from .hardy import HardyParadox
from .scenario import (
    SCHEMA_VERSION,
    Behavior,
    Scenario,
    ValidationError,
    config_from_json_dict,
)

TWO_PI = 2.0 * math.pi


def wrap_angle(value: float) -> float:
    """Wrap to [-pi, pi); all model quantities are 2*pi-periodic."""
    return (float(value) + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class QubitModel:
    """State angle plus per-setting measurement angles for both parties."""

    theta: float
    alpha: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.alpha) != len(self.beta):
            raise ValidationError("alpha and beta must have the same length")
        object.__setattr__(self, "theta", wrap_angle(self.theta))
        object.__setattr__(self, "alpha", tuple(wrap_angle(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(wrap_angle(b) for b in self.beta))

    @property
    def n_settings(self) -> int:
        return len(self.alpha)

    def as_vector(self) -> np.ndarray:
        return np.array((self.theta, *self.alpha, *self.beta))

    @staticmethod
    def from_vector(vec: Sequence[float]) -> "QubitModel":
        vec = np.asarray(vec, dtype=float)
        n = (len(vec) - 1) // 2
        if len(vec) != 1 + 2 * n:
            raise ValidationError(f"parameter vector length {len(vec)} is not 1 + 2n")
        return QubitModel(vec[0], tuple(vec[1 : n + 1]), tuple(vec[n + 1 :]))

    def to_json_dict(self) -> dict:
        return {
            "theta": self.theta,
            "alpha": list(self.alpha),
            "beta": list(self.beta),
        }


def observable(angle: float) -> np.ndarray:
    """X-Z plane reflection with Bloch direction at angle ``2 * angle``."""
    c, s = math.cos(2.0 * angle), math.sin(2.0 * angle)
    return np.array([[c, s], [s, -c]])


def state_vector(theta: float) -> np.ndarray:
    """``cos(theta)|00> + sin(theta)|11>`` in the computational basis."""
    return np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)])


def behavior_of_model(model: QubitModel) -> Behavior:
    """Born-rule behavior of the model (closed-form evaluation)."""
    scenario = Scenario(model.n_settings)
    n = model.n_settings
    p = _full_grid(n)(model.as_vector())[0].reshape(n, n, 2, 2)
    # clip float dust so Behavior validation never trips on exact-zero entries
    p = np.clip(p, 0.0, 1.0)
    p /= p.sum(axis=(2, 3), keepdims=True)
    return Behavior(scenario, p)


def behavior_of_model_trace(model: QubitModel) -> Behavior:
    """Born-rule behavior via the explicit 4x4 trace formula (oracle path)."""
    scenario = Scenario(model.n_settings)
    n = model.n_settings
    psi = state_vector(model.theta)
    rho = np.outer(psi, psi)
    eye = np.eye(2)
    p = np.empty((n, n, 2, 2))
    for x in range(n):
        ax = observable(model.alpha[x])
        for y in range(n):
            by = observable(model.beta[y])
            for i in (0, 1):
                pa = (eye + (-1) ** i * ax) / 2.0
                for j in (0, 1):
                    pb = (eye + (-1) ** j * by) / 2.0
                    p[x, y, i, j] = np.trace(np.kron(pa, pb) @ rho)
    p = np.clip(p, 0.0, 1.0)
    p /= p.sum(axis=(2, 3), keepdims=True)
    return Behavior(scenario, p)


class _BornTerms:
    """Closed-form Born rule for a fixed list of terms ``P(i j | x y)``.

    ``x`` and ``y`` are 0-based setting indices.  A call returns, per term,
    the probability ``p`` and its derivatives ``dtheta``, ``dalpha`` (w.r.t.
    ``alpha_x``) and ``dbeta`` (w.r.t. ``beta_y``); the derivative w.r.t. any
    other angle vanishes.  Every term is computed by the same elementwise
    operations whatever else is in the list, so a term's value does not
    depend on which other terms share the call.
    """

    def __init__(self, n: int, i, j, x, y):
        self.n = n
        self.x = np.asarray(x, dtype=np.intp)
        self.y = np.asarray(y, dtype=np.intp)
        self.si = np.where(np.asarray(i) == 0, 1.0, -1.0)
        self.sj = np.where(np.asarray(j) == 0, 1.0, -1.0)
        self.sij = self.si * self.sj

    def __call__(self, vec: np.ndarray):
        n, si, sj, sij = self.n, self.si, self.sj, self.sij
        theta, alpha, beta = vec[0], vec[1 : n + 1], vec[n + 1 :]
        c2t, s2t = math.cos(2 * theta), math.sin(2 * theta)
        two_alpha, two_beta = 2 * alpha, 2 * beta
        ca, sa = np.cos(two_alpha)[self.x], np.sin(two_alpha)[self.x]
        cb, sb = np.cos(two_beta)[self.y], np.sin(two_beta)[self.y]

        # Keep the order of every operation below: the optimizer's iterates,
        # and so its reported models, depend on the last bit of these values.
        corr = ca * cb + s2t * sa * sb
        p = 0.25 * (1.0 + si * (c2t * ca) + sj * (c2t * cb) + sij * corr)
        dtheta = 0.25 * (
            si * (-2.0 * s2t * ca) + sj * (-2.0 * s2t * cb) + sij * (2.0 * c2t * sa * sb)
        )
        # d(cos 2a) = -2 sin 2a, d(sin 2a) = 2 cos 2a
        dalpha = 0.25 * (si * (c2t * -2.0 * sa) + sij * (-2.0 * sa * cb + s2t * (2.0 * ca) * sb))
        dbeta = 0.25 * (sj * (c2t * -2.0 * sb) + sij * (ca * (-2.0 * sb) + s2t * sa * (2.0 * cb)))
        return p, dtheta, dalpha, dbeta


def _full_grid(n: int) -> _BornTerms:
    """Every term of the ``(x, y, i, j)`` behavior tensor, in row-major order."""
    x, y, i, j = np.indices((n, n, 2, 2)).reshape(4, -1)
    return _BornTerms(n, i, j, x, y)


@dataclass(frozen=True)
class OptimizerConfig:
    """Penalty/multi-start settings; JSON keys mirror the field names."""

    restarts: int = 200
    seed: int = 42
    constraint_tol: float = 1e-6
    penalty_start: float = 10.0
    penalty_growth: float = 10.0
    penalty_stages: int = 6
    inner_iters: int = 150

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.penalty_stages < 1 or self.inner_iters < 1:
            raise ValidationError("restarts, penalty_stages and inner_iters must be >= 1")
        if self.constraint_tol <= 0 or self.penalty_start <= 0 or self.penalty_growth <= 1:
            raise ValidationError(
                "constraint_tol and penalty_start must be positive, penalty_growth > 1"
            )

    @staticmethod
    def default_for(paradox: HardyParadox) -> "OptimizerConfig":
        # restart budget grows with the number of free angles
        restarts = 200 if paradox.scenario.n_settings <= 2 else 500
        return OptimizerConfig(restarts=restarts)

    def to_json_dict(self) -> dict:
        return {
            "restarts": self.restarts,
            "seed": self.seed,
            "constraint_tol": self.constraint_tol,
            "penalty_start": self.penalty_start,
            "penalty_growth": self.penalty_growth,
            "penalty_stages": self.penalty_stages,
            "inner_iters": self.inner_iters,
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "OptimizerConfig":
        return config_from_json_dict(OptimizerConfig(), data, "optimizer")


@dataclass(frozen=True)
class OptimizationResult:
    model: QubitModel
    hardy_value: float
    condition_residuals: tuple[float, ...]
    restarts_used: int
    converged: bool
    feasible_restarts: int
    restarts_near_best: int
    objective_evals: int

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "optimization_result",
            "model": self.model.to_json_dict(),
            "hardy_value": self.hardy_value,
            "condition_residuals": list(self.condition_residuals),
            "restarts_used": self.restarts_used,
            "feasible_restarts": self.feasible_restarts,
            "restarts_near_best": self.restarts_near_best,
            "objective_evals": self.objective_evals,
            "converged": self.converged,
        }


class _PenaltyProblem:
    """Hardy objective and condition residuals over the parameter vector.

    The paradox is compiled once into one list of terms: the Hardy term, then
    each condition's terms in canonical order.  ``segments[s]`` holds the
    slice of that list owned by expression ``s`` and its coefficients; only
    these terms are ever evaluated.
    """

    def __init__(self, paradox: HardyParadox):
        self.n = n = paradox.scenario.n_settings
        expressions = [[(paradox.hardy_term, 1.0)]]
        expressions += [list(expr.items()) for expr, _ in paradox.conditions]
        self.targets = np.array([target for _, target in paradox.conditions])
        keys = [key for items in expressions for key, _ in items]
        i, j, x, y = np.array(keys, dtype=np.intp).T
        self.terms = _BornTerms(n, i, j, x - 1, y - 1)
        self.c = np.array([c for items in expressions for _, c in items])
        bounds = np.cumsum([0] + [len(items) for items in expressions]).tolist()
        self.segments = [
            (slice(lo, hi), self.c[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        segment = np.repeat(np.arange(len(expressions)), np.diff(bounds))
        # one bincount bin per (expression, angle) pair
        self.alpha_bins = segment * n + x - 1
        self.beta_bins = segment * n + y - 1

    def components(self, vec: np.ndarray):
        """Hardy value and gradient, condition residuals and their gradients."""
        p, dtheta, dalpha, dbeta = self.terms(vec)
        c, n, count = self.c, self.n, len(self.segments)
        values = np.empty(count)
        grads = np.empty((count, 1 + 2 * n))
        for s, (terms, coeffs) in enumerate(self.segments):
            values[s] = coeffs @ p[terms]
            grads[s, 0] = coeffs @ dtheta[terms]
        grads[:, 1 : n + 1] = np.bincount(
            self.alpha_bins, weights=c * dalpha, minlength=count * n
        ).reshape(count, n)
        grads[:, n + 1 :] = np.bincount(
            self.beta_bins, weights=c * dbeta, minlength=count * n
        ).reshape(count, n)
        return values[0], grads[0], values[1:] - self.targets, grads[1:]

    def penalized(self, vec: np.ndarray, mu: float):
        hardy, hardy_grad, residuals, grads = self.components(vec)
        value = -hardy + mu * float(residuals @ residuals)
        grad = -hardy_grad
        for r, g in zip(residuals, grads):
            grad = grad + 2.0 * mu * r * g
        return value, grad


# Conditions that pin a probability at zero are degenerate: the constraint
# gradient vanishes together with the constraint, so the scheduled top penalty
# leaves a one-sided residual that inflates the Hardy value by O(sqrt(resid)).
# Continuation keeps growing the penalty past the base schedule until the
# residual is within tolerance and the Hardy value has stopped drifting.
_EXTRA_PENALTY_STAGES = 10


def _feasible(residuals: np.ndarray, cfg: OptimizerConfig) -> bool:
    return bool(np.max(np.abs(residuals), initial=0.0) <= cfg.constraint_tol)


def _polish(problem: _PenaltyProblem, x0: np.ndarray, cfg: OptimizerConfig):
    """Run the penalty schedule from one start.

    Returns the final vector, its Hardy value and condition residuals, and
    the number of objective evaluations the inner solves made.
    """
    x = np.asarray(x0, dtype=float)
    mu = cfg.penalty_start
    evals = 0

    def stage(x, mu):
        nonlocal evals
        result = minimize(
            problem.penalized,
            x,
            args=(mu,),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": cfg.inner_iters, "ftol": 1e-15, "gtol": 1e-11},
        )
        evals += result.nfev
        return result.x

    for _ in range(cfg.penalty_stages):
        x = stage(x, mu)
        mu *= cfg.penalty_growth

    stall = min(1e-6, cfg.constraint_tol)
    drop = 0.0
    hardy, _, residuals, _ = problem.components(x)
    for extra in range(_EXTRA_PENALTY_STAGES):
        if _feasible(residuals, cfg) and (extra == 0 or drop <= stall):
            break
        x = stage(x, mu)
        mu *= cfg.penalty_growth
        hardy_next, _, residuals, _ = problem.components(x)
        drop = abs(hardy_next - hardy)
        hardy = hardy_next
    return x, hardy, residuals, evals


#: A feasible restart counts as reaching the best value within this distance.
_NEAR_BEST_TOL = 1e-6


def _result_from_vector(problem, x, outcomes, objective_evals, converged) -> OptimizationResult:
    """Result for the vector ``x``; ``outcomes`` holds (Hardy value, feasible)
    of every restart that was run."""
    hardy, _, residuals, _ = problem.components(x)
    feasible = [value for value, ok in outcomes if ok]
    return OptimizationResult(
        model=QubitModel.from_vector(x),
        hardy_value=float(hardy),
        condition_residuals=tuple(float(r) for r in residuals),
        restarts_used=len(outcomes),
        converged=converged,
        feasible_restarts=len(feasible),
        restarts_near_best=sum(int(hardy - value <= _NEAR_BEST_TOL) for value in feasible),
        objective_evals=objective_evals,
    )


def maximize_hardy(
    paradox: HardyParadox,
    cfg: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Maximize the Hardy value over qubit models meeting the conditions.

    Multi-start quadratic-penalty search: every restart draws all angles
    uniformly from [-pi, pi) out of its own ``(seed, restart index)`` stream,
    runs the full penalty schedule, and is kept only if all condition
    residuals end within ``cfg.constraint_tol``.  The best feasible restart
    (ties broken by lowest restart index) is returned; if none is feasible
    the result carries ``converged=False`` and the least-infeasible model.
    """
    cfg = cfg or OptimizerConfig.default_for(paradox)
    problem = _PenaltyProblem(paradox)
    dim = 1 + 2 * problem.n

    best_x, best_hardy, best_feasible = None, -np.inf, False
    best_infeasibility = np.inf
    outcomes, evals = [], 0
    for idx in range(cfg.restarts):  # restart order: ties keep first
        rng = np.random.default_rng((cfg.seed, idx))
        x, hardy, residuals, restart_evals = _polish(
            problem, rng.uniform(-math.pi, math.pi, size=dim), cfg
        )
        infeasibility = float(np.max(np.abs(residuals), initial=0.0))
        feasible = infeasibility <= cfg.constraint_tol
        outcomes.append((hardy, feasible))
        evals += restart_evals
        if feasible:
            if not best_feasible or hardy > best_hardy:
                best_x, best_hardy, best_feasible = x, hardy, True
        elif not best_feasible and infeasibility < best_infeasibility:
            best_x, best_infeasibility = x, infeasibility
    return _result_from_vector(problem, best_x, outcomes, evals, best_feasible)


def refine_from(
    paradox: HardyParadox,
    start: QubitModel,
    cfg: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Local polish of a given model through the penalty schedule.

    If the starting model is already feasible, the refined model is never
    worse: should the polish end feasible with a lower Hardy value (beyond
    1e-9) or end infeasible, the start itself is returned.  The restart
    statistics describe the single polish.
    """
    cfg = cfg or OptimizerConfig.default_for(paradox)
    if start.n_settings != paradox.scenario.n_settings:
        raise ValidationError(
            f"start model has {start.n_settings} settings, paradox needs "
            f"{paradox.scenario.n_settings}"
        )
    problem = _PenaltyProblem(paradox)
    x0 = start.as_vector()
    start_hardy, _, start_residuals, _ = problem.components(x0)
    start_feasible = _feasible(start_residuals, cfg)
    x, hardy, residuals, evals = _polish(problem, x0, cfg)
    feasible = _feasible(residuals, cfg)
    outcomes = [(hardy, feasible)]
    if start_feasible and (not feasible or hardy < start_hardy - 1e-9):
        return _result_from_vector(problem, x0, outcomes, evals, start_feasible)
    return _result_from_vector(problem, x, outcomes, evals, feasible)
