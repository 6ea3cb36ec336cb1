"""Two-qubit realizations and constrained maximization of the Hardy value.

The model is a real Schmidt-form state ``psi(theta) = cos(theta)|00> +
sin(theta)|11>`` measured with reflections in the X-Z plane,

    A(a) = [[cos 2a, sin 2a], [sin 2a, -cos 2a]],

one angle per setting and party.  Outcome probabilities follow the Born rule
``P(ij|xy) = Tr[(I + (-1)^i A_x)/2 (x) (I + (-1)^j B_y)/2 rho]``, which for
this family reduces to the closed form

    P(ij|xy) = (1 + (-1)^i c2t*cos 2a_x + (-1)^j c2t*cos 2b_y
                + (-1)^(i+j) (cos 2a_x cos 2b_y + s2t*sin 2a_x sin 2b_y)) / 4

with ``c2t = cos 2*theta``, ``s2t = sin 2*theta``.  Both evaluation paths are
provided; they agree to machine precision and the explicit trace form is kept
as the verification oracle.

Maximization of a paradox's Hardy value subject to its condition equalities
uses a quadratic-penalty schedule (default 10 -> 1e6, factor 10 per stage)
with an inner quasi-Newton solve per stage and uniform multi-start over all
angles; a restart counts as converged only if every condition residual ends
within ``constraint_tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import minimize

from .hardy import HardyParadox
from .scenario import (
    SCHEMA_VERSION,
    Behavior,
    BellExpression,
    Scenario,
    ValidationError,
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
    p = _tensors_with_gradient(model.as_vector(), model.n_settings)[0]
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


def _tensors_with_gradient(vec: np.ndarray, n: int):
    """Probability tensor plus its derivatives w.r.t. (theta, alpha, beta).

    Returns ``p[x, y, i, j]``, ``dtheta[x, y, i, j]``, ``dalpha[k, y, i, j]``
    (derivative of the ``x = k`` slice w.r.t. ``alpha_k``) and
    ``dbeta[k, x, i, j]`` (derivative of the ``y = k`` slice w.r.t.
    ``beta_k``); entries off those slices vanish.
    """
    theta, alpha, beta = vec[0], vec[1 : n + 1], vec[n + 1 :]
    c2t, s2t = math.cos(2 * theta), math.sin(2 * theta)
    ca, sa = np.cos(2 * alpha), np.sin(2 * alpha)
    cb, sb = np.cos(2 * beta), np.sin(2 * beta)
    si = np.array([1.0, -1.0])
    sij = si[:, None] * si[None, :]

    corr = ca[:, None] * cb[None, :] + s2t * sa[:, None] * sb[None, :]
    p = 0.25 * (
        1.0
        + si[None, None, :, None] * (c2t * ca)[:, None, None, None]
        + si[None, None, None, :] * (c2t * cb)[None, :, None, None]
        + sij[None, None, :, :] * corr[:, :, None, None]
    )
    dcorr_dt = 2.0 * c2t * sa[:, None] * sb[None, :]
    dtheta = 0.25 * (
        si[None, None, :, None] * (-2.0 * s2t * ca)[:, None, None, None]
        + si[None, None, None, :] * (-2.0 * s2t * cb)[None, :, None, None]
        + sij[None, None, :, :] * dcorr_dt[:, :, None, None]
    )
    # d/d alpha_k of p[k, y, i, j]: d(cos 2a) = -2 sin 2a, d(sin 2a) = 2 cos 2a
    dcorr_da = (-2.0 * sa)[:, None] * cb[None, :] + s2t * (2.0 * ca)[:, None] * sb[None, :]
    dalpha = np.broadcast_to(
        0.25
        * (
            si[None, None, :, None] * (c2t * -2.0 * sa)[:, None, None, None]
            + sij[None, None, :, :] * dcorr_da[:, :, None, None]
        ),
        (n, n, 2, 2),
    )
    dcorr_db = ca[:, None] * (-2.0 * sb)[None, :] + s2t * sa[:, None] * (2.0 * cb)[None, :]
    dbeta = np.broadcast_to(
        0.25
        * (
            si[None, None, None, :] * (c2t * -2.0 * sb)[None, :, None, None]
            + sij[None, None, :, :] * dcorr_db[:, :, None, None]
        ),
        (n, n, 2, 2),
    )
    # reindex dbeta to (k = y, x, i, j)
    return p, dtheta, dalpha, np.swapaxes(dbeta, 0, 1)


class _CompiledExpression:
    """Gather arrays for fast value/gradient of one Bell expression."""

    def __init__(self, expr: BellExpression):
        keys = list(expr.items())
        self.i = np.array([k[0] for k, _ in keys], dtype=np.intp)
        self.j = np.array([k[1] for k, _ in keys], dtype=np.intp)
        self.x = np.array([k[2] - 1 for k, _ in keys], dtype=np.intp)
        self.y = np.array([k[3] - 1 for k, _ in keys], dtype=np.intp)
        self.c = np.array([v for _, v in keys])
        self.n = expr.scenario.n_settings

    def value_and_gradient(self, tensors) -> tuple[float, np.ndarray]:
        p, dtheta, dalpha, dbeta = tensors
        n = self.n
        value = float(self.c @ p[self.x, self.y, self.i, self.j])
        grad = np.zeros(1 + 2 * n)
        grad[0] = self.c @ dtheta[self.x, self.y, self.i, self.j]
        grad[1 : n + 1] = np.bincount(
            self.x, weights=self.c * dalpha[self.x, self.y, self.i, self.j], minlength=n
        )
        grad[n + 1 :] = np.bincount(
            self.y, weights=self.c * dbeta[self.y, self.x, self.i, self.j], minlength=n
        )
        return value, grad


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
        allowed = {
            "restarts",
            "seed",
            "constraint_tol",
            "penalty_start",
            "penalty_growth",
            "penalty_stages",
            "inner_iters",
        }
        unknown = set(data) - allowed
        if unknown:
            raise ValidationError(f"unknown optimizer config keys: {sorted(unknown)}")
        defaults = OptimizerConfig()
        kwargs = {k: type(getattr(defaults, k))(v) for k, v in data.items()}
        return replace(defaults, **kwargs)


@dataclass(frozen=True)
class OptimizationResult:
    model: QubitModel
    hardy_value: float
    condition_residuals: tuple[float, ...]
    restarts_used: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "optimization_result",
            "model": self.model.to_json_dict(),
            "hardy_value": self.hardy_value,
            "condition_residuals": list(self.condition_residuals),
            "restarts_used": self.restarts_used,
            "converged": self.converged,
        }


class _PenaltyProblem:
    """Hardy objective and condition residuals over the parameter vector."""

    def __init__(self, paradox: HardyParadox):
        self.n = paradox.scenario.n_settings
        hi, hj, hx, hy = paradox.hardy_term
        self.hardy = _CompiledExpression(
            BellExpression(paradox.scenario, {(hi, hj, hx, hy): 1.0})
        )
        self.conditions = [
            (_CompiledExpression(expr), target) for expr, target in paradox.conditions
        ]

    def components(self, vec: np.ndarray):
        tensors = _tensors_with_gradient(vec, self.n)
        hardy, hardy_grad = self.hardy.value_and_gradient(tensors)
        residuals, grads = [], []
        for compiled, target in self.conditions:
            value, grad = compiled.value_and_gradient(tensors)
            residuals.append(value - target)
            grads.append(grad)
        return hardy, hardy_grad, np.array(residuals), grads

    def penalized(self, vec: np.ndarray, mu: float):
        hardy, hardy_grad, residuals, grads = self.components(vec)
        value = -hardy + mu * float(residuals @ residuals)
        grad = -hardy_grad
        for r, g in zip(residuals, grads):
            grad = grad + 2.0 * mu * r * g
        return value, grad

    def residuals(self, vec: np.ndarray) -> np.ndarray:
        _, _, residuals, _ = self.components(vec)
        return residuals


# Conditions that pin a probability at zero are degenerate: the constraint
# gradient vanishes together with the constraint, so the scheduled top penalty
# leaves a one-sided residual that inflates the Hardy value by O(sqrt(resid)).
# Continuation keeps growing the penalty past the base schedule until the
# residual is within tolerance and the Hardy value has stopped drifting.
_EXTRA_PENALTY_STAGES = 10


def _polish(problem: _PenaltyProblem, x0: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    """Run the penalty schedule from one start; returns the final vector."""
    x = np.asarray(x0, dtype=float)
    mu = cfg.penalty_start

    def stage(x, mu):
        result = minimize(
            problem.penalized,
            x,
            args=(mu,),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": cfg.inner_iters, "ftol": 1e-15, "gtol": 1e-11},
        )
        return result.x

    for _ in range(cfg.penalty_stages):
        x = stage(x, mu)
        mu *= cfg.penalty_growth

    stall = min(1e-6, cfg.constraint_tol)
    drop = 0.0
    for extra in range(_EXTRA_PENALTY_STAGES):
        feasible = np.max(np.abs(problem.residuals(x)), initial=0.0) <= cfg.constraint_tol
        if feasible and (extra == 0 or drop <= stall):
            break
        x_next = stage(x, mu)
        mu *= cfg.penalty_growth
        drop = abs(problem.components(x_next)[0] - problem.components(x)[0])
        x = x_next
    return x


def _evaluate_candidate(problem, x, cfg):
    hardy, _, residuals, _ = problem.components(x)
    feasible = bool(np.max(np.abs(residuals)) <= cfg.constraint_tol) if len(residuals) else True
    return hardy, residuals, feasible


def _result_from_vector(problem, x, cfg, restarts_used, converged) -> OptimizationResult:
    hardy, residuals, _ = _evaluate_candidate(problem, x, cfg)
    return OptimizationResult(
        model=QubitModel.from_vector(x),
        hardy_value=float(hardy),
        condition_residuals=tuple(float(r) for r in residuals),
        restarts_used=restarts_used,
        converged=converged,
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
    for idx in range(cfg.restarts):  # restart order: ties keep first
        rng = np.random.default_rng((cfg.seed, idx))
        x = _polish(problem, rng.uniform(-math.pi, math.pi, size=dim), cfg)
        hardy, residuals, feasible = _evaluate_candidate(problem, x, cfg)
        infeasibility = float(np.max(np.abs(residuals), initial=0.0))
        if feasible:
            if not best_feasible or hardy > best_hardy:
                best_x, best_hardy, best_feasible = x, hardy, True
        elif not best_feasible and infeasibility < best_infeasibility:
            best_x, best_infeasibility = x, infeasibility
    return _result_from_vector(problem, best_x, cfg, cfg.restarts, best_feasible)


def refine_from(
    paradox: HardyParadox,
    start: QubitModel,
    cfg: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Local polish of a given model through the penalty schedule.

    If the starting model is already feasible, the refined model is never
    worse: should the polish end feasible with a lower Hardy value (beyond
    1e-9) or end infeasible, the start itself is returned.
    """
    cfg = cfg or OptimizerConfig.default_for(paradox)
    if start.n_settings != paradox.scenario.n_settings:
        raise ValidationError(
            f"start model has {start.n_settings} settings, paradox needs "
            f"{paradox.scenario.n_settings}"
        )
    problem = _PenaltyProblem(paradox)
    x0 = start.as_vector()
    start_hardy, _, start_feasible = _evaluate_candidate(problem, x0, cfg)
    x = _polish(problem, x0, cfg)
    hardy, _, feasible = _evaluate_candidate(problem, x, cfg)
    if start_feasible and (not feasible or hardy < start_hardy - 1e-9):
        return _result_from_vector(problem, x0, cfg, 1, start_feasible)
    return _result_from_vector(problem, x, cfg, 1, feasible)
