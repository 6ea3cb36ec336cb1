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
the first and, on request, second derivatives w.r.t. theta and the two angles
the term depends on, at one parameter vector or at a stack of them.  The
behavior tensor is that list over the full grid.  The explicit trace form,
the tests' oracle, agrees with it to machine precision.

Maximization of a paradox's Hardy value subject to its condition equalities
uses a fixed penalty schedule (10 -> 1e6, factor 10 per stage) and uniform
multi-start over all angles.  The penalty of a condition that forces its terms
to zero (``hardy.zero_sign``) is ``mu`` times its signed value, a sum of
squared amplitudes; any other condition's is ``mu`` times its squared
residual.  One batched screen advances every restart at once as one
``(restarts, 1 + 2n)`` array of damped Newton steps
with analytic Hessians; each row stops on its own, so a restart's outcome
does not depend on the others.  The best feasible row is the result.  A
restart counts as feasible only if every condition residual ends within
``constraint_tol``.  The penalty objective evaluates only the terms the
paradox touches (4 of the 16 probabilities for the original paradox).  Each
result reports how many restarts ended feasible, how many of those came
within 1e-6 of the best value, and the objective evaluations made (one per
row evaluated, speculative line-search trials included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hardy import HardyParadox, zero_sign
from .scenario import SCHEMA_VERSION, Behavior, Scenario, ValidationError

TWO_PI = 2.0 * math.pi


def __getattr__(name: str):
    # ``minimize`` is not called here, but the benchmark's tracer
    # (perfbench/tracer.py) patches ``qubit.minimize`` by name and fails if the
    # attribute is missing; importing it on first access keeps scipy out of a
    # plain import of the package, as ``npa`` and ``sdp`` import it only to
    # solve.
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def behavior_of_model(model: QubitModel) -> Behavior:
    """Born-rule behavior of the model (closed-form evaluation)."""
    scenario = Scenario(model.n_settings)
    n = model.n_settings
    p = _full_grid(n).probabilities(model.as_vector()).reshape(n, n, 2, 2)
    # clip float dust so Behavior validation never trips on exact-zero entries
    p = np.clip(p, 0.0, 1.0)
    p /= p.sum(axis=(2, 3), keepdims=True)
    return Behavior(scenario, p)


class _BornTerms:
    """Closed-form Born rule for a fixed list of terms ``P(i j | x y)``.

    ``x`` and ``y`` are 0-based setting indices.  A call on a parameter
    vector, or on an ``(R, 1 + 2n)`` stack of them, returns per term (along
    the last axis) the probability ``p`` and its derivatives ``dtheta``,
    ``dalpha`` (w.r.t. ``alpha_x``) and ``dbeta`` (w.r.t. ``beta_y``); the
    derivative w.r.t. any other angle vanishes.  With ``hessian=True`` it also
    returns the second derivatives over (theta, alpha_x, beta_y): ``d2tt``,
    ``d2ta``, ``d2tb``, ``d2aa``, ``d2ab`` and ``d2bb``; ``probabilities``
    returns ``p`` alone.  Every term and every
    row is computed by the same elementwise operations whatever else is in
    the call, so a value does not depend on which other terms or rows share
    the call.
    """

    def __init__(self, n: int, i, j, x, y):
        self.n = n
        self.x = np.asarray(x, dtype=np.intp)
        self.y = np.asarray(y, dtype=np.intp)
        self.si = np.where(np.asarray(i) == 0, 1.0, -1.0)
        self.sj = np.where(np.asarray(j) == 0, 1.0, -1.0)
        self.sij = self.si * self.sj

    def probabilities(self, vec: np.ndarray) -> np.ndarray:
        """The ``p`` of ``self(vec)`` alone, by the same operations."""
        return self._probabilities(vec)[0]

    def _probabilities(self, vec: np.ndarray):
        """``p`` and what its derivatives reuse: the correlator term and the
        cosines and sines of 2*theta and of each term's 2*alpha_x, 2*beta_y."""
        n, si, sj, sij = self.n, self.si, self.sj, self.sij
        theta, alpha, beta = vec[..., :1], vec[..., 1 : n + 1], vec[..., n + 1 :]
        two_theta = 2 * theta
        c2t, s2t = np.cos(two_theta), np.sin(two_theta)
        two_alpha, two_beta = 2 * alpha, 2 * beta
        ca, sa = np.cos(two_alpha)[..., self.x], np.sin(two_alpha)[..., self.x]
        cb, sb = np.cos(two_beta)[..., self.y], np.sin(two_beta)[..., self.y]

        # Keep the order of every operation here and in __call__: the
        # optimizer's iterates, and so its reported models, depend on the
        # last bit of these values.
        corr = ca * cb + s2t * sa * sb
        p = 0.25 * (1.0 + si * (c2t * ca) + sj * (c2t * cb) + sij * corr)
        return p, corr, c2t, s2t, ca, sa, cb, sb

    def __call__(self, vec: np.ndarray, hessian: bool = False):
        si, sj, sij = self.si, self.sj, self.sij
        p, corr, c2t, s2t, ca, sa, cb, sb = self._probabilities(vec)
        dtheta = 0.25 * (
            si * (-2.0 * s2t * ca) + sj * (-2.0 * s2t * cb) + sij * (2.0 * c2t * sa * sb)
        )
        # d(cos 2a) = -2 sin 2a, d(sin 2a) = 2 cos 2a
        dalpha = 0.25 * (si * (c2t * -2.0 * sa) + sij * (-2.0 * sa * cb + s2t * (2.0 * ca) * sb))
        dbeta = 0.25 * (sj * (c2t * -2.0 * sb) + sij * (ca * (-2.0 * sb) + s2t * sa * (2.0 * cb)))
        if not hessian:
            return p, dtheta, dalpha, dbeta
        d2tt = -(si * (c2t * ca) + sj * (c2t * cb) + sij * (s2t * sa * sb))
        d2ta = si * (s2t * sa) + sij * (c2t * ca * sb)
        d2tb = sj * (s2t * sb) + sij * (c2t * sa * cb)
        d2aa = -(si * (c2t * ca) + sij * corr)
        d2ab = sij * (sa * sb + s2t * ca * cb)
        d2bb = -(sj * (c2t * cb) + sij * corr)
        return p, dtheta, dalpha, dbeta, d2tt, d2ta, d2tb, d2aa, d2ab, d2bb


def _full_grid(n: int) -> _BornTerms:
    """Every term of the ``(x, y, i, j)`` behavior tensor, in row-major order."""
    x, y, i, j = np.indices((n, n, 2, 2)).reshape(4, -1)
    return _BornTerms(n, i, j, x, y)


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start settings: the number of restarts, the seed of their start
    points, and the largest condition residual a feasible restart may end
    with.  The penalty schedule is fixed (``_PENALTY_START`` and the
    constants next to it)."""

    restarts: int = 200
    seed: int = 42
    constraint_tol: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("restarts", "seed"):
            value = getattr(self, name)
            # bool is an int subclass, but True is not a count
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if not (math.isfinite(self.constraint_tol) and self.constraint_tol > 0):
            raise ValidationError(
                f"constraint_tol must be finite and positive, got {self.constraint_tol}"
            )

    @staticmethod
    def default_for(paradox: HardyParadox) -> "OptimizerConfig":
        # restart budget grows with the number of free angles
        restarts = 200 if paradox.scenario.n_settings <= 2 else 500
        return OptimizerConfig(restarts=restarts)


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
    each condition's terms in canonical order, with one coefficient per term;
    only these terms are ever evaluated.
    """

    def __init__(self, paradox: HardyParadox):
        self.n = n = paradox.scenario.n_settings
        expressions = [[(paradox.hardy_term, 1.0)]]
        expressions += [list(expr.items()) for expr, _ in paradox.conditions]
        self.targets = np.array([target for _, target in paradox.conditions])
        self.signs = [zero_sign(expr, target) for expr, target in paradox.conditions]
        keys = [key for items in expressions for key, _ in items]
        i, j, x, y = np.array(keys, dtype=np.intp).T
        self.terms = _BornTerms(n, i, j, x - 1, y - 1)
        self.c = np.array([c for items in expressions for _, c in items])
        self.segment = segment = np.repeat(
            np.arange(len(expressions)), [len(items) for items in expressions]
        )
        # a term's jet (value, gradient, Hessian over its angles u) goes to the
        # bins of its expression's jet (value, gradient, Hessian over all angles)
        d = 1 + 2 * n
        width = 1 + d + d * d
        self.jet_size = len(expressions) * width
        u = np.stack((np.zeros_like(x), x, n + y), axis=1)
        hess_bins = 1 + d + u[:, :, None] * d + u[:, None, :]
        self.jet_bins = segment[:, None] * width + np.concatenate(
            (np.zeros((len(x), 1), dtype=np.intp), 1 + u, hess_bins.reshape(-1, 9)), axis=1
        )

    def jets(self, X: np.ndarray):
        """Values, gradients and Hessians of every expression at each row of X.

        Returns arrays of shape ``(R, E)``, ``(R, E, d)`` and ``(R, E, d, d)``
        for the ``E`` expressions (the Hardy term first, then each condition
        without its target).  One ``bincount`` scatter-adds each term's jet
        into its expression's in term order, so a row's jets depend on that
        row alone.
        """
        p, dt, da, db, tt, ta, tb, aa, ab, bb = self.terms(X, hessian=True)
        parts = np.stack((p, dt, da, db, tt, ta, tb, ta, aa, ab, tb, ab, bb), axis=-1)
        rows, size, d = len(X), self.jet_size, 1 + 2 * self.n
        index = np.arange(rows)[:, None, None] * size + self.jet_bins
        flat = np.bincount(
            index.ravel(), weights=(parts * self.c[:, None]).ravel(), minlength=rows * size
        ).reshape(rows, 1 + len(self.targets), -1)
        return flat[..., 0], flat[..., 1 : 1 + d], flat[..., 1 + d :].reshape(rows, -1, d, d)

    def values(self, X: np.ndarray) -> np.ndarray:
        """Value of every expression at each row of X, shape ``(R, E)``.

        Bitwise equal to ``jets(X)[0]``: the same terms, weighted by the same
        coefficients, are added into each expression in the same term order.
        """
        p = self.terms.probabilities(X)
        rows, width = len(X), 1 + len(self.targets)
        index = np.arange(rows)[:, None] * width + self.segment
        return np.bincount(
            index.ravel(), weights=(p * self.c).ravel(), minlength=rows * width
        ).reshape(rows, width)


#: A feasible restart counts as reaching the best value within this distance.
_NEAR_BEST_TOL = 1e-6


# The penalty schedule: _PENALTY_STAGES stages, the first at mu =
# _PENALTY_START, each next one at _PENALTY_GROWTH times the last (10 -> 1e6).
_PENALTY_START = 10.0
_PENALTY_GROWTH = 10.0
_PENALTY_STAGES = 6

# The batched Newton screen.  A row's stage ends when its Newton decrement or
# its accepted decrease is at most _FTOL * max(|f|, 1), when its line search
# fails, or after _INNER_ITERS iterations.  Hessian eigenvalues are replaced by
# max(|lambda|, _EIG_FLOOR), so every step descends, also near saddles; a step
# moves no angle by more than _MAX_STEP radians, and the Armijo line search
# tries the step lengths t = 2**-k for k < _BACKTRACKS, one call per group of
# _HALVINGS for every row still searching: t = 1 with full jets, the other
# groups values only.  These speculative trials count as objective
# evaluations, also those past a row's accepted step.  Splitting k >= 1 at
# k = 4 keeps rows that accept at t = 1/2 .. 1/8 from paying for 26 more
# trials; one call for k = 1 .. 29 was slower on optimize 4 and 6.
_INNER_ITERS = 150
_FTOL = 1e-15
_EIG_FLOOR = 1e-8
_MAX_STEP = 1.0
_ARMIJO = 1e-4
_BACKTRACKS = 30
_HALVINGS = (range(1), range(1, 4), range(4, _BACKTRACKS))


def _penalty_value(values: np.ndarray, problem: _PenaltyProblem, mu: float) -> np.ndarray:
    """Penalty per row from the expression values alone: the value that
    ``_penalty`` returns with the gradient and Hessian."""
    f = -values[:, 0]
    for k, (target, sign) in enumerate(zip(problem.targets, problem.signs), start=1):
        r = values[:, k] - target
        f = f + (mu * sign) * r if sign else f + mu * (r * r)
    return f


def _penalty(jets, problem: _PenaltyProblem, mu: float):
    """Penalty value, gradient and Hessian per row from the expression jets:
    ``mu * sign * value`` for a condition that forces its terms to zero, whose
    amplitudes' gradients do not vanish there, else ``mu * r**2``."""
    values, grads, hess = jets
    g, h = -grads[:, 0], -hess[:, 0]
    for k, (target, sign) in enumerate(zip(problem.targets, problem.signs), start=1):
        r, gk = values[:, k] - target, grads[:, k]
        if sign:
            g = g + (mu * sign) * gk
            h = h + (mu * sign) * hess[:, k]
            continue
        g = g + (2.0 * mu * r)[:, None] * gk
        h = h + 2.0 * mu * (gk[:, :, None] * gk[:, None, :] + r[:, None, None] * hess[:, k])
    return _penalty_value(values, problem, mu), g, h


def _newton_step(problem, jets, active, mu: float):
    """Penalty value, damped Newton step and its directional derivative at
    the rows ``active`` whose penalty Hessian is finite; returns those rows
    with the three.  The Hessians and eigenvectors are freed on return,
    before the line search evaluates its trials."""
    f, g, h = _penalty(tuple(a[active] for a in jets), problem, mu)
    # a penalty that overflowed leaves its row where it is
    finite = np.isfinite(h).all(axis=(1, 2))
    active, f, g, h = active[finite], f[finite], g[finite], h[finite]
    w, V = np.linalg.eigh(h)
    b = (g[:, None, :] @ V)[:, 0]
    coef = b / np.maximum(np.abs(w), _EIG_FLOOR)
    step = -(V @ coef[:, :, None])[..., 0]
    shrink = _MAX_STEP / np.maximum(np.abs(step).max(axis=1), _MAX_STEP)
    step *= shrink[:, None]
    slope = -shrink * (b * coef).sum(axis=1)
    return active, f, step, slope


def _line_search(problem, X, jets, active, f, step, slope, mu: float):
    """Move each row of ``active`` to its first step length ``2**-k`` that
    passes the Armijo test, in place, keeping ``jets`` up to date.

    The trials of every row still searching are made in one call per group
    of ``_HALVINGS``; a row accepts the same step a sequential backtracking
    search would, since every trial is computed by the same operations
    whatever other trials share its call.  Returns the penalty after the
    step (``f`` where none was accepted) and the row evaluations made.
    """
    evals, f_new, moved = 0, f.copy(), active[:0]
    pending = np.flatnonzero(-slope > _FTOL * np.maximum(np.abs(f), 1.0))
    for halvings in _HALVINGS:
        if not len(pending):
            break
        t = np.ldexp(1.0, -np.array(halvings))
        idx = active[pending]
        trial = X[idx, None] + t[:, None] * step[pending, None]
        flat = trial.reshape(-1, trial.shape[-1])
        with_jets = halvings[0] == 0  # t = 1: rows that accept keep these jets
        if with_jets:
            trial_jets = problem.jets(flat)
            values = trial_jets[0]
        else:
            values = problem.values(flat)
        f_trial = _penalty_value(values, problem, mu).reshape(len(idx), len(t))
        evals += f_trial.size
        ok = f_trial <= f[pending, None] + _ARMIJO * t * slope[pending, None]
        hit = ok.any(axis=1)
        first = ok[hit].argmax(axis=1)
        X[idx[hit]] = trial[hit, first]
        f_new[pending[hit]] = f_trial[hit, first]
        if with_jets:
            for array, new in zip(jets, trial_jets):
                array[idx[hit]] = new[hit]
        else:
            moved = np.concatenate((moved, idx[hit]))
        pending = pending[~hit]
    # the jets of every row that accepted a shorter step, in one call
    if len(moved):
        for array, new in zip(jets, problem.jets(X[moved])):
            array[moved] = new
        evals += len(moved)
    return f_new, evals


def _newton_stage(problem, X, jets, rows, mu: float) -> int:
    """Minimize the penalty at ``mu`` from the rows ``rows`` of ``X``, in place.

    ``jets`` holds the expression jets at every row of ``X`` and is kept up
    to date.  Every operation acts on each row alone, so a row's iterates do
    not depend on which other rows are still active.  Returns the number of
    row evaluations made, speculative line-search trials included.
    """
    evals, active = 0, rows
    for _ in range(_INNER_ITERS):
        if not len(active):
            break
        active, f, step, slope = _newton_step(problem, jets, active, mu)
        f_new, trials = _line_search(problem, X, jets, active, f, step, slope, mu)
        evals += trials
        scale = np.maximum(np.maximum(np.abs(f), np.abs(f_new)), 1.0)
        active = active[f - f_new > _FTOL * scale]
    return evals


def _screen(problem: _PenaltyProblem, X: np.ndarray):
    """Run the penalty schedule from every row of ``X`` at once, in place;
    returns the rows' Hardy values, condition residuals and evaluations made."""
    jets = problem.jets(X)
    evals = len(X)
    rows = np.arange(len(X))
    mu = _PENALTY_START
    for _ in range(_PENALTY_STAGES):
        evals += _newton_stage(problem, X, jets, rows, mu)
        mu *= _PENALTY_GROWTH
    return jets[0][:, 0], jets[0][:, 1:] - problem.targets, evals


def _starts(cfg: OptimizerConfig, dim: int) -> np.ndarray:
    """One row per restart, drawn uniformly from [-pi, pi) out of the
    restart's own ``(seed, restart index)`` stream."""
    return np.array(
        [
            np.random.default_rng((cfg.seed, idx)).uniform(-math.pi, math.pi, size=dim)
            for idx in range(cfg.restarts)
        ]
    )


def maximize_hardy(
    paradox: HardyParadox,
    cfg: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Maximize the Hardy value over qubit models meeting the conditions.

    Multi-start penalty search: every restart draws all angles
    uniformly from [-pi, pi) out of its own ``(seed, restart index)`` stream,
    and all restarts run the penalty schedule together, one
    ``(restarts, 1 + 2n)`` array of damped Newton steps; a restart's outcome
    does not depend on the others.  A restart is feasible if all its condition residuals end
    within ``cfg.constraint_tol``.  The result is the best feasible restart
    (ties broken by lowest restart index), or the least-infeasible one if
    none is feasible; ``converged`` says whether it is feasible.
    ``restarts_near_best`` counts feasible restarts within 1e-6 of its value.
    """
    cfg = cfg or OptimizerConfig.default_for(paradox)
    problem = _PenaltyProblem(paradox)
    X = _starts(cfg, 1 + 2 * problem.n)
    hardy, residuals, evals = _screen(problem, X)
    infeasibility = np.abs(residuals).max(axis=1, initial=0.0)
    feasible = infeasibility <= cfg.constraint_tol
    if feasible.any():  # argmax/argmin keep the lowest index on ties
        best = int(np.argmax(np.where(feasible, hardy, -np.inf)))
    else:
        best = int(np.argmin(infeasibility))
    near_best = feasible & (hardy[best] - hardy <= _NEAR_BEST_TOL)
    return OptimizationResult(
        model=QubitModel.from_vector(X[best]),
        hardy_value=float(hardy[best]),
        condition_residuals=tuple(float(r) for r in residuals[best]),
        restarts_used=len(X),
        converged=bool(feasible[best]),
        feasible_restarts=int(feasible.sum()),
        restarts_near_best=int(near_best.sum()),
        objective_evals=evals,
    )
