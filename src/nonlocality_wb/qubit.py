"""Two-qubit realizations and constrained maximization of the Hardy value.

The model is a real Schmidt-form state ``psi(theta) = cos(theta)|00> +
sin(theta)|11>`` measured with reflections in the X-Z plane,

    A(a) = [[cos 2a, sin 2a], [sin 2a, -cos 2a]],

one angle per setting and party.  The eigenvectors of ``A(a)`` are
``u_0(a) = (cos a, sin a)`` for outcome 0 and ``u_1(a) = (-sin a, cos a)`` for
outcome 1, so the amplitude of outcome ``(i, j)`` at settings ``(x, y)`` is

    amp(ij|xy) = <u_i(a_x) v_j(b_y)|psi>
               = cos(theta) u_i(a_x)_0 v_j(b_y)_0 + sin(theta) u_i(a_x)_1 v_j(b_y)_1

with ``v_j`` the same vectors at Bob's angles, and the Born rule gives
``P(ij|xy) = amp(ij|xy)**2``, which is never negative.  The amplitude is the
one closed form, written once, per term: it evaluates any list of terms
``(i, j, x, y)`` together with its first and second derivatives w.r.t. theta
and the two angles the term depends on, at one parameter vector or at a stack
of them, and the probabilities and their derivatives follow from it by the
chain rule.  The behavior tensor is that list over the full grid.  The
explicit trace form, the tests' oracle, agrees with it to machine precision.

Maximization of a paradox's Hardy value subject to its condition equalities
uses uniform multi-start over all angles, one penalty stage at ``mu = 10``
and a KKT Newton finish.  The penalty of a condition that forces its terms
to zero (``hardy.zero_sign``) is ``mu`` times its signed value, a sum of
squared amplitudes; any other condition's is ``mu`` times its squared
residual.  One batched screen advances every restart at once as one
``(restarts, 1 + 2n)`` array of damped Newton steps with analytic Hessians.
The finish then takes full Newton steps on each row's first-order
conditions, with each forced term's amplitude, and each other condition's
residual, as an equality constraint, until they hold to ``_KKT_TOL``; a row
it does not finish keeps its screened point.  Each row stops on its own, so
a restart's outcome does not depend on the others.  The best feasible row
is the result.  A restart counts as feasible only if every condition
residual ends within ``constraint_tol``.  The objective evaluates only the
terms the paradox touches (4 of the 16 probabilities for the original
paradox).  Each result reports how many restarts ended feasible, how many
of those came within 1e-6 of the best value, and the objective evaluations
made (one per row evaluated by the stage or the finish, speculative
line-search trials included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hardy import HardyParadox, zero_sign
from .scenario import Behavior, Scenario, ValidationError

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


def behavior_of_model(model: QubitModel) -> Behavior:
    """Born-rule behavior of the model: each entry is the square of its
    term's amplitude, so none is negative, and each distribution sums to one
    up to rounding."""
    n = model.n_settings
    p = _full_grid(n).probabilities(model.as_vector()).reshape(n, n, 2, 2)
    return Behavior(Scenario(n), p)


class _BornTerms:
    """Closed-form Born rule for a fixed list of terms ``P(i j | x y)``.

    ``x`` and ``y`` are 0-based setting indices.  ``amplitudes`` returns,
    per term (along the last axis), the amplitude ``A`` at a parameter vector
    or at each row of an ``(R, 1 + 2n)`` stack of them, its derivatives
    ``dtheta``, ``dalpha`` (w.r.t. ``alpha_x``) and ``dbeta`` (w.r.t.
    ``beta_y``), and its second derivatives over (theta, alpha_x, beta_y):
    ``d2tt``, ``d2ta``, ``d2tb``, ``d2aa``, ``d2ab`` and ``d2bb``; the
    derivative w.r.t. any other angle vanishes.  A call returns the same jet
    of the probability ``p = A**2`` by the chain rule, and ``probabilities``
    ``p`` alone.  Every term and every row is computed by the same
    elementwise operations whatever else is in the call, so a value does not
    depend on which other terms or rows share the call.
    """

    def __init__(self, n: int, i, j, x, y):
        self.n = n
        self.x = np.asarray(x, dtype=np.intp)
        self.y = np.asarray(y, dtype=np.intp)
        self.i0 = np.asarray(i) == 0
        self.j0 = np.asarray(j) == 0

    def _amplitude(self, vec: np.ndarray):
        """``A`` and what its derivatives reuse: cos and sin of theta, and
        the components of ``u_i(alpha_x)`` and ``v_j(beta_y)``."""
        n = self.n
        theta, alpha, beta = vec[..., :1], vec[..., 1 : n + 1], vec[..., n + 1 :]
        ct, st = np.cos(theta), np.sin(theta)
        ca, sa = np.cos(alpha)[..., self.x], np.sin(alpha)[..., self.x]
        cb, sb = np.cos(beta)[..., self.y], np.sin(beta)[..., self.y]
        u0, u1 = np.where(self.i0, ca, -sa), np.where(self.i0, sa, ca)
        v0, v1 = np.where(self.j0, cb, -sb), np.where(self.j0, sb, cb)
        return ct * u0 * v0 + st * u1 * v1, ct, st, u0, u1, v0, v1

    def probabilities(self, vec: np.ndarray) -> np.ndarray:
        """The ``p`` of ``self(vec)`` alone, by the same operations."""
        amp = self._amplitude(vec)[0]
        return amp * amp

    def amplitudes(self, vec: np.ndarray):
        """Amplitude ``A = <u_i(alpha_x) v_j(beta_y)|psi>`` of each term and
        its derivatives.  Unlike ``p``, ``A`` has a nonzero gradient where it
        vanishes."""
        amp, ct, st, u0, u1, v0, v1 = self._amplitude(vec)
        # d/da turns (u_0, u_1) into (-u_1, u_0), and likewise for v
        dtheta = -st * u0 * v0 + ct * u1 * v1
        dalpha = -ct * u1 * v0 + st * u0 * v1
        dbeta = -ct * u0 * v1 + st * u1 * v0
        d2ta = st * u1 * v0 + ct * u0 * v1
        d2tb = st * u0 * v1 + ct * u1 * v0
        d2ab = ct * u1 * v1 + st * u0 * v0
        return amp, dtheta, dalpha, dbeta, -amp, d2ta, d2tb, -amp, d2ab, -amp

    def __call__(self, vec: np.ndarray):
        """``p = A**2`` with its derivatives in the order of ``amplitudes``:
        ``2 A dA`` and ``2 (dA dA^T + A d2A)``, where ``d2A`` has ``-A`` on
        its diagonal."""
        amp, at, aa, ab, _, ata, atb, _, aab, _ = self.amplitudes(vec)
        # Keep the order of every operation here and in _amplitude: the
        # optimizer's iterates, and so its reported models, depend on the
        # last bit of these values.
        p = amp * amp
        return (
            p, 2.0 * amp * at, 2.0 * amp * aa, 2.0 * amp * ab,
            2.0 * (at * at - p), 2.0 * (at * aa + amp * ata), 2.0 * (at * ab + amp * atb),
            2.0 * (aa * aa - p), 2.0 * (aa * ab + amp * aab), 2.0 * (ab * ab - p),
        )


def _full_grid(n: int) -> _BornTerms:
    """Every term of the ``(x, y, i, j)`` behavior tensor, in row-major order."""
    x, y, i, j = np.indices((n, n, 2, 2)).reshape(4, -1)
    return _BornTerms(n, i, j, x, y)


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start settings: the number of restarts, the seed of their start
    points, and the largest condition residual a feasible restart may end
    with.  The penalty stage and the KKT finish are fixed (``_PENALTY_MU``,
    ``_KKT_ITERS`` and the constants next to them)."""

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
        return OptimizerConfig.for_settings(paradox.scenario.n_settings)

    @staticmethod
    def for_settings(n: int) -> "OptimizerConfig":
        # restart budget grows with the number of free angles
        return OptimizerConfig(restarts=200 if n <= 2 else 500)


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
        # The KKT finish's equality constraints: each term of a condition that
        # forces its terms to zero as its amplitude, whose gradient does not
        # vanish there as the probability's does, and any other condition as
        # its value minus its target.  Dependent constraints would make every
        # row's KKT matrix singular, so each forced term is kept once, and any
        # other condition only if its coefficients raise the rank of those of
        # the forced terms and of the conditions kept before it (a repeat, a
        # scaled copy or a combination of forced terms does not).
        forced = sorted({
            key
            for (expr, _), sign in zip(paradox.conditions, self.signs)
            if sign
            for key, _ in expr.items()
        })
        column = {key: k for k, key in enumerate(dict.fromkeys(keys))}
        plain, kept = [], [np.eye(len(column))[column[key]] for key in forced]
        for k, ((expr, _), sign) in enumerate(zip(paradox.conditions, self.signs), start=1):
            if sign:
                continue
            coefficients = np.zeros(len(column))
            for key, c in expr.items():
                coefficients[column[key]] = c
            if np.linalg.matrix_rank(np.array(kept + [coefficients])) > len(kept):
                kept.append(coefficients)
                plain.append(k)
        self.plain = np.array(plain, dtype=np.intp)
        # each forced term's amplitude is read at its first position in terms
        self.forced = np.array([keys.index(key) for key in forced], dtype=np.intp)
        self.forced_u = u[self.forced]

    def jets(self, X: np.ndarray):
        """Values, gradients and Hessians of every expression at each row of X.

        Returns arrays of shape ``(R, E)``, ``(R, E, d)`` and ``(R, E, d, d)``
        for the ``E`` expressions (the Hardy term first, then each condition
        without its target).  One ``bincount`` scatter-adds each term's jet
        into its expression's in term order, so a row's jets depend on that
        row alone.
        """
        p, dt, da, db, tt, ta, tb, aa, ab, bb = self.terms(X)
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
        More than ``_VALUE_ROWS`` rows are taken that many at a time, so the
        about ten ``(rows, terms)`` temporaries of a call do not grow past it.
        """
        if len(X) > _VALUE_ROWS:
            starts = range(0, len(X), _VALUE_ROWS)
            return np.concatenate([self.values(X[start : start + _VALUE_ROWS]) for start in starts])
        p = self.terms.probabilities(X)
        rows, width = len(X), 1 + len(self.targets)
        index = np.arange(rows)[:, None] * width + self.segment
        return np.bincount(
            index.ravel(), weights=(p * self.c).ravel(), minlength=rows * width
        ).reshape(rows, width)

    def constraints(self, X: np.ndarray, jets):
        """Values, gradients and Hessians of the KKT finish's constraints at
        each row of X, given the expression jets there: the conditions that
        are not zero-forcing first, then the forced terms' amplitudes."""
        values, grads, hess = jets
        k = self.plain
        c, J, H = values[:, k] - self.targets[k - 1], grads[:, k], hess[:, k]
        terms = len(self.forced)
        if not terms:
            return c, J, H
        parts = np.stack(self.terms.amplitudes(X), axis=-1)[:, self.forced]
        rows, d = len(X), 1 + 2 * self.n
        t, u = np.arange(terms)[:, None], self.forced_u
        grad = np.zeros((rows, terms, d))
        grad[:, t, u] = parts[..., 1:4]
        hessian = np.zeros((rows, terms, d, d))
        block = parts[..., [4, 5, 6, 5, 7, 8, 6, 8, 9]].reshape(rows, terms, 3, 3)
        hessian[:, t[:, :, None], u[:, :, None], u[:, None, :]] = block
        return (
            np.concatenate((c, parts[..., 0]), axis=1),
            np.concatenate((J, grad), axis=1),
            np.concatenate((H, hessian), axis=1),
        )


#: A feasible restart counts as reaching the best value within this distance.
_NEAR_BEST_TOL = 1e-6


# The penalty weight of the screen's one stage.  It only has to bring each row
# near a constrained maximizer; the KKT finish makes the constraints exact.
_PENALTY_MU = 10.0

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
# rows per chunk of _PenaltyProblem.values.  The values-only group of the line
# search evaluates 26 trial rows per restart still searching; in one call, with
# every row pending, its temporaries would hold about 260 doubles per restart
# and term, far above the jets calls' peak that screen_bytes counts.  No call
# of optimize original|2|4|6 saw more than 744 rows
_VALUE_ROWS = 1024
# doubles per restart and term that the screen holds at its peak: a jets call
# on every restart's row holds about 62 (its Born terms, their 13 parts, the
# weighted copy and int64 bins of those, and the bincount), next to about 8
# that the screen's own jets and the KKT finish keep; tracemalloc peaks of
# maximize_hardy read 70, 70, 70 and 70 at n = 4, 8, 16 and 32.  96 keeps
# the largest n that optimize runs at 72
_SCREEN_DOUBLES = 96


def screen_bytes(n: int, restarts: int) -> int:
    """Bytes that screening ``restarts`` restarts on ``realigned_hardy(n)``
    holds at its peak: ``_SCREEN_DOUBLES`` per restart and term, of the
    ``n^2 + 3n - 2`` terms it touches."""
    return 8 * _SCREEN_DOUBLES * restarts * (n * n + 3 * n - 2)


# The KKT finish.  Each row takes up to _KKT_ITERS full Newton steps on its
# first-order conditions and is finished once every entry of their residual
# is at most _KKT_TOL; a row that is not finished by then keeps its screened
# point.
_KKT_ITERS = 8
_KKT_TOL = 1e-12


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


def _solve_rows(A: np.ndarray, b: np.ndarray):
    """Solve ``A[r] x[r] = b[r]`` for each row; returns ``x`` and a mask of
    the rows whose system is finite and nonsingular and whose ``x`` is finite.

    ``np.linalg.solve`` fails the whole stack on one singular matrix, so
    then every row is solved alone, by the same LAPACK call on a stack of
    one: a row's solution does not depend on the other rows.
    """
    ok = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    x = np.full(b.shape, np.nan)
    try:
        x[ok] = np.linalg.solve(A[ok], b[ok, :, None])[..., 0]
    except np.linalg.LinAlgError:
        for r in np.flatnonzero(ok):
            try:
                x[r] = np.linalg.solve(A[r : r + 1], b[r : r + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                ok[r] = False
    return x, ok & np.isfinite(x).all(axis=1)


def _kkt_arrays(problem: _PenaltyProblem, X: np.ndarray, jets):
    """What the KKT finish reads at each row of X, given the expression jets
    there: the expression values, the Hardy term's gradient and Hessian, and
    the constraints' values, gradients and Hessians.  Copies, so that none of
    them keeps the jets' other gradients and Hessians alive."""
    c, J, H = problem.constraints(X, jets)
    return jets[0], jets[1][:, 0].copy(), jets[2][:, 0].copy(), c, J, H


def _kkt_finish(problem: _PenaltyProblem, X: np.ndarray, jets) -> int:
    """Newton's method on every row's first-order conditions for a maximum
    of the Hardy value f subject to the constraints c = 0 of
    ``problem.constraints``: ``grad f - J^T lam = 0`` and ``c = 0``.

    The multipliers start from least squares at the screened point.  Each
    step solves the row's ``(d + K, d + K)`` system ``[[H, J^T], [J, 0]]
    [dx, -lam_new] = [-grad f, -c]``, with H the Hessian of the Lagrangian
    ``f - lam . c``.  A row whose residual is within ``_KKT_TOL`` moves to
    that point, in ``X`` and in the values ``jets[0]``, in place; any other
    row, also one whose system is singular or not finite, stays at its
    screened point.  The gradients and Hessians in ``jets`` are left as the
    screen left them.  Returns the row evaluations made.
    """
    d = 1 + 2 * problem.n
    values, grad, hess, c, J, H = _kkt_arrays(problem, X, jets)
    # least-squares multipliers: (J J^T) lam = J grad f
    JJt = (J[:, :, None] * J[:, None]).sum(axis=3)
    lam, ok = _solve_rows(JJt, (J * grad[:, None]).sum(axis=2))
    active = np.flatnonzero(ok)
    Z = X[active]
    values, grad, hess, c, J, H, lam = (a[active] for a in (values, grad, hess, c, J, H, lam))
    evals = 0
    for step in range(_KKT_ITERS + 1):
        residual = np.concatenate((grad - (lam[:, :, None] * J).sum(axis=1), c), axis=1)
        done = np.abs(residual).max(axis=1) <= _KKT_TOL
        X[active[done]] = Z[done]
        jets[0][active[done]] = values[done]
        keep = ~done
        if step == _KKT_ITERS or not keep.any():
            break
        J = J[keep]
        K = np.zeros((len(J), d + J.shape[1], d + J.shape[1]))
        K[:, :d, :d] = hess[keep] - (lam[keep, :, None, None] * H[keep]).sum(axis=1)
        K[:, :d, d:] = J.transpose(0, 2, 1)
        K[:, d:, :d] = J
        solution, ok = _solve_rows(K, -np.concatenate((grad[keep], c[keep]), axis=1))
        active, Z = active[keep][ok], Z[keep][ok] + solution[ok, :d]
        lam = -solution[ok, d:]
        # the previous point's arrays are dead: free them before the jets
        # call, which sets the finish's peak
        del values, grad, hess, c, J, H, K, solution, residual
        if not len(active):
            break
        values, grad, hess, c, J, H = _kkt_arrays(problem, Z, problem.jets(Z))
        evals += len(Z)
    return evals


def _screen(problem: _PenaltyProblem, X: np.ndarray):
    """Run the penalty stage and the KKT finish from every row of ``X`` at
    once, in place; returns the rows' Hardy values, condition residuals and
    evaluations made."""
    jets = problem.jets(X)
    evals = len(X)
    evals += _newton_stage(problem, X, jets, np.arange(len(X)), _PENALTY_MU)
    evals += _kkt_finish(problem, X, jets)
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
    and all restarts run the penalty stage and the KKT finish together, one
    ``(restarts, 1 + 2n)`` array of Newton steps; a restart's outcome does
    not depend on the others.  A restart is feasible if all its condition residuals end
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
