"""Dense primal-dual interior-point solver for block-diagonal LMI programs.

Solves

    maximize    b . y
    subject to  M(y) = F0 + sum_k y_k F_k  is positive semidefinite,

where all matrices are symmetric with a common block-diagonal structure.
This is the dual side of the standard conic pair

    (P) min <F0, X>  s.t.  <F_k, X> = -b_k,  X >= 0
    (D) max  b . y   s.t.  Z = F0 + sum_k y_k F_k >= 0,

with duality gap ``<X, Z> = <F0, X> - b . y`` at feasible points.  The
algorithm is the usual infeasible-start Mehrotra predictor-corrector with the
HKM direction: linearized complementarity ``dX = sigma*mu*Z^-1 - X -
X dZ Z^-1`` (symmetrized), Schur complement ``H_ij = tr(F_i X F_j Z^-1)``
(symmetric positive definite for symmetric data), one Cholesky of ``H`` per
iteration shared by predictor and corrector.  X and Z step by one rule
(``_step``) that cuts the step until the trial has a Cholesky factor; the
accepted iterate keeps those factors for its ``Z^-1`` and step lengths, so
every iterate is factored once and every kept iterate is positive definite.

Each block's constraint matrices come as one sparse ``(dim^2, m)`` matrix
whose column ``k`` is ``vec(F_k)``.  The per-iteration Schur assembly uses
that each ``F_k`` has few entries: it forms ``U F_j V`` as a thin product of
gathered columns, one batched ``np.matmul`` for a piece of ``_PIECE``
consecutive variables whose entry lists are padded with zeros to the piece's
longest, and reads ``H_ij`` for ``i >= j`` off those products through one
sparse gather (a CSR matrix with one row per variable, cut into tails that
start at each piece), so it fills one triangle of ``H`` only, the one
LAPACK's Cholesky reads.  The Cholesky factor overwrites ``H`` in its own
array, so ``H`` is the only ``m x m`` array the solver holds; the iterative
refinement's product ``H dy`` is taken block by block as
``<F_i, X M(dy) Z^-1>`` (``LmiProblem.schur_product``), and a failed
factorization assembles ``H`` again for its retry.  Problem sizes up to a few
hundred rows per block and ~10^4 variables stay within desk-scale memory; no
sparsity is assumed in ``H`` itself.

``npa.solve`` is the one place that pins every BLAS and LAPACK call to one
thread (``_single_blas_thread``): at these sizes a second OpenBLAS thread
costs more CPU in hand-offs than it saves, and the thread count would change
the result bits.

scipy is imported inside the functions that use it, so importing this module,
``npa`` or ``cli`` loads no scipy, whose import costs more than the rest of
the package's; only a solve does.  scipy brings its own OpenBLAS, so
``_blas_setters`` imports it before it looks the libraries up.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_INFEASIBLE = "infeasible"

# optimal: relative duality gap, scaled primal and dual infeasibility at most
GAP_TOL = FEAS_TOL = 1e-7
# LmiSolution.log's columns, one entry per iterate
LOG_KEYS = ("rel_gap", "primal_infeasibility", "dual_infeasibility", "mu")

# variables per piece: one batched product forms U F_j V for every variable j
# of a piece, and its Schur rows read the rows i >= the piece's start through
# the tail of the row gather that starts there; of 4, 8, 16 and 32, 16
# assembled npa 4 --level 3 fastest, and a piece's buffers grow with it
_PIECE = 16


@dataclass
class LmiSolution:
    y: np.ndarray
    primal_blocks: list[np.ndarray]  # X, the certificate side
    objective: float  # b . y
    primal_objective: float  # <F0, X>
    status: str
    iterations: int
    rel_gap: float
    primal_infeasibility: float
    dual_infeasibility: float
    log: dict[str, list[float]]  # LOG_KEYS -> one value per iterate


class LmiProblem:
    """Preprocessed problem data with fast scatter/gather operators.

    ``f_blocks[b]`` is a ``scipy.sparse`` matrix of shape ``(dim_b^2, m)``
    whose column ``k`` is ``vec(F_k)`` restricted to block ``b`` in row-major
    order, with ``dim_b`` read off the square ``f0_blocks[b]``.  Each ``F_k``
    must be symmetric, so an off-diagonal entry is stored in both
    orientations; duplicate entries are summed.

    Each block also keeps, for every piece of ``_PIECE`` variables, their
    entries padded with zeros to the piece's longest list (``pieces[b]``) and
    the tail of its row gather from the piece's first variable on
    (``tails[b]``), which ``schur`` reads.
    """

    def __init__(self, f0_blocks: Sequence[np.ndarray], f_blocks: Sequence, b: np.ndarray):
        import scipy.sparse

        self.b = np.asarray(b, dtype=float)
        self.m = len(self.b)
        self.f0 = [np.asarray(f, dtype=float) for f in f0_blocks]
        self.dims = []
        # per block: the scatter S_b with vec(M_b) = vec(F0_b) + S_b @ y and its
        # transpose the gather; per piece the padded (row, col, value) arrays of
        # its variables and the tail of the row gather R_b[i, col*dim + row] =
        # F_i[row, col], which reads tr(F_i T) off T.ravel(): the tail of the
        # piece that starts at variable p holds the rows i >= p
        self.scatter = []
        self.gather = []
        self.pieces = []
        self.tails = []
        for f0, f in zip(self.f0, f_blocks, strict=True):
            if f0.ndim != 2 or f0.shape[0] != f0.shape[1]:
                raise ValueError(f"F0 block of shape {f0.shape} is not square")
            dim = f0.shape[0]
            if f.shape != (dim * dim, self.m):
                raise ValueError(f"F block of shape {f.shape} is not (dim^2, m) = {(dim * dim, self.m)}")
            s = scipy.sparse.csr_matrix(f, dtype=float, copy=True)
            s.sum_duplicates()
            s.eliminate_zeros()
            # each variable's entries in ascending cell order
            g = s.T.tocsr()
            rows, cols = np.divmod(g.indices, dim)
            tail = scipy.sparse.csr_matrix((g.data, cols * dim + rows, g.indptr), shape=(self.m, dim * dim))
            pieces, tails = [], []
            for start in range(0, self.m, _PIECE):
                if start:
                    # each tail is cut from the previous one's arrays: scipy copies
                    # a slice shorter than half of its base array, so copies happen
                    # only at halvings and all tails together hold about twice the
                    # entries of R_b
                    cut = tail.indptr[_PIECE]
                    tail = scipy.sparse.csr_matrix(
                        (tail.data[cut:], tail.indices[cut:], tail.indptr[_PIECE:] - cut),
                        shape=(self.m - start, dim * dim),
                    )
                tails.append(tail)
                # the piece's entries, one row per variable, padded with zero
                # values to its longest list
                ptr = g.indptr[start : start + _PIECE + 1]
                at = ptr[:-1, None] + np.arange(np.diff(ptr).max())
                pad = at >= ptr[1:, None]
                at[pad] = 0
                pieces.append((rows[at], cols[at], np.where(pad, 0.0, g.data[at])))
            self.dims.append(dim)
            self.scatter.append(s)
            self.gather.append(g)
            self.pieces.append(pieces)
            self.tails.append(tails)

    def mat(self, y: np.ndarray, include_f0: bool = True) -> list[np.ndarray]:
        """M(y) blocks (or ``sum_k y_k F_k`` when ``include_f0`` is false)."""
        blocks = [(s @ y).reshape(nb, nb) for s, nb in zip(self.scatter, self.dims)]
        return [a + f0 for a, f0 in zip(blocks, self.f0)] if include_f0 else blocks

    def inner(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Vector of ``<F_k, A>`` for block-diagonal symmetric-ish A."""
        total = np.zeros(self.m)
        for g, a in zip(self.gather, blocks):
            total += g @ a.ravel()
        return total

    def schur(self, u_blocks: Sequence[np.ndarray], v_blocks: Sequence[np.ndarray]) -> np.ndarray:
        """One triangle of ``H_ij = sum_blocks tr(F_i U F_j V)`` for symmetric U, V.

        Row ``j`` holds ``H_ij`` for ``i >= j`` in its columns ``>= j``: the
        upper triangle in C order, which is the lower triangle of ``h.T`` that
        LAPACK reads and ``solve_lmi`` factors in place.  The strict lower
        triangle is left unused; within each piece it picks up zeros and
        stray gathered entries.
        """
        m = self.m
        h = np.zeros((m, m))
        for pieces, tails, u, v in zip(self.pieces, self.tails, u_blocks, v_blocks):
            # a piece's products and their copy with j running fastest, which the
            # sparse product reads, in buffers reused from piece to piece: fresh
            # arrays of this size fault their pages in again for every piece
            t = np.empty((len(pieces[0][0]) if pieces else 0, *u.shape))
            x = np.empty((u.size, len(t)))
            for (r, c, w), tail in zip(pieces, tails):
                start, n = m - tail.shape[0], len(r)
                # t[k] = U F_j V for variable j = start + k; padded entries add zeros
                np.matmul((u[:, r] * w).transpose(1, 0, 2), v[c], out=t[:n])
                x[:, :n] = t[:n].reshape(n, -1).T
                # tr(F_i U F_j V) for every i >= start
                h[start : start + n, start:] += (tail @ x[:, :n]).T
        return h

    def schur_product(
        self, u_blocks: Sequence[np.ndarray], v_blocks: Sequence[np.ndarray], y: np.ndarray
    ) -> np.ndarray:
        """``H y`` for the ``H`` of ``schur(u_blocks, v_blocks)``, without forming ``H``.

        ``(H y)_i = sum_j tr(F_i U F_j V) y_j = <F_i, U (sum_j y_j F_j) V>``:
        two ``dim^3`` products per block in place of ``m^2`` reads of ``H``.
        """
        return self.inner([u @ s @ v for u, s, v in zip(u_blocks, self.mat(y, include_f0=False), v_blocks)])


@functools.cache
def _blas_setters() -> tuple:
    """``openblas_set_num_threads_local`` of every OpenBLAS loaded in this process.

    numpy and scipy each load their own OpenBLAS; both are found through the
    process's memory map, so on a system without ``/proc/self/maps`` or
    without OpenBLAS the tuple is empty.  Looked up once, on first use.
    scipy is imported first: this module loads scipy only when a solve needs
    it, and a lookup made before scipy's OpenBLAS is mapped would cache
    numpy's alone and leave scipy's Cholesky unpinned for the life of the
    process.
    """
    import scipy.linalg

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            fields = [line.split(maxsplit=5) for line in maps if "openblas" in line.lower()]
    except OSError:
        return ()
    setters = []
    for path in sorted({f[5].strip() for f in fields if len(f) == 6}):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        setters.append(setter)
    return tuple(setters)


# scopes of _single_blas_thread open in any thread, and the counts the first
# of them found; OpenBLAS's pthreads build applies a setting process-wide
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_restore: list = []


@contextlib.contextmanager
def _single_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread.

    Yields 1, or None when no thread setter was found and the block runs
    unpinned.  The thread counts found by the first of the open scopes, in
    whichever thread, are restored when the last one closes, also when a
    block raises, so one scope closing does not unpin a solve still running
    in another thread.
    """
    global _pin_depth, _pin_restore
    setters = _blas_setters()
    with _pin_lock:
        previous = [(setter, setter(1)) for setter in setters]
        if _pin_depth == 0:
            _pin_restore = previous
        _pin_depth += 1
    try:
        yield 1 if setters else None
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for setter, count in _pin_restore:
                    setter(count)


def _max_step(chol_lower: np.ndarray, direction: np.ndarray) -> float:
    """Largest alpha with ``A + alpha * D`` PSD, given ``A = L L^T``."""
    import scipy.linalg

    w = scipy.linalg.solve_triangular(chol_lower, direction, lower=True, check_finite=False)
    w = scipy.linalg.solve_triangular(chol_lower, w.T, lower=True, check_finite=False)
    lam = scipy.linalg.eigvalsh(0.5 * (w + w.T), check_finite=False)[0]
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _chol_blocks(blocks: Sequence[np.ndarray]):
    import scipy.linalg

    try:
        return [scipy.linalg.cholesky(a, lower=True, check_finite=False) for a in blocks]
    except scipy.linalg.LinAlgError:
        return None


def _step(blocks, chol, direction, gamma: float):
    """``(alpha, trial, factors)`` of the step from ``blocks = chol chol^T``.

    ``alpha`` starts at ``gamma`` times the step to the cone's boundary,
    capped at 1, and is cut by 0.7 until the trial factors; None after 12.
    """
    alpha = min(1.0, gamma * min(_max_step(l, d) for l, d in zip(chol, direction)))
    for _ in range(12):
        trial = [a + alpha * d for a, d in zip(blocks, direction)]
        factors = _chol_blocks(trial)
        if factors is not None:
            return alpha, trial, factors
        alpha *= 0.7
    return None


def solve_lmi(problem: LmiProblem, max_iterations: int = 150) -> LmiSolution:
    """Run the predictor-corrector iteration from ``scale * I``, factored once.

    Ends ``optimal`` within ``GAP_TOL`` and ``FEAS_TOL``, or ``infeasible``
    on divergence; on the iteration cap, a stall or a step with no trial that
    factors, it returns the best iterate kept, as ``max_iterations``.
    """
    import scipy.linalg

    dims = problem.dims
    n_total = sum(dims)
    m = problem.m
    b = problem.b

    scale = max(10.0, float(np.sqrt(n_total)), float(np.abs(b).max(initial=1.0)))
    x_blocks = [scale * np.eye(nb) for nb in dims]
    z_blocks = [scale * np.eye(nb) for nb in dims]
    lx = _chol_blocks(x_blocks)
    lz = _chol_blocks(z_blocks)
    y = np.zeros(m)

    f0_norm = 1.0 + np.sqrt(sum(float((f * f).sum()) for f in problem.f0))
    b_norm = 1.0 + float(np.linalg.norm(b))

    status = STATUS_MAX_ITERATIONS
    it = 0
    rel_gap = pinf = dinf = np.inf
    log: dict[str, list[float]] = {key: [] for key in LOG_KEYS}
    best_score = np.inf
    best_it = 0
    best = (y, x_blocks, rel_gap, pinf, dinf)
    for it in range(1, max_iterations + 1):
        rd = [mb - zb for mb, zb in zip(problem.mat(y), z_blocks)]  # dual residual matrices
        rp = -b - problem.inner(x_blocks)  # primal residuals <F_k, X> = -b_k
        gap = sum(float(np.tensordot(xb, zb)) for xb, zb in zip(x_blocks, z_blocks))
        mu = gap / n_total

        pobj = sum(float(np.tensordot(f, xb)) for f, xb in zip(problem.f0, x_blocks))
        dobj = float(b @ y)
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        pinf = float(np.linalg.norm(rp)) / b_norm
        dinf = np.sqrt(sum(float((r * r).sum()) for r in rd)) / f0_norm
        score = max(rel_gap, pinf, dinf)
        for key, value in zip(LOG_KEYS, (rel_gap, pinf, dinf, mu)):
            log[key].append(float(value))
        if score < 0.98 * best_score:
            best_score = score
            best_it = it
            best = (y, x_blocks, rel_gap, pinf, dinf)
        if rel_gap <= GAP_TOL and pinf <= FEAS_TOL and dinf <= FEAS_TOL:
            status = STATUS_OPTIMAL
            break
        # a diverging dual iterate / unbounded primal certifies the LMI empty
        if np.abs(y).max(initial=0.0) > 1e10 or pobj < -1e12:
            status = STATUS_INFEASIBLE
            break
        # numerical floor reached: no meaningful progress for a while
        if it - best_it >= 12 or (score > 1e4 * max(best_score, 1e-12) and it > 10):
            break

        zinv = [scipy.linalg.cho_solve((l, True), np.eye(nb), check_finite=False) for l, nb in zip(lz, dims)]
        zinv = [0.5 * (zi + zi.T) for zi in zinv]

        h = cho = None  # release last iteration's factor before the next H
        h = problem.schur(x_blocks, zinv)
        jitter = 1e-13 * max(1.0, float(np.trace(h)) / max(m, 1))
        for attempt in range(8):
            if attempt:
                # the failed factorization overwrote H: release it, assemble it again
                h = None
                h = problem.schur(x_blocks, zinv)
                jitter *= 100.0
            h.flat[:: m + 1] += jitter
            try:
                # h.T is H + jitter*I in Fortran order, so LAPACK factors it in place
                cho = scipy.linalg.cho_factor(h.T, lower=True, overwrite_a=True, check_finite=False)
                break
            except scipy.linalg.LinAlgError:
                pass
        if cho is None:
            break

        a_vec = problem.inner(zinv)
        g_vec = problem.inner([xb @ rb @ zi for xb, rb, zi in zip(x_blocks, rd, zinv)])

        def directions(sigma_mu: float, corr_blocks=None):
            rhs = sigma_mu * a_vec + b - g_vec
            if corr_blocks is not None:
                rhs = rhs - problem.inner(corr_blocks)
            dy = scipy.linalg.cho_solve(cho, rhs, check_finite=False)
            # one step of iterative refinement; the Schur system turns badly
            # conditioned near the optimum and the raw solve loses digits.
            # H was factored in place, so its product is taken from X and Z^-1
            resid = rhs - problem.schur_product(x_blocks, zinv, dy) - jitter * dy
            dy = dy + scipy.linalg.cho_solve(cho, resid, check_finite=False)
            dz = [rb + sb for rb, sb in zip(rd, problem.mat(dy, include_f0=False))]
            dx = [sigma_mu * zi - xb - xb @ dzb @ zi for xb, dzb, zi in zip(x_blocks, dz, zinv)]
            if corr_blocks is not None:
                dx = [t - c for t, c in zip(dx, corr_blocks)]
            return dy, [0.5 * (t + t.T) for t in dx], dz

        # predictor (affine scaling)
        dy_aff, dx_aff, dz_aff = directions(0.0)
        ap = min(1.0, *(_max_step(l, d) for l, d in zip(lx, dx_aff)))
        ad = min(1.0, *(_max_step(l, d) for l, d in zip(lz, dz_aff)))
        gap_aff = sum(
            float(np.tensordot(xb + ap * dxb, zb + ad * dzb))
            for xb, dxb, zb, dzb in zip(x_blocks, dx_aff, z_blocks, dz_aff)
        )
        sigma = min(1.0, max(1e-8, (max(gap_aff, 0.0) / gap) ** 3))

        # corrector with second-order term dX_aff dZ_aff Z^-1
        corr = [dxa @ dza @ zi for dxa, dza, zi in zip(dx_aff, dz_aff, zinv)]
        dy, dx, dz = directions(sigma * mu, corr)

        gamma = 0.9 if it <= 2 else 0.99 if best_score < 1e-4 else 0.98
        x_step = _step(x_blocks, lx, dx, gamma)
        z_step = _step(z_blocks, lz, dz, gamma) if x_step else None
        if z_step is None:
            break  # no trial factors: end on the last accepted iterate
        _, x_blocks, lx = x_step
        ad, z_blocks, lz = z_step
        y = y + ad * dy

    if status != STATUS_OPTIMAL:
        y, x_blocks, rel_gap, pinf, dinf = best
    return LmiSolution(
        y=y,
        primal_blocks=x_blocks,
        objective=float(b @ y),
        primal_objective=sum(float(np.tensordot(f, xb)) for f, xb in zip(problem.f0, x_blocks)),
        status=status,
        iterations=it,
        rel_gap=float(rel_gap),
        primal_infeasibility=float(pinf),
        dual_infeasibility=float(dinf),
        log=log,
    )
