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
iteration shared by predictor and corrector.

Each block's constraint matrices come as one sparse ``(dim^2, m)`` matrix
whose column ``k`` is ``vec(F_k)``, and the per-iteration Schur assembly takes
one of two paths per block, chosen from the block's dimension.  A block of
dimension at most ``_DENSE_DIM`` assembles its whole contribution as
``G (U kron V) G^T``, where ``G`` is the sparse gather with one row
``vec(F_i)`` per variable: since every ``F_k`` is symmetric, column ``j`` of
``(U kron V) G^T`` is ``vec(U F_j V)``, which two BLAS products on the
densified constraint matrix give for every ``j`` at once, without forming
``U kron V``.  These are a few array calls per block where the other path
makes two Python-level calls per variable, and they cost ``4 m dim^3`` flops,
which at small ``dim`` is less than that per-call overhead.  A larger block
exploits that each ``F_k`` has few entries by forming ``U F_k V`` as a thin
product of gathered columns, and reads ``H_ik`` for ``i >= k`` off that
product through one sparse gather (a CSR matrix with one row per variable,
cut into tails that start every ``_PIECE`` variables), so it fills one
triangle of ``H`` only, the one LAPACK's Cholesky reads.  The Cholesky
factor overwrites ``H`` in its own array, so ``H`` is the only ``m x m``
array the solver holds; the iterative refinement's product ``H dy`` is taken
block by block as ``<F_i, X M(dy) Z^-1>`` (``LmiProblem.schur_product``),
and a failed factorization assembles ``H`` again for its retry.  A dense
block adds its contribution through one transient ``m x m`` product.
Problem sizes up to a few hundred rows per block and ~10^4 variables stay
within desk-scale memory; no sparsity is assumed in ``H`` itself.

``npa.solve`` is the one place that pins every BLAS and LAPACK call to one
thread (``_single_blas_thread``): at these sizes a second OpenBLAS thread
costs more CPU in hand-offs than it saves, and the thread count would change
the result bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import sys
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_INFEASIBLE = "infeasible"

# variables per piece: Schur row j is read through the tail of the row gather
# that starts at its piece, so it gathers the rows i >= j - j % _PIECE
_PIECE = 64
# blocks up to this dimension assemble their Schur contribution densely: its
# 4 m dim^3 flops cost less than the thin path's two calls per variable (the
# two break even between dimension 27 and 51), and it holds two (dim^2, m)
# arrays at a time, at most 16 KB per variable
_DENSE_DIM = 32


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


class LmiProblem:
    """Preprocessed problem data with fast scatter/gather operators.

    ``f_blocks[b]`` is a ``scipy.sparse`` matrix of shape ``(dim_b^2, m)``
    whose column ``k`` is ``vec(F_k)`` restricted to block ``b`` in row-major
    order, with ``dim_b`` read off the square ``f0_blocks[b]``.  Each ``F_k``
    must be symmetric, so an off-diagonal entry is stored in both
    orientations; duplicate entries are summed.

    A block of dimension at most ``_DENSE_DIM`` assembles its Schur
    contribution densely and needs nothing beyond the scatter and gather; a
    larger one also keeps its per-variable entries and the tails of its row
    gather for the thin-product path (``tails[b]`` is None for a dense
    block).
    """

    def __init__(self, f0_blocks: Sequence[np.ndarray], f_blocks: Sequence, b: np.ndarray):
        self.b = np.asarray(b, dtype=float)
        self.m = len(self.b)
        self.f0 = [np.asarray(f, dtype=float) for f in f0_blocks]
        self.dims = []
        # per block: the scatter S_b with vec(M_b) = vec(F0_b) + S_b @ y and its
        # transpose the gather; on the thin path also the per-variable entry
        # slices and the tails of the row gather R_b[i, col*dim + row] =
        # F_i[row, col], which reads tr(F_i T) off T.ravel(): tail p holds the
        # rows i >= p * _PIECE
        self.scatter = []
        self.gather = []
        self.per_var = []
        self.tails = []
        self._piece = _PIECE
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
            self.dims.append(dim)
            self.scatter.append(s)
            self.gather.append(g)
            if dim <= _DENSE_DIM:
                self.per_var.append(None)
                self.tails.append(None)
                continue
            rows, cols = np.divmod(g.indices, dim)
            self.per_var.append((g.indptr, rows, cols, g.data))
            tail = scipy.sparse.csr_matrix((g.data, cols * dim + rows, g.indptr), shape=(self.m, dim * dim))
            tails = [tail]
            # each tail is cut from the previous one's arrays: scipy copies a
            # slice shorter than half of its base array, so copies happen only at
            # halvings and all tails together hold about twice the entries of R_b
            for _ in range(self._piece, self.m, self._piece):
                cut = tail.indptr[self._piece]
                tail = scipy.sparse.csr_matrix(
                    (tail.data[cut:], tail.indices[cut:], tail.indptr[self._piece :] - cut),
                    shape=(tail.shape[0] - self._piece, dim * dim),
                )
                tails.append(tail)
            self.tails.append(tails)

    def mat(self, y: np.ndarray, include_f0: bool = True) -> list[np.ndarray]:
        """M(y) blocks (or ``sum_k y_k F_k`` when ``include_f0`` is false)."""
        out = []
        for f0, s, nb in zip(self.f0, self.scatter, self.dims):
            m = (s @ y).reshape(nb, nb)
            if include_f0:
                m = m + f0
            out.append(m)
        return out

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
        triangle is left unused.  A block of dimension at most ``_DENSE_DIM``
        adds its whole ``G (U kron V) G^T`` there; a larger one adds zeros
        and, within each piece of ``_PIECE`` variables, stray gathered
        entries.
        """
        m = self.m
        h = np.zeros((m, m))
        piece = self._piece
        for s, g, per_var, tails, u, v, dim in zip(
            self.scatter, self.gather, self.per_var, self.tails, u_blocks, v_blocks, self.dims
        ):
            if tails is None:
                # t[row, col, j] = (F_j V)[row, col], then t[row, (col, j)] = (U F_j V)[row, col]:
                # column j of (U kron V) G^T, as V is symmetric
                t = np.matmul(v, s.toarray().reshape(dim, dim, m))
                t = u @ t.reshape(dim, dim * m)
                h += g @ t.reshape(dim * dim, m)
                continue
            ptr, rows, cols, vals = per_var
            for j in range(m):
                lo, hi = ptr[j], ptr[j + 1]
                if lo == hi:
                    continue
                r, c, w = rows[lo:hi], cols[lo:hi], vals[lo:hi]
                t = (u[:, r] * w[None, :]) @ v[c, :]  # U F_j V
                # tr(F_i U F_j V) for every i from the start of j's piece on
                h[j, j - j % piece :] += tails[j // piece] @ t.ravel()
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
    """
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
    w = scipy.linalg.solve_triangular(chol_lower, direction, lower=True, check_finite=False)
    w = scipy.linalg.solve_triangular(chol_lower, w.T, lower=True, check_finite=False)
    lam = scipy.linalg.eigvalsh(0.5 * (w + w.T), check_finite=False)[0]
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _chol_blocks(blocks: Sequence[np.ndarray]):
    out = []
    for a in blocks:
        try:
            out.append(scipy.linalg.cholesky(a, lower=True, check_finite=False))
        except scipy.linalg.LinAlgError:
            return None
    return out


def solve_lmi(
    problem: LmiProblem,
    max_iterations: int = 150,
    gap_tol: float = 1e-7,
    feas_tol: float = 1e-7,
    trace: bool = False,
) -> LmiSolution:
    """Run the predictor-corrector iteration on a preprocessed problem."""
    dims = problem.dims
    n_total = sum(dims)
    m = problem.m
    b = problem.b

    scale = max(10.0, float(np.sqrt(n_total)), float(np.abs(b).max(initial=1.0)))
    x_blocks = [scale * np.eye(nb) for nb in dims]
    z_blocks = [scale * np.eye(nb) for nb in dims]
    y = np.zeros(m)

    f0_norm = 1.0 + np.sqrt(sum(float((f * f).sum()) for f in problem.f0))
    b_norm = 1.0 + float(np.linalg.norm(b))

    status = STATUS_MAX_ITERATIONS
    it = 0
    rel_gap = np.inf
    pinf = dinf = np.inf
    best_score = np.inf
    best_it = 0
    best = (y, x_blocks, z_blocks, rel_gap, pinf, dinf)
    for it in range(1, max_iterations + 1):
        my = problem.mat(y)
        rd = [mb - zb for mb, zb in zip(my, z_blocks)]  # dual residual matrices
        rp = -b - problem.inner(x_blocks)  # primal residuals <F_k, X> = -b_k
        gap = sum(float(np.tensordot(xb, zb)) for xb, zb in zip(x_blocks, z_blocks))
        mu = gap / n_total

        pobj = sum(float(np.tensordot(f, xb)) for f, xb in zip(problem.f0, x_blocks))
        dobj = float(b @ y)
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        pinf = float(np.linalg.norm(rp)) / b_norm
        dinf = np.sqrt(sum(float((r * r).sum()) for r in rd)) / f0_norm
        score = max(rel_gap, pinf, dinf)
        if trace:
            print(
                f"    it={it:3d} gap={rel_gap:9.2e} pinf={pinf:9.2e} dinf={dinf:9.2e} mu={mu:9.2e}",
                file=sys.stderr,
                flush=True,
            )
        if score < 0.98 * best_score:
            best_score = score
            best_it = it
            best = (y.copy(), [xb.copy() for xb in x_blocks], [zb.copy() for zb in z_blocks], rel_gap, pinf, dinf)
        if rel_gap <= gap_tol and pinf <= feas_tol and dinf <= feas_tol:
            status = STATUS_OPTIMAL
            break
        # a diverging dual iterate / unbounded primal certifies the LMI empty
        if np.abs(y).max(initial=0.0) > 1e10 or pobj < -1e12:
            status = STATUS_INFEASIBLE
            break
        # numerical floor reached: no meaningful progress for a while
        if it - best_it >= 12 or (score > 1e4 * max(best_score, 1e-12) and it > 10):
            break

        lx = _chol_blocks(x_blocks)
        lz = _chol_blocks(z_blocks)
        if lx is None or lz is None:
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
        xrz = [xb @ rb @ zi for xb, rb, zi in zip(x_blocks, rd, zinv)]
        g_vec = problem.inner(xrz)

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
            dx = []
            for bi in range(len(dims)):
                t = sigma_mu * zinv[bi] - x_blocks[bi] - x_blocks[bi] @ dz[bi] @ zinv[bi]
                if corr_blocks is not None:
                    t = t - corr_blocks[bi]
                dx.append(0.5 * (t + t.T))
            return dy, dx, dz

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

        if it <= 2:
            gamma = 0.9
        elif best_score < 1e-4:
            gamma = 0.99
        else:
            gamma = 0.98
        ap = min(1.0, gamma * min(_max_step(l, d) for l, d in zip(lx, dx)))
        ad = min(1.0, gamma * min(_max_step(l, d) for l, d in zip(lz, dz)))

        for _ in range(12):  # keep iterates safely positive definite
            x_try = [xb + ap * dxb for xb, dxb in zip(x_blocks, dx)]
            if _chol_blocks(x_try) is not None:
                break
            ap *= 0.7
        for _ in range(12):
            z_try = [zb + ad * dzb for zb, dzb in zip(z_blocks, dz)]
            if _chol_blocks(z_try) is not None:
                break
            ad *= 0.7
        x_blocks = x_try
        z_blocks = z_try
        y = y + ad * dy

    if status != STATUS_OPTIMAL:
        y, x_blocks, z_blocks, rel_gap, pinf, dinf = best
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
    )
