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
whose column ``k`` is ``vec(F_k)``; the solver keeps its transpose, the gather
``G`` with one row per variable, which reads ``<F_k, A>`` as ``G vec(A)``
and builds ``M(y) - F0`` as ``G^T y``.  The per-iteration Schur assembly
uses that each ``F_k`` has few entries: it forms ``U F_j V`` as a thin
product of gathered columns, one batched ``np.matmul`` for a piece of
``_PIECE`` consecutive variables whose entry lists are padded with zeros to
the piece's longest, and reads ``H_ij`` for ``i >= j`` off those products
through the gather cut into tails that start at each piece, so it fills one
triangle of ``H`` only, the one LAPACK's Cholesky reads.  A piece's tail
reads only cells of a trailing square ``[lo, dim)^2`` of its block, so the
products are formed and copied on that square alone.

``H`` lives in one buffer of column panels of the lower triangle of its
Fortran view: panel ``[k0, k1)`` is a C-order ``(k1 - k0, m - k0)`` array
that holds ``H_ij`` for ``j`` in the panel and ``i >= k0``.  One function,
``_panel_edges``, chooses the panels from ``m``: one of width ``m``, a plain
``m x m`` array, below ``_THREADED_M`` variables, and ``_NB``-wide ones from
it on, so that ``H`` takes about half of ``m^2`` doubles (``schur_bytes``).
Every other step reads the panels it is given.  The Cholesky factor
overwrites ``H`` in its panels, and each iteration assembles the next ``H``
into them, so they are the only Schur-sized buffer the solver holds; each
search direction is one solve with that factor, and a failed factorization
assembles ``H`` again into it for its retry.  Problem sizes up to a few
hundred rows per block and ~10^4 variables stay within desk-scale memory;
no sparsity is assumed in ``H`` itself.

One panel is factored by one ``cho_factor`` call and solved with by one
``cho_solve``, whose checks are nothing next to their work.  Several panels
are factored by a right-looking blocked factorization (``_factor_schur``),
and each solve with the factor is a forward and a back substitution by
panels (``_solve_schur``).  A solve whose ``H`` has several panels, in a
process that may run on two CPUs, runs one worker thread beside the caller
for the whole solve.  The Schur assembly (``LmiProblem.schur``) gives it the
odd pieces, and the blocked factorization each panel's trailing columns
``[s, m)``.  Every row of ``H`` and every column of its factor is written by
one thread, in one order, so both are bitwise the same with the worker or
without it.  The threads overlap because ``np.matmul``, the sparse products
and the strided copies release the GIL, and the blocked factorization calls
``dpotrf``, ``dtrsm``, ``dsyrk`` and ``dgemm`` through the function pointers
that ``scipy.linalg.cython_lapack`` and ``cython_blas`` export, by ctypes,
which releases it for each call (scipy's f2py wrappers hold it).

``npa.solve`` is the one place that pins every BLAS and LAPACK call to one
thread (``_single_blas_thread``): at these sizes a second OpenBLAS thread
costs more CPU in hand-offs than it saves, and the thread count would change
the result bits.  OpenBLAS's pthreads build applies the pin process-wide, so
the worker runs on one BLAS thread too.

scipy is imported inside the functions that use it, so importing this module,
``npa`` or ``cli`` loads no scipy; only a solve does.  The block kernels call
LAPACK's ``dpotrf``, ``dpotrs``, ``dtrtrs`` and ``dsyevr`` (at ``eigh``'s
workspace) as ``scipy.linalg``'s wrappers do, bit for bit, minus checks that
cost more than LAPACK on small blocks.
"""

from __future__ import annotations

import bisect
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
# iterations before solve_lmi stops and returns its best iterate
MAX_ITERATIONS = 150
# LmiSolution.log's columns, one entry per iterate
LOG_KEYS = ("rel_gap", "primal_infeasibility", "dual_infeasibility", "mu")

# variables per piece: one batched product forms U F_j V for every variable j
# of a piece, and its Schur rows read the rows i >= the piece's start through
# the tail of the row gather that starts there; of 4, 8, 16 and 32, 16
# assembled npa 4 --level 3 fastest, and a piece's buffers grow with it
_PIECE = 16
# the layout of H, read by _panel_edges alone: below _THREADED_M variables one
# m x m panel, factored by one cho_factor call on the caller alone; from it on
# _NB-wide panels, assembled and factored by blocks on two threads.  The mean
# schur call inside solve_lmi on 2 vCPUs, two threads against one: 1.32
# against 0.72 ms at npa 4 --level 2 (m = 259); 4.2 against 4.3 ms and 4.5
# against 5.0 ms on the first 700 and 800 variables of npa 6 --level 2
_THREADED_M = 800
# panel width of H and of its blocked factorization: at m = 3103 on 2 vCPUs,
# 128 and 192 factored fastest and 256 was 5% slower.  A multiple of _PIECE,
# so no Schur piece straddles two panels
_NB = 192


def _panel_edges(m: int) -> list[int]:
    """Column edges of the panels that hold ``H``: one panel of width ``m``
    below ``_THREADED_M`` variables, ``_NB``-wide ones from it on.  The one
    place that chooses the layout; the rest of the solver reads the panels."""
    return [0, m] if m < _THREADED_M else [*range(0, m, _NB), m]


def schur_bytes(m: int) -> int:
    """Bytes of the buffer that holds ``H``'s panels (``_panel_edges``) for
    ``m`` variables: ``8 m^2`` in one panel, about half of that in many."""
    edges = _panel_edges(m)
    return 8 * sum((k1 - k0) * (m - k0) for k0, k1 in zip(edges, edges[1:]))


def _schur_panels(m: int) -> list[np.ndarray]:
    """Zeroed panels of ``H`` in one buffer: panel ``[k0, k1)`` of
    ``_panel_edges(m)`` is a C-order ``(k1 - k0, m - k0)`` view whose row
    ``j - k0`` holds ``H_ij`` at column ``i - k0``; as a Fortran array it is
    the columns ``[k0, k1)`` of ``H``'s lower triangle from row ``k0`` on."""
    edges = _panel_edges(m)
    buffer = np.zeros(schur_bytes(m) // 8)
    panels, at = [], 0
    for k0, k1 in zip(edges, edges[1:]):
        size = (k1 - k0) * (m - k0)
        panels.append(buffer[at : at + size].reshape(k1 - k0, m - k0))
        at += size
    return panels


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
    """Preprocessed problem data: one sparse gather per block, cut for ``schur``.

    ``f_blocks[b]`` is a ``scipy.sparse`` matrix of shape ``(dim_b^2, m)``
    whose column ``k`` is ``vec(F_k)`` restricted to block ``b`` in row-major
    order, with ``dim_b`` read off the square ``f0_blocks[b]``.  Each ``F_k``
    must be symmetric, so an off-diagonal entry is stored in both
    orientations; duplicate entries are summed.  ``gather[b]`` is its
    transpose in CSR form, one row per variable.

    Each block also keeps, for every piece of ``_PIECE`` variables, their
    entries padded with zeros to the piece's longest list (``pieces[b]``),
    the tail of its row gather from the piece's first variable on
    (``tails[b]``), which ``schur`` reads, and the smallest row or column
    index that tail uses (``lo[b]``, ``dim_b`` for an empty tail).
    """

    def __init__(self, f0_blocks: Sequence[np.ndarray], f_blocks: Sequence, b: np.ndarray):
        import scipy.sparse

        self.b = np.asarray(b, dtype=float)
        self.m = len(self.b)
        self.f0 = [np.asarray(f, dtype=float) for f in f0_blocks]
        self.dims = []
        # per block: the gather G_b with vec(M_b) = vec(F0_b) + G_b.T @ y; per
        # piece the padded (row, col, value) arrays of its variables and the tail
        # of the row gather R_b[i, col*dim + row] = F_i[row, col], which reads
        # tr(F_i T) off T.ravel(): the tail of the piece that starts at variable
        # p holds the rows i >= p
        self.gather = []
        self.pieces = []
        self.tails = []
        self.lo = []
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
            # the smallest row or column index of each variable (dim for one with
            # no entry) and its suffix minimum: a tail that starts at variable p
            # reads only cells of the trailing square [lo, dim)^2, lo = the minimum at p
            least = np.full(self.m, dim)
            filled = np.flatnonzero(np.diff(g.indptr))
            if len(filled):
                least[filled] = np.minimum.reduceat(np.minimum(rows, cols), g.indptr[filled])
            lo = np.minimum.accumulate(least[::-1])[::-1]
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
            self.gather.append(g)
            self.pieces.append(pieces)
            self.tails.append(tails)
            self.lo.append(lo[::_PIECE].tolist())

    def mat(self, y: np.ndarray, include_f0: bool = True) -> list[np.ndarray]:
        """M(y) blocks (or ``sum_k y_k F_k`` when ``include_f0`` is false)."""
        # G^T y, each cell summed in variable order as scipy's product sums it;
        # g.T @ y would build a CSC object per call, which costs more than the
        # product on the small blocks
        blocks = [
            np.bincount(g.indices, g.data * np.repeat(y, np.diff(g.indptr)), nb * nb).reshape(nb, nb)
            for g, nb in zip(self.gather, self.dims)
        ]
        return [a + f0 for a, f0 in zip(blocks, self.f0)] if include_f0 else blocks

    def inner(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Vector of ``<F_k, A>`` for block-diagonal symmetric-ish A."""
        total = np.zeros(self.m)
        for g, a in zip(self.gather, blocks):
            total += g @ a.ravel()
        return total

    def schur(
        self, u_blocks: Sequence[np.ndarray], v_blocks: Sequence[np.ndarray], out: list | None = None, worker=None
    ) -> list[np.ndarray]:
        """One triangle of ``H_ij = sum_blocks tr(F_i U F_j V)`` for symmetric U, V.

        Returns the panels of ``_schur_panels``: the row of variable ``j``
        in its panel holds ``H_ij`` for ``i >= j``, which is the lower
        triangle of ``H``'s Fortran view that LAPACK reads and ``solve_lmi``
        factors in place.  The cells of a row before ``j`` are left unused;
        within each piece they pick up zeros and stray gathered entries.
        Each piece forms ``U F_j V`` on the trailing square ``[lo, dim)^2``
        that its tail reads, and nothing outside it.  With a ``worker``, a
        one-thread executor, the caller assembles the even pieces and the
        worker the odd ones, joined on every exit.

        ``out``, panels of ``_schur_panels(m)`` such as the ones ``solve_lmi``
        allocates once for its iterations, is overwritten and returned
        instead of fresh panels: each piece zeroes its own rows from its
        start on before it adds to them, so the triangle does not depend on
        what ``out`` held.  Each piece finds the panel that holds its rows
        from the panels' shapes.
        """
        m = self.m
        panels = _schur_panels(m) if out is None else out
        starts, panel_of = _panel_index(panels)
        width = min(_PIECE, m)
        size = width * max(self.dims, default=0) ** 2
        blocks = list(zip(self.dims, self.pieces, self.tails, self.lo, u_blocks, v_blocks))
        count = -(-m // _PIECE)

        def assemble(share: range):
            # a piece's products and their copy with j running fastest, which the
            # sparse product reads, in two buffers sized for the largest block and
            # reused by every piece this thread takes: fresh arrays of this size
            # fault their pages in again for every piece.  Cells outside a piece's
            # square keep whatever an earlier piece or block left there; its tail
            # never reads them
            t_buf = np.empty(size)
            x_buf = np.empty_like(t_buf)
            xs = [x_buf[: dim * dim * width].reshape(dim * dim, width) for dim in self.dims]
            for p in share:
                start = p * _PIECE
                # the piece's rows of H from its start on, in the one panel that holds them
                q = panel_of(start)
                k0 = starts[q]
                rows = panels[q][start - k0 : start - k0 + _PIECE, start - k0 :]
                rows[...] = 0.0
                for (dim, pieces, tails, los, u, v), x in zip(blocks, xs):
                    (r, c, w), tail, lo = pieces[p], tails[p], los[p]
                    n, side = len(r), dim - lo
                    # t[k] = U F_j V on [lo, dim)^2 for variable j = start + k; padded
                    # entries add zeros
                    t = t_buf[: n * side * side].reshape(n, side, side)
                    np.matmul((u[lo:, r] * w).transpose(1, 0, 2), v[:, lo:][c], out=t)
                    x.reshape(dim, dim, width)[lo:, lo:, :n] = t.transpose(1, 2, 0)
                    # tr(F_i U F_j V) for every i >= start, into rows that no
                    # other thread writes
                    rows += (tail @ x[:, :n]).T

        if worker is None:
            assemble(range(count))
        else:
            job = worker.submit(assemble, range(1, count, 2))
            try:
                assemble(range(0, count, 2))
            finally:
                job.result()
        return panels


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    import os

    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
    from scipy.linalg import lapack

    w = lapack.dtrtrs(chol_lower, direction, lower=1)[0]
    w = lapack.dtrtrs(chol_lower, w.T, lower=1)[0]
    lwork, liwork, _ = lapack.dsyevr_lwork(len(w), lower=1)
    lam, _, _, _, info = lapack.dsyevr(0.5 * (w + w.T), compute_v=0, lower=1, lwork=int(lwork), liwork=liwork)
    if info:
        raise np.linalg.LinAlgError(f"dsyevr failed with info {info}")
    return np.inf if lam[0] >= -1e-14 else -1.0 / lam[0]


def _chol_blocks(blocks: Sequence[np.ndarray]):
    from scipy.linalg import lapack

    factors = []
    for a in blocks:
        l, info = lapack.dpotrf(a, lower=1, clean=1)
        if info:
            if info < 0:
                raise ValueError(f"dpotrf: illegal value in argument {-info}")
            return None
        factors.append(l)
    return factors


def _inverse(chol_lower: np.ndarray) -> np.ndarray:
    """``A^-1``, symmetrized, given ``A = L L^T``."""
    from scipy.linalg import lapack

    inv = lapack.dpotrs(chol_lower, np.eye(len(chol_lower)), lower=1)[0]
    return 0.5 * (inv + inv.T)


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


@functools.cache
def _kernels() -> dict:
    """LAPACK's ``dpotrf`` and BLAS's ``dtrsm``, ``dsyrk``, ``dgemm``, ``dtrsv`` and ``dgemv`` as ctypes functions.

    ``scipy.linalg.cython_lapack`` and ``cython_blas`` export each routine's
    address in a capsule of ``__pyx_capi__``.  ctypes releases the GIL for
    the length of each call, which scipy's f2py wrappers do not.  Looked up
    once, on first use.
    """
    from scipy.linalg import cython_blas, cython_lapack

    # prototypes of their own, so that ctypes.pythonapi's shared ones keep theirs
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    # Fortran arguments: a flag is a char *, a size an int *, and each array
    # and scalar a double *, passed as its address
    flag, size, ref = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
    signatures = {
        "dpotrf": (cython_lapack, [flag, size, ref, size, size]),
        "dtrsm": (cython_blas, [flag, flag, flag, flag, size, size, ref, ref, size, ref, size]),
        "dsyrk": (cython_blas, [flag, flag, size, size, ref, ref, size, ref, ref, size]),
        "dgemm": (cython_blas, [flag, flag, size, size, size, ref, ref, size, ref, size, ref, ref, size]),
        "dtrsv": (cython_blas, [flag, flag, flag, size, ref, size, ref, size]),
        "dgemv": (cython_blas, [flag, size, size, ref, ref, size, ref, size, ref, ref, size]),
    }
    kernels = {}
    for name, (module, argtypes) in signatures.items():
        capsule = module.__pyx_capi__[name]
        address = get_pointer(capsule, get_name(capsule))
        kernels[name] = ctypes.CFUNCTYPE(None, *argtypes)(address)
    return kernels


def _panel_plan(edges: list[int]) -> list[tuple[int, int, int, int]]:
    """``(k0, k1, k2, s)`` for each panel ``[k0, k1)`` of ``edges`` but the last.

    ``[k1, k2)`` is the next panel.  The worker's share of the panel's
    trailing update, columns ``[s, m)``, is a triangle of ``(m - s)^2 / 2``
    cells; the caller's is the trapezoid of columns ``[k1, s)`` plus the next
    panel's ``dpotrf`` and ``dtrsm``, counted at their multiply-adds per
    column of the panel ``[k0, k1)``.  ``s`` splits the two about evenly and
    depends on the edges alone.
    """
    import math

    m = edges[-1]
    plan = []
    for k0, k1, k2 in zip(edges, edges[1:], edges[2:]):
        w = k2 - k1
        cells = (m - k1) * (m - k1 + 1) / 2 + (w**3 / 3 + (m - k2) * w * w / 2) / (k1 - k0)
        side = round((math.sqrt(1 + 4 * cells) - 1) / 2)
        plan.append((k0, k1, k2, min(m, max(k2, m - side))))
    return plan


def _factor_schur(h: list[np.ndarray], worker) -> list[np.ndarray]:
    """Cholesky factor of ``H`` in the panels of ``_schur_panels``, in place.

    Each panel, as a Fortran array, holds its columns of ``H``'s lower
    triangle, which the factor's columns overwrite.  One panel is factored
    by one ``cho_factor`` call.  Several run a right-looking blocked
    factorization by panels, with one panel of lookahead: while the caller
    brings the next panel up to date with the current one, factors it and
    updates the columns ``[k2, s)``, the ``worker`` (a one-thread executor)
    updates the columns ``[s, m)``, or without one the caller does first.
    Each update is one ``dsyrk`` and one ``dgemm`` per panel it reaches, at
    that panel's leading dimension.  Which BLAS and LAPACK calls run, with
    which arguments, depends on the panels alone (``_panel_plan``), so the
    factor is bitwise the same either way.  Each panel's job is joined
    before the next panel starts, and before a panel that is not positive
    definite raises ``scipy.linalg.LinAlgError``.
    """
    import scipy.linalg

    if len(h) == 1:
        return [scipy.linalg.cho_factor(h[0].T, lower=True, overwrite_a=True, check_finite=False)[0].T]
    kernels = _kernels()
    dpotrf, dtrsm, dsyrk, dgemm = (kernels[name] for name in ("dpotrf", "dtrsm", "dsyrk", "dgemm"))
    edges, at, ld = _panel_cells(h)
    m = edges[-1]
    one, minus_one = ctypes.byref(ctypes.c_double(1.0)), ctypes.byref(ctypes.c_double(-1.0))

    def factor(k1: int, k2: int):
        # the panel [k1, k2): its diagonal tile, then the rows below it
        info = ctypes.c_int()
        dpotrf(b"L", _int(k2 - k1), at(k1, k1), ld(k1), ctypes.byref(info))
        if info.value < 0:
            raise ValueError(f"dpotrf: illegal value in argument {-info.value}")
        if info.value:
            raise scipy.linalg.LinAlgError(f"{k1 + info.value}-th leading minor of H not positive definite")
        if k2 < m:
            dtrsm(b"R", b"L", b"T", b"N", _int(m - k2), _int(k2 - k1), one, at(k1, k1), ld(k1), at(k2, k1), ld(k1))

    def update(k0: int, k1: int, a: int, b: int):
        # columns [a, b) minus the factored panel [k0, k1)'s contribution, one
        # segment [c0, c1) per panel
        if a >= b:
            return
        w, lda = _int(k1 - k0), ld(k0)
        cuts = [a, *(e for e in edges if a < e < b), b]
        for c0, c1 in zip(cuts, cuts[1:]):
            dsyrk(b"L", b"N", _int(c1 - c0), w, minus_one, at(c0, k0), lda, one, at(c0, c0), ld(c0))
            if c1 < m:
                rows, cols = _int(m - c1), _int(c1 - c0)
                dgemm(b"N", b"T", rows, cols, w, minus_one, at(c1, k0), lda, at(c0, k0), lda, one, at(c1, c0), ld(c0))

    factor(edges[0], edges[1])
    for k0, k1, k2, s in _panel_plan(edges):
        job = update(k0, k1, s, m) if worker is None else worker.submit(update, k0, k1, s, m)
        try:
            update(k0, k1, k1, k2)
            factor(k1, k2)
            update(k0, k1, k2, s)
        finally:
            if job is not None:
                job.result()
    return h


def _int(value: int):
    """A Fortran integer argument."""
    return ctypes.byref(ctypes.c_int(value))


def _panel_index(h: list[np.ndarray]):
    """The first column of each of the panels ``h`` of ``_schur_panels``,
    read from their shapes, and ``panel(j)``, the index of the one that holds
    column ``j`` of ``H``."""
    m = h[0].shape[1]
    starts = [m - panel.shape[1] for panel in h]

    def panel(j: int) -> int:
        if not 0 <= j < m:
            raise IndexError(f"column {j} is outside H's {m} columns")
        return bisect.bisect_right(starts, j) - 1

    return starts, panel


def _panel_cells(h: list[np.ndarray]):
    """The column edges of the panels ``h`` of ``_schur_panels``;
    ``at(i, j)``, the address of ``H``'s cell ``(i, j)`` in the panel that
    holds column ``j``, for ``j <= i < m``; and ``ld(j)``, that panel's
    leading dimension as a Fortran array."""
    m = h[0].shape[1]
    starts, panel = _panel_index(h)
    edges = [*starts, m]
    bases = [p.ctypes.data for p in h]

    def at(i: int, j: int) -> int:
        if not j <= i < m:
            raise IndexError(f"cell ({i}, {j}) is outside H's lower triangle")
        q = panel(j)
        k0 = starts[q]
        return bases[q] + 8 * (i - k0 + (j - k0) * (m - k0))

    def ld(j: int):
        return _int(m - starts[panel(j)])

    return edges, at, ld


def _solve_schur(factor: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """``H^-1 rhs`` from the factor panels that ``_factor_schur`` returned.

    One panel takes one ``cho_solve``.  Several take a forward and a back
    substitution, panel by panel: ``dtrsv`` on each diagonal tile and
    ``dgemv`` on the rows below it, which read the factor's triangle alone.
    """
    import scipy.linalg

    m = len(rhs)
    if len(factor) == 1:
        return scipy.linalg.cho_solve((factor[0].T, True), rhs, check_finite=False)
    kernels = _kernels()
    dtrsv, dgemv = kernels["dtrsv"], kernels["dgemv"]
    edges, at, ld = _panel_cells(factor)
    x = np.array(rhs, dtype=float)
    one, minus_one, step = ctypes.byref(ctypes.c_double(1.0)), ctypes.byref(ctypes.c_double(-1.0)), _int(1)
    panels = list(zip(edges, edges[1:]))

    def entry(i: int) -> int:
        return x.ctypes.data + 8 * i

    # L z = rhs, then L^T x = z, both in x
    for k0, k1 in panels:
        w, lda = _int(k1 - k0), ld(k0)
        dtrsv(b"L", b"N", b"N", w, at(k0, k0), lda, entry(k0), step)
        if k1 < m:
            dgemv(b"N", _int(m - k1), w, minus_one, at(k1, k0), lda, entry(k0), step, one, entry(k1), step)
    for k0, k1 in reversed(panels):
        w, lda = _int(k1 - k0), ld(k0)
        if k1 < m:
            dgemv(b"T", _int(m - k1), w, minus_one, at(k1, k0), lda, entry(k1), step, one, entry(k0), step)
        dtrsv(b"L", b"T", b"N", w, at(k0, k0), lda, entry(k0), step)
    return x


def solve_lmi(problem: LmiProblem) -> LmiSolution:
    """Run the predictor-corrector iteration from ``scale * I``, factored once.

    Each iteration factors ``H`` once; the predictor and the corrector
    direction are one solve with that factor each.

    Ends ``optimal`` within ``GAP_TOL`` and ``FEAS_TOL``, or ``infeasible``
    on divergence; on the iteration cap ``MAX_ITERATIONS``, a stall or a step
    with no trial that factors, it returns the best iterate kept, as
    ``max_iterations``.
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
    # H's panels, in one buffer that every iteration assembles H into
    h = _schur_panels(m)
    worker = None
    if len(h) > 1 and _usable_cpus() >= 2:
        from concurrent.futures import ThreadPoolExecutor

        worker = ThreadPoolExecutor(1)
    # one worker thread for the whole solve, or None; shut down on every exit
    with worker or contextlib.nullcontext():
        for it in range(1, MAX_ITERATIONS + 1):
            rd = [mb - zb for mb, zb in zip(problem.mat(y), z_blocks)]  # dual residual matrices
            rp = -b - problem.inner(x_blocks)  # primal residuals <F_k, X> = -b_k
            gap = sum(float(np.vdot(xb, zb)) for xb, zb in zip(x_blocks, z_blocks))
            mu = gap / n_total

            pobj = sum(float(np.vdot(f, xb)) for f, xb in zip(problem.f0, x_blocks))
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

            zinv = [_inverse(l) for l in lz]

            # last iteration's factor is dead once the next H is assembled into its panels
            cho = None
            problem.schur(x_blocks, zinv, out=h, worker=worker)
            jitter = 1e-13 * max(1.0, sum(float(np.trace(panel)) for panel in h) / max(m, 1))
            for attempt in range(8):
                if attempt:
                    # the failed factorization overwrote H: assemble it again
                    problem.schur(x_blocks, zinv, out=h, worker=worker)
                    jitter *= 100.0
                for panel in h:
                    panel.flat[:: panel.shape[1] + 1] += jitter
                try:
                    # H + jitter*I, factored in its panels
                    cho = _factor_schur(h, worker)
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
                dy = _solve_schur(cho, rhs)
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
                float(np.vdot(xb + ap * dxb, zb + ad * dzb))
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
        primal_objective=sum(float(np.vdot(f, xb)) for f, xb in zip(problem.f0, x_blocks)),
        status=status,
        iterations=it,
        rel_gap=float(rel_gap),
        primal_infeasibility=float(pinf),
        dual_infeasibility=float(dinf),
        log=log,
    )
