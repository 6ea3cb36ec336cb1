import collections
import ctypes
import functools
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from nonlocality_wb import npa, sdp
from nonlocality_wb.hardy import original_hardy, realigned_hardy
from nonlocality_wb.sdp import (
    LmiProblem,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITERATIONS,
    STATUS_OPTIMAL,
    solve_lmi,
)


def block(dim, m, entries):
    """The ``(dim^2, m)`` matrix with column ``k`` = row-major ``vec(F_k)``,
    kept in the listed COO order; entries are (var, row, col, val), and
    off-diagonals are auto-mirrored."""
    var, row, col, val = [], [], [], []
    for k, r, c, v in entries:
        var.append(k)
        row.append(r)
        col.append(c)
        val.append(v)
        if r != c:
            var.append(k)
            row.append(c)
            col.append(r)
            val.append(v)
    cell = np.array(row, dtype=np.int64) * dim + np.array(col, dtype=np.int64)
    return scipy.sparse.coo_matrix(
        (np.array(val, dtype=float), (cell, np.array(var, dtype=np.int64))), shape=(dim * dim, m)
    )


def test_single_offdiagonal_variable():
    # max y with [[1, y], [y, 1]] PSD -> y* = 1
    problem = LmiProblem(
        f0_blocks=[np.eye(2)],
        f_blocks=[block(2, 1, [(0, 0, 1, 1.0)])],
        b=np.array([1.0]),
    )
    sol = solve_lmi(problem)
    assert sol.status == STATUS_OPTIMAL
    assert sol.y[0] == pytest.approx(1.0, abs=1e-6)
    assert sol.rel_gap <= 1e-7


def test_two_blocks_linear_program():
    # max y1 + 2 y2 with 1 - y1 >= 0 and 3 - y2 >= 0 -> objective 7
    problem = LmiProblem(
        f0_blocks=[np.array([[1.0]]), np.array([[3.0]])],
        f_blocks=[block(1, 2, [(0, 0, 0, -1.0)]), block(1, 2, [(1, 0, 0, -1.0)])],
        b=np.array([1.0, 2.0]),
    )
    sol = solve_lmi(problem)
    assert sol.status == STATUS_OPTIMAL
    assert sol.objective == pytest.approx(7.0, abs=1e-6)


def test_smallest_eigenvalue():
    # max t with A - t I PSD -> t* = lambda_min(A)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 6))
    a = 0.5 * (a + a.T) + 2.0 * np.eye(6)
    entries = [(0, i, i, -1.0) for i in range(6)]
    problem = LmiProblem(f0_blocks=[a], f_blocks=[block(6, 1, entries)], b=np.array([1.0]))
    sol = solve_lmi(problem)
    assert sol.status == STATUS_OPTIMAL
    assert sol.y[0] == pytest.approx(np.linalg.eigvalsh(a)[0], abs=1e-6)


def test_kkt_certificates_on_random_feasible_problem():
    rng = np.random.default_rng(5)
    dim, m = 7, 9
    entries = []
    for k in range(m):
        for _ in range(3):
            r, c = rng.integers(0, dim, size=2)
            entries.append((k, min(r, c), max(r, c), float(rng.normal())))
    f0 = 3.0 * np.eye(dim)  # strictly feasible at y = 0
    problem = LmiProblem(f0_blocks=[f0], f_blocks=[block(dim, m, entries)], b=rng.normal(size=m))
    sol = solve_lmi(problem)
    assert sol.status == STATUS_OPTIMAL
    z = problem.mat(sol.y)[0]
    x = sol.primal_blocks[0]
    assert np.linalg.eigvalsh(z)[0] >= -1e-9
    assert np.linalg.eigvalsh(x)[0] >= -1e-9
    # primal feasibility <F_k, X> = -b_k and near-zero duality gap
    assert np.abs(problem.inner([x]) + problem.b).max() <= 1e-6
    assert abs(sol.primal_objective - sol.objective) <= 1e-6 * (1 + abs(sol.objective))


def test_infeasible_lmi_detected(monkeypatch):
    # y >= 1 and -y >= 1 cannot both hold
    problem = LmiProblem(
        f0_blocks=[np.array([[-1.0]]), np.array([[-1.0]])],
        f_blocks=[block(1, 1, [(0, 0, 0, 1.0)]), block(1, 1, [(0, 0, 0, -1.0)])],
        b=np.array([1.0]),
    )
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 200)
    sol = solve_lmi(problem)
    assert sol.status in (STATUS_INFEASIBLE, STATUS_MAX_ITERATIONS)
    assert sol.status != STATUS_OPTIMAL


def test_iteration_cap(monkeypatch):
    problem = LmiProblem(
        f0_blocks=[np.eye(2)],
        f_blocks=[block(2, 1, [(0, 0, 1, 1.0)])],
        b=np.array([1.0]),
    )
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    sol = solve_lmi(problem)
    assert sol.status == STATUS_MAX_ITERATIONS


def var_entries(f, dim):
    """(var, row, col, val) of the block matrix ``f``, duplicates summed and
    zeros dropped, in (variable, cell) order."""
    c = scipy.sparse.coo_matrix(f, copy=True)
    c.sum_duplicates()
    c.eliminate_zeros()
    order = np.lexsort((c.row, c.col))
    var, cell, val = c.col[order], c.row[order], c.data[order]
    return var, cell // dim, cell % dim, val


def dense_f(f, dim, m):
    """Dense ``F_k`` restricted to one block, for every variable k."""
    var, row, col, val = var_entries(f, dim)
    out = np.zeros((m, dim, dim))
    np.add.at(out, (var, row, col), val)
    return out


def random_spd(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + dim * np.eye(dim)


def bincount_schur(m, f_blocks, u_blocks, v_blocks):
    """The column-by-column ``bincount`` Schur assembly the solver used to
    run, kept as a bitwise oracle for the row-gather assembly.  Column ``j``
    holds ``tr(F_i U F_j V)`` for every ``i`` as read off variable ``j``'s
    product; it is returned without the final symmetrization, so
    ``np.triu(oracle.T)`` is the triangle that ``LmiProblem.schur`` fills."""
    h = np.zeros((m, m))
    for f, u, v in zip(f_blocks, u_blocks, v_blocks):
        dim = len(u)
        var, rows, cols, vals = var_entries(f, dim)
        ptr = np.searchsorted(var, np.arange(m + 1))
        eflat_t = cols * dim + rows
        for j in range(m):
            lo, hi = ptr[j], ptr[j + 1]
            if lo == hi:
                continue
            t = (u[:, rows[lo:hi]] * vals[lo:hi][None, :]) @ v[cols[lo:hi], :]
            h[:, j] += np.bincount(var, weights=vals * t.ravel()[eflat_t], minlength=m)
    return h


def random_schur_entries(rng):
    """Entries of two blocks, listed in shuffled variable order; cell (0, 2)
    of the first block is shared by variables 1 and 3, variable 5 has no
    entry in the second block, and a few (variable, cell) pairs are listed
    twice."""
    m = 6

    def entry(k, dim):
        r, c = sorted(rng.integers(0, dim, size=2))
        return k, r, c, float(rng.normal())

    first = [entry(k, 5) for k in range(m) for _ in range(3)] + [(1, 0, 2, 0.7), (3, 0, 2, -1.3)]
    second = [entry(k, 4) for k in range(m - 1) for _ in range(2)]
    shuffled = [
        (dim, [entries[i] for i in rng.permutation(len(entries))])
        for dim, entries in ((5, first), (4, second))
    ]
    assert any(a[0] > b[0] for a, b in zip(shuffled[0][1], shuffled[0][1][1:]))
    assert any(e[0] == 5 for e in shuffled[0][1]) and all(e[0] != 5 for e in shuffled[1][1])
    return m, shuffled


def dense_trace_schur(m, f_blocks, u_blocks, v_blocks):
    """``H_ij = sum_blocks tr(F_i U F_j V)`` from dense ``F_k``."""
    h = np.zeros((m, m))
    for f, u, v in zip(f_blocks, u_blocks, v_blocks):
        fk = dense_f(f, len(u), m)
        h += np.einsum("ipq,qr,jrs,sp->ij", fk, u, fk, v, optimize=True)
    return h


def test_schur_matches_dense_trace_and_bincount_assembly():
    rng = np.random.default_rng(11)
    m, shuffled = random_schur_entries(rng)
    dims = [d for d, _ in shuffled]
    blocks = [block(d, m, e) for d, e in shuffled]
    problem = LmiProblem([np.zeros((d, d)) for d in dims], blocks, np.zeros(m))
    u = [random_spd(rng, d) for d in dims]
    v = [random_spd(rng, d) for d in dims]
    upper = np.triu(problem.schur(u, v))
    oracle = dense_trace_schur(m, blocks, u, v)
    assert np.abs(upper - np.triu(oracle)).max() <= 1e-12 * np.abs(oracle).max()
    assert np.array_equal(upper, np.triu(bincount_schur(m, blocks, u, v).T))


def test_schur_does_not_depend_on_entry_order():
    rng = np.random.default_rng(11)
    m, shuffled = random_schur_entries(rng)
    dims = [dim for dim, _ in shuffled]
    f0 = [np.zeros((d, d)) for d in dims]
    u = [random_spd(rng, d) for d in dims]
    v = [random_spd(rng, d) for d in dims]
    h_shuffled = LmiProblem(f0, [block(d, m, e) for d, e in shuffled], np.zeros(m)).schur(u, v)
    h_sorted = LmiProblem(f0, [block(d, m, sorted(e)) for d, e in shuffled], np.zeros(m)).schur(u, v)
    assert np.array_equal(h_shuffled, h_sorted)


def test_problem_rejects_misshapen_blocks():
    f = block(2, 1, [(0, 0, 1, 1.0)])
    with pytest.raises(ValueError, match="not square"):
        LmiProblem([np.eye(3)[:2]], [f], np.ones(1))
    with pytest.raises(ValueError, match=r"\(dim\^2, m\)"):
        LmiProblem([np.eye(3)], [f], np.ones(1))
    with pytest.raises(ValueError, match=r"\(dim\^2, m\)"):
        LmiProblem([np.eye(2)], [f], np.ones(2))


def recorded_npa_problem(monkeypatch, n, level):
    """The LMI problem of ``npa n --level level`` and the F blocks it was given;
    ``n`` is a setting count or ``"original"``."""
    captured = {}

    class Recording(LmiProblem):
        def __init__(self, f0_blocks, f_blocks, b):
            captured["blocks"] = f_blocks
            super().__init__(f0_blocks, f_blocks, b)

    with monkeypatch.context() as patch:
        patch.setattr(npa, "LmiProblem", Recording)
        paradox = original_hardy() if n == "original" else realigned_hardy(n)
        problem = npa._affine_map(npa.build_program(paradox, level)).problem
    return problem, captured["blocks"]


def schur_inputs(problem, seed):
    """A random SPD ``U`` and a symmetrized SPD inverse ``V`` per block."""
    rng = np.random.default_rng(seed)
    u = [random_spd(rng, d) for d in problem.dims]
    v = [np.linalg.inv(random_spd(rng, d)) for d in problem.dims]
    return u, [0.5 * (vb + vb.T) for vb in v]


@pytest.mark.parametrize("n,level", [(2, 3), (4, 2)])
def test_schur_is_bitwise_the_bincount_assembly_on_npa_programs(monkeypatch, n, level):
    problem, blocks = recorded_npa_problem(monkeypatch, n, level)
    u, v = schur_inputs(problem, n + level)
    upper = np.triu(problem.schur(u, v))
    assert np.array_equal(upper, np.triu(bincount_schur(problem.m, blocks, u, v).T))


@pytest.mark.parametrize("n,level", [(2, 3), (4, 2), ("original", 3)])
def test_mat_is_bitwise_the_csr_product_on_npa_programs(monkeypatch, n, level):
    problem, blocks = recorded_npa_problem(monkeypatch, n, level)
    csr = []
    for f in blocks:
        c = scipy.sparse.csr_matrix(f, dtype=float, copy=True)
        c.sum_duplicates()
        csr.append(c)
    rng = np.random.default_rng(7)
    for _ in range(3):
        y = rng.normal(size=problem.m)
        sums = problem.mat(y, include_f0=False)
        full = problem.mat(y)
        for c, f0, s, a in zip(csr, problem.f0, sums, full):
            assert np.array_equal(s, (c @ y).reshape(f0.shape))
            assert np.array_equal(a, s + f0)


def test_schur_triangle_does_not_depend_on_piece_length(monkeypatch):
    _, blocks = recorded_npa_problem(monkeypatch, 2, 3)
    m = blocks[0].shape[1]
    triangles = []
    for piece in (1, 7, m):
        monkeypatch.setattr(sdp, "_PIECE", piece)
        problem = npa._affine_map(npa.build_program(realigned_hardy(2), 3)).problem
        assert len(problem.tails[0]) == len(problem.pieces[0]) == -(-m // piece)
        u, v = schur_inputs(problem, 5)
        triangles.append(np.triu(problem.schur(u, v)))
    assert all(np.array_equal(t, triangles[0]) for t in triangles[1:])
    assert np.array_equal(triangles[0], np.triu(bincount_schur(m, blocks, u, v).T))


def test_dense_schur_matches_dense_trace_on_random_blocks(monkeypatch):
    rng = np.random.default_rng(11)
    m, shuffled = random_schur_entries(rng)
    dims = [d for d, _ in shuffled]
    blocks = [block(d, m, e) for d, e in shuffled]
    u = [random_spd(rng, d) for d in dims]
    v = [random_spd(rng, d) for d in dims]
    oracle = dense_trace_schur(m, blocks, u, v)
    # at one variable per piece, variable 5's piece of the second block has no entry
    for piece in (1, 4, sdp._PIECE):
        monkeypatch.setattr(sdp, "_PIECE", piece)
        problem = LmiProblem([np.zeros((d, d)) for d in dims], blocks, np.zeros(m))
        assert np.abs(np.triu(problem.schur(u, v) - oracle)).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("n,level", [(2, 3), (4, 2), ("original", 3)])
def test_dense_schur_matches_dense_trace_on_npa_programs(monkeypatch, n, level):
    problem, blocks = recorded_npa_problem(monkeypatch, n, level)
    u, v = schur_inputs(problem, 3)
    oracle = dense_trace_schur(problem.m, blocks, u, v)
    assert np.abs(np.triu(problem.schur(u, v) - oracle)).max() <= 1e-12 * np.abs(oracle).max()


def test_solver_reads_only_the_schur_triangle(monkeypatch):
    problem = npa._affine_map(npa.build_program(realigned_hardy(4), 2)).problem
    plain = solve_lmi(problem)
    schur = LmiProblem.schur

    def nan_below(self, u_blocks, v_blocks, **kwargs):
        h = schur(self, u_blocks, v_blocks, **kwargs)
        h[np.tril_indices(self.m, -1)] = np.nan
        return h

    monkeypatch.setattr(LmiProblem, "schur", nan_below)
    poisoned = solve_lmi(problem)
    assert poisoned.status == plain.status == STATUS_OPTIMAL
    assert poisoned.iterations == plain.iterations
    assert np.array_equal(poisoned.y, plain.y)
    for a, b in zip(poisoned.primal_blocks, plain.primal_blocks):
        assert np.array_equal(a, b)


def test_schur_tails_hold_at_most_twice_the_gather_entries():
    # scipy copies a CSR slice shorter than half of its base array; the tails
    # are cut from each other, so their entries fit in about twice the gather's
    problem = npa._affine_map(npa.build_program(realigned_hardy(4), 3)).problem
    for pieces, tails, g in zip(problem.pieces, problem.tails, problem.gather):
        assert len(tails) == -(-problem.m // sdp._PIECE)
        owners = {}
        for t in tails:
            base = t.data if t.data.base is None else t.data.base
            owners[id(base)] = base.size
        assert sum(owners.values()) <= 2 * g.nnz
        # the padded entries of a piece add at most as many zeros as it has entries
        assert len(pieces) == len(tails)
        assert all(r.dtype == c.dtype == np.int32 for r, c, _ in pieces)
        assert sum(w.size for _, _, w in pieces) <= 2 * g.nnz


@pytest.mark.parametrize("n", [4, 6])
def test_piece_square_starts_at_the_smallest_index_its_tail_reads(n):
    problem = npa._affine_map(npa.build_program(realigned_hardy(n), 2)).problem
    for dim, tails, los in zip(problem.dims, problem.tails, problem.lo):
        assert len(los) == len(tails)
        for tail, lo in zip(tails, los):
            rows, cols = np.divmod(tail.indices, dim)
            assert lo == min(rows.min(initial=dim), cols.min(initial=dim))
        # the restriction is exercised: some piece of every block forms less than dim^2
        assert max(los) > 0


def piece_problem(monkeypatch):
    """Two random blocks, m = 8 at two variables per piece, with a random SPD
    ``U`` and ``V`` per block.  In the first block variables 0-3 touch row 0
    and fill the piece buffers, then the pieces of variables 4-7 read only
    rows 3-5 and 4-5, each from its second variable on; in the smaller second
    block variables 6 and 7 have no entry at all."""
    monkeypatch.setattr(sdp, "_PIECE", 2)
    rng = np.random.default_rng(7)
    m = 8
    first = [(k, 0, int(c), float(rng.normal())) for k in range(4) for c in rng.integers(0, 6, size=3)]
    late = [(4, 4, 5), (4, 5, 5), (5, 3, 4), (5, 3, 3), (6, 5, 5), (7, 4, 5), (7, 4, 4)]
    first += [(k, r, c, float(rng.normal())) for k, r, c in late]
    second = [(k, int(r), int(c), float(rng.normal())) for k in range(6) for r, c in rng.integers(0, 4, size=(2, 2))]
    dims = [6, 4]
    blocks = [block(6, m, first), block(4, m, second)]
    problem = LmiProblem([np.zeros((d, d)) for d in dims], blocks, np.zeros(m))
    assert problem.lo[0] == [0, 0, 3, 4] and problem.lo[1][3] == 4
    u = [random_spd(rng, d) for d in dims]
    v = [random_spd(rng, d) for d in dims]
    return problem, blocks, u, v


def test_schur_reads_no_stale_cells_outside_a_piece_square(monkeypatch):
    problem, blocks, u, v = piece_problem(monkeypatch)
    assert np.array_equal(np.triu(problem.schur(u, v)), np.triu(bincount_schur(problem.m, blocks, u, v).T))


class Worker(ThreadPoolExecutor):
    """The one-thread executor that ``solve_lmi`` passes as ``worker``, keeping
    every job submitted to it.  Leaving its block checks that each of them is
    done: the call that submitted a job joins it before it returns or raises."""

    def __init__(self):
        super().__init__(1)
        self.jobs = []

    def submit(self, fn, /, *args, **kwargs):
        self.jobs.append(super().submit(fn, *args, **kwargs))
        return self.jobs[-1]

    def __exit__(self, *exc):
        done = all(job.done() for job in self.jobs)
        super().__exit__(*exc)
        assert done, "a job was still running when the call that submitted it ended"


def use_solve_worker(monkeypatch):
    """Give every solve its worker, whatever the program's size and the CPUs
    this process may run on; a lowered gate also factors H by panels."""
    monkeypatch.setattr(sdp, "_THREADED_M", 0)
    monkeypatch.setattr(sdp, "_usable_cpus", lambda: 2)


def test_schur_triangle_does_not_depend_on_the_thread_count(monkeypatch):
    problem, blocks = recorded_npa_problem(monkeypatch, 6, 2)
    assert problem.m == 1376 >= sdp._THREADED_M
    u, v = schur_inputs(problem, 8)
    serial = np.triu(problem.schur(u, v))
    # thread switches at every chance: a piece taken twice or not at all
    # would change H
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Worker() as worker:
            threaded = [np.triu(problem.schur(u, v, worker=worker)) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert len(worker.jobs) == 3
    assert all(np.array_equal(t, serial) for t in threaded)
    assert np.array_equal(serial, np.triu(bincount_schur(problem.m, blocks, u, v).T))


def test_neighbouring_pieces_on_two_threads_give_the_one_thread_triangle(monkeypatch):
    problem, blocks, u, v = piece_problem(monkeypatch)
    serial = np.triu(problem.schur(u, v))
    # each piece forms one product per block, and each product waits for one
    # from the other thread: pieces 0 and 1 go to different threads, and so do
    # pieces 2 and 3.  Both products are formed before either is read, so
    # threads that shared a buffer would read each other's
    barrier = threading.Barrier(2, timeout=30)
    matmul, callers = np.matmul, []

    def paired(*args, **kwargs):
        callers.append(threading.get_ident())
        product = matmul(*args, **kwargs)
        barrier.wait()
        return product

    monkeypatch.setattr(np, "matmul", paired)
    with Worker() as worker:
        threaded = np.triu(problem.schur(u, v, worker=worker))
    assert sorted(collections.Counter(callers).values()) == [4, 4]
    assert np.array_equal(threaded, serial)
    assert np.array_equal(serial, np.triu(bincount_schur(problem.m, blocks, u, v).T))


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_failing_piece_leaves_schur_and_no_thread_behind(monkeypatch, failing):
    problem, _, u, v = piece_problem(monkeypatch)
    caller, matmul, failed = threading.get_ident(), np.matmul, threading.Event()

    def fails_on_one_thread(*args, **kwargs):
        if (threading.get_ident() == caller) == (failing == "caller"):
            failed.set()
            raise RuntimeError(f"piece failed on the {failing}")
        # the other thread's pieces wait until the failing thread has taken one
        assert failed.wait(timeout=30)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", fails_on_one_thread)
    before = threading.enumerate()
    with Worker() as worker, pytest.raises(RuntimeError, match=f"piece failed on the {failing}"):
        problem.schur(u, v, worker=worker)
    assert threading.enumerate() == before


def solve_peak_bytes(problem):
    tracemalloc.start()
    try:
        solve_lmi(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_solver_holds_one_schur_sized_array_at_most():
    # npa 6 --level 2: m = 1376, so an m x m array is 15 MB; H, factored in
    # place, is the only one the solver needs at a time
    problem = npa._affine_map(npa.build_program(realigned_hardy(6), 2)).problem
    assert problem.m == 1376
    assert solve_peak_bytes(problem) < 1.25 * problem.m**2 * 8


def test_dense_path_holds_two_schur_sized_and_three_block_arrays_at_most():
    # npa 4 --level 2 (m = 259, blocks 27 + 22) once took a dense path that
    # held two m x m arrays and three (dim^2, m) arrays; it now takes the one
    # batched assembly, which must stay within that bound and, with the
    # per-block arrays weighing more against m^2 here, within 2.5 m^2 doubles
    problem = npa._affine_map(npa.build_program(realigned_hardy(4), 2)).problem
    m, dim = problem.m, max(problem.dims)
    assert m == 259
    assert all(len(tails) == -(-m // sdp._PIECE) for tails in problem.tails)
    peak = solve_peak_bytes(problem)
    assert peak < 8 * (2 * m * m + 3 * dim * dim * m)
    assert peak < 2.5 * m**2 * 8


def schur_bytes_beside_h(monkeypatch, threads):
    """npa 6 --level 2's problem and the peak bytes one ``schur`` call holds
    beyond the H it returns, assembled on ``threads`` threads."""
    problem = npa._affine_map(npa.build_program(realigned_hardy(6), 2)).problem
    u, v = schur_inputs(problem, 6)
    with Worker() as worker:
        tracemalloc.start()
        try:
            h = problem.schur(u, v, worker=worker if threads == 2 else None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert h.nbytes == 8 * problem.m**2
    return problem, peak - h.nbytes


def test_schur_holds_one_pair_of_piece_buffers_beside_h(monkeypatch):
    # npa 6 --level 2 (blocks 58 + 51) on one thread: beyond H, one call holds
    # the two piece buffers of the largest block and a piece's (m - start,
    # _PIECE) product; a second pair of buffers would break the bound
    problem, extra = schur_bytes_beside_h(monkeypatch, 1)
    assert extra <= 8 * 2.5 * sdp._PIECE * (max(problem.dims) ** 2 + problem.m)


def test_schur_holds_one_pair_of_piece_buffers_per_thread(monkeypatch):
    # the same on two threads, each with its own pair; a third pair would break it
    problem, extra = schur_bytes_beside_h(monkeypatch, 2)
    assert extra <= 2 * 8 * 2.5 * sdp._PIECE * (max(problem.dims) ** 2 + problem.m)


def test_iterates_keep_the_factors_that_accepted_them(monkeypatch):
    # the start point and every accepted step are factored once each, X and Z
    problem = npa._affine_map(npa.build_program(realigned_hardy(2), 3)).problem
    chol_blocks = sdp._chol_blocks
    calls = []

    def counted(blocks):
        calls.append(len(blocks))
        return chol_blocks(blocks)

    monkeypatch.setattr(sdp, "_chol_blocks", counted)
    sol = solve_lmi(problem)
    assert sol.status == STATUS_OPTIMAL
    assert len(calls) == 2 * sol.iterations


@pytest.mark.parametrize("k", [1, 5])
def test_no_trial_that_factors_ends_on_the_last_accepted_iterate(monkeypatch, k):
    problem = npa._affine_map(npa.build_program(realigned_hardy(4), 2)).problem
    schur = LmiProblem.schur
    chol_blocks = sdp._chol_blocks
    assembled = []

    def counted(self, u_blocks, v_blocks, **kwargs):
        assembled.append(1)
        return schur(self, u_blocks, v_blocks, **kwargs)

    def fails_from_iteration_k(blocks):
        # one Schur assembly per iteration; the start point is factored before any
        return None if len(assembled) >= k else chol_blocks(blocks)

    monkeypatch.setattr(LmiProblem, "schur", counted)
    monkeypatch.setattr(sdp, "_chol_blocks", fails_from_iteration_k)
    sol = solve_lmi(problem)
    assert sol.status == STATUS_MAX_ITERATIONS
    assert sol.iterations == k
    assert all(len(column) == k for column in sol.log.values())
    for x in sol.primal_blocks:
        scipy.linalg.cholesky(x, lower=True)


def test_iteration_log_ends_on_the_reported_iterate():
    sol = npa.solve(npa.build_program(realigned_hardy(2), 3))
    assert sol.status == STATUS_OPTIMAL
    diagnostics = sol.diagnostics
    log = diagnostics["iteration_log"]
    assert list(log) == ["rel_gap", "primal_infeasibility", "dual_infeasibility", "mu"]
    for column in log.values():
        assert len(column) == diagnostics["iterations"]
        assert all(math.isfinite(v) for v in column)
    for key in ("rel_gap", "primal_infeasibility", "dual_infeasibility"):
        assert log[key][-1] == diagnostics[key]


def test_each_direction_is_one_solve_with_the_schur_factor(monkeypatch):
    problem = npa._affine_map(npa.build_program(realigned_hardy(2), 3)).problem
    m = problem.m
    assert m not in problem.dims
    cho_solve = scipy.linalg.cho_solve
    solves = []

    def counted(c_and_lower, b, *args, **kwargs):
        if c_and_lower[0].shape == (m, m):
            solves.append(1)
        return cho_solve(c_and_lower, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_solve", counted)
    sol = solve_lmi(problem)
    assert sol.status == STATUS_OPTIMAL
    # a predictor and a corrector in every iteration but the one that stops
    assert len(solves) == 2 * (sol.iterations - 1)


def test_failed_factorization_retries_on_a_reassembled_schur_matrix(monkeypatch):
    cho_factor = scipy.linalg.cho_factor
    factored = []

    def fail_once(a, *args, **kwargs):
        factored.append(np.array(a))
        if len(factored) == 1:
            # a failed potrf leaves the triangle it read overwritten
            a[np.tril_indices(len(a))] = np.nan
            raise scipy.linalg.LinAlgError("not positive definite")
        return cho_factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", fail_once)
    check_retry_on_a_reassembled_schur_matrix(monkeypatch, factored)


def test_failed_factorization_retries_on_two_threads(monkeypatch):
    # with the gate lowered, m = 259 factors in five panels of 64; in the
    # first factorization the third panel's dpotrf reports a minor that is
    # not positive definite, while the worker updates the columns past it and
    # after the first two panels have overwritten part of H
    use_solve_worker(monkeypatch)
    monkeypatch.setattr(sdp, "_NB", 64)
    factor_schur = sdp._factor_schur
    kernels = dict(sdp._kernels())
    dpotrf = kernels["dpotrf"]
    factored, arrays, panels, overwritten, workers = [], [], [], [], set()

    def recorded(h, worker):
        factored.append(h.T.copy())
        arrays.append(h)
        panels.clear()
        workers.add(worker)
        return factor_schur(h, worker)

    def fails_on_the_third_panel(uplo, n, a, lda, info):
        dpotrf(uplo, n, a, lda, info)
        panels.append(a)
        if len(factored) == 1 and len(panels) == 3:
            overwritten.append(not np.array_equal(arrays[0].T, factored[0]))
            info[0] = 1

    monkeypatch.setattr(sdp, "_factor_schur", recorded)
    kernels["dpotrf"] = type(dpotrf)(fails_on_the_third_panel)
    monkeypatch.setattr(sdp, "_kernels", lambda: kernels)
    check_retry_on_a_reassembled_schur_matrix(monkeypatch, factored)
    assert overwritten == [True]
    # one worker factors every H of the solve
    assert len(workers) == 1 and None not in workers


def count_worker_threads(monkeypatch):
    """Patch ``threading`` and the executor to record, in the returned lists,
    each thread started and the name of each function submitted to a worker;
    every solve is given two usable CPUs."""
    monkeypatch.setattr(sdp, "_usable_cpus", lambda: 2)
    start, submit = threading.Thread.start, ThreadPoolExecutor.submit
    started, submitted = [], []

    def counted_start(thread):
        started.append(thread)
        start(thread)

    def counted_submit(pool, fn, /, *args, **kwargs):
        submitted.append(fn.__name__)
        return submit(pool, fn, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted_submit)
    return started, submitted


def test_a_solve_starts_one_worker_from_the_gate_on(monkeypatch):
    # npa 6 --level 2 (m = 1376) shares one worker among the Schur assemblies
    # and factorizations of all its iterations; npa 4 --level 2 (m = 259),
    # below the gate, starts none
    started, submitted = count_worker_threads(monkeypatch)
    before = threading.enumerate()
    for n, m, workers in ((6, 1376, 1), (4, 259, 0)):
        problem = npa._affine_map(npa.build_program(realigned_hardy(n), 2)).problem
        assert problem.m == m
        started.clear()
        submitted.clear()
        sol = solve_lmi(problem)
        assert sol.status == STATUS_OPTIMAL
        assert len(started) == workers
        assert set(submitted) == ({"assemble", "update"} if workers else set())
        assert threading.enumerate() == before


@pytest.mark.parametrize("failure", ["dsyrk raises", "a factorization fails once"])
def test_a_solve_leaves_no_thread_behind(monkeypatch, failure):
    # npa 6 --level 2 (m = 1376) factors H in eight panels on the caller and
    # its worker.  Either the worker's 30th dsyrk, a few iterations in,
    # raises and ends the solve, or the first factorization's third panel
    # reports a minor that is not positive definite and the solve retries it
    started, _ = count_worker_threads(monkeypatch)
    problem = npa._affine_map(npa.build_program(realigned_hardy(6), 2)).problem
    kernels = dict(sdp._kernels())
    dsyrk, dpotrf = kernels["dsyrk"], kernels["dpotrf"]
    caller, worker_calls, panels = threading.get_ident(), [], []

    def fails_on_the_30th_worker_call(*args):
        if threading.get_ident() != caller:
            worker_calls.append(1)
            if len(worker_calls) == 30:
                raise RuntimeError("dsyrk failed")
        return dsyrk(*args)

    def fails_on_the_first_third_panel(uplo, n, a, lda, info):
        dpotrf(uplo, n, a, lda, info)
        panels.append(a)
        if len(panels) == 3:
            info[0] = 1

    if failure == "dsyrk raises":
        kernels["dsyrk"] = fails_on_the_30th_worker_call
    else:
        kernels["dpotrf"] = type(dpotrf)(fails_on_the_first_third_panel)
    monkeypatch.setattr(sdp, "_kernels", lambda: kernels)
    before = threading.enumerate()
    if failure == "dsyrk raises":
        with pytest.raises(RuntimeError, match="dsyrk failed"):
            solve_lmi(problem)
    else:
        assert solve_lmi(problem).status == STATUS_OPTIMAL
        assert len(panels) > 8
    assert len(started) == 1
    assert threading.enumerate() == before


def check_retry_on_a_reassembled_schur_matrix(monkeypatch, factored):
    """Solve npa 4 --level 2 with its first factorization of H failing;
    ``factored`` collects the input of every factorization."""
    problem = npa._affine_map(npa.build_program(realigned_hardy(4), 2)).problem
    m = problem.m
    schur = LmiProblem.schur
    assembled = []

    def recorded(self, u_blocks, v_blocks, **kwargs):
        h = schur(self, u_blocks, v_blocks, **kwargs)
        assembled.append(h.copy())
        return h

    monkeypatch.setattr(LmiProblem, "schur", recorded)
    sol = solve_lmi(problem)
    assert sol.status == STATUS_OPTIMAL
    jitter = 1e-13 * max(1.0, float(np.trace(assembled[0])) / m)
    first, second = assembled[:2]
    first.flat[:: m + 1] += jitter
    second.flat[:: m + 1] += 100.0 * jitter
    assert np.array_equal(factored[0], first.T)
    assert np.array_equal(factored[1], second.T)
    # one retry, then one assembly and one factorization per iteration
    assert len(assembled) == len(factored) == sol.iterations


def plan_factor(monkeypatch, h, threads):
    """The lower triangle of ``sdp._factor_schur``'s factor of a copy of
    ``h``, with the panel plan at every size, on ``threads`` threads: with a
    worker for 2, the same calls in turn for 1."""
    monkeypatch.setattr(sdp, "_THREADED_M", 0)
    with Worker() as worker:
        c, lower = sdp._factor_schur(h.copy(), worker if threads == 2 else None)
    assert lower is True
    return np.tril(c)


def cho_factor_lower(h):
    """The lower triangle of ``cho_factor``'s factor of ``h.T``, as the solver called it."""
    return np.tril(scipy.linalg.cho_factor(h.T.copy(order="F"), lower=True, check_finite=False)[0])


def npa_schur_matrix(monkeypatch):
    """npa 6 --level 2's Schur matrix (m = 1376) at random SPD inputs, plus
    the solver's diagonal jitter."""
    problem, _ = recorded_npa_problem(monkeypatch, 6, 2)
    h = problem.schur(*schur_inputs(problem, 8))
    h.flat[:: problem.m + 1] += 1e-13 * float(np.trace(h)) / problem.m
    return h


def random_schur_matrix(m):
    """A random SPD ``m x m`` matrix in the layout ``schur`` returns: H in the
    upper triangle, arbitrary values below it."""
    rng = np.random.default_rng(m)
    h = np.triu(random_spd(rng, m)) + np.tril(rng.normal(size=(m, m)), -1)
    return h


@pytest.mark.parametrize("m", ["below one panel", "not a multiple of the panel", "npa 6 --level 2"])
def test_schur_factor_does_not_depend_on_the_thread_count(monkeypatch, m):
    if m == "npa 6 --level 2":
        h = npa_schur_matrix(monkeypatch)
    else:
        h = random_schur_matrix(sdp._NB - 5 if m == "below one panel" else 3 * sdp._NB + 37)
    with sdp._single_blas_thread():
        one, two = plan_factor(monkeypatch, h, 1), plan_factor(monkeypatch, h, 2)
        oracle = cho_factor_lower(h)
    assert np.array_equal(one, two)
    assert np.abs(one - oracle).max() <= 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("m", [1, 7, sdp._NB])
def test_schur_factor_of_one_panel_is_one_dpotrf_and_cho_factors(monkeypatch, m):
    kernels = sdp._kernels()
    calls = []

    def counted(name):
        def kernel(*args):
            calls.append(name)
            return kernels[name](*args)

        return kernel

    monkeypatch.setattr(sdp, "_kernels", lambda: {name: counted(name) for name in kernels})
    h = random_schur_matrix(m)
    with sdp._single_blas_thread():
        factor = plan_factor(monkeypatch, h, 2)
        oracle = cho_factor_lower(h)
    assert calls == ["dpotrf"]
    assert np.array_equal(factor, oracle)


@functools.cache
def haswell_thread_claims():
    """Run in a child interpreter on OpenBLAS's Haswell (AVX2) kernel, which
    picks its CPU kernel per process: whether the panel factor and npa 6
    --level 2's Schur triangle are bitwise the same with a worker and without
    one, and the kernel name of every loaded scipy OpenBLAS."""
    child = textwrap.dedent(
        """
        import ctypes, json
        from concurrent.futures import ThreadPoolExecutor
        import numpy as np
        from nonlocality_wb import npa, sdp
        from nonlocality_wb.hardy import realigned_hardy

        problem = npa._affine_map(npa.build_program(realigned_hardy(6), 2)).problem
        rng = np.random.default_rng(8)
        u, v = [], []
        for d in problem.dims:
            a, b = rng.normal(size=(2, d, d))
            u.append(a @ a.T + d * np.eye(d))
            v.append(b @ b.T + d * np.eye(d))
        sdp._THREADED_M = 0
        m = 3 * sdp._NB + 37
        rng = np.random.default_rng(m)
        a = rng.normal(size=(m, m))
        h = a @ a.T + m * np.eye(m)
        factors, triangles = [], []
        with sdp._single_blas_thread(), ThreadPoolExecutor(1) as pool:
            for worker in (None, pool):
                factors.append(np.tril(sdp._factor_schur(h.copy(), worker)[0]))
                triangles.append(np.triu(problem.schur(u, v, worker=worker)))
        cores, paths = [], set()
        try:
            with open("/proc/self/maps", encoding="utf-8") as maps:
                paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line.lower()}
        except OSError:
            pass
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
                getter = getattr(lib, name, None)
                if getter is not None:
                    getter.restype = ctypes.c_char_p
                    cores.append(getter().decode())
                    break
        print(json.dumps({
            "factor": bool(np.array_equal(*factors)),
            "schur": bool(np.array_equal(*triangles)),
            "cores": cores,
        }))
        """
    )
    package_root = str(Path(sdp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": "Haswell"}
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def haswell_claim(claim):
    """One of ``haswell_thread_claims``, skipped where no kernel name can be read."""
    result = haswell_thread_claims()
    if not result["cores"]:
        pytest.skip("needs scipy's OpenBLAS with a core-name getter")
    assert all(core == "Haswell" for core in result["cores"])
    return result[claim]


def test_schur_factor_on_another_openblas_kernel_does_not_depend_on_the_thread_count():
    assert haswell_claim("factor")


def test_schur_triangle_on_another_openblas_kernel_does_not_depend_on_the_thread_count():
    # only this thread claim: the comparison with bincount_schur fails on this
    # kernel (ROADMAP item 20)
    assert haswell_claim("schur")


def test_schur_factor_raises_on_a_matrix_that_is_not_positive_definite(monkeypatch):
    m = 3 * sdp._NB + 37
    h = random_schur_matrix(m)
    # a trailing minor that is not positive definite fails a later panel
    h[m - 10, m - 10] = -1.0
    for threads in (1, 2):
        with pytest.raises(scipy.linalg.LinAlgError, match="not positive definite"):
            plan_factor(monkeypatch, h, threads)


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_failing_kernel_leaves_the_schur_factor_and_no_thread_behind(monkeypatch, failing):
    kernels = dict(sdp._kernels())
    caller, dsyrk = threading.get_ident(), kernels["dsyrk"]

    def fails_on_one_thread(*args):
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise RuntimeError(f"kernel failed on the {failing}")
        return dsyrk(*args)

    kernels["dsyrk"] = fails_on_one_thread
    monkeypatch.setattr(sdp, "_kernels", lambda: kernels)
    before = threading.enumerate()
    with pytest.raises(RuntimeError, match=f"kernel failed on the {failing}"):
        plan_factor(monkeypatch, random_schur_matrix(3 * sdp._NB + 37), 2)
    assert threading.enumerate() == before


def scipy_max_step(chol_lower, direction):
    """The step length through scipy.linalg's wrappers, as the solver computed
    it before it called LAPACK directly; a bitwise oracle for ``_max_step``."""
    w = scipy.linalg.solve_triangular(chol_lower, direction, lower=True, check_finite=False)
    w = scipy.linalg.solve_triangular(chol_lower, w.T, lower=True, check_finite=False)
    lam = scipy.linalg.eigvalsh(0.5 * (w + w.T), check_finite=False)[0]
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def scipy_chol_blocks(blocks):
    """The block factors through ``scipy.linalg.cholesky``; an oracle for ``_chol_blocks``."""
    try:
        return [scipy.linalg.cholesky(a, lower=True, check_finite=False) for a in blocks]
    except scipy.linalg.LinAlgError:
        return None


def scipy_inverse(chol_lower):
    """The symmetrized ``Z^-1`` through ``scipy.linalg.cho_solve``; an oracle for ``_inverse``."""
    zi = scipy.linalg.cho_solve((chol_lower, True), np.eye(len(chol_lower)), check_finite=False)
    return 0.5 * (zi + zi.T)


def tensordot_vdot(a, b):
    """The inner product as ``np.tensordot`` forms it; an oracle for ``np.vdot``."""
    return np.tensordot(a, b, axes=a.ndim)


@pytest.mark.parametrize("dim", [1, 6, 27, 111])
def test_block_kernels_are_bitwise_the_scipy_wrappers(dim):
    rng = np.random.default_rng(dim)
    a, b = random_spd(rng, dim), random_spd(rng, dim)
    factors = sdp._chol_blocks([a, b])
    oracle = scipy_chol_blocks([a, b])
    assert all(np.array_equal(l, o) for l, o in zip(factors, oracle, strict=True))
    l = factors[0]
    assert np.array_equal(sdp._inverse(l), scipy_inverse(l))
    d = rng.normal(size=(dim, dim))
    d = d + d.T - dim * np.eye(dim)
    assert math.isfinite(sdp._max_step(l, d))
    assert sdp._max_step(l, d) == scipy_max_step(l, d)
    assert float(np.vdot(a, d)) == float(tensordot_vdot(a, d))
    # D >= 0: the whole ray stays in the cone
    assert sdp._max_step(l, b) == scipy_max_step(l, b) == np.inf
    # a block that is not positive definite, after one that is
    indefinite = a - 2.0 * np.linalg.eigvalsh(a)[-1] * np.eye(dim)
    assert sdp._chol_blocks([a, indefinite]) is None
    assert scipy_chol_blocks([a, indefinite]) is None


@pytest.mark.parametrize("n,level", [(2, 3), ("original", 3), (4, 2)])
def test_solve_is_bitwise_the_solve_on_scipy_wrappers(monkeypatch, n, level):
    paradox = original_hardy() if n == "original" else realigned_hardy(n)
    problem = npa._affine_map(npa.build_program(paradox, level)).problem
    direct = solve_lmi(problem)
    monkeypatch.setattr(sdp, "_max_step", scipy_max_step)
    monkeypatch.setattr(sdp, "_chol_blocks", scipy_chol_blocks)
    monkeypatch.setattr(sdp, "_inverse", scipy_inverse)
    monkeypatch.setattr(np, "vdot", tensordot_vdot)
    wrapped = solve_lmi(problem)
    assert direct.status == wrapped.status == STATUS_OPTIMAL
    assert np.array_equal(direct.y, wrapped.y)
    assert all(np.array_equal(x, w) for x, w in zip(direct.primal_blocks, wrapped.primal_blocks, strict=True))
    assert direct.log == wrapped.log


def test_block_kernels_bypass_the_scipy_wrappers(monkeypatch):
    problem = npa._affine_map(npa.build_program(realigned_hardy(2), 3)).problem

    def refuse(*args, **kwargs):
        raise AssertionError("the solver's block kernels call LAPACK directly")

    for name in ("cholesky", "solve_triangular", "eigvalsh"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    monkeypatch.setattr(np, "tensordot", refuse)
    assert solve_lmi(problem).status == STATUS_OPTIMAL


@functools.cache
def blas_thread_getters():
    """The thread-count getter of every loaded OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        fields = [line.split(maxsplit=5) for line in maps if "openblas" in line.lower()]
    getters = []
    for path in sorted({f[5].strip() for f in fields if len(f) == 6}):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                getters.append(getter)
                break
    return getters


def blas_thread_counts():
    """Thread count of every loaded OpenBLAS, read through its own getter."""
    return [getter() for getter in blas_thread_getters()]


@pytest.fixture
def two_blas_threads():
    """Both OpenBLAS libraries (numpy's and scipy's) set to two threads, so
    that a restored count is told apart from the pinned one."""
    setters = sdp._blas_setters()
    if len(setters) != 2 or len(blas_thread_counts()) != 2:
        pytest.skip("needs numpy's and scipy's OpenBLAS with thread setters and getters")
    previous = [setter(2) for setter in setters]
    yield
    for setter, count in zip(setters, previous):
        setter(count)


class TestSingleBlasThread:
    def test_pins_and_restores(self, two_blas_threads):
        with sdp._single_blas_thread() as threads:
            assert threads == 1
            assert blas_thread_counts() == [1, 1]
        assert blas_thread_counts() == [2, 2]

    def test_restores_after_an_exception(self, two_blas_threads):
        with pytest.raises(RuntimeError):
            with sdp._single_blas_thread():
                assert blas_thread_counts() == [1, 1]
                raise RuntimeError("inside the scope")
        assert blas_thread_counts() == [2, 2]

    def test_nested_scopes_restore_the_outer_count(self, two_blas_threads):
        with sdp._single_blas_thread():
            solve_lmi(LmiProblem([np.eye(2)], [block(2, 1, [(0, 0, 1, 1.0)])], np.array([1.0])))
            assert blas_thread_counts() == [1, 1]
        assert blas_thread_counts() == [2, 2]

    def test_overlapping_scopes_restore_when_the_last_closes(self, two_blas_threads):
        # scopes opened in two threads can close in either order
        first, second = sdp._single_blas_thread(), sdp._single_blas_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert blas_thread_counts() == [1, 1]
        second.__exit__(None, None, None)
        assert blas_thread_counts() == [2, 2]

    def test_scopes_in_many_threads_stay_pinned_and_restore(self, two_blas_threads):
        unpinned = []

        def work():
            for _ in range(300):
                with sdp._single_blas_thread():
                    counts = blas_thread_counts()
                    if counts != [1, 1]:
                        unpinned.append(counts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert unpinned == []
        assert blas_thread_counts() == [2, 2]

    def test_npa_solve_reports_one_thread(self, two_blas_threads):
        sol = npa.solve(npa.build_program(realigned_hardy(2), 1))
        assert sol.diagnostics["blas_threads"] == 1
        assert blas_thread_counts() == [2, 2]

    def test_solve_runs_unpinned_without_a_setter(self, monkeypatch):
        monkeypatch.setattr(sdp, "_blas_setters", lambda: ())
        counts = blas_thread_counts()
        sol = npa.solve(npa.build_program(realigned_hardy(2), 2))
        assert sol.status == STATUS_OPTIMAL
        assert sol.diagnostics["blas_threads"] is None
        assert sol.objective_value == pytest.approx(0.41398958, abs=1e-7)
        assert blas_thread_counts() == counts

    def test_the_factor_worker_runs_its_kernels_on_one_blas_thread(self, monkeypatch):
        # npa 6 --level 2 (m = 1376) factors H on two threads; every kernel
        # call the worker makes inside the solve sees each OpenBLAS pinned to
        # one thread.  The counts are read as the process found them, so a
        # solve that no longer pins reads the default, 2 under
        # OPENBLAS_NUM_THREADS=2
        if len(blas_thread_getters()) != 2:
            pytest.skip("needs numpy's and scipy's OpenBLAS with thread getters")
        monkeypatch.setattr(sdp, "_usable_cpus", lambda: 2)
        caller, kernels = threading.get_ident(), sdp._kernels()
        seen = []

        def reading(name):
            def kernel(*args):
                if threading.get_ident() != caller:
                    seen.append(blas_thread_counts())
                return kernels[name](*args)

            return kernel

        monkeypatch.setattr(sdp, "_kernels", lambda: {name: reading(name) for name in kernels})
        program = npa.build_program(realigned_hardy(6), 2)
        assert npa.solve(program).status == STATUS_OPTIMAL
        assert seen and all(counts == [1, 1] for counts in seen)
