import ctypes
import functools
import math
import sys
import threading
import tracemalloc

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


def test_infeasible_lmi_detected():
    # y >= 1 and -y >= 1 cannot both hold
    problem = LmiProblem(
        f0_blocks=[np.array([[-1.0]]), np.array([[-1.0]])],
        f_blocks=[block(1, 1, [(0, 0, 0, 1.0)]), block(1, 1, [(0, 0, 0, -1.0)])],
        b=np.array([1.0]),
    )
    sol = solve_lmi(problem, max_iterations=200)
    assert sol.status in (STATUS_INFEASIBLE, STATUS_MAX_ITERATIONS)
    assert sol.status != STATUS_OPTIMAL


def test_iteration_cap():
    problem = LmiProblem(
        f0_blocks=[np.eye(2)],
        f_blocks=[block(2, 1, [(0, 0, 1, 1.0)])],
        b=np.array([1.0]),
    )
    sol = solve_lmi(problem, max_iterations=2)
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

    def nan_below(self, u_blocks, v_blocks):
        h = schur(self, u_blocks, v_blocks)
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

    def counted(self, u_blocks, v_blocks):
        assembled.append(1)
        return schur(self, u_blocks, v_blocks)

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


@pytest.mark.parametrize("n", [4, 6])
def test_schur_product_is_the_assembled_schur_matrix_times_a_vector(n):
    problem = npa._affine_map(npa.build_program(realigned_hardy(n), 2)).problem
    u, v = schur_inputs(problem, n)
    y = np.random.default_rng(n).normal(size=problem.m)
    upper = np.triu(problem.schur(u, v))
    expected = (upper + np.triu(upper, 1).T) @ y
    product = problem.schur_product(u, v, y)
    assert np.linalg.norm(product - expected) <= 1e-12 * np.linalg.norm(expected)


def test_failed_factorization_retries_on_a_reassembled_schur_matrix(monkeypatch):
    problem = npa._affine_map(npa.build_program(realigned_hardy(4), 2)).problem
    m = problem.m
    schur = LmiProblem.schur
    cho_factor = scipy.linalg.cho_factor
    assembled, factored = [], []

    def recorded(self, u_blocks, v_blocks):
        h = schur(self, u_blocks, v_blocks)
        assembled.append(h.copy())
        return h

    def fail_once(a, *args, **kwargs):
        factored.append(np.array(a))
        if len(factored) == 1:
            # a failed potrf leaves the triangle it read overwritten
            a[np.tril_indices(m)] = np.nan
            raise scipy.linalg.LinAlgError("not positive definite")
        return cho_factor(a, *args, **kwargs)

    monkeypatch.setattr(LmiProblem, "schur", recorded)
    monkeypatch.setattr(scipy.linalg, "cho_factor", fail_once)
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
