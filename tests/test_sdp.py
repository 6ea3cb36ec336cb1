import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from nonlocality_wb import npa
from nonlocality_wb.hardy import realigned_hardy
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
    z = sol.matrix_blocks[0]
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
    run, kept as a bitwise oracle for the row-gather assembly."""
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
    return 0.5 * (h + h.T)


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


def test_schur_matches_dense_trace_and_bincount_assembly():
    rng = np.random.default_rng(11)
    m, shuffled = random_schur_entries(rng)
    dims = [d for d, _ in shuffled]
    blocks = [block(d, m, e) for d, e in shuffled]
    problem = LmiProblem([np.zeros((d, d)) for d in dims], blocks, np.zeros(m))
    u = [random_spd(rng, d) for d in dims]
    v = [random_spd(rng, d) for d in dims]
    h = problem.schur(u, v)
    oracle = np.zeros((m, m))
    for f, d, ub, vb in zip(blocks, dims, u, v):
        fk = dense_f(f, d, m)
        oracle += np.einsum("ipq,qr,jrs,sp->ij", fk, ub, fk, vb)
    assert np.abs(h - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert np.array_equal(h, bincount_schur(m, blocks, u, v))
    assert np.array_equal(h, h.T)


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


@pytest.mark.parametrize("n,level", [(2, 3), (4, 2)])
def test_schur_is_bitwise_the_bincount_assembly_on_npa_programs(monkeypatch, n, level):
    captured = {}

    class Recording(LmiProblem):
        def __init__(self, f0_blocks, f_blocks, b):
            captured["blocks"] = f_blocks
            super().__init__(f0_blocks, f_blocks, b)

    monkeypatch.setattr(npa, "LmiProblem", Recording)
    problem = npa._affine_map(npa.build_program(realigned_hardy(n), level), True).problem
    rng = np.random.default_rng(n + level)
    u = [random_spd(rng, d) for d in problem.dims]
    v = [np.linalg.inv(random_spd(rng, d)) for d in problem.dims]
    v = [0.5 * (vb + vb.T) for vb in v]
    h = problem.schur(u, v)
    assert np.array_equal(h, bincount_schur(problem.m, captured["blocks"], u, v))
    assert np.array_equal(h, h.T)


def test_solver_holds_two_schur_sized_arrays_at_most():
    # npa 6 --level 2: m = 1376, so an m x m array is 15 MB; H and its
    # Cholesky factor are the only ones the solver needs at a time
    problem = npa._affine_map(npa.build_program(realigned_hardy(6), 2), True).problem
    assert problem.m == 1376
    tracemalloc.start()
    try:
        solve_lmi(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * problem.m**2 * 8
