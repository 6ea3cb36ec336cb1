import tracemalloc

import numpy as np
import pytest

from nonlocality_wb import npa
from nonlocality_wb.hardy import realigned_hardy
from nonlocality_wb.sdp import (
    LmiBlockData,
    LmiProblem,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITERATIONS,
    STATUS_OPTIMAL,
    solve_lmi,
)


def block(dim, entries):
    """entries: list of (var, row, col, val); off-diagonals auto-mirrored."""
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
    return LmiBlockData(
        dim=dim,
        var=np.array(var, dtype=np.int64),
        row=np.array(row, dtype=np.int64),
        col=np.array(col, dtype=np.int64),
        val=np.array(val, dtype=float),
    )


def test_single_offdiagonal_variable():
    # max y with [[1, y], [y, 1]] PSD -> y* = 1
    problem = LmiProblem(
        f0_blocks=[np.eye(2)],
        blocks=[block(2, [(0, 0, 1, 1.0)])],
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
        blocks=[block(1, [(0, 0, 0, -1.0)]), block(1, [(1, 0, 0, -1.0)])],
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
    problem = LmiProblem(f0_blocks=[a], blocks=[block(6, entries)], b=np.array([1.0]))
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
    problem = LmiProblem(f0_blocks=[f0], blocks=[block(dim, entries)], b=rng.normal(size=m))
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
        blocks=[block(1, [(0, 0, 0, 1.0)]), block(1, [(0, 0, 0, -1.0)])],
        b=np.array([1.0]),
    )
    sol = solve_lmi(problem, max_iterations=200)
    assert sol.status in (STATUS_INFEASIBLE, STATUS_MAX_ITERATIONS)
    assert sol.status != STATUS_OPTIMAL


def test_iteration_cap():
    problem = LmiProblem(
        f0_blocks=[np.eye(2)],
        blocks=[block(2, [(0, 0, 1, 1.0)])],
        b=np.array([1.0]),
    )
    sol = solve_lmi(problem, max_iterations=2)
    assert sol.status == STATUS_MAX_ITERATIONS


def dense_f(blk, m):
    """Dense ``F_k`` restricted to one block, for every variable k."""
    f = np.zeros((m, blk.dim, blk.dim))
    np.add.at(f, (blk.var, blk.row, blk.col), blk.val)
    return f


def random_spd(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + dim * np.eye(dim)


def bincount_schur(m, blocks, u_blocks, v_blocks):
    """The column-by-column ``bincount`` Schur assembly the solver used to
    run, kept as a bitwise oracle for the row-gather assembly."""
    h = np.zeros((m, m))
    for blk, u, v in zip(blocks, u_blocks, v_blocks):
        order = np.argsort(blk.var, kind="stable")
        ptr = np.searchsorted(blk.var[order], np.arange(m + 1))
        rows, cols, vals = blk.row[order], blk.col[order], blk.val[order]
        eflat_t = blk.col * blk.dim + blk.row
        for j in range(m):
            lo, hi = ptr[j], ptr[j + 1]
            if lo == hi:
                continue
            t = (u[:, rows[lo:hi]] * vals[lo:hi][None, :]) @ v[cols[lo:hi], :]
            h[:, j] += np.bincount(blk.var, weights=blk.val * t.ravel()[eflat_t], minlength=m)
    return 0.5 * (h + h.T)


def random_schur_blocks(rng):
    """Two blocks whose entries are listed in shuffled variable order; cell
    (0, 2) of the first block is shared by variables 1 and 3, and variable 5
    has no entry in the second block."""
    m = 6

    def entry(k, dim):
        r, c = sorted(rng.integers(0, dim, size=2))
        return k, r, c, float(rng.normal())

    first = [entry(k, 5) for k in range(m) for _ in range(3)] + [(1, 0, 2, 0.7), (3, 0, 2, -1.3)]
    second = [entry(k, 4) for k in range(m - 1) for _ in range(2)]
    blocks = [
        block(dim, [entries[i] for i in rng.permutation(len(entries))])
        for dim, entries in ((5, first), (4, second))
    ]
    assert np.any(np.diff(blocks[0].var) < 0)
    assert 5 in blocks[0].var and 5 not in blocks[1].var
    return m, blocks


def test_schur_matches_dense_trace_and_bincount_assembly():
    rng = np.random.default_rng(11)
    m, blocks = random_schur_blocks(rng)
    problem = LmiProblem([np.zeros((b.dim, b.dim)) for b in blocks], blocks, np.zeros(m))
    u = [random_spd(rng, b.dim) for b in blocks]
    v = [random_spd(rng, b.dim) for b in blocks]
    h = problem.schur(u, v)
    oracle = np.zeros((m, m))
    for blk, ub, vb in zip(blocks, u, v):
        f = dense_f(blk, m)
        oracle += np.einsum("ipq,qr,jrs,sp->ij", f, ub, f, vb)
    assert np.abs(h - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert np.array_equal(h, bincount_schur(m, blocks, u, v))
    assert np.array_equal(h, h.T)


@pytest.mark.parametrize("n,level", [(2, 3), (4, 2)])
def test_schur_is_bitwise_the_bincount_assembly_on_npa_programs(monkeypatch, n, level):
    captured = {}

    class Recording(LmiProblem):
        def __init__(self, f0_blocks, blocks, b):
            captured["blocks"] = blocks
            super().__init__(f0_blocks, blocks, b)

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
