import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from nonlocality_wb import npa, sdp
from nonlocality_wb.cli import REFERENCE_MODELS, _program_document
from nonlocality_wb.hardy import Condition, HardyParadox, original_hardy, realigned_hardy
from nonlocality_wb.npa import (
    _affine_map,
    _kernel,
    _swap_permutations,
    adjoint,
    basis_monomials,
    basis_size,
    build_expression_program,
    build_program,
    label,
    moment_key,
    product,
    solve,
)
from nonlocality_wb.qubit import OptimizerConfig, QubitModel, behavior_of_model, maximize_hardy
from nonlocality_wb.scenario import BellExpression, Scenario, ValidationError, as_inequality
from conftest import merged_original_hardy, unattainable_hardy
from oracles import moment_matrix_of_model

ORIGINAL_VALUE = (5 * math.sqrt(5) - 11) / 2


def without_swap():
    """Inside this block ``npa`` finds no party swap and takes its unreduced path."""
    return mock.patch.object(npa, "_swap_permutations", lambda program: None)


def affine_map(program, reduced):
    """``npa._affine_map(program)``, on the unreduced path unless ``reduced``."""
    if reduced:
        return _affine_map(program)
    with without_swap():
        return _affine_map(program)


def random_word(rng, n, max_len):
    def word(length):
        out = []
        for _ in range(length):
            choices = [s for s in range(1, n + 1) if not out or s != out[-1]]
            out.append(int(rng.choice(choices)))
        return tuple(out)

    total = int(rng.integers(0, max_len + 1))
    a_len = int(rng.integers(0, total + 1))
    return word(a_len), word(total - a_len)


class TestWord:
    def test_identity_label(self):
        assert label(((), ())) == "1"

    def test_label_spells_the_word(self):
        assert label(((1, 2), (3,))) == "E1*E2*F3"
        assert label(((), (2, 1))) == "F2*F1"

    def test_adjoint_reverses_each_party(self):
        assert adjoint(((1, 2, 3), (2, 4))) == ((3, 2, 1), (4, 2))

    def test_product_collapses_junction(self):
        assert product(((1, 2), ()), ((2, 1), ())) == ((1, 2, 1), ())

    def test_parties_commute_in_cells(self):
        # reverse(F1) * E2 reorders to the E-then-F canonical form
        assert product(adjoint(((), (1,))), ((2,), ())) == ((2,), (1,))

    def test_projector_idempotence(self):
        u = ((1,), ())
        assert product(adjoint(u), u) == ((1,), ())

    def test_moment_key_identifies_reversal(self):
        w = ((1, 2, 3), (2, 4))
        assert moment_key(w) == moment_key(adjoint(w)) == ((1, 2, 3), (2, 4))
        assert moment_key(((3, 1), ())) == ((1, 3), ())

    def test_canonicalization_association_independent(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            w1 = random_word(rng, 4, 2)
            w2 = random_word(rng, 4, 2)
            w3 = random_word(rng, 4, 2)
            left = product(product(w1, w2), w3)
            right = product(w1, product(w2, w3))
            assert left == right
            assert len(left[0]) + len(left[1]) <= 6
            assert product(left, ((), ())) == left  # idempotent re-canonicalization


class TestBasis:
    def test_level1_n2_content(self):
        basis = basis_monomials(2, 1)
        labels = [label(w) for w in basis]
        assert labels == ["1", "E1", "E2", "F1", "F2"]

    @pytest.mark.parametrize(
        "n,level,size",
        [(2, 1, 5), (4, 1, 9), (2, 2, 13), (4, 2, 49), (2, 3, 25), (4, 3, 217), (6, 3, 769),
         (100, 2, 30001)],
    )
    def test_sizes(self, n, level, size):
        assert len(basis_monomials(n, level)) == size
        assert basis_size(n, level) == size

    def test_no_duplicates(self):
        basis = basis_monomials(4, 3)
        assert len(set(basis)) == len(basis)


class TestBuildProgram:
    def test_level_validation(self):
        with pytest.raises(ValidationError):
            build_program(realigned_hardy(2), 0)
        with pytest.raises(ValidationError):
            build_program(realigned_hardy(2), 4)
        # bool is an int subclass; True would build a level-1 program
        for level in (True, False, 2.0):
            with pytest.raises(ValidationError):
                build_program(realigned_hardy(2), level)

    def test_basis_over_the_memory_cap_is_rejected(self, monkeypatch):
        # the level-1 basis for n = 2 has 5 words: a 200-byte int64 cell_class
        monkeypatch.setattr(npa, "MAX_SCHUR_BYTES", 8 * 5 * 5 - 1)
        with pytest.raises(ValidationError, match="has 5 words"):
            build_program(realigned_hardy(2), 1)
        monkeypatch.setattr(npa, "MAX_SCHUR_BYTES", 8 * 5 * 5)
        assert build_program(realigned_hardy(2), 1).size == 5

    def test_objective_is_single_moment(self):
        prog = build_program(realigned_hardy(2), 1)
        assert prog.objective_offset == 0.0
        nz = np.nonzero(prog.objective)[0]
        assert len(nz) == 1
        assert prog.class_words[nz[0]] == ((1,), (1,))
        assert prog.objective[nz[0]] == 1.0

    def test_identity_pin_first(self):
        prog = build_program(realigned_hardy(2), 1)
        pin, rhs = prog.equalities[0]
        assert rhs == 1.0
        nz = np.nonzero(pin)[0]
        assert len(nz) == 1
        assert prog.class_words[nz[0]] == ((), ())

    def test_condition_moment_coefficients(self):
        # expanding the 7-term two-setting condition by complementarity gives
        # 3 - 2<E1> - 2<F1> + <E1F1> + 2<E1F2> + 2<E2F1> - 2<E2F2>
        prog = build_program(realigned_hardy(2), 1)
        vec, rhs = prog.equalities[1]
        index = {w: k for k, w in enumerate(prog.class_words)}
        assert rhs == pytest.approx(3.0 - 3.0)  # target minus constant part
        expected = {
            ((1,), ()): -2.0,
            ((), (1,)): -2.0,
            ((1,), (1,)): 1.0,
            ((1,), (2,)): 2.0,
            ((2,), (1,)): 2.0,
            ((2,), (2,)): -2.0,
        }
        for word, coeff in expected.items():
            assert vec[index[word]] == pytest.approx(coeff)
        assert np.count_nonzero(vec) == len(expected)

    def test_cell_identification_is_symmetric(self):
        prog = build_program(realigned_hardy(4), 2)
        np.testing.assert_array_equal(prog.cell_class, prog.cell_class.T)

    def test_classes_count_level3(self):
        assert build_program(realigned_hardy(4), 3).n_classes == 6157

    def test_json_dump(self):
        doc = _program_document(build_program(realigned_hardy(2), 1))
        assert doc["kind"] == "moment_program"
        assert doc["basis"] == ["1", "E1", "E2", "F1", "F2"]
        assert len(doc["cell_class"]) == 25
        assert len(doc["equalities"]) == 2
        assert json.loads(json.dumps(doc)) == doc


class TestSolve:
    def test_chsh_level1_quantum_bound(self):
        sol = solve(build_expression_program(as_inequality(2), 1))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-5)

    def test_n2_level1_is_arithmetic_bound(self):
        sol = solve(build_program(realigned_hardy(2), 1))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-6)

    def test_n2_level2_bracket(self):
        value = solve(build_program(realigned_hardy(2), 2)).objective_value
        assert 0.4139 <= value <= 0.41422

    def test_n2_monotone_levels(self):
        values = [
            solve(build_program(realigned_hardy(2), level)).objective_value for level in (1, 2, 3)
        ]
        assert values[1] <= values[0] + 1e-6
        assert values[2] <= values[1] + 1e-6
        assert all(v <= math.sqrt(2.0) - 1.0 + 1e-6 for v in values)

    def test_n4_levels_1_2(self):
        v1 = solve(build_program(realigned_hardy(4), 1)).objective_value
        v2 = solve(build_program(realigned_hardy(4), 2)).objective_value
        assert v2 <= v1 + 1e-6
        assert v2 >= 0.7804 - 5e-3  # dominates the level-3 value

    def test_symmetry_reduction_matches_full_solver(self):
        cases = [
            build_expression_program(as_inequality(2), 1),
            build_program(realigned_hardy(2), 2),
            build_program(realigned_hardy(2), 3),
            build_program(realigned_hardy(4), 1),
            build_program(realigned_hardy(4), 2),
        ]
        for prog in cases:
            reduced = solve(prog)
            with without_swap():
                full = solve(prog)
            assert reduced.status == "optimal"
            assert full.status == "optimal"
            assert reduced.objective_value == pytest.approx(full.objective_value, abs=1e-9)
            assert reduced.diagnostics["symmetry_reduced"]
            assert not full.diagnostics["symmetry_reduced"]

    @pytest.mark.parametrize("level", [1, 2])
    def test_diagnostic_objectives_include_eliminated_moments(self, level):
        # the condition fixes P(00|A1B1) = 0.3, so the Hardy moment is a pivot
        # of the eliminated equalities and carries the whole objective value
        base = realigned_hardy(2)
        terms = {(0, 1, 1, 1): 1.0, (1, 0, 1, 1): 1.0, (1, 1, 1, 1): 1.0}
        expr = BellExpression(base.scenario, terms)
        paradox = HardyParadox(
            paradox_id="fixed-hardy-term",
            scenario=base.scenario,
            conditions=(Condition(expr, 0.7),),
            hardy_term=(0, 0, 1, 1),
        )
        sol = solve(build_program(paradox, level))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(0.3, abs=1e-9)
        assert sol.diagnostics["dual_objective"] == pytest.approx(sol.objective_value, abs=1e-6)
        assert sol.diagnostics["primal_objective"] == pytest.approx(sol.objective_value, abs=1e-6)

    def test_certificates_on_optimal_solution(self):
        sol = solve(build_program(realigned_hardy(2), 2))
        assert sol.min_eigenvalue >= -1e-8
        assert sol.residuals.max() <= 1e-7

    def test_identification_classes_exactly_equal(self):
        prog = build_program(realigned_hardy(2), 2)
        sol = solve(prog)
        m = sol.moment_matrix
        for k in range(prog.n_classes):
            cells = m[prog.cell_class == k]
            assert np.all(cells == cells[0])  # bit-identical by construction

    def test_infeasible_target(self):
        base = realigned_hardy(2)
        bad = HardyParadox(
            paradox_id="unreachable",
            scenario=base.scenario,
            conditions=(Condition(base.conditions[0].expression, 100.0),),
            hardy_term=base.hardy_term,
        )
        sol = solve(build_program(bad, 1))
        assert sol.status == "infeasible"

    def test_optimal_iterate_outside_the_psd_cone_is_not_certified(self, monkeypatch):
        # an "optimal" solver iterate whose moment matrix has a negative
        # eigenvalue below -1e-8 is reported as max_iterations
        solve_lmi = npa.solve_lmi
        rng = np.random.default_rng(0)

        def sloppy(problem):
            raw = solve_lmi(problem)
            assert raw.status == "optimal"
            direction = rng.standard_normal(problem.m)
            for scale in 10.0 ** np.arange(-8, 1):
                y = raw.y + scale * direction
                if min(np.linalg.eigvalsh(b)[0] for b in problem.mat(y)) < -1e-6:
                    return replace(raw, y=y)
            raise AssertionError("no perturbation leaves the PSD cone")

        monkeypatch.setattr(npa, "solve_lmi", sloppy)
        sol = solve(build_program(realigned_hardy(2), 2))
        assert sol.status == "max_iterations"
        assert sol.min_eigenvalue < -1e-8

    def test_program_over_the_memory_cap_is_rejected(self, monkeypatch):
        prog = build_program(realigned_hardy(2), 1)
        m = _affine_map(prog).problem.m
        monkeypatch.setattr(npa, "MAX_SCHUR_BYTES", 8 * m * m - 1)
        with pytest.raises(ValidationError, match=f"m = {m} free variables"):
            solve(prog)
        monkeypatch.setattr(npa, "MAX_SCHUR_BYTES", 8 * m * m)
        assert solve(prog).status == "optimal"

    def test_refusal_allocates_little(self):
        # npa 6 --level 3 is refused at m = 46076 from index arrays over its
        # 769-word basis, before any map with a row per cell of M is built
        prog = build_program(realigned_hardy(6), 3)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="m = 46076 free variables"):
                solve(prog)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6

    def test_stalled_solve_stops_before_the_iteration_cap(self):
        # no moment matrix meets the unattainable condition: the best residual
        # score stops improving, and 12 iterations later the stall rule stops
        sol = solve(build_program(unattainable_hardy(2), 2))
        assert sol.status == "max_iterations"
        assert sol.diagnostics["iterations"] < sdp.MAX_ITERATIONS
        log = sol.diagnostics["iteration_log"]
        scores = np.maximum.reduce([log["rel_gap"], log["primal_infeasibility"], log["dual_infeasibility"]])
        best = min(scores[:-12])
        assert all(score >= 0.98 * best for score in scores[-12:])

    def test_asymmetric_program_skips_reduction(self):
        # perturbing a single Alice-side coefficient breaks the party swap;
        # detection must decline and the full path must still certify
        base = realigned_hardy(2)
        expr, target = base.conditions[0]
        terms = dict(expr.items())
        terms[(0, 0, 1, 2)] = 1.5
        asym = HardyParadox(
            paradox_id="asym",
            scenario=base.scenario,
            conditions=(Condition(BellExpression(base.scenario, terms), target),),
            hardy_term=base.hardy_term,
        )
        prog = build_program(asym, 2)
        sol = solve(prog)
        assert not sol.diagnostics["symmetry_reduced"]
        assert sol.status == "optimal"
        with without_swap():
            forced = solve(prog)
        assert sol.objective_value == pytest.approx(forced.objective_value, abs=1e-9)

    def test_solution_json_serializable(self):
        # the npa command prints the diagnostics as they are
        sol = solve(build_program(realigned_hardy(2), 2))
        assert json.loads(json.dumps(sol.diagnostics)) == sol.diagnostics
        assert sol.status == "optimal"
        assert sol.moment_matrix.shape == (13, 13)

    def test_n6_level1_smoke(self):
        sol = solve(build_program(realigned_hardy(6), 1))
        assert sol.status == "optimal"
        assert 0.0 <= sol.objective_value <= 1.0 + 1e-6

    def test_original_paradox_levels(self):
        # level 1 is a weak bound; on the face of the forced zeros, levels 2
        # and 3 certify the known quantum maximum
        sol1 = solve(build_program(original_hardy(), 1))
        assert sol1.status == "optimal"
        assert sol1.objective_value >= 0.09016
        for level in (2, 3):
            sol = solve(build_program(original_hardy(), level))
            assert sol.status == "optimal"
            assert abs(sol.objective_value - ORIGINAL_VALUE) <= 1e-7

    @pytest.mark.parametrize("coeff", [1.0, -2.0])
    @pytest.mark.parametrize("level", [2, 3])
    def test_one_multi_term_zero_condition(self, coeff, level):
        # the three zero conditions folded into one same-sign sum pinned at 0
        # force the same terms, so the bound is the original paradox's
        merged = solve(build_program(merged_original_hardy(coeff), level))
        assert merged.status == "optimal"
        expected = solve(build_program(original_hardy(), level)).objective_value
        assert merged.objective_value == pytest.approx(expected, abs=1e-9)


MAP_CASES = [
    ("chsh", 1),
    ("realigned-2", 2),
    ("realigned-2", 3),
    ("realigned-4", 1),
    ("realigned-4", 2),
    ("original", 1),
    ("original", 2),
    ("original", 3),
]


def map_case_program(name, level):
    if name == "chsh":
        return build_expression_program(as_inequality(2), level)
    if name == "original":
        return build_program(original_hardy(), level)
    return build_program(realigned_hardy(int(name.split("-")[1])), level)


@pytest.fixture(scope="module")
def original_optimum():
    return maximize_hardy(original_hardy(), OptimizerConfig(restarts=40))


class TestAffineMap:
    @pytest.mark.parametrize("reduced", [True, False])
    @pytest.mark.parametrize("name,level", MAP_CASES)
    def test_blocks_and_equalities_at_random_variables(self, name, level, reduced):
        prog = map_case_program(name, level)
        amap = affine_map(prog, reduced)
        assert amap.symmetric == reduced
        assert amap.n.shape == (prog.n_classes, amap.problem.m)
        # the block bases together are orthonormal, so the blocks hold the
        # kept rows' moment matrix in full: V^T M V is block diagonal
        v = scipy.sparse.hstack(amap.bases).toarray()
        np.testing.assert_allclose(v.T @ v, np.eye(v.shape[1]), rtol=0.0, atol=1e-15)
        rng = np.random.default_rng(5)
        for _ in range(3):
            z = rng.standard_normal(amap.problem.m)
            y = amap.y0 + amap.n @ z
            blocks = scipy.linalg.block_diag(*amap.problem.mat(z))
            assert np.abs(blocks - v.T @ y[prog.cell_class] @ v).max() <= 1e-12
            for vec, rhs in prog.equalities:
                assert abs(vec @ y - rhs) <= 1e-12

    @pytest.mark.parametrize("level", [2, 3])
    def test_kernel_annihilates_an_optimal_model(self, level, original_optimum):
        # the optimizer's model meets the zero conditions, so its moment
        # matrix maps every kernel row to zero
        prog = build_program(original_hardy(), level)
        kernel = _kernel(prog)
        assert len(kernel)
        m = moment_matrix_of_model(original_optimum.model, level)
        assert np.linalg.norm(m @ kernel.T, axis=0).max() <= 1e-6

    def test_kernel_row_of_a_forced_p11_term(self):
        # P(11|A2B2) = 0 forces (1 - E2)(1 - F2) psi = 0; at level 2 only w = 1
        # keeps the product in the basis, and c^T M c is that probability
        base = original_hardy()
        condition = Condition(BellExpression(base.scenario, {(1, 1, 2, 2): 1.0}), 0.0)
        prog = build_program(replace(base, conditions=(condition,)), 2)
        (c,) = _kernel(prog)
        words = {label(prog.basis[p]): c[p] for p in np.flatnonzero(c)}
        assert words == {"1": 1.0, "E2": -1.0, "F2": -1.0, "E2*F2": 1.0}
        m = moment_matrix_of_model(REFERENCE_MODELS[2], 2)
        assert c @ m @ c == pytest.approx(behavior_of_model(REFERENCE_MODELS[2]).prob(1, 1, 2, 2), abs=1e-12)

    @pytest.mark.parametrize("reduced", [True, False])
    @pytest.mark.parametrize("level,face", [(2, 10), (3, 16)])
    def test_blocks_span_the_complement_of_the_kernel(self, level, face, reduced):
        prog = build_program(original_hardy(), level)
        amap = affine_map(prog, reduced)
        rank = np.linalg.matrix_rank(_kernel(prog))
        assert sum(v.shape[1] for v in amap.bases) == prog.size - rank == face
        assert amap.face_dim == face
        v = scipy.sparse.hstack(amap.bases).toarray()
        assert np.abs(_kernel(prog) @ v).max() <= 1e-12

    @pytest.mark.parametrize("n,level", [(2, 2), (2, 3), (4, 2)])
    def test_realigned_programs_have_no_kernel(self, n, level):
        prog = build_program(realigned_hardy(n), level)
        assert prog.zero_terms == ()
        assert _kernel(prog).shape == (0, prog.size)
        assert _affine_map(prog).face_dim is None

    def test_inconsistent_equalities(self):
        prog = build_program(realigned_hardy(2), 1)
        pin, _ = prog.equalities[0]
        bad = replace(prog, equalities=prog.equalities + ((pin, 0.5),))
        assert _affine_map(bad) is None
        assert solve(bad).status == "infeasible"


SWAP_CASES = [
    (2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (4, 3), (6, 1), (6, 2),
    ("original", 1), ("original", 2), ("original", 3),
]


@pytest.mark.parametrize("n,level", SWAP_CASES)
def test_swap_permutations_match_swapped_class_words(n, level):
    paradox = original_hardy() if n == "original" else realigned_hardy(n)
    prog = build_program(paradox, level)
    class_perm, basis_perm = _swap_permutations(prog)
    class_index = {w: k for k, w in enumerate(prog.class_words)}
    expected = [class_index[moment_key((b, a))] for a, b in prog.class_words]
    np.testing.assert_array_equal(class_perm, expected)
    assert all(prog.basis[j] == (b, a) for (a, b), j in zip(prog.basis, basis_perm))


def test_swap_needs_swap_invariant_zero_terms():
    prog = build_program(original_hardy(), 2)
    assert sorted(prog.zero_terms) == [(0, 0, 2, 2), (0, 1, 1, 2), (1, 0, 2, 1)]
    assert _swap_permutations(replace(prog, zero_terms=prog.zero_terms[:2])) is None


@pytest.mark.parametrize("level,block_dims", [(1, [5]), (2, [13])])
def test_objective_the_swap_moves_is_solved_unreduced(level, block_dims):
    # P(00|A1B1) + P(00|A1B2): the swap maps the second term to P(00|A2B1),
    # which the objective lacks; both terms reach 1 together
    expr = BellExpression(Scenario(2), {(0, 0, 1, 1): 1.0, (0, 0, 1, 2): 1.0})
    prog = build_expression_program(expr, level)
    assert _swap_permutations(prog) is None
    sol = solve(prog)
    assert sol.status == "optimal"
    assert not sol.diagnostics["symmetry_reduced"]
    assert sol.diagnostics["block_dims"] == block_dims
    assert abs(sol.objective_value - 2.0) <= 1e-6


class TestModelMomentMatrix:
    @pytest.mark.parametrize("n,level", [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (4, 3)])
    def test_psd_and_identifications(self, n, level):
        rng = np.random.default_rng(12)
        prog_cells = build_program(realigned_hardy(n), level)
        classes = prog_cells.cell_class.ravel()
        for _ in range(3):
            model = QubitModel(
                rng.uniform(-math.pi, math.pi),
                tuple(rng.uniform(-math.pi, math.pi, n)),
                tuple(rng.uniform(-math.pi, math.pi, n)),
            )
            m = moment_matrix_of_model(model, level)
            assert np.linalg.eigvalsh(m)[0] >= -1e-10
            values = m.ravel()
            sums = np.bincount(classes, weights=values, minlength=prog_cells.n_classes)
            counts = np.bincount(classes, minlength=prog_cells.n_classes)
            means = sums / counts
            assert np.abs(values - means[classes]).max() <= 1e-10

    def test_degree_two_moments_match_behavior(self):
        model = REFERENCE_MODELS[2]
        m = moment_matrix_of_model(model, 1)
        b = behavior_of_model(model)
        # rows: 1, E1, E2, F1, F2; <E_x F_y> = P(00|xy), <E_x> = P(0.|x)
        for x in (1, 2):
            for y in (1, 2):
                assert m[x, 2 + y] == pytest.approx(b.prob(0, 0, x, y), abs=1e-12)
            assert m[0, x] == pytest.approx(b.prob(0, 0, x, 1) + b.prob(0, 1, x, 1), abs=1e-12)

    def test_optimized_model_is_feasible_for_the_relaxation(self):
        paradox = realigned_hardy(2)
        result = maximize_hardy(paradox, OptimizerConfig(restarts=40))
        assert result.converged
        prog = build_program(paradox, 2)
        m = moment_matrix_of_model(result.model, 2)
        moments = np.array([m[prog.cell_class == k][0] for k in range(prog.n_classes)])
        vec, rhs = prog.equalities[1]
        assert abs(vec @ moments - rhs) <= 2e-6
        # and the sandwich: its Hardy value cannot beat the relaxation bound
        assert result.hardy_value <= solve(build_program(paradox, 2)).objective_value + 1e-5
