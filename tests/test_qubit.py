import functools
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from nonlocality_wb import cli, npa, qubit
from nonlocality_wb.cli import REFERENCE_MODELS
from nonlocality_wb.hardy import (
    ORIGINAL_HARDY_VALUE,
    Condition,
    check,
    original_hardy,
    realigned_hardy,
)
from nonlocality_wb.qubit import (
    _ARMIJO,
    _BACKTRACKS,
    _EIG_FLOOR,
    _FTOL,
    _HALVINGS,
    _INNER_ITERS,
    _KKT_TOL,
    _MAX_STEP,
    OptimizerConfig,
    QubitModel,
    _full_grid,
    _kkt_finish,
    _newton_stage,
    _penalty,
    _penalty_value,
    _PenaltyProblem,
    _screen,
    _solve_rows,
    _starts,
    behavior_of_model,
    maximize_hardy,
)
from nonlocality_wb.scenario import BellExpression, ValidationError, as_inequality, evaluate
from conftest import (
    QUBIT_SEXTIC_2,
    QUBIT_VALUE_2,
    jet_components,
    merged_original_hardy,
    unattainable_hardy,
)
from oracles import behavior_of_model_trace, observable, state_vector


def paradox_of(name):
    return original_hardy() if name == "original" else realigned_hardy(name)


def random_model(rng, n):
    return QubitModel(
        rng.uniform(-math.pi, math.pi),
        tuple(rng.uniform(-math.pi, math.pi, n)),
        tuple(rng.uniform(-math.pi, math.pi, n)),
    )


class TestQubitModel:
    def test_wraps_angles(self):
        m = QubitModel(3 * math.pi, (5 * math.pi / 2,), (-5 * math.pi / 2,))
        assert m.theta == pytest.approx(-math.pi)
        assert m.alpha[0] == pytest.approx(math.pi / 2)
        assert m.beta[0] == pytest.approx(-math.pi / 2)

    def test_vector_round_trip(self):
        m = REFERENCE_MODELS[4]
        m2 = QubitModel.from_vector(m.as_vector())
        assert m2 == m

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            QubitModel(0.0, (0.0,), (0.0, 0.0))

    def test_observable_is_reflection(self):
        a = observable(0.3)
        np.testing.assert_allclose(a @ a, np.eye(2), atol=1e-15)
        assert np.trace(a) == pytest.approx(0.0, abs=1e-15)

    def test_state_vector_normalized(self):
        v = state_vector(0.7968)
        assert v @ v == pytest.approx(1.0)


class TestBehaviorOfModel:
    def test_product_state_aligned(self):
        # |00> measured along z everywhere: outcome (0, 0) is certain
        b = behavior_of_model(QubitModel(0.0, (0.0, 0.0), (0.0, 0.0)))
        assert np.all(b.p[:, :, 0, 0] == pytest.approx(1.0))

    def test_maximally_entangled_matching_measurement(self):
        b = behavior_of_model(QubitModel(math.pi / 4, (0.0, 0.0), (0.0, 0.0)))
        assert b.prob(0, 0, 1, 1) == pytest.approx(0.5, abs=1e-12)
        assert b.prob(1, 1, 1, 1) == pytest.approx(0.5, abs=1e-12)
        assert b.prob(0, 1, 1, 1) == pytest.approx(0.0, abs=1e-12)
        assert b.prob(1, 0, 1, 1) == pytest.approx(0.0, abs=1e-12)

    def test_reference_model_2(self):
        result = check(realigned_hardy(2), behavior_of_model(REFERENCE_MODELS[2]), tol=2e-3)
        assert result.conditions_met
        assert result.hardy_value == pytest.approx(0.4140, abs=1e-3)

    def test_reference_model_4(self):
        result = check(realigned_hardy(4), behavior_of_model(REFERENCE_MODELS[4]), tol=2e-3)
        assert result.conditions_met
        assert result.hardy_value == pytest.approx(0.7734, abs=1e-3)

    def test_expression_value_on_reference_model_4(self):
        value = evaluate(as_inequality(4), behavior_of_model(REFERENCE_MODELS[4]))
        assert value == pytest.approx(10.0 + 0.7734, abs=1e-3)

    def test_closed_form_matches_trace_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            m = random_model(rng, int(rng.choice([2, 4, 6])))
            np.testing.assert_allclose(
                behavior_of_model(m).p, behavior_of_model_trace(m).p, atol=1e-14
            )

    def test_normalized_and_no_signaling(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = behavior_of_model(random_model(rng, 4)).p
            np.testing.assert_allclose(p.sum(axis=(2, 3)), 1.0, atol=1e-14)
            marg_a = p.sum(axis=3)
            marg_b = p.sum(axis=2)
            assert np.abs(marg_a - marg_a[:, :1, :]).max() <= 1e-14
            assert np.abs(marg_b - marg_b[:1, :, :]).max() <= 1e-14


def sum_in_term_order(weights):
    """Left-to-right sum: the order in which ``jets`` adds up an expression."""
    total = 0.0
    for w in weights:
        total += w
    return total


def gathered_components(paradox, x):
    """Penalty components from the full-grid tensors, one expression at a time."""
    n = paradox.scenario.n_settings
    p, dtheta, dalpha, dbeta = (t.reshape(n, n, 2, 2) for t in _full_grid(n)(x)[:4])
    expressions = [BellExpression(paradox.scenario, {paradox.hardy_term: 1.0})]
    expressions += [expr for expr, _ in paradox.conditions]
    values, grads = [], []
    for expr in expressions:
        keys, coeffs = zip(*expr.items())
        c = np.array(coeffs)
        i, j, xs, ys = np.array(keys).T
        xs, ys = xs - 1, ys - 1
        grad = np.zeros(1 + 2 * n)
        grad[0] = sum_in_term_order(c * dtheta[xs, ys, i, j])
        grad[1 : n + 1] = np.bincount(xs, weights=c * dalpha[xs, ys, i, j], minlength=n)
        grad[n + 1 :] = np.bincount(ys, weights=c * dbeta[xs, ys, i, j], minlength=n)
        values.append(sum_in_term_order(c * p[xs, ys, i, j]))
        grads.append(grad)
    targets = np.array([target for _, target in paradox.conditions])
    return values[0], grads[0], np.array(values[1:]) - targets, np.array(grads[1:])


class TestPerTermEvaluation:
    @pytest.mark.parametrize("name", ["original", 2, 4, 6])
    def test_components_equal_full_grid_entries(self, name):
        # a term's value must not depend on which other terms share its batch
        paradox = paradox_of(name)
        problem = _PenaltyProblem(paradox)
        n = paradox.scenario.n_settings
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.uniform(-math.pi, math.pi, 1 + 2 * n)
            hardy, hardy_grad, residuals, cond_grads = jet_components(problem, x)
            ref_hardy, ref_grad, ref_residuals, ref_cond_grads = gathered_components(paradox, x)
            assert hardy == ref_hardy
            assert np.array_equal(hardy_grad, ref_grad)
            assert np.array_equal(residuals, ref_residuals)
            assert np.array_equal(cond_grads, ref_cond_grads)


def mixed_scale_vectors(rng, rows, n):
    """Parameter vectors, every third one with angles up to +-10 pi."""
    scales = np.where(np.arange(rows) % 3 == 0, 10 * math.pi, math.pi)[:, None]
    return rng.uniform(-1.0, 1.0, (rows, 1 + 2 * n)) * scales


class TestBatchedBornTerms:
    @pytest.mark.parametrize("name", ["original", 2, 4, 6])
    @pytest.mark.parametrize("amplitudes", [False, True])
    def test_rows_equal_single_vector_calls(self, name, amplitudes):
        # the probability jet, or the amplitude jet it is computed from
        paradox = paradox_of(name)
        n = paradox.scenario.n_settings
        terms = [_PenaltyProblem(paradox).terms, _full_grid(n)]
        X = mixed_scale_vectors(np.random.default_rng(12), 30, n)
        for born in terms:
            evaluate = born.amplitudes if amplitudes else born
            batched = evaluate(X)
            assert len(batched) == 10
            for r, x in enumerate(X):
                for batch_part, part in zip(batched, evaluate(x)):
                    assert np.array_equal(batch_part[r], part)

    @pytest.mark.parametrize("name", ["original", 2, 4, 6])
    def test_second_derivatives_match_central_differences(self, name):
        # each term's Hessian over (theta, alpha_x, beta_y) against central
        # differences of its analytic gradient
        paradox = paradox_of(name)
        n = paradox.scenario.n_settings
        born = _PenaltyProblem(paradox).terms
        step = 1e-6
        for x in mixed_scale_vectors(np.random.default_rng(13), 6, n):
            _, _, _, _, tt, ta, tb, aa, ab, bb = born(x)
            hessian = np.array([[tt, ta, tb], [ta, aa, ab], [tb, ab, bb]])
            for row, angles in enumerate((np.zeros_like(born.x), 1 + born.x, 1 + n + born.y)):
                fd = np.empty((3, len(born.x)))
                for t, k in enumerate(angles):
                    xp, xm = x.copy(), x.copy()
                    xp[k] += step
                    xm[k] -= step
                    fd[:, t] = [
                        (gp[t] - gm[t]) / (2 * step)
                        for gp, gm in zip(born(xp)[1:4], born(xm)[1:4])
                    ]
                np.testing.assert_allclose(fd, hessian[row], rtol=0, atol=1e-6)

    @pytest.mark.parametrize("name", ["original", 2, 4, 6])
    def test_jets_match_components_and_gradient_differences(self, name):
        paradox = paradox_of(name)
        problem = _PenaltyProblem(paradox)
        d = 1 + 2 * paradox.scenario.n_settings
        X = mixed_scale_vectors(np.random.default_rng(14), 6, paradox.scenario.n_settings)
        values, grads, hess = problem.jets(X)
        step = 1e-6
        for r, x in enumerate(X):
            hardy, hardy_grad, residuals, cond_grads = gathered_components(paradox, x)
            np.testing.assert_allclose(values[r], np.r_[hardy, residuals + problem.targets], atol=1e-13)
            np.testing.assert_allclose(grads[r], np.vstack((hardy_grad, cond_grads)), atol=1e-13)
            assert np.array_equal(hess[r], hess[r].transpose(0, 2, 1))
            for k in range(d):
                xp, xm = x.copy(), x.copy()
                xp[k] += step
                xm[k] -= step
                fd = (problem.jets(xp[None])[1][0] - problem.jets(xm[None])[1][0]) / (2 * step)
                np.testing.assert_allclose(fd, hess[r][:, :, k], rtol=0, atol=1e-6)


class TestValuesOnlyPenalty:
    @pytest.mark.parametrize("name", ["original", 2, 4, 6])
    def test_equals_the_penalty_of_the_jets(self, name):
        # the line search's values-only trials must accept exactly the steps
        # that trials with full jets would
        problem = _PenaltyProblem(paradox_of(name))
        X = mixed_scale_vectors(np.random.default_rng(15), 60, problem.n)
        jets = problem.jets(X)
        values = problem.values(X)
        assert values.tobytes() == jets[0].tobytes()
        for mu in (10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
            penalty = _penalty_value(values, problem, mu)
            assert penalty.tobytes() == _penalty(jets, problem, mu)[0].tobytes()

    @pytest.mark.parametrize("name", ["original", 6])
    def test_rows_in_chunks_are_the_rows_in_one_call(self, monkeypatch, name):
        # 60 rows in chunks of 7, the last one short: every row is bitwise
        # what one call on all the rows, and the jets, give
        problem = _PenaltyProblem(paradox_of(name))
        X = mixed_scale_vectors(np.random.default_rng(17), 60, problem.n)
        whole = problem.values(X)
        monkeypatch.setattr(qubit, "_VALUE_ROWS", 7)
        assert problem.values(X).tobytes() == whole.tobytes() == problem.jets(X)[0].tobytes()
        assert problem.values(X[:0]).shape == (0, 1 + len(problem.targets))

    @pytest.mark.parametrize("name", ["original", 2, 4, 6])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_penalty_is_equal_too(self, name):
        problem = _PenaltyProblem(paradox_of(name))
        X = mixed_scale_vectors(np.random.default_rng(16), 60, problem.n)
        values, jets = problem.values(X), problem.jets(X)
        for mu in (1e300 * 1e10, np.finfo(float).max):
            reference = _penalty(jets, problem, mu)[0]
            assert not np.isfinite(reference).all()
            assert _penalty_value(values, problem, mu).tobytes() == reference.tobytes()


class TestGradients:
    @pytest.mark.parametrize("n", [2, 4, "original"])
    def test_matches_central_differences(self, n):
        paradox = paradox_of(n)
        problem = _PenaltyProblem(paradox)
        rng = np.random.default_rng(5)
        step = 1e-6
        for _ in range(5):
            x = rng.uniform(-math.pi, math.pi, 1 + 2 * paradox.scenario.n_settings)
            hardy, hardy_grad, _, cond_grads = jet_components(problem, x)
            for k in range(len(x)):
                xp, xm = x.copy(), x.copy()
                xp[k] += step
                xm[k] -= step
                hp, _, rp, _ = jet_components(problem, xp)
                hm, _, rm, _ = jet_components(problem, xm)
                fd_h = (hp - hm) / (2 * step)
                assert fd_h == pytest.approx(hardy_grad[k], abs=1e-4 * (1 + abs(hardy_grad[k])))
                for fd_c, grad in zip((rp - rm) / (2 * step), cond_grads):
                    assert fd_c == pytest.approx(grad[k], abs=1e-4 * (1 + abs(grad[k])))


@functools.cache
def optimize_6_peak() -> int:
    """tracemalloc's peak over ``optimize 6`` at its 500 default restarts."""
    cfg = OptimizerConfig.for_settings(6)
    assert cfg.restarts == 500
    tracemalloc.start()
    try:
        maximize_hardy(realigned_hardy(6), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.restarts == 200
        assert cfg.seed == 42
        assert cfg.constraint_tol == 1e-6

    def test_default_restart_budget_scales(self):
        assert OptimizerConfig.default_for(realigned_hardy(2)).restarts == 200
        assert OptimizerConfig.default_for(original_hardy()).restarts == 200
        assert OptimizerConfig.default_for(realigned_hardy(4)).restarts == 500

    def test_screen_bytes_bound_the_largest_screened_array(self, monkeypatch):
        # the paradox touches n^2 + 3n - 2 terms, and every array the screen
        # batches holds at most one value per term for 26 trial rows per restart
        for n in range(2, 33, 2):
            assert len(_PenaltyProblem(realigned_hardy(n)).c) == n * n + 3 * n - 2
        values, jets, sizes = _PenaltyProblem.values, _PenaltyProblem.jets, []

        def recorded(method, width):
            def call(problem, X):
                sizes.append(8 * len(X) * len(problem.c) * width)
                return method(problem, X)

            return call

        # jets hold 13 parts per term and row, values one
        monkeypatch.setattr(_PenaltyProblem, "values", recorded(values, 1))
        monkeypatch.setattr(_PenaltyProblem, "jets", recorded(jets, 13))
        maximize_hardy(realigned_hardy(6), OptimizerConfig(restarts=40))
        assert max(sizes) <= qubit.screen_bytes(6, 40)
        # optimize 32 runs (about 440 MB peak RSS) and optimize 72 would; 74 is refused
        assert qubit.screen_bytes(72, 500) <= npa.MAX_SCHUR_BYTES < qubit.screen_bytes(74, 500)
        assert qubit.screen_bytes(32, 500) <= npa.MAX_SCHUR_BYTES < qubit.screen_bytes(144, 500)

    def test_values_on_every_trial_row_stay_within_the_screen_estimate(self):
        # the values-only line-search group at n = 16 with all 500 restarts
        # pending: 26 trial rows each.  In one piece its temporaries peaked at
        # about 2.7 times the estimate
        problem = _PenaltyProblem(realigned_hardy(16))
        X = np.random.default_rng(3).uniform(-math.pi, math.pi, size=(500 * 26, 1 + 2 * 16))
        tracemalloc.start()
        try:
            problem.values(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= qubit.screen_bytes(16, 500)

    def test_screen_peak_stays_within_its_estimate(self):
        # the whole run of optimize 6 at its 500 default restarts
        assert optimize_6_peak() <= qubit.screen_bytes(6, 500)

    def test_kkt_finish_keeps_only_what_it_reads(self):
        # the finish keeps the values, the Hardy term's gradient and Hessian
        # and the constraint arrays of its rows, and frees the previous point's
        # before each jets call: optimize 6 peaks at about 0.73 of the
        # estimate.  A copy of every active row's jets, held through the next
        # jets call, takes it to about 0.88
        assert optimize_6_peak() <= 0.8 * qubit.screen_bytes(6, 500)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValidationError, match="seed"):
            OptimizerConfig(seed=-1)
        # bool is an int subclass, but not a count
        for value in (True, 2.0, "3"):
            with pytest.raises(ValidationError, match="restarts"):
                OptimizerConfig(restarts=value)
            with pytest.raises(ValidationError, match="seed"):
                OptimizerConfig(seed=value)
        with pytest.raises(ValidationError):
            OptimizerConfig(restarts=True, seed=True)
        for tol in (0.0, -1e-6, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="constraint_tol"):
                OptimizerConfig(restarts=4, constraint_tol=tol)


def assert_restart_statistics(result):
    assert 0 < result.restarts_near_best <= result.feasible_restarts <= result.restarts_used
    assert result.objective_evals > 0


def assert_forced_zero_residuals(paradox, result):
    # the finish stops at |A| <= _KKT_TOL for each forced term, so a
    # condition's residual, a sum of coeff * A**2, is at most
    # sum |coeff| * _KKT_TOL**2
    for (expr, _), residual in zip(paradox.conditions, result.condition_residuals):
        assert abs(residual) <= sum(abs(c) for _, c in expr.items()) * _KKT_TOL**2


def test_qubit_value_2_is_within_1e16_of_a_sextic_root():
    # exact rational arithmetic: the sextic changes sign across the float
    # literal +/- 1e-16, so a root lies in that interval
    def sextic(h):
        value = Fraction(0)
        for c in QUBIT_SEXTIC_2:
            value = value * h + c
        return value

    h, eps = Fraction(QUBIT_VALUE_2), Fraction(1, 10**16)
    assert sextic(h - eps) < 0 < sextic(h + eps)


class TestMaximizeHardy:
    def test_realigned_2(self):
        result = maximize_hardy(realigned_hardy(2), OptimizerConfig(restarts=40))
        assert result.converged
        assert abs(result.hardy_value - QUBIT_VALUE_2) <= 1e-12
        assert max(abs(r) for r in result.condition_residuals) <= 1e-12
        assert result.restarts_used == 40
        assert_restart_statistics(result)

    def test_realigned_4(self):
        result = maximize_hardy(realigned_hardy(4), OptimizerConfig(restarts=60))
        assert result.converged
        assert 0.7700 <= result.hardy_value <= 0.7740

    def test_original(self):
        paradox = original_hardy()
        result = maximize_hardy(paradox, OptimizerConfig(restarts=40))
        assert result.converged
        assert abs(result.hardy_value - ORIGINAL_HARDY_VALUE) <= 1e-12
        assert_forced_zero_residuals(paradox, result)
        assert_restart_statistics(result)

    @pytest.mark.parametrize("coeff", [1.0, -2.0])
    def test_one_multi_term_zero_condition(self, coeff):
        # the three zero conditions folded into one same-sign sum pinned at 0
        paradox = merged_original_hardy(coeff)
        result = maximize_hardy(paradox, OptimizerConfig(restarts=40))
        assert result.converged
        assert abs(result.hardy_value - ORIGINAL_HARDY_VALUE) <= 1e-12
        assert_forced_zero_residuals(paradox, result)

    @pytest.mark.parametrize("name, restarts", [(2, 40), (4, 60), ("original", 40)])
    def test_value_does_not_depend_on_the_seed(self, name, restarts):
        values = [
            maximize_hardy(paradox_of(name), OptimizerConfig(restarts=restarts, seed=seed)).hardy_value
            for seed in (42, 7, 2026)
        ]
        assert max(values) - min(values) <= 1e-10

    def test_objective_evals_count_jets_rows_without_scipy(self):
        # rows passed to either evaluation, speculative line-search trials included
        rows = []
        jets, values = _PenaltyProblem.jets, _PenaltyProblem.values

        def counting_jets(problem, X):
            rows.append(len(X))
            return jets(problem, X)

        def counting_values(problem, X):
            rows.append(len(X))
            return values(problem, X)

        def no_scipy(*args, **kwargs):
            raise AssertionError("the optimizer must not call scipy.optimize.minimize")

        runs = (
            lambda: maximize_hardy(original_hardy(), OptimizerConfig(restarts=4)),
            lambda: maximize_hardy(realigned_hardy(2), OptimizerConfig(restarts=4)),
        )
        with mock.patch.object(_PenaltyProblem, "jets", counting_jets), mock.patch.object(
            _PenaltyProblem, "values", counting_values
        ), mock.patch.object(qubit, "minimize", no_scipy), mock.patch(
            "scipy.optimize.minimize", no_scipy
        ):
            for run in runs:
                rows.clear()
                result = run()
                assert sum(rows) > result.restarts_used
                assert result.objective_evals == sum(rows)

    @pytest.mark.parametrize("name", ["original", 2, 4])
    def test_screened_restarts_do_not_depend_on_the_batch(self, name):
        # the rows leave the screen finished, and the same with or without
        # the other 160 rows in the batch
        problem = _PenaltyProblem(paradox_of(name))
        d = 1 + 2 * problem.n
        outcomes = []
        for restarts in (40, 200):
            X = _starts(OptimizerConfig(restarts=restarts), d)
            hardy, residuals, _ = _screen(problem, X)
            assert np.abs(residuals).max() <= 1e-12
            outcomes.append((X[:40], hardy[:40], residuals[:40]))
        for small, large in zip(*outcomes):
            assert np.array_equal(small, large)

    def test_deterministic_for_fixed_seed(self):
        cfg = OptimizerConfig(restarts=8, seed=123)
        r1 = maximize_hardy(realigned_hardy(2), cfg)
        r2 = maximize_hardy(realigned_hardy(2), cfg)
        assert r1.hardy_value == r2.hardy_value
        assert r1.model == r2.model

    def test_result_json(self, capsys, monkeypatch):
        results = []

        def four_restarts(paradox, cfg):
            results.append(maximize_hardy(paradox, replace(cfg, restarts=4)))
            return results[-1]

        monkeypatch.setattr(cli, "maximize_hardy", four_restarts)
        cli.main(["optimize", "2", "--json"])
        doc = json.loads(capsys.readouterr().out)["outputs"]
        (result,) = results
        assert doc["kind"] == "optimization_result"
        assert len(doc["model"]["alpha"]) == 2
        assert isinstance(doc["converged"], bool)
        assert doc["restarts_used"] == 4
        for key in ("feasible_restarts", "restarts_near_best", "objective_evals"):
            assert doc[key] == getattr(result, key)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_penalty_schedule_still_reports(self, monkeypatch):
        # at this weight the penalty Hessian of two of the three start points
        # overflows; those rows stay where they are instead of failing eigh
        monkeypatch.setattr(qubit, "_PENALTY_MU", 3e307)
        result = maximize_hardy(realigned_hardy(2), OptimizerConfig(restarts=3))
        assert result.restarts_used == 3
        assert result.converged == (max(abs(r) for r in result.condition_residuals) <= 1e-6)

    def test_weak_penalty_reports_nonconvergence(self, monkeypatch):
        # without the KKT finish, a row keeps the point of a penalty too weak
        # to enforce the condition, and the residual test judges it
        monkeypatch.setattr(qubit, "_PENALTY_MU", 1e-3)
        monkeypatch.setattr(qubit, "_KKT_ITERS", 0)
        cfg = OptimizerConfig(restarts=2)
        result = maximize_hardy(realigned_hardy(2), cfg)
        assert not result.converged
        assert max(abs(r) for r in result.condition_residuals) > cfg.constraint_tol

    def test_unattainable_condition_reports_nonconvergence(self):
        # no behavior meets the condition, so neither the penalty stage nor
        # the finish can make a restart feasible
        cfg = OptimizerConfig(restarts=20)
        result = maximize_hardy(unattainable_hardy(2), cfg)
        assert not result.converged
        assert result.feasible_restarts == result.restarts_near_best == 0
        assert max(abs(r) for r in result.condition_residuals) > cfg.constraint_tol

    def test_stationarity_at_the_reported_model(self):
        # first-order condition: grad(hardy) parallel to grad(condition)
        paradox = realigned_hardy(2)
        result = maximize_hardy(paradox, OptimizerConfig(restarts=40))
        problem = _PenaltyProblem(paradox)
        _, hardy_grad, _, cond_grads = jet_components(problem, result.model.as_vector())
        g, c = hardy_grad, cond_grads[0]
        lam = float(g @ c) / float(c @ c)
        projected = g - lam * c
        assert np.linalg.norm(projected) <= 1e-12 * (1.0 + np.linalg.norm(g))


def sequential_newton_stage(problem, X, jets, rows, mu: float) -> int:
    """The Newton stage with the sequential backtracking line search the
    screen used to run, one ``jets`` call per halving, kept verbatim as the
    oracle of the batched line search."""
    evals, active = 0, rows
    for _ in range(_INNER_ITERS):
        if not len(active):
            break
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

        f_new, t = f.copy(), np.ones(len(active))
        pending = np.flatnonzero(-slope > _FTOL * np.maximum(np.abs(f), 1.0))
        for _ in range(_BACKTRACKS):
            if not len(pending):
                break
            idx = active[pending]
            trial = X[idx] + t[pending, None] * step[pending]
            trial_jets = problem.jets(trial)
            evals += len(idx)
            f_trial = _penalty(trial_jets, problem, mu)[0]
            ok = f_trial <= f[pending] + _ARMIJO * t[pending] * slope[pending]
            X[idx[ok]] = trial[ok]
            for array, new in zip(jets, trial_jets):
                array[idx[ok]] = new[ok]
            f_new[pending[ok]] = f_trial[ok]
            pending = pending[~ok]
            t[pending] *= 0.5
        scale = np.maximum(np.maximum(np.abs(f), np.abs(f_new)), 1.0)
        active = active[f - f_new > _FTOL * scale]
    return evals


def screens(problem, cfg, monkeypatch):
    """``(X, hardy, residuals)`` of the screen with the batched and with the
    sequential line search, from the same start points."""
    outcomes = []
    for stage in (qubit._newton_stage, sequential_newton_stage):
        monkeypatch.setattr(qubit, "_newton_stage", stage)
        X = _starts(cfg, 1 + 2 * problem.n)
        hardy, residuals, _ = _screen(problem, X)
        outcomes.append((X, hardy, residuals))
    return outcomes


class TestBatchedLineSearch:
    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize(
        "paradox",
        [original_hardy(), realigned_hardy(2), realigned_hardy(4), merged_original_hardy(1.0),
         merged_original_hardy(-2.0)],
        ids=["original", "2", "4", "merged+1", "merged-2"],
    )
    def test_iterates_equal_the_sequential_search(self, paradox, seed, monkeypatch):
        problem = _PenaltyProblem(paradox)
        batched, sequential = screens(problem, OptimizerConfig(restarts=40, seed=seed), monkeypatch)
        for ours, oracle in zip(batched, sequential):
            assert ours.tobytes() == oracle.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_penalty_schedule_equals_the_sequential_search(self, monkeypatch):
        monkeypatch.setattr(qubit, "_PENALTY_MU", 3e307)
        problem = _PenaltyProblem(realigned_hardy(2))
        batched, sequential = screens(problem, OptimizerConfig(restarts=3), monkeypatch)
        for ours, oracle in zip(batched, sequential):
            assert ours.tobytes() == oracle.tobytes()

    def test_at_most_three_evaluation_calls_per_newton_iteration_on_average(self, monkeypatch):
        # one values-only call per group of halvings and one jets call for the
        # rows that accepted a shortened step replace a jets call per halving
        jets, values, eigh = _PenaltyProblem.jets, _PenaltyProblem.values, np.linalg.eigh
        calls = []  # evaluation calls per Newton iteration, one eigh each
        in_finish = []  # the KKT finish's calls belong to no screen iteration

        def counting_eigh(h):
            calls.append(0)
            return eigh(h)

        def counting(evaluate):
            def wrapper(problem, X):
                if calls and not in_finish:
                    calls[-1] += 1
                return evaluate(problem, X)

            return wrapper

        def uncounted_finish(*args):
            in_finish.append(True)
            try:
                return _kkt_finish(*args)
            finally:
                in_finish.clear()

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(_PenaltyProblem, "jets", counting(jets))
        monkeypatch.setattr(_PenaltyProblem, "values", counting(values))
        monkeypatch.setattr(qubit, "_kkt_finish", uncounted_finish)
        cfg = OptimizerConfig(restarts=200, seed=42)
        per_stage = {}
        for stage in (qubit._newton_stage, sequential_newton_stage):
            monkeypatch.setattr(qubit, "_newton_stage", stage)
            calls.clear()
            maximize_hardy(original_hardy(), cfg)
            per_stage[stage] = [count for count in calls if count]
        batched, sequential = per_stage.values()
        assert len(batched) == len(sequential)
        # at mu = 10 few steps backtrack far, so the sequential search makes
        # only a few more calls (60 against 51 at seed 42)
        assert sum(batched) < sum(sequential)
        assert sum(batched) <= 3 * len(batched)
        assert max(batched) <= len(_HALVINGS) + 1


class TestAmplitudes:
    @pytest.mark.parametrize("name", ["original", 2, 4, 6])
    def test_square_is_the_probability(self, name):
        n = paradox_of(name).scenario.n_settings
        born = _full_grid(n)
        X = mixed_scale_vectors(np.random.default_rng(17), 30, n)
        amp = born.amplitudes(X)[0]
        assert np.array_equal(amp * amp, born.probabilities(X))
        assert np.array_equal(amp * amp, born(X)[0])

    @pytest.mark.parametrize("name", ["original", 2, 4, 6])
    def test_probabilities_are_never_negative(self, name):
        # also at the maximally entangled state with equal angles, where
        # P(01|xx) and P(10|xx) vanish: a closed form for p itself read
        # them as low as -8.3e-17
        n = paradox_of(name).scenario.n_settings
        X = mixed_scale_vectors(np.random.default_rng(21), 300, n)
        aligned = X.copy()
        aligned[:, 0] = math.pi / 4
        aligned[:, n + 1 :] = aligned[:, 1 : n + 1]
        X = np.vstack((X, aligned))
        assert (_full_grid(n).probabilities(X) >= 0.0).all()
        assert (_PenaltyProblem(paradox_of(name)).terms.probabilities(X) >= 0.0).all()

    @pytest.mark.parametrize("name", ["original", 4])
    def test_derivatives_match_central_differences(self, name):
        n = paradox_of(name).scenario.n_settings
        born = _full_grid(n)
        step = 1e-6
        for x in mixed_scale_vectors(np.random.default_rng(18), 6, n):
            amp, at, aa, ab, tt, ta, tb, a2a, a2b, b2b = born.amplitudes(x)
            gradient = np.array([at, aa, ab])
            hessian = np.array([[tt, ta, tb], [ta, a2a, a2b], [tb, a2b, b2b]])
            for row, angles in enumerate((np.zeros_like(born.x), 1 + born.x, 1 + n + born.y)):
                fd_value = np.empty(len(born.x))
                fd_grad = np.empty((3, len(born.x)))
                for t, k in enumerate(angles):
                    xp, xm = x.copy(), x.copy()
                    xp[k] += step
                    xm[k] -= step
                    plus, minus = born.amplitudes(xp), born.amplitudes(xm)
                    fd_value[t] = (plus[0][t] - minus[0][t]) / (2 * step)
                    fd_grad[:, t] = [(p[t] - m[t]) / (2 * step) for p, m in zip(plus[1:4], minus[1:4])]
                np.testing.assert_allclose(fd_value, gradient[row], rtol=0, atol=1e-8)
                np.testing.assert_allclose(fd_grad, hessian[row], rtol=0, atol=1e-8)


class TestKktFinish:
    @pytest.mark.parametrize("paradox", [original_hardy(), realigned_hardy(4), merged_original_hardy(-2.0)],
                             ids=["original", "4", "merged-2"])
    def test_constraint_jets_match_differences(self, paradox):
        # each finish constraint's gradient and Hessian against central
        # differences of its value and gradient
        problem = _PenaltyProblem(paradox)
        step = 1e-6
        for x in mixed_scale_vectors(np.random.default_rng(19), 4, problem.n):
            c, J, H = (a[0] for a in problem.constraints(x[None], problem.jets(x[None])))
            assert np.array_equal(H, H.transpose(0, 2, 1))
            for k in range(len(x)):
                xp, xm = x.copy(), x.copy()
                xp[k] += step
                xm[k] -= step
                plus = problem.constraints(xp[None], problem.jets(xp[None]))
                minus = problem.constraints(xm[None], problem.jets(xm[None]))
                np.testing.assert_allclose((plus[0][0] - minus[0][0]) / (2 * step), J[:, k], atol=1e-8)
                np.testing.assert_allclose((plus[1][0] - minus[1][0]) / (2 * step), H[:, :, k], atol=1e-8)

    def test_one_constraint_per_forced_term_and_distinct_condition(self):
        # three one-term zero conditions, or one three-term sum: three
        # amplitudes; the realigned condition stays one value.  A repeated
        # or scaled copy of a condition would make every row's system
        # singular.
        original, realigned = original_hardy(), realigned_hardy(2)
        repeated = replace(realigned, conditions=realigned.conditions * 2)
        (expr, target), = realigned.conditions
        doubled = BellExpression(realigned.scenario, {key: 2 * c for key, c in expr.items()})
        scaled = replace(realigned, conditions=(Condition(expr, target), Condition(doubled, 2 * target)))
        for paradox, plain, amplitudes in (
            (original, 0, 3),
            (merged_original_hardy(1.0), 0, 3),
            (replace(original, conditions=original.conditions * 2), 0, 3),
            (realigned_hardy(4), 1, 0),
            (repeated, 1, 0),
            (scaled, 1, 0),
        ):
            problem = _PenaltyProblem(paradox)
            assert (len(problem.plain), len(problem.forced)) == (plain, amplitudes)
        for paradox in (repeated, scaled):
            result = maximize_hardy(paradox, OptimizerConfig(restarts=8))
            assert result.converged
            assert abs(result.hardy_value - QUBIT_VALUE_2) <= 1e-12

    def test_a_condition_the_forced_terms_imply_is_left_out(self):
        # P(00|A2B2) - P(01|A1B2) = 0 follows from the first two zero
        # conditions; its gradient vanishes at every feasible point, so
        # keeping it would make every row's system singular
        base = original_hardy()
        implied = BellExpression(base.scenario, {(0, 0, 2, 2): 1.0, (0, 1, 1, 2): -1.0})
        paradox = replace(base, conditions=base.conditions + (Condition(implied, 0.0),))
        problem = _PenaltyProblem(paradox)
        assert (len(problem.plain), len(problem.forced)) == (0, 3)
        result = maximize_hardy(paradox, OptimizerConfig(restarts=40))
        assert result.converged and result.feasible_restarts == 40
        assert abs(result.hardy_value - ORIGINAL_HARDY_VALUE) <= 1e-12
        assert_forced_zero_residuals(paradox, result)

    def test_solve_rows_flags_singular_and_non_finite_rows(self):
        rng = np.random.default_rng(20)
        A = rng.normal(size=(5, 4, 4))
        b = rng.normal(size=(5, 4))
        A[1, :, 2] = 0.0  # singular
        A[3, 0, 0] = np.nan
        x, ok = _solve_rows(A, b)
        assert ok.tolist() == [True, False, True, False, True]
        for r in (0, 2, 4):
            assert np.array_equal(x[r], _solve_rows(A[r : r + 1], b[r : r + 1])[0][0])
            np.testing.assert_allclose(A[r] @ x[r], b[r], atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_singular_or_non_finite_rows_stay_where_they_are(self):
        # at the all-zero vector every probability's gradient vanishes, so
        # the n = 2 condition's does and the row's system is singular; a NaN
        # row's system is not finite.  Neither fails the batch.
        problem = _PenaltyProblem(realigned_hardy(2))
        X = _starts(OptimizerConfig(restarts=6), 1 + 2 * problem.n)
        jets = problem.jets(X)
        _newton_stage(problem, X, jets, np.arange(len(X)), qubit._PENALTY_MU)
        alone = (X.copy(), *(a.copy() for a in jets))
        _kkt_finish(problem, alone[0], alone[1:])
        X[2] = 0.0
        X[4] = np.nan
        jets = problem.jets(X)
        before = (X.copy(), *(a.copy() for a in jets))
        _kkt_finish(problem, X, jets)
        for ours, stuck, finished in zip((X, *jets), before, alone):
            assert np.array_equal(ours[[2, 4]], stuck[[2, 4]], equal_nan=True)
            assert np.array_equal(ours[[0, 1, 3, 5]], finished[[0, 1, 3, 5]])
        assert np.abs(jets[0][[0, 1, 3, 5], 1] - problem.targets[0]).max() <= _KKT_TOL

    def test_a_batch_whose_every_system_is_singular_still_reports(self):
        # at the all-zero vector the n = 2 condition's gradient vanishes, so
        # no row's system can be solved, and every row stays where it is
        problem = _PenaltyProblem(realigned_hardy(2))
        X = np.zeros((4, 1 + 2 * problem.n))
        jets = problem.jets(X)
        before = (X.copy(), *(a.copy() for a in jets))
        assert _kkt_finish(problem, X, jets) == 0
        for ours, stuck in zip((X, *jets), before):
            assert np.array_equal(ours, stuck)

    def test_unfinished_rows_keep_their_screened_point(self, monkeypatch):
        # one Newton step does not finish a row from the penalty stage's point
        monkeypatch.setattr(qubit, "_KKT_ITERS", 1)
        problem = _PenaltyProblem(original_hardy())
        X = _starts(OptimizerConfig(restarts=4), 1 + 2 * problem.n)
        jets = problem.jets(X)
        _newton_stage(problem, X, jets, np.arange(len(X)), qubit._PENALTY_MU)
        before = X.copy()
        assert _kkt_finish(problem, X, jets) == len(X)
        assert np.array_equal(X, before)
