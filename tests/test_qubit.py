import json
import math
from unittest import mock

import numpy as np
import pytest

from nonlocality_wb import qubit
from nonlocality_wb.hardy import check, original_hardy, realigned_hardy
from nonlocality_wb.qubit import (
    OptimizerConfig,
    QubitModel,
    _full_grid,
    _PenaltyProblem,
    _screen,
    _starts,
    behavior_of_model,
    maximize_hardy,
)
from nonlocality_wb.scenario import BellExpression, ValidationError, as_inequality, evaluate
from conftest import REFERENCE_MODEL_2, REFERENCE_MODEL_4, jet_components, merged_original_hardy
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
        m = REFERENCE_MODEL_4
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
        result = check(realigned_hardy(2), behavior_of_model(REFERENCE_MODEL_2), tol=2e-3)
        assert result.conditions_met
        assert result.hardy_value == pytest.approx(0.4140, abs=1e-3)

    def test_reference_model_4(self):
        result = check(realigned_hardy(4), behavior_of_model(REFERENCE_MODEL_4), tol=2e-3)
        assert result.conditions_met
        assert result.hardy_value == pytest.approx(0.7734, abs=1e-3)

    def test_expression_value_on_reference_model_4(self):
        value = evaluate(as_inequality(4), behavior_of_model(REFERENCE_MODEL_4))
        assert value == pytest.approx(10.0 + 0.7734, abs=1e-3)

    def test_closed_form_matches_trace_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            m = random_model(rng, int(rng.choice([2, 4, 6])))
            np.testing.assert_allclose(
                behavior_of_model(m).p, behavior_of_model_trace(m).p, atol=1e-12
            )

    def test_normalized_and_no_signaling(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = behavior_of_model(random_model(rng, 4)).p
            np.testing.assert_allclose(p.sum(axis=(2, 3)), 1.0, atol=1e-12)
            marg_a = p.sum(axis=3)
            marg_b = p.sum(axis=2)
            assert np.abs(marg_a - marg_a[:, :1, :]).max() <= 1e-12
            assert np.abs(marg_b - marg_b[:1, :, :]).max() <= 1e-12


def sum_in_term_order(weights):
    """Left-to-right sum: the order in which ``jets`` adds up an expression."""
    total = 0.0
    for w in weights:
        total += w
    return total


def gathered_components(paradox, x):
    """Penalty components from the full-grid tensors, one expression at a time."""
    n = paradox.scenario.n_settings
    p, dtheta, dalpha, dbeta = (t.reshape(n, n, 2, 2) for t in _full_grid(n)(x))
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
    @pytest.mark.parametrize("hessian", [False, True])
    def test_rows_equal_single_vector_calls(self, name, hessian):
        paradox = paradox_of(name)
        n = paradox.scenario.n_settings
        terms = [_PenaltyProblem(paradox).terms, _full_grid(n)]
        X = mixed_scale_vectors(np.random.default_rng(12), 30, n)
        for born in terms:
            batched = born(X, hessian=hessian)
            assert len(batched) == (10 if hessian else 4)
            for r, x in enumerate(X):
                for batch_part, part in zip(batched, born(x, hessian=hessian)):
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
            _, _, _, _, tt, ta, tb, aa, ab, bb = born(x, hessian=True)
            hessian = np.array([[tt, ta, tb], [ta, aa, ab], [tb, ab, bb]])
            for row, angles in enumerate((np.zeros_like(born.x), 1 + born.x, 1 + n + born.y)):
                fd = np.empty((3, len(born.x)))
                for t, k in enumerate(angles):
                    xp, xm = x.copy(), x.copy()
                    xp[k] += step
                    xm[k] -= step
                    fd[:, t] = [
                        (gp[t] - gm[t]) / (2 * step)
                        for gp, gm in zip(born(xp)[1:], born(xm)[1:])
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


class TestMaximizeHardy:
    def test_realigned_2(self):
        result = maximize_hardy(realigned_hardy(2), OptimizerConfig(restarts=40))
        assert result.converged
        assert 0.4135 <= result.hardy_value <= 0.4143
        assert max(abs(r) for r in result.condition_residuals) <= 1e-6
        assert result.restarts_used == 40
        assert_restart_statistics(result)

    def test_realigned_4(self):
        result = maximize_hardy(realigned_hardy(4), OptimizerConfig(restarts=60))
        assert result.converged
        assert 0.7700 <= result.hardy_value <= 0.7740

    def test_original(self):
        result = maximize_hardy(original_hardy(), OptimizerConfig(restarts=40))
        assert result.converged
        assert abs(result.hardy_value - (5 * math.sqrt(5) - 11) / 2) <= 5e-7
        assert max(abs(r) for r in result.condition_residuals) <= 1e-12
        assert_restart_statistics(result)

    @pytest.mark.parametrize("coeff", [1.0, -2.0])
    def test_one_multi_term_zero_condition(self, coeff):
        # the three zero conditions folded into one same-sign sum pinned at 0
        result = maximize_hardy(merged_original_hardy(coeff), OptimizerConfig(restarts=40))
        assert result.converged
        assert abs(result.hardy_value - (5 * math.sqrt(5) - 11) / 2) <= 5e-7

    @pytest.mark.parametrize("name, restarts", [(2, 40), (4, 60), ("original", 40)])
    def test_value_does_not_depend_on_the_seed(self, name, restarts):
        values = [
            maximize_hardy(paradox_of(name), OptimizerConfig(restarts=restarts, seed=seed)).hardy_value
            for seed in (42, 7, 2026)
        ]
        assert max(values) - min(values) <= 1e-10

    def test_objective_evals_count_jets_rows_without_scipy(self):
        rows = []
        jets = _PenaltyProblem.jets

        def counting_jets(problem, X):
            rows.append(len(X))
            return jets(problem, X)

        def no_scipy(*args, **kwargs):
            raise AssertionError("the optimizer must not call scipy.optimize.minimize")

        runs = (
            lambda: maximize_hardy(original_hardy(), OptimizerConfig(restarts=4)),
            lambda: maximize_hardy(realigned_hardy(2), OptimizerConfig(restarts=4)),
        )
        with mock.patch.object(_PenaltyProblem, "jets", counting_jets), mock.patch.object(
            qubit, "minimize", no_scipy
        ), mock.patch("scipy.optimize.minimize", no_scipy):
            for run in runs:
                rows.clear()
                result = run()
                assert sum(rows) > result.restarts_used
                assert result.objective_evals == sum(rows)

    @pytest.mark.parametrize("name", ["original", 4])
    def test_screened_restarts_do_not_depend_on_the_batch(self, name):
        problem = _PenaltyProblem(paradox_of(name))
        d = 1 + 2 * problem.n
        outcomes = []
        for restarts in (40, 200):
            X = _starts(OptimizerConfig(restarts=restarts), d)
            hardy, residuals, _ = _screen(problem, X)
            outcomes.append((X[:40], hardy[:40], residuals[:40]))
        for small, large in zip(*outcomes):
            assert np.array_equal(small, large)

    def test_deterministic_for_fixed_seed(self):
        cfg = OptimizerConfig(restarts=8, seed=123)
        r1 = maximize_hardy(realigned_hardy(2), cfg)
        r2 = maximize_hardy(realigned_hardy(2), cfg)
        assert r1.hardy_value == r2.hardy_value
        assert r1.model == r2.model

    def test_result_json(self):
        result = maximize_hardy(realigned_hardy(2), OptimizerConfig(restarts=4))
        doc = result.to_json_dict()
        assert doc["kind"] == "optimization_result"
        assert len(doc["model"]["alpha"]) == 2
        assert isinstance(doc["converged"], bool)
        assert doc["restarts_used"] == 4
        for key in ("feasible_restarts", "restarts_near_best", "objective_evals"):
            assert doc[key] == getattr(result, key)
        assert json.loads(json.dumps(doc)) == doc

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_penalty_schedule_still_reports(self, monkeypatch):
        # the penalty reaches inf in the second stage; rows whose penalty
        # Hessian overflows stay where they are instead of failing eigh
        monkeypatch.setattr(qubit, "_PENALTY_START", 1e300)
        monkeypatch.setattr(qubit, "_PENALTY_GROWTH", 1e10)
        result = maximize_hardy(realigned_hardy(2), OptimizerConfig(restarts=3))
        assert result.restarts_used == 3
        assert result.converged == (max(abs(r) for r in result.condition_residuals) <= 1e-6)

    def test_weak_penalty_reports_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(qubit, "_PENALTY_START", 1e-3)
        monkeypatch.setattr(qubit, "_PENALTY_GROWTH", 1.5)
        monkeypatch.setattr(qubit, "_PENALTY_STAGES", 1)
        cfg = OptimizerConfig(restarts=2)
        result = maximize_hardy(realigned_hardy(2), cfg)
        assert not result.converged
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
        assert np.linalg.norm(projected) <= 1e-4 * (1.0 + np.linalg.norm(g))
