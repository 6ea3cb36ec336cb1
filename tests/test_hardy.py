import math

import numpy as np
import pytest

from nonlocality_wb.hardy import (
    HardyParadox,
    ORIGINAL_HARDY_VALUE,
    check,
    original_hardy,
    realigned_hardy,
    zero_sign,
)
from nonlocality_wb.scenario import (
    BellExpression,
    Scenario,
    ScenarioMismatchError,
    ValidationError,
    as_inequality,
    evaluate,
)
from conftest import all_zero_behavior, merged_original_hardy, random_behavior, uniform_behavior


class TestOriginalHardy:
    def test_structure(self):
        p = original_hardy()
        assert p.scenario.n_settings == 2
        assert len(p.conditions) == 3
        for expr, target in p.conditions:
            assert target == 0.0
            assert len(expr) == 1
            assert all(c == 1.0 for _, c in expr.items())
        condition_keys = {key for expr, _ in p.conditions for key, _ in expr.items()}
        assert condition_keys == {(0, 0, 2, 2), (0, 1, 1, 2), (1, 0, 2, 1)}
        assert p.hardy_term == (0, 0, 1, 1)

    def test_reference_value(self):
        assert ORIGINAL_HARDY_VALUE == pytest.approx((5 * math.sqrt(5) - 11) / 2)
        assert original_hardy().quantum_value_reference == pytest.approx(0.09017, abs=1e-5)

    def test_all_zero_behavior_violates_conditions(self):
        # the product state |00> with both parties reading outcome 0:
        # P(01|A1B2) = P(10|A2B1) = 0 hold, but P(00|A2B2) = 1 != 0
        result = check(original_hardy(), all_zero_behavior(Scenario(2)), tol=1e-12)
        assert not result.conditions_met
        assert result.residuals[0] == pytest.approx(1.0)
        assert result.residuals[1] == pytest.approx(0.0)
        assert result.residuals[2] == pytest.approx(0.0)


class TestZeroSign:
    def test_original_conditions_force_their_terms(self):
        assert [zero_sign(expr, target) for expr, target in original_hardy().conditions] == [1, 1, 1]

    def test_sign_of_a_multi_term_condition(self):
        for coeff, sign in ((1.0, 1), (-2.0, -1)):
            ((expr, target),) = merged_original_hardy(coeff).conditions
            assert len(expr) == 3
            assert zero_sign(expr, target) == sign

    def test_mixed_signs_or_nonzero_target_force_nothing(self):
        scenario = Scenario(2)
        mixed = BellExpression(scenario, {(0, 0, 2, 2): 1.0, (0, 1, 1, 2): -1.0})
        single = BellExpression(scenario, {(0, 0, 2, 2): 1.0})
        assert zero_sign(mixed, 0.0) == 0
        assert zero_sign(single, 0.5) == 0
        assert zero_sign(single, -1.0) == 0
        assert zero_sign(BellExpression(scenario, {}), 0.0) == 0
        ((expr, target),) = realigned_hardy(2).conditions
        assert zero_sign(expr, target) == 0


class TestRealignedHardy:
    def test_n2_structure(self):
        p = realigned_hardy(2)
        assert len(p.conditions) == 1
        expr, target = p.conditions[0]
        assert target == 3.0
        assert len(expr) == 7
        assert all(c == 1.0 for _, c in expr.items())
        expected = {
            (1, 1, 1, 1),
            (1, 0, 2, 2),
            (0, 0, 1, 2),
            (1, 1, 2, 1),
            (1, 1, 1, 2),
            (0, 0, 2, 1),
            (0, 1, 2, 2),
        }
        assert {key for key, _ in expr.items()} == expected
        assert p.hardy_term == (0, 0, 1, 1)
        assert p.quantum_value_reference == pytest.approx(0.4140)

    def test_n4_structure(self):
        p = realigned_hardy(4)
        expr, target = p.conditions[0]
        assert target == 10.0
        assert len(expr) == 25
        assert expr.coefficient(1, 0, 3, 3) == 2.0
        assert expr.coefficient(0, 1, 3, 3) == 2.0
        assert expr.coefficient(0, 0, 1, 1) == 0.0
        assert p.quantum_value_reference == pytest.approx(0.7734)

    def test_n6_has_no_reference(self):
        assert realigned_hardy(6).quantum_value_reference is None

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_condition_plus_hardy_reconstructs_expression(self, n):
        p = realigned_hardy(n)
        expr, _ = p.conditions[0]
        terms = dict(expr.items())
        terms[p.hardy_term] = terms.get(p.hardy_term, 0.0) + 1.0
        assert BellExpression(p.scenario, terms) == as_inequality(n)

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            realigned_hardy(3)

    def test_hardy_term_cannot_appear_in_condition(self):
        base = realigned_hardy(2)
        with pytest.raises(ValidationError):
            HardyParadox(
                paradox_id="bad",
                scenario=base.scenario,
                conditions=(
                    (as_inequality(2), 3.0),  # still contains P(00|A1B1)
                ),
                hardy_term=base.hardy_term,
            )

    def test_rejects_bad_hardy_terms(self):
        base = realigned_hardy(2)
        for key in ((0, 2, 1, 1), (0, 0, 3, 1), (0, 0, 1.5, 1), (True, 0, 1, 1)):
            with pytest.raises(ValidationError, match="out of range"):
                HardyParadox("bad", base.scenario, base.conditions, key)


class TestCheck:
    def test_uniform_hardy_value(self):
        for paradox in (original_hardy(), realigned_hardy(2)):
            result = check(paradox, uniform_behavior(Scenario(2)), tol=1e-6)
            assert result.hardy_value == pytest.approx(0.25)

    def test_tolerance_validation(self):
        with pytest.raises(ValidationError):
            check(realigned_hardy(2), uniform_behavior(Scenario(2)), tol=0.0)

    def test_scenario_mismatch(self):
        with pytest.raises(ScenarioMismatchError):
            check(realigned_hardy(4), uniform_behavior(Scenario(2)), tol=1e-6)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        # a NaN tolerance meets no condition and an infinite one meets them all
        with pytest.raises(ValidationError, match="finite"):
            check(realigned_hardy(2), uniform_behavior(Scenario(2)), tol=tol)

    @pytest.mark.parametrize("n", [2, 4])
    def test_hardy_value_identity(self, n):
        # hardy_value == full expression minus condition value, on any behavior
        rng = np.random.default_rng(11)
        p = realigned_hardy(n)
        full = as_inequality(n)
        expr, target = p.conditions[0]
        for _ in range(10):
            b = random_behavior(p.scenario, rng)
            result = check(p, b, tol=1e-6)
            assert result.hardy_value == pytest.approx(
                evaluate(full, b) - evaluate(expr, b), abs=1e-12
            )
            assert result.residuals[0] == pytest.approx(
                evaluate(expr, b) - target, abs=1e-12
            )
