import math

import numpy as np
import pytest

from nonlocality_wb.lhv import classical_max
from nonlocality_wb.scenario import (
    Behavior,
    BellExpression,
    Scenario,
    ScenarioMismatchError,
    ValidationError,
    as_classical_bound,
    as_inequality,
    as_quantum_bound,
    evaluate,
)

# The 26-term four-setting expression, written out long-hand as
# {(i, j, x, y): coeff}.  Used to pin the generated coefficient map exactly.
I4422_TERMS = {
    (0, 0, 1, 2): 1.0,
    (1, 1, 2, 3): 1.0,
    (1, 1, 1, 3): 1.0,
    (1, 0, 3, 3): 2.0,
    (1, 1, 2, 2): 1.0,
    (0, 0, 3, 1): 1.0,
    (1, 0, 2, 4): 1.0,
    (0, 0, 4, 1): 1.0,
    (1, 1, 3, 2): 1.0,
    (0, 1, 3, 3): 2.0,
    (0, 0, 1, 4): 1.0,
    (1, 1, 1, 4): 1.0,
    (1, 1, 2, 1): 1.0,
    (0, 0, 2, 1): 1.0,
    (0, 0, 2, 3): 1.0,
    (1, 1, 3, 1): 1.0,
    (0, 0, 2, 2): 1.0,
    (0, 1, 2, 4): 1.0,
    (1, 1, 4, 1): 1.0,
    (1, 1, 1, 1): 1.0,
    (1, 1, 1, 2): 1.0,
    (0, 0, 1, 3): 1.0,
    (0, 0, 3, 2): 1.0,
    (0, 1, 4, 2): 1.0,
    (1, 0, 4, 2): 1.0,
    (0, 0, 1, 1): 1.0,
}

from conftest import all_zero_behavior, uniform_behavior


class TestScenario:
    def test_valid(self):
        s = Scenario(4)
        assert s.n_settings == 4

    @pytest.mark.parametrize("bad", [1, 3, 5, 0, -2])
    def test_rejects_odd_or_small(self, bad):
        with pytest.raises(ValidationError):
            Scenario(bad)

    def test_rejects_non_int(self):
        with pytest.raises(ValidationError):
            Scenario(2.0)


class TestBehavior:
    def test_uniform_is_valid(self):
        b = uniform_behavior(Scenario(2))
        assert b.prob(0, 0, 1, 1) == 0.25

    def test_rejects_unnormalized(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0, 0, 0] = 0.3
        with pytest.raises(ValidationError):
            Behavior(Scenario(2), p)

    def test_rejects_negative(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0, 0, 0] = -1e-6
        p[0, 0, 1, 1] = 0.25 + 1e-6
        with pytest.raises(ValidationError):
            Behavior(Scenario(2), p)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_non_finite(self, entry):
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0, 0, 0] = entry
        with pytest.raises(ValidationError, match="behavior entries must be finite"):
            Behavior(Scenario(2), p)

    def test_immutable(self):
        b = uniform_behavior(Scenario(2))
        with pytest.raises((AttributeError, ValueError)):
            b.p[0, 0, 0, 0] = 0.5


class TestBellExpression:
    def test_canonical_order_and_zero_drop(self):
        s = Scenario(2)
        e = BellExpression(s, [((1, 1, 2, 1), 1.0), ((0, 0, 1, 1), 2.0), ((0, 1, 1, 2), 0.0)])
        keys = [k for k, _ in e.items()]
        assert keys == [(0, 0, 1, 1), (1, 1, 2, 1)]
        assert len(e) == 2

    def test_duplicate_keys_are_summed(self):
        s = Scenario(2)
        e = BellExpression(s, [((0, 0, 1, 1), 1.0), ((0, 0, 1, 1), 0.5)])
        assert e.coefficient(0, 0, 1, 1) == 1.5

    def test_canonicalization_idempotent(self):
        e = as_inequality(4)
        e2 = BellExpression(e.scenario, dict(e.items()))
        assert list(e.items()) == list(e2.items())

    def test_rejects_bad_keys(self):
        s = Scenario(2)
        with pytest.raises(ValidationError):
            BellExpression(s, {(0, 2, 1, 1): 1.0})
        with pytest.raises(ValidationError):
            BellExpression(s, {(0, 0, 3, 1): 1.0})
        with pytest.raises(ValidationError):
            BellExpression(s, {(0, 0, 1, 1): float("nan")})
        # a non-int setting or outcome, and a bool one that would print as true
        for key in ((0, 0, 1.5, 1), (True, 0, 1, 1), (0, 0, 1, np.int64(1)), (0, 0, 1)):
            with pytest.raises(ValidationError, match="four ints"):
                BellExpression(s, {key: 1.0})

    def test_drop_term(self):
        e = BellExpression(Scenario(2), {(0, 0, 1, 1): 1.0, (1, 1, 2, 2): 2.0})
        assert dict(e.drop_term((0, 0, 1, 1)).items()) == {(1, 1, 2, 2): 2.0}
        with pytest.raises(ValidationError, match=r"term \(0, 1, 1, 1\) not present in expression"):
            e.drop_term((0, 1, 1, 1))


class TestEvaluate:
    def test_chsh_on_uniform(self):
        assert evaluate(as_inequality(2), uniform_behavior(Scenario(2))) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_chsh_on_all_zero(self):
        # only the three P(00|..) terms fire
        assert evaluate(as_inequality(2), all_zero_behavior(Scenario(2))) == pytest.approx(
            3.0, abs=1e-12
        )

    def test_scenario_mismatch(self):
        with pytest.raises(ScenarioMismatchError):
            evaluate(as_inequality(2), uniform_behavior(Scenario(4)))

    def test_linearity(self):
        rng = np.random.default_rng(7)
        expr = as_inequality(4)
        s = Scenario(4)
        for _ in range(20):
            raw1 = rng.random((4, 4, 2, 2))
            raw2 = rng.random((4, 4, 2, 2))
            b1 = Behavior(s, raw1 / raw1.sum(axis=(2, 3), keepdims=True))
            b2 = Behavior(s, raw2 / raw2.sum(axis=(2, 3), keepdims=True))
            lam = rng.random()
            mix = Behavior(s, lam * b1.p + (1 - lam) * b2.p)
            lhs = evaluate(expr, mix)
            rhs = lam * evaluate(expr, b1) + (1 - lam) * evaluate(expr, b2)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestChshProbabilityForm:
    """``as_inequality(2)``: the CHSH functional in probability form."""

    def test_bounds(self):
        assert classical_max(as_inequality(2)).value == 3
        assert as_quantum_bound(2) == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-12)

    def test_term_listing(self):
        # eight unit terms, in canonical (x, y, i, j) order
        assert list(as_inequality(2).items()) == [
            ((0, 0, 1, 1), 1.0),
            ((1, 1, 1, 1), 1.0),
            ((0, 0, 1, 2), 1.0),
            ((1, 1, 1, 2), 1.0),
            ((0, 0, 2, 1), 1.0),
            ((1, 1, 2, 1), 1.0),
            ((0, 1, 2, 2), 1.0),
            ((1, 0, 2, 2), 1.0),
        ]


class TestAsInequality:
    def test_n2_equals_chsh(self):
        # P(A1 = B1) + P(A1 = B2) + P(A2 = B1) + P(A2 != B2)
        terms = {
            (i, j, x, y): 1.0
            for x in (1, 2) for y in (1, 2) for i in (0, 1) for j in (0, 1)
            if (i != j) == (x == y == 2)
        }
        assert as_inequality(2) == BellExpression(Scenario(2), terms)

    def test_n4_exact_listing(self):
        e = as_inequality(4)
        assert dict(e.items()) == I4422_TERMS
        assert len(e) == 26
        assert e.coefficient(1, 0, 3, 3) == 2.0
        assert e.coefficient(0, 1, 3, 3) == 2.0
        assert as_classical_bound(4) == pytest.approx(10.0)
        assert as_quantum_bound(4) == pytest.approx(7.0 + 5.0 * math.sqrt(6.0) / 3.0, abs=1e-12)

    def test_n6_classical_bound(self):
        assert as_classical_bound(6) == pytest.approx(21.0)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_bounds_family(self, n):
        assert as_classical_bound(n) == pytest.approx((n * n + n) / 2.0)
        assert as_quantum_bound(n) > as_classical_bound(n)

    @pytest.mark.parametrize("bad", [1, 3, 0, -4])
    def test_rejects_invalid_n(self, bad):
        with pytest.raises(ValidationError):
            as_inequality(bad)
        with pytest.raises(ValidationError):
            as_classical_bound(bad)
        with pytest.raises(ValidationError):
            as_quantum_bound(bad)


class TestAsQuantumBound:
    def test_n2_is_chsh_bound(self):
        assert as_quantum_bound(2) == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-12)

    def test_n4(self):
        assert as_quantum_bound(4) == pytest.approx(7.0 + 5.0 * math.sqrt(6.0) / 3.0, abs=1e-12)
        assert as_quantum_bound(4) == pytest.approx(11.08248, abs=1e-5)

    def test_n6_direct_substitution(self):
        assert as_quantum_bound(6) == pytest.approx(
            (7.0 * math.sqrt(48.0) / 3.0 + 30.0) / 2.0, abs=1e-12
        )
