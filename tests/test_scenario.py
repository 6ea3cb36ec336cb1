import json
import math
import re

import numpy as np
import pytest

from nonlocality_wb.scenario import (
    Behavior,
    BellExpression,
    Scenario,
    ScenarioMismatchError,
    ValidationError,
    as_classical_bound,
    as_inequality,
    as_quantum_bound,
    chsh_probability_form,
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

    def test_json_round_trip(self):
        s = Scenario(6)
        assert Scenario.from_json_dict(s.to_json_dict()) == s

    @pytest.mark.parametrize("value", [4.9, "4", True, None, float("nan")])
    def test_json_rejects_mistyped_n_settings(self, value):
        data = {**Scenario(4).to_json_dict(), "n_settings": value}
        with pytest.raises(ValidationError, match="n_settings"):
            Scenario.from_json_dict(data)

    def test_json_checks_document_shape(self):
        data = Scenario(4).to_json_dict()
        del data["n_settings"]
        with pytest.raises(ValidationError, match="missing key 'n_settings'"):
            Scenario.from_json_dict(data)
        with pytest.raises(ValidationError):
            Scenario.from_json_dict([4])

    def test_json_accepts_integral_float(self):
        data = {**Scenario(4).to_json_dict(), "n_settings": 4.0}
        assert Scenario.from_json_dict(data) == Scenario(4)


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

    def test_immutable(self):
        b = uniform_behavior(Scenario(2))
        with pytest.raises((AttributeError, ValueError)):
            b.p[0, 0, 0, 0] = 0.5

    def test_json_round_trip(self):
        b = all_zero_behavior(Scenario(2))
        b2 = Behavior.from_json_dict(json.loads(json.dumps(b.to_json_dict())))
        np.testing.assert_array_equal(b.p, b2.p)

    @pytest.mark.parametrize(
        "change",
        [
            {"n_settings": "2"},
            {"n_settings": 2.5},
            {"p": ["0.25"] * 16},
            {"p": [0.25] * 15},
            {"p": "0.25"},
        ],
    )
    def test_json_rejects_mistyped_fields(self, change):
        data = {**uniform_behavior(Scenario(2)).to_json_dict(), **change}
        with pytest.raises(ValidationError):
            Behavior.from_json_dict(data)


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

    def test_json_round_trip(self):
        e = as_inequality(4)
        e2 = BellExpression.from_json_dict(json.loads(json.dumps(e.to_json_dict())))
        assert e2 == e
        assert e2.classical_bound == e.classical_bound
        assert e2.quantum_bound == e.quantum_bound

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_settings", "2"),
            ("x", "2"),
            ("y", 1.5),
            ("j", False),
            ("coeff", "3"),
            ("coeff", float("inf")),
            ("classical_bound", "3"),
        ],
    )
    def test_json_rejects_mistyped_fields(self, field, value):
        data = chsh_probability_form().to_json_dict()
        if field in data:
            data[field] = value
        else:
            data["terms"][0][field] = value
        with pytest.raises(ValidationError, match=repr(field)):
            BellExpression.from_json_dict(data)

    @pytest.mark.parametrize("field", ["n_settings", "terms"])
    def test_json_rejects_missing_field(self, field):
        data = chsh_probability_form().to_json_dict()
        del data[field]
        with pytest.raises(ValidationError, match=f"missing key {field!r}"):
            BellExpression.from_json_dict(data)

    def test_json_rejects_term_without_coefficient(self):
        data = chsh_probability_form().to_json_dict()
        del data["terms"][3]["coeff"]
        with pytest.raises(ValidationError, match="missing key 'coeff'"):
            BellExpression.from_json_dict(data)

    def test_json_rejects_repeated_term(self):
        data = chsh_probability_form().to_json_dict()
        term = data["terms"][0]
        data["terms"].append({**term, "coeff": 2.0})
        key = (term["i"], term["j"], term["x"], term["y"])
        with pytest.raises(ValidationError, match=re.escape(f"{key} is listed twice")):
            BellExpression.from_json_dict(data)

    def test_json_bounds_are_optional(self):
        data = chsh_probability_form().to_json_dict()
        del data["classical_bound"]
        data["quantum_bound"] = None
        e = BellExpression.from_json_dict(data)
        assert e == chsh_probability_form()
        assert e.classical_bound is None and e.quantum_bound is None


class TestEvaluate:
    def test_chsh_on_uniform(self):
        assert evaluate(chsh_probability_form(), uniform_behavior(Scenario(2))) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_chsh_on_all_zero(self):
        # only the three P(00|..) terms fire
        assert evaluate(chsh_probability_form(), all_zero_behavior(Scenario(2))) == pytest.approx(
            3.0, abs=1e-12
        )

    def test_scenario_mismatch(self):
        with pytest.raises(ScenarioMismatchError):
            evaluate(chsh_probability_form(), uniform_behavior(Scenario(4)))

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
    def test_bounds(self):
        e = chsh_probability_form()
        assert e.classical_bound == pytest.approx(3.0)
        assert e.quantum_bound == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-12)

    def test_term_listing(self):
        e = chsh_probability_form()
        assert len(e) == 8
        assert all(c == 1.0 for _, c in e.items())
        expected = {
            (1, 1, 1, 1),
            (1, 0, 2, 2),
            (0, 0, 1, 2),
            (1, 1, 2, 1),
            (1, 1, 1, 2),
            (0, 0, 2, 1),
            (0, 1, 2, 2),
            (0, 0, 1, 1),
        }
        assert {key for key, _ in e.items()} == expected


class TestAsInequality:
    def test_n2_equals_chsh(self):
        assert dict(as_inequality(2).items()) == dict(chsh_probability_form().items())

    def test_n4_exact_listing(self):
        e = as_inequality(4)
        assert dict(e.items()) == I4422_TERMS
        assert len(e) == 26
        assert e.coefficient(1, 0, 3, 3) == 2.0
        assert e.coefficient(0, 1, 3, 3) == 2.0
        assert e.classical_bound == pytest.approx(10.0)
        assert e.quantum_bound == pytest.approx(7.0 + 5.0 * math.sqrt(6.0) / 3.0, abs=1e-12)

    def test_n6_classical_bound(self):
        assert as_inequality(6).classical_bound == pytest.approx(21.0)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_bounds_family(self, n):
        e = as_inequality(n)
        assert e.classical_bound == pytest.approx((n * n + n) / 2.0)
        assert as_quantum_bound(n) > as_classical_bound(n)

    @pytest.mark.parametrize("bad", [1, 3, 0, -4])
    def test_rejects_invalid_n(self, bad):
        with pytest.raises(ValidationError):
            as_inequality(bad)
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
