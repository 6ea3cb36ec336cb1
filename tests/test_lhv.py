import itertools

import numpy as np
import pytest

from nonlocality_wb.hardy import Condition, HardyParadox, original_hardy, realigned_hardy
from nonlocality_wb.lhv import (
    CapacityError,
    DeterministicStrategy,
    behavior_of,
    certify_hardy_soundness,
    classical_max,
    enumerate_strategies,
)
from nonlocality_wb.scenario import (
    TOLERANCES,
    BellExpression,
    Scenario,
    ValidationError,
    as_inequality,
    chsh_probability_form,
    evaluate,
)


def count_oracle(expr, strategy):
    """Independent oracle: sum coefficients whose (i, j, x, y) matches."""
    total = 0.0
    for (i, j, x, y), coeff in expr.items():
        if strategy.alice(x) == i and strategy.bob(y) == j:
            total += coeff
    return total


def oracle_max(expr):
    """Maximum and maximizers, in enumeration order, over all 4^n strategies."""
    values = [(s, count_oracle(expr, s)) for s in enumerate_strategies(expr.scenario)]
    best = max(v for _, v in values)
    return best, tuple(s for s, v in values if v >= best - TOLERANCES.saturation)


def oracle_soundness(paradox):
    """Saturating count and counterexamples over all 4^n strategies."""
    saturating = [
        s
        for s in enumerate_strategies(paradox.scenario)
        if all(
            abs(count_oracle(expr, s) - target) <= TOLERANCES.saturation
            for expr, target in paradox.conditions
        )
    ]
    hi, hj, hx, hy = paradox.hardy_term
    hits = tuple(s for s in saturating if s.alice(hx) == hi and s.bob(hy) == hj)
    return len(saturating), hits


def random_expression(rng, n, hardy_term):
    """A random half-integer expression over ``Scenario(n)`` avoiding ``hardy_term``."""
    keys = [
        key
        for key in itertools.product((0, 1), (0, 1), range(1, n + 1), range(1, n + 1))
        if key != hardy_term
    ]
    chosen = rng.choice(len(keys), size=int(rng.integers(1, 2 * n + 3)), replace=False)
    coeffs = rng.choice([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0], size=len(chosen))
    return BellExpression(Scenario(n), {keys[k]: c for k, c in zip(chosen, coeffs)})


def random_paradoxes(seed=2024, count=40):
    """Paradoxes with one or two random conditions, each pinned to its
    deterministic maximum or minimum (chosen at random)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.choice([2, 4, 6]))
        hardy_term = (
            int(rng.integers(2)), int(rng.integers(2)),
            int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)),
        )
        conditions = []
        for _ in range(int(rng.integers(1, 3))):
            expr = random_expression(rng, n, hardy_term)
            values = [count_oracle(expr, s) for s in enumerate_strategies(expr.scenario)]
            target = max(values) if rng.integers(2) else min(values)
            conditions.append(Condition(expr, target))
        out.append(
            HardyParadox(f"random-{k}", Scenario(n), tuple(conditions), hardy_term)
        )
    return out


RANDOM_PARADOXES = random_paradoxes()


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 16), (4, 256), (6, 4096)])
    def test_counts(self, n, count):
        strategies = list(enumerate_strategies(Scenario(n)))
        assert len(strategies) == count
        assert len(set(strategies)) == count

    def test_lexicographic_order(self):
        strategies = list(enumerate_strategies(Scenario(2)))
        tuples = [s.a + s.b for s in strategies]
        assert tuples == sorted(tuples)
        assert strategies[0] == DeterministicStrategy((0, 0), (0, 0))
        assert strategies[-1] == DeterministicStrategy((1, 1), (1, 1))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError, match="12"):
            next(enumerate_strategies(Scenario(14)))

    def test_strategy_validation(self):
        with pytest.raises(ValidationError):
            DeterministicStrategy((0, 2), (0, 0))
        with pytest.raises(ValidationError):
            DeterministicStrategy((0,), (0, 0))


class TestBehaviorOf:
    def test_all_zero(self):
        s = DeterministicStrategy((0, 0), (0, 0))
        b = behavior_of(s, Scenario(2))
        assert np.all(b.p[:, :, 0, 0] == 1.0)

    def test_single_flip(self):
        s = DeterministicStrategy((1, 0), (0, 0))
        b = behavior_of(s, Scenario(2))
        for y in (1, 2):
            assert b.prob(1, 0, 1, y) == 1.0
            assert b.prob(0, 0, 2, y) == 1.0

    def test_normalized(self):
        scenario = Scenario(4)
        for s in list(enumerate_strategies(scenario))[:32]:
            b = behavior_of(s, scenario)  # Behavior validates on construction
            assert b.p.sum() == scenario.n_settings**2


class TestClassicalMax:
    def test_chsh(self):
        result = classical_max(chsh_probability_form())
        assert result.value == pytest.approx(3.0, abs=1e-12)
        assert len(result.maximizers) == 8

    @pytest.mark.parametrize("n,bound", [(2, 3.0), (4, 10.0), (6, 21.0), (8, 36.0)])
    def test_as_family(self, n, bound):
        expr = as_inequality(n)
        result = classical_max(expr)
        assert result.value == pytest.approx(bound, abs=1e-12)
        assert (result.value, result.maximizers) == oracle_max(expr)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_realigned_condition_matches_oracle(self, n):
        expr = realigned_hardy(n).conditions[0].expression
        result = classical_max(expr)
        assert (result.value, result.maximizers) == oracle_max(expr)

    @pytest.mark.parametrize("paradox", RANDOM_PARADOXES, ids=lambda p: p.paradox_id)
    def test_random_expressions_match_oracle(self, paradox):
        for expr, _ in paradox.conditions:
            for sign in (1.0, -1.0):
                scaled = BellExpression(expr.scenario, {k: sign * c for k, c in expr.items()})
                result = classical_max(scaled)
                assert (result.value, result.maximizers) == oracle_max(scaled)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_count_is_the_number_of_maximizers(self, n):
        result = classical_max(as_inequality(n))
        assert result.maximizer_count == len(result.maximizers)

    def test_count_under_ties_within_tolerance(self):
        # P(00|11) = 1 leaves five settings per party free; the second term
        # adds less than the saturation tolerance, so it breaks no tie
        expr = BellExpression(Scenario(6), {(0, 0, 1, 1): 1.0, (1, 1, 2, 2): TOLERANCES.saturation / 4})
        result = classical_max(expr)
        assert result.maximizer_count == len(result.maximizers) == 4**5
        assert (result.value, result.maximizers) == oracle_max(expr)

    def test_maximizers_attain_value(self):
        expr = as_inequality(4)
        result = classical_max(expr)
        for s in result.maximizers:
            assert count_oracle(expr, s) == pytest.approx(result.value, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4])
    def test_oracle_equivalence_all_strategies(self, n):
        expr = as_inequality(n)
        scenario = expr.scenario
        for s in enumerate_strategies(scenario):
            via_behavior = evaluate(expr, behavior_of(s, scenario))
            assert via_behavior == pytest.approx(count_oracle(expr, s), abs=1e-12)


class TestSoundness:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_realigned_sound(self, n):
        paradox = realigned_hardy(n)
        report = certify_hardy_soundness(paradox)
        assert report.sound
        assert report.checked == 4**n
        assert report.saturating > 0
        assert report.counterexamples == ()
        assert (report.saturating, report.counterexamples) == oracle_soundness(paradox)

    def test_original_sound(self):
        paradox = original_hardy()
        report = certify_hardy_soundness(paradox)
        assert report.sound
        assert report.checked == 16
        assert (report.saturating, report.counterexamples) == oracle_soundness(paradox)

    def test_dropped_conditions_are_unsound(self):
        # P(00|A2B2) = 0 alone does not force P(00|A1B1) = 0
        base = original_hardy()
        weakened = HardyParadox(
            paradox_id="weakened",
            scenario=base.scenario,
            conditions=base.conditions[:1],
            hardy_term=base.hardy_term,
        )
        report = certify_hardy_soundness(weakened)
        assert not report.sound
        assert len(report.counterexamples) > 0
        # every listed counterexample really saturates the condition and hits
        # the Hardy term
        expr = weakened.conditions[0].expression
        for s in report.counterexamples:
            assert count_oracle(expr, s) == 0.0
            assert s.alice(1) == 0 and s.bob(1) == 0
        assert (report.saturating, report.counterexamples) == oracle_soundness(weakened)

    def test_interior_target_raises(self):
        base = realigned_hardy(2)
        interior = HardyParadox(
            paradox_id="interior",
            scenario=base.scenario,
            conditions=(Condition(base.conditions[0].expression, 2.0),),
            hardy_term=base.hardy_term,
        )
        with pytest.raises(ValidationError, match=r"condition 0 target 2 .*\[0, 3\]"):
            certify_hardy_soundness(interior)

    def test_unattainable_target_is_vacuously_sound(self):
        base = realigned_hardy(2)
        beyond = HardyParadox(
            paradox_id="beyond",
            scenario=base.scenario,
            conditions=(Condition(base.conditions[0].expression, 4.0),),
            hardy_term=base.hardy_term,
        )
        report = certify_hardy_soundness(beyond)
        assert report.sound
        assert report.saturating == 0

    @pytest.mark.parametrize("paradox", RANDOM_PARADOXES, ids=lambda p: p.paradox_id)
    def test_random_paradoxes_match_oracle(self, paradox):
        report = certify_hardy_soundness(paradox)
        assert report.checked == 4**paradox.scenario.n_settings
        assert (report.saturating, report.counterexamples) == oracle_soundness(paradox)

    def test_report_json(self):
        report = certify_hardy_soundness(realigned_hardy(2))
        doc = report.to_json_dict()
        assert doc["sound"] is True
        assert doc["checked"] == 16
        assert doc["paradox_id"] == "realigned-2"
        assert doc["counterexamples"] == []
