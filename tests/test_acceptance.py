"""Acceptance criteria, one test per criterion, each printing PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The expensive artifacts (optimizer runs, moment-program
solves including the four-setting level-3 program) are computed once in
module-scoped fixtures and shared across criteria.
"""

import math
import time

import numpy as np
import pytest

from nonlocality_wb.cli import REFERENCE_MODELS
from nonlocality_wb.hardy import check, original_hardy, realigned_hardy
from nonlocality_wb.lhv import certify_hardy_soundness, classical_max
from nonlocality_wb.npa import build_expression_program, build_program, solve
from nonlocality_wb.qubit import (
    OptimizerConfig,
    QubitModel,
    _PenaltyProblem,
    behavior_of_model,
    maximize_hardy,
)
from nonlocality_wb.scenario import (
    Scenario,
    as_inequality,
    evaluate,
)
from conftest import jet_components
from oracles import behavior_of, behavior_of_model_trace, enumerate_strategies


def record(label: str, ok: bool, detail: str = "") -> bool:
    mark = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{mark}  {label}{suffix}")
    return ok


@pytest.fixture(scope="module")
def optimization_results():
    t0 = time.perf_counter()
    results = {
        2: maximize_hardy(realigned_hardy(2), OptimizerConfig.default_for(realigned_hardy(2))),
        4: maximize_hardy(realigned_hardy(4), OptimizerConfig.default_for(realigned_hardy(4))),
        "original": maximize_hardy(original_hardy(), OptimizerConfig.default_for(original_hardy())),
    }
    results["elapsed"] = time.perf_counter() - t0
    return results


@pytest.fixture(scope="module")
def npa_solutions():
    out = {"chsh_l1": solve(build_expression_program(as_inequality(2), 1))}
    for n in (2, 4):
        for level in (1, 2, 3):
            t0 = time.perf_counter()
            out[(n, level)] = solve(build_program(realigned_hardy(n), level))
            out[(n, level, "seconds")] = time.perf_counter() - t0
    return out


def test_criterion_1_classical_bounds_by_exhaustion():
    t0 = time.perf_counter()
    ok = True
    for n, expected in ((2, 3.0), (4, 10.0), (6, 21.0), (8, 36.0), (10, 55.0)):
        result = classical_max(as_inequality(n))
        ok &= record(
            f"criterion 1: classical_max(n={n}) = {expected:g}",
            abs(result.value - expected) < 1e-12,
            f"got {result.value:.12g}",
        )
    elapsed = time.perf_counter() - t0
    ok &= record("criterion 1: runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s")
    assert ok


def test_criterion_2_hardy_soundness_certificates():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 4, 6, 8, 10):
        report = certify_hardy_soundness(realigned_hardy(n))
        ok &= record(
            f"criterion 2: realigned n={n} sound over {report.checked} strategies",
            report.sound and report.saturating > 0,
            f"saturating={report.saturating}",
        )
    elapsed = time.perf_counter() - t0
    ok &= record("criterion 2: runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s")
    assert ok


def test_criterion_3_structural_identity():
    paradox = realigned_hardy(4)
    expr, target = paradox.conditions[0]
    terms = dict(expr.items())
    terms[paradox.hardy_term] = terms.get(paradox.hardy_term, 0.0) + 1.0
    full = as_inequality(4)
    ok = record(
        "criterion 3: condition + Hardy term reconstructs the 26-term expression exactly",
        terms == dict(full.items()) and target == 10.0,
    )
    ok &= record(
        "criterion 3: coefficient 2 on P(10|A3B3) and P(01|A3B3)",
        expr.coefficient(1, 0, 3, 3) == 2.0 and expr.coefficient(0, 1, 3, 3) == 2.0,
    )
    counts = sorted(c for _, c in full.items())
    ok &= record(
        "criterion 3: 24 unit coefficients plus two coefficient-2 terms",
        len(full) == 26 and counts == [1.0] * 24 + [2.0, 2.0],
    )
    assert ok


def test_criterion_4_reference_model_forward_reproduction():
    t0 = time.perf_counter()
    ok = True
    for n, model, reference in (
        (2, REFERENCE_MODELS[2], 0.4140),
        (4, REFERENCE_MODELS[4], 0.7734),
    ):
        result = check(realigned_hardy(n), behavior_of_model(model), tol=2e-3)
        ok &= record(
            f"criterion 4: n={n} reference model hardy value = {reference} +/- 1e-3",
            abs(result.hardy_value - reference) <= 1e-3,
            f"got {result.hardy_value:.6f}",
        )
        ok &= record(
            f"criterion 4: n={n} condition residual <= 2e-3",
            result.conditions_met,
            f"residual {max(abs(r) for r in result.residuals):.2e}",
        )
    elapsed = time.perf_counter() - t0
    ok &= record("criterion 4: runtime in milliseconds", elapsed < 0.5, f"{elapsed * 1000:.0f} ms")
    assert ok


def test_criterion_5_optimization_reproduction(optimization_results):
    ok = True
    intervals = {
        2: (0.4135, 0.4143),
        4: (0.7700, 0.7740),
        "original": (0.0896, 0.0903),
    }
    for key, (lo, hi) in intervals.items():
        result = optimization_results[key]
        ok &= record(
            f"criterion 5: maximize_hardy({key}) in [{lo}, {hi}]",
            result.converged and lo <= result.hardy_value <= hi,
            f"got {result.hardy_value:.6f}, converged={result.converged}",
        )
    ok &= record(
        "criterion 5: n=2 value respects the arithmetic cap sqrt(2) - 1",
        optimization_results[2].hardy_value <= math.sqrt(2.0) - 1.0 + 1e-6,
    )
    elapsed = optimization_results["elapsed"]
    ok &= record("criterion 5: total runtime < 2 min", elapsed < 120.0, f"{elapsed:.1f} s")
    assert ok


def test_criterion_6_npa_cross_checks(npa_solutions, optimization_results):
    ok = True
    chsh = npa_solutions["chsh_l1"]
    ok &= record(
        "criterion 6a: unconstrained CHSH at level 1 = 2 + sqrt(2) +/- 1e-5",
        chsh.status == "optimal"
        and abs(chsh.objective_value - (2.0 + math.sqrt(2.0))) <= 1e-5,
        f"got {chsh.objective_value:.8f}",
    )
    for n in (2, 4):
        values = [npa_solutions[(n, level)].objective_value for level in (1, 2, 3)]
        ok &= record(
            f"criterion 6b: n={n} bounds nonincreasing in level",
            values[1] <= values[0] + 1e-6 and values[2] <= values[1] + 1e-6,
            "values " + ", ".join(f"{v:.6f}" for v in values),
        )
    level3 = npa_solutions[(4, 3)]
    ok &= record(
        "criterion 6c: n=4 level 3 = 0.7804 +/- 5e-3",
        level3.status == "optimal" and abs(level3.objective_value - 0.7804) <= 5e-3,
        f"got {level3.objective_value:.6f}",
    )
    diagnostics = level3.diagnostics
    ok &= record(
        "criterion 6c: n=4 level 3 keeps blocks 111 + 106, 26 iterations, bound 0.7804654075463022 +/- 1e-9",
        diagnostics["block_dims"] == [111, 106]
        and diagnostics["iterations"] == 26
        and abs(level3.objective_value - 0.7804654075463022) <= 1e-9,
        f"blocks {diagnostics['block_dims']}, {diagnostics['iterations']} iterations, "
        f"got {level3.objective_value!r}",
    )
    qubit4 = optimization_results[4].hardy_value
    ok &= record(
        "criterion 6c: bracket [0.7734, 0.7804] reproduced",
        qubit4 <= level3.objective_value + 1e-5
        and abs(qubit4 - 0.7734) <= 1e-3
        and abs(level3.objective_value - 0.7804) <= 5e-3,
        f"qubit {qubit4:.6f} <= npa {level3.objective_value:.6f}",
    )
    qubit2 = optimization_results[2].hardy_value
    arithmetic = math.sqrt(2.0) - 1.0
    for level in (1, 2, 3):
        value = npa_solutions[(2, level)].objective_value
        ok &= record(
            f"criterion 6d: n=2 level {level} bound within [qubit optimum, sqrt(2)-1]",
            value <= arithmetic + 1e-6 and value >= qubit2 - 1e-5,
            f"got {value:.8f}",
        )
    elapsed3 = npa_solutions[(4, 3, "seconds")]
    ok &= record(
        "criterion 6: n=4 level-3 solve within 10 min", elapsed3 < 600.0, f"{elapsed3:.1f} s"
    )
    assert ok


def test_criterion_7_property_suites():
    rng = np.random.default_rng(2026)
    ok = True

    worst_norm = worst_signal = worst_trace = 0.0
    for _ in range(1000):
        n = int(rng.choice([2, 4]))
        model = QubitModel(
            rng.uniform(-math.pi, math.pi),
            tuple(rng.uniform(-math.pi, math.pi, n)),
            tuple(rng.uniform(-math.pi, math.pi, n)),
        )
        p = behavior_of_model(model).p
        worst_norm = max(worst_norm, float(np.abs(p.sum(axis=(2, 3)) - 1.0).max()))
        marg_a = p.sum(axis=3)
        marg_b = p.sum(axis=2)
        worst_signal = max(
            worst_signal,
            float(np.abs(marg_a - marg_a[:, :1, :]).max()),
            float(np.abs(marg_b - marg_b[:1, :, :]).max()),
        )
        worst_trace = max(
            worst_trace,
            float(np.abs(p - behavior_of_model_trace(model).p).max()),
        )
    ok &= record(
        "criterion 7: 1000 random models normalized at 1e-12",
        worst_norm <= 1e-12,
        f"worst {worst_norm:.2e}",
    )
    ok &= record(
        "criterion 7: 1000 random models no-signaling at 1e-12",
        worst_signal <= 1e-12,
        f"worst {worst_signal:.2e}",
    )
    ok &= record(
        "criterion 7: closed form vs trace formula at 1e-12",
        worst_trace <= 1e-12,
        f"worst {worst_trace:.2e}",
    )

    worst_grad = 0.0
    step = 1e-6
    for n in (2, 4):
        problem = _PenaltyProblem(realigned_hardy(n))
        for _ in range(5):
            x = rng.uniform(-math.pi, math.pi, 1 + 2 * n)
            _, hardy_grad, _, cond_grads = jet_components(problem, x)
            for k in range(len(x)):
                xp, xm = x.copy(), x.copy()
                xp[k] += step
                xm[k] -= step
                hp, _, rp, _ = jet_components(problem, xp)
                hm, _, rm, _ = jet_components(problem, xm)
                fd_h = (hp - hm) / (2 * step)
                fd_c = (rp[0] - rm[0]) / (2 * step)
                worst_grad = max(
                    worst_grad,
                    abs(fd_h - hardy_grad[k]) / (1.0 + abs(hardy_grad[k])),
                    abs(fd_c - cond_grads[0][k]) / (1.0 + abs(cond_grads[0][k])),
                )
    ok &= record(
        "criterion 7: analytic gradients match central differences at 1e-4 relative",
        worst_grad <= 1e-4,
        f"worst {worst_grad:.2e}",
    )

    for n in (2, 4, 6):
        strategies = list(enumerate_strategies(Scenario(n)))
        ok &= record(
            f"criterion 7: enumeration n={n} yields 4^n unique strategies",
            len(strategies) == 4**n and len(set(strategies)) == 4**n,
        )

    for n in (2, 4):
        expr = as_inequality(n)
        scenario = expr.scenario
        worst = 0.0
        for strategy in enumerate_strategies(scenario):
            via_behavior = evaluate(expr, behavior_of(strategy, scenario))
            direct = sum(
                coeff
                for (i, j, x, y), coeff in expr.items()
                if strategy.a[x - 1] == i and strategy.b[y - 1] == j
            )
            worst = max(worst, abs(via_behavior - direct))
        ok &= record(
            f"criterion 7: evaluation oracle equivalence on all strategies (n={n})",
            worst <= 1e-12,
            f"worst {worst:.2e}",
        )
    assert ok
