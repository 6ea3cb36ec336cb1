import hashlib
import json
import math
import os
import re
try:
    import resource
except ImportError:  # not on Windows
    resource = None
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import nonlocality_wb
from nonlocality_wb import cli, npa, qubit, sdp
from nonlocality_wb.cli import TABLE1_COLUMNS, main
from nonlocality_wb.hardy import ORIGINAL_HARDY_VALUE, original_hardy, realigned_hardy
from nonlocality_wb.npa import MAX_LEVEL
from nonlocality_wb.qubit import OptimizerConfig, maximize_hardy
from conftest import QUBIT_VALUE_2, unattainable_hardy

#: (feasible_restarts, restarts_near_best) of ``optimize`` at its default
#: restart budget, per paradox and seed.
RESTART_STATISTICS = {
    "original": {42: (200, 200), 7: (200, 200), 2026: (200, 200)},
    "2": {42: (200, 200), 7: (200, 200), 2026: (200, 200)},
    "4": {42: (500, 162), 7: (500, 141), 2026: (500, 143)},
    "6": {42: (500, 46), 7: (500, 45), 2026: (500, 44)},
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


class TestClassicalBound:
    def test_n2(self, capsys):
        code, report = run_json(capsys, "classical-bound", "2")
        assert code == 0
        assert report["outputs"]["value"] == 3.0
        assert report["outputs"]["maximizer_count"] == 8
        assert report["outputs"]["strategy_count"] == 16

    def test_n4(self, capsys):
        code, report = run_json(capsys, "classical-bound", "4")
        assert code == 0
        assert report["outputs"]["value"] == 10.0

    def test_odd_n_exits_2(self, capsys):
        assert main(["classical-bound", "3"]) == 2
        err = capsys.readouterr().err
        assert "even" in err

    def test_human_output(self, capsys):
        code, out = run_cli(capsys, "classical-bound", "2")
        assert code == 0
        assert "classical bound for n=2: 3" in out

    def test_at_the_cap(self, capsys):
        code, report = run_json(capsys, "classical-bound", "16")
        assert code == 0
        assert report["outputs"] == {
            "n": 16, "value": 136.0, "maximizer_count": 589824, "strategy_count": 4**16
        }


@pytest.mark.parametrize("command", ["classical-bound", "certify"])
def test_setting_count_above_the_cap_exits_2(capsys, command):
    assert main([command, "18", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_settings <= 16" in captured.err


@pytest.mark.parametrize(
    "command,builder", [("classical-bound", "as_inequality"), ("certify", "realigned_hardy")]
)
def test_cap_is_checked_before_the_expression_is_built(capsys, monkeypatch, command, builder):
    def fail(n):
        raise AssertionError(f"{builder}({n}) built above the cap")

    monkeypatch.setattr(cli, builder, fail)
    assert main([command, "3000", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_settings <= 16" in captured.err


class TestCertify:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_sound(self, capsys, n):
        code, report = run_json(capsys, "certify", str(n))
        assert code == 0
        doc = report["outputs"]
        assert doc["kind"] == "soundness_report"
        assert doc["paradox_id"] == f"realigned-{n}"
        assert doc["sound"] is True
        assert doc["checked"] == 4**n
        assert doc["counterexamples"] == []

    def test_at_the_cap(self, capsys):
        code, report = run_json(capsys, "certify", "16")
        assert code == 0
        doc = report["outputs"]
        assert (doc["checked"], doc["saturating"]) == (4**16, 346392)
        assert doc["sound"] is True
        assert doc["counterexamples"] == []

    def test_counterexamples(self, capsys, monkeypatch):
        # the original paradox without its third condition is unsound
        base = original_hardy()
        unsound = replace(base, conditions=base.conditions[:2])
        monkeypatch.setattr(cli, "realigned_hardy", lambda n: unsound)
        code, report = run_json(capsys, "certify", "2")
        assert code == 1
        assert report["outputs"]["sound"] is False
        assert report["outputs"]["counterexamples"] == [{"a": [0, 1], "b": [0, 0]}]
        _, text = run_cli(capsys, "certify", "2")
        assert "counterexamples: 1" in text


class TestOptimize:
    def test_small_run_converges(self, capsys):
        code, report = run_json(capsys, "optimize", "2")
        assert code == 0
        out = report["outputs"]
        assert out["kind"] == "optimization_result"
        assert out["paradox_id"] == "realigned-2"
        assert out["converged"] is True
        assert 0.0 <= out["hardy_value"] <= 0.4143
        assert report["seed"] == 42
        # the document carries every field of the library's result
        result = maximize_hardy(realigned_hardy(2), OptimizerConfig())
        assert out["model"] == {
            "theta": result.model.theta,
            "alpha": list(result.model.alpha),
            "beta": list(result.model.beta),
        }
        assert out["condition_residuals"] == list(result.condition_residuals)
        for key in ("hardy_value", "converged", "restarts_used", "feasible_restarts",
                    "restarts_near_best", "objective_evals"):
            assert out[key] == getattr(result, key)

    def test_nonconvergence_exits_1(self, capsys, monkeypatch):
        # a condition no behavior meets, so no restart can end feasible
        monkeypatch.setattr(cli, "realigned_hardy", unattainable_hardy)
        code, report = run_json(capsys, "optimize", "2", "--seed", "1")
        assert code == 1
        assert report["outputs"]["converged"] is False
        assert report["outputs"]["feasible_restarts"] == 0

    @pytest.mark.parametrize("seed", [42, 7, 2026])
    @pytest.mark.parametrize("name", ["original", "2", "4", "6"])
    def test_exact_values_and_restart_statistics(self, capsys, name, seed):
        code, report = run_json(capsys, "optimize", name, "--seed", str(seed))
        out = report["outputs"]
        assert code == 0
        assert out["converged"] is True
        # original's residuals are squared amplitudes, each amplitude at most 1e-12 after the finish
        residual_bound = 1e-24 if name == "original" else 1e-12
        assert max(abs(r) for r in out["condition_residuals"]) <= residual_bound
        exact = {"original": ORIGINAL_HARDY_VALUE, "2": QUBIT_VALUE_2}.get(name)
        if exact is not None:
            assert abs(out["hardy_value"] - exact) <= 1e-12
        assert (out["feasible_restarts"], out["restarts_near_best"]) == RESTART_STATISTICS[name][seed]

    def test_human_output_reports_restart_statistics(self, capsys):
        _, report = run_json(capsys, "optimize", "2")
        out = report["outputs"]
        code, text = run_cli(capsys, "optimize", "2")
        assert code == 0
        assert (
            f"restarts: 200 ({out['feasible_restarts']} feasible, "
            f"{out['restarts_near_best']} within 1e-6 of the best)"
        ) in text
        assert f"objective evaluations: {out['objective_evals']}" in text

    def test_bad_target_exits_2(self, capsys):
        assert main(["optimize", "five"]) == 2

    def test_negative_seed_exits_2(self, capsys):
        assert main(["optimize", "2", "--seed", "-1"]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_non_finite_or_non_positive_tol_exits_2(self, capsys, tol):
        assert main(["optimize", "2", "--tol", tol, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "constraint_tol must be finite and positive" in captured.err

    def test_flags_set_the_reported_config(self, capsys):
        _, report = run_json(capsys, "optimize", "4", "--seed", "9", "--tol", "1e-5")
        assert report["seed"] == 9
        assert report["inputs"]["config"] == {
            "restarts": 500, "seed": 9, "constraint_tol": 1e-5
        }


#: (iterations, block_dims, upper_bound) of every npa program the tier-1
#: suite can afford, all ``optimal``: a change that takes more iterations or
#: keeps other blocks shows here
NPA_PROGRAMS = {
    ("2", 1): (10, [3, 2], 0.41421356062),
    ("2", 2): (12, [8, 5], 0.41398957921),
    ("2", 3): (14, [14, 11], 0.41398954130),
    ("original", 1): (11, [3, 2], 0.20626736682),
    ("original", 2): (12, [6, 4], 0.09016993736),
    ("original", 3): (12, [9, 7], 0.09016991595),
    ("4", 1): (10, [5, 4], 0.99999992144),
    ("4", 2): (17, [27, 22], 0.78387955620),
    ("6", 1): (11, [7, 6], 0.99999997025),
    ("6", 2): (20, [58, 51], 0.95750513167),
}


@pytest.mark.parametrize("paradox,level", sorted(NPA_PROGRAMS))
def test_npa_program_iterations_and_bound(capfd, paradox, level):
    iterations, block_dims, bound = NPA_PROGRAMS[paradox, level]
    code = main(["npa", paradox, "--level", str(level), "--json"])
    captured = capfd.readouterr()
    assert code == 0
    # the per-iteration log goes into the report, so stderr, file descriptor 2 included, stays empty
    assert captured.err == ""
    outputs = json.loads(captured.out)["outputs"]
    diagnostics = outputs["diagnostics"]
    assert outputs["status"] == "optimal"
    assert diagnostics["iterations"] == iterations
    assert diagnostics["block_dims"] == block_dims
    log = diagnostics["iteration_log"]
    assert sorted(log) == ["dual_infeasibility", "mu", "primal_infeasibility", "rel_gap"]
    assert all(len(column) == iterations for column in log.values())
    assert abs(outputs["upper_bound"] - bound) <= 1e-9


class TestNpa:
    def test_level1_value(self, capsys):
        code, report = run_json(capsys, "npa", "2", "--level", "1")
        assert code == 0
        assert report["outputs"]["status"] == "optimal"
        assert report["outputs"]["upper_bound"] == pytest.approx(0.41421356, abs=1e-6)

    def test_monotone_level1_vs_level2(self, capsys):
        _, r1 = run_json(capsys, "npa", "2", "--level", "1")
        _, r2 = run_json(capsys, "npa", "2", "--level", "2")
        assert r1["outputs"]["upper_bound"] >= r2["outputs"]["upper_bound"] - 1e-6

    def test_level2_bracket(self, capsys):
        _, report = run_json(capsys, "npa", "2", "--level", "2")
        assert 0.4139 <= report["outputs"]["upper_bound"] <= 0.41422

    def test_iteration_log_goes_into_the_report(self, capsys):
        code = main(["npa", "2", "--level", "1", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        diagnostics = json.loads(captured.out)["outputs"]["diagnostics"]
        log = diagnostics["iteration_log"]
        assert sorted(log) == ["dual_infeasibility", "mu", "primal_infeasibility", "rel_gap"]
        assert all(len(column) == diagnostics["iterations"] for column in log.values())

    def test_original_paradox_level1(self, capsys):
        code, report = run_json(capsys, "npa", "original", "--level", "1")
        assert code == 0
        assert report["outputs"]["status"] == "optimal"
        assert report["outputs"]["upper_bound"] >= 0.09016

    def test_original_paradox_level2_certifies(self, capsys):
        code, report = run_json(capsys, "npa", "original", "--level", "2")
        assert code == 0
        assert report["outputs"]["status"] == "optimal"
        assert abs(report["outputs"]["upper_bound"] - (5 * math.sqrt(5) - 11) / 2) <= 1e-7

    def test_capped_solve_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
        code, report = run_json(capsys, "npa", "2", "--level", "2")
        assert code == 1
        assert report["outputs"]["status"] == "max_iterations"
        assert report["outputs"]["diagnostics"]["iterations"] == 2

    def test_stalled_solve_exits_1(self, capsys, monkeypatch):
        # no moment matrix meets the unattainable condition: the solver stops
        # on its stall rule, before the iteration cap
        monkeypatch.setattr(cli, "realigned_hardy", unattainable_hardy)
        code, report = run_json(capsys, "npa", "2", "--level", "2")
        assert code == 1
        assert report["outputs"]["status"] == "max_iterations"
        assert report["outputs"]["diagnostics"]["iterations"] < sdp.MAX_ITERATIONS

    @pytest.mark.parametrize("command", ["npa", "dump-paradox"])
    def test_level_choices_follow_max_level(self, capsys, command):
        code, report = run_json(capsys, command, "2", "--level", str(MAX_LEVEL))
        assert code == 0
        assert report["inputs"]["level"] == MAX_LEVEL
        for level in (MAX_LEVEL + 1, 0):
            assert main([command, "2", "--level", str(level), "--json"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "hierarchy level" in captured.err

    def test_oversize_program_is_refused_before_its_lmi_is_built(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("LmiProblem built above the cap")

        monkeypatch.setattr(npa, "LmiProblem", fail)
        assert main(["npa", "6", "--level", "3", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "m = 46076" in captured.err and "7.9 GiB" in captured.err


def test_oversize_optimize_is_refused_before_it_allocates(capsys, monkeypatch):
    # 500 restarts of n = 144 would screen 21166 terms per restart at once:
    # about 7.6 GiB at the screen's peak
    def fail(*args):
        raise AssertionError("built above the cap")

    monkeypatch.setattr(cli, "realigned_hardy", fail)
    monkeypatch.setattr(qubit, "_screen", fail)
    start = time.perf_counter()
    assert main(["optimize", "144", "--json"]) == 2
    assert time.perf_counter() - start < 0.1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "500 restarts for n = 144" in captured.err and "7.6 GiB" in captured.err


@pytest.mark.parametrize("command", ["npa", "dump-paradox"])
def test_program_size_is_checked_before_the_paradox_is_built(capsys, monkeypatch, command):
    # the level-2 basis for n = 100 has 3 n^2 + 1 = 30001 words: a 6.7 GiB cell_class
    def fail(n):
        raise AssertionError(f"realigned_hardy({n}) built above the cap")

    monkeypatch.setattr(cli, "realigned_hardy", fail)
    assert main([command, "100", "--level", "2", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "30001 words" in captured.err and "6.7 GiB" in captured.err


class TestTable1:
    def test_default(self, capsys):
        code, report = run_json(capsys, "table1")
        assert code == 0
        rows = report["outputs"]["rows"]
        assert [row["n"] for row in rows] == [2, 4]
        assert rows[0]["hardy_value"] == pytest.approx(0.4140, abs=1e-3)
        assert rows[1]["hardy_value"] == pytest.approx(0.7734, abs=1e-3)
        assert all(row["condition_residual"] <= 2e-3 for row in rows)

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "table1", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,condition_residual")
        assert len(lines) == 3

    def test_impossible_tolerance_exits_1(self, capsys):
        code, _ = run_json(capsys, "table1", "--tol", "1e-9")
        assert code == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_tolerance_exits_2(self, capsys, tol):
        assert main(["table1", "--tol", tol, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol must be positive and finite" in captured.err


class TestDumpParadox:
    def test_paradox_document(self, capsys):
        code, report = run_json(capsys, "dump-paradox", "4")
        assert code == 0
        doc = report["outputs"]["paradox"]
        assert doc["n"] == 4
        assert len(doc["conditions"][0]["terms"]) == 25

    def test_with_moment_program(self, capsys):
        code, report = run_json(capsys, "dump-paradox", "2", "--level", "1")
        assert code == 0
        doc = report["outputs"]["moment_program"]
        assert doc["kind"] == "moment_program"
        assert doc["basis"] == ["1", "E1", "E2", "F1", "F2"]
        assert len(doc["cell_class"]) == 25
        assert len(doc["equalities"]) == 2

    def test_json_builds_no_text_dump(self, capsys, monkeypatch):
        # under --json the indented text dump is never built; without it the
        # text is the same indented dump of the outputs
        dumps = json.dumps
        indented = []

        def spy(obj, *args, **kwargs):
            if kwargs.get("indent") is not None:
                indented.append(obj)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", spy)
        code, report = run_json(capsys, "dump-paradox", "2", "--level", "1")
        assert code == 0
        assert indented == []
        code, text = run_cli(capsys, "dump-paradox", "2", "--level", "1")
        assert code == 0
        assert len(indented) == 1
        assert text == dumps(report["outputs"], indent=2, sort_keys=True) + "\n"

    def test_original(self, capsys):
        code, report = run_json(capsys, "dump-paradox", "original")
        assert code == 0
        zero = [
            {"target": 0.0, "terms": [{"coeff": 1.0, "i": i, "j": j, "x": x, "y": y}]}
            for i, j, x, y in ((0, 0, 2, 2), (0, 1, 1, 2), (1, 0, 2, 1))
        ]
        assert report["outputs"] == {
            "paradox": {
                "conditions": zero,
                "hardy_term": {"i": 0, "j": 0, "x": 1, "y": 1},
                "kind": "hardy_paradox",
                "n": 2,
                "paradox_id": "original",
                "reference_value": 0.09016994374947451,
                "schema_version": "1",
            }
        }


#: The keys of each schema-v1 document; the ``optimization_result`` and
#: ``soundness_report`` keys are the field names of their result types.
DOCUMENT_KEYS = {
    "hardy_paradox": {
        "schema_version", "kind", "paradox_id", "n", "conditions", "hardy_term", "reference_value"
    },
    "soundness_report": {
        "schema_version", "kind", "paradox_id", "n", "checked", "saturating", "counterexamples",
        "sound",
    },
    "optimization_result": {
        "schema_version", "kind", "paradox_id", "model", "hardy_value", "condition_residuals",
        "restarts_used", "converged", "feasible_restarts", "restarts_near_best",
        "objective_evals",
    },
    "moment_program": {
        "schema_version", "kind", "n_settings", "level", "description", "basis", "class_words",
        "cell_class", "objective", "objective_offset", "equalities",
    },
}


def test_document_key_sets(capsys):
    _, certify = run_json(capsys, "certify", "2")
    _, optimize = run_json(capsys, "optimize", "original")
    _, dump = run_json(capsys, "dump-paradox", "2", "--level", "1")
    docs = [certify["outputs"], optimize["outputs"], *dump["outputs"].values()]
    assert {doc["kind"]: set(doc) for doc in docs} == DOCUMENT_KEYS
    assert all(doc["schema_version"] == "1" for doc in docs)
    paradox = dump["outputs"]["paradox"]
    assert set(paradox["hardy_term"]) == {"i", "j", "x", "y"}
    assert {key for condition in paradox["conditions"] for key in condition} == {"terms", "target"}
    terms = paradox["conditions"][0]["terms"]
    assert {key for term in terms for key in term} == {"x", "y", "i", "j", "coeff"}
    equalities = dump["outputs"]["moment_program"]["equalities"]
    assert {key for row in equalities for key in row} == {"coefficients", "target"}


# SHA-256 of the sorted-key JSON of each `dump-paradox --level` payload.  The
# payloads are pure combinatorics with coefficients +-1 and +-2, so a digest
# changes only when a basis, class order, label or equality row does.
DUMP_DIGESTS = {
    ("2", 1): "70ca450c45e5f401b050b6b8db9f67116e925ea39c97e45cbeca8ce0e59350ea",
    ("2", 2): "6b698f032d3a40be6179bcf77128881840d4f133b9f67681b3587273b83bda3a",
    ("2", 3): "e5d6a7321ecfe3a4cafbb614f73554be039f74029edcf8d210a32c6ef72b94d3",
    ("4", 1): "11ffcb927ca5ec5e454951e8e7606c4d39679cc4e5bc21468c2bd64e3a06f227",
    ("4", 2): "ce7e9ab9e877aaee52e3a5d1cfeade681a282b7377bb9a540c66295a55c3174a",
    ("4", 3): "6927f1cf0dc2255de9f79672fcebfaa693d1f43b8542807c7921bc73c9827b8c",
    ("original", 1): "a5599bd058a1fc5f2d37154e74e1f0d4c8cd0f39bd1d82e6da14bd0ca8a17009",
    ("original", 2): "351d314846680f29f8a2371b78aca87e965cef752e9411750d08fe81b4ad13fe",
    ("original", 3): "d3744f3c009f279f543cfb3a4ae33df160d2958cf4df603f241eec569d61846e",
}


@pytest.mark.parametrize("paradox,level", sorted(DUMP_DIGESTS))
def test_dump_paradox_payload_digest(capsys, paradox, level):
    code, report = run_json(capsys, "dump-paradox", paradox, "--level", str(level))
    assert code == 0
    payload = json.dumps(report["outputs"], sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == DUMP_DIGESTS[paradox, level]


class TestDeterminism:
    def test_identical_reports_modulo_wall_time(self, capsys):
        _, r1 = run_json(capsys, "npa", "2", "--level", "2")
        _, r2 = run_json(capsys, "npa", "2", "--level", "2")
        r1.pop("wall_time_ms")
        r2.pop("wall_time_ms")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_optimize_deterministic_for_seed(self, capsys):
        for name, seed in (("2", "7"), ("original", "2026")):
            _, r1 = run_json(capsys, "optimize", name, "--seed", seed)
            _, r2 = run_json(capsys, "optimize", name, "--seed", seed)
            r1.pop("wall_time_ms")
            r2.pop("wall_time_ms")
            assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def python_env(**env):
    """The environment of a fresh interpreter that sees the package under test,
    installed or not; ``env`` overrides the inherited one, None unsets a name."""
    package_root = str(Path(nonlocality_wb.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    environ = {**os.environ, "PYTHONPATH": path, **env}
    return {key: value for key, value in environ.items() if value is not None}


def run_python(*args, **env):
    """Run a fresh interpreter with ``python_env(**env)``."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=python_env(**env))


def run_module(*argv, **env):
    """Run the command line in a fresh interpreter; see ``run_python``."""
    return run_python("-m", "nonlocality_wb.cli", *argv, **env)


def payload_bytes(*argv, **env):
    """The ``--json`` output of ``run_module(*argv, **env)`` as printed, with
    its ``wall_time_ms`` set to 0."""
    proc = run_module(*argv, "--json", **env)
    assert proc.returncode == 0, proc.stderr
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', proc.stdout)


class TestEntryPoint:
    def test_package_import_loads_no_submodule(self):
        code = (
            "import sys, nonlocality_wb\n"
            "print(sorted(m for m in sys.modules if m.startswith('nonlocality_wb.')))\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]

    def test_paradox_layers_import_without_scipy(self):
        # only solving a moment program loads scipy; no import and no other command does
        commands = [
            ["dump-paradox", "4", "--level", "2", "--json"],
            ["classical-bound", "4"],
            ["certify", "4"],
            ["table1"],
            ["optimize", "2"],
        ]
        code = (
            "import contextlib, io, sys\n"
            "import nonlocality_wb.lhv, nonlocality_wb.hardy, nonlocality_wb.qubit\n"
            "print('nonlocality_wb.npa' in sys.modules, 'scipy' in sys.modules)\n"
            "import nonlocality_wb.cli, nonlocality_wb.npa, nonlocality_wb.sdp\n"
            "print('scipy' in sys.modules)\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = nonlocality_wb.cli.main(argv)\n"
            "    print(code, 'scipy' in sys.modules)\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False", "False"] + ["0", "False"] * len(commands)

    def test_import_leaves_scipy_optimize_unloaded(self):
        # qubit.minimize exists for the benchmark's tracer and is imported on first access
        code = (
            "import sys, nonlocality_wb.cli\n"
            "print('scipy.optimize' in sys.modules)\n"
            "from nonlocality_wb import qubit\n"
            "print(qubit.minimize.__name__, 'scipy.optimize' in sys.modules)\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "minimize", "True"]

    def test_module_invocation(self):
        proc = run_module("classical-bound", "2", "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["outputs"]["value"] == 3.0
        assert report["versions"]["schema_version"] == "1"

    def test_optimize_payload_does_not_depend_on_blas_threads(self):
        payloads = [
            payload_bytes("optimize", "2", "--seed", "42", OPENBLAS_NUM_THREADS=threads)
            for threads in (None, "1")
        ]
        assert payloads[0] == payloads[1]

    def test_npa_payload_does_not_depend_on_blas_threads(self):
        for paradox, level in (("4", "2"), ("original", "2"), ("original", "3"), ("6", "2")):
            payloads = [
                payload_bytes("npa", paradox, "--level", level, OPENBLAS_NUM_THREADS=threads)
                for threads in (None, "1", "2")
            ]
            assert payloads[0] == payloads[1] == payloads[2], (paradox, level)

    def test_npa_payload_on_one_cpu_is_the_two_cpu_payload(self, capsys):
        # npa 6 --level 2 (m = 1376) solves with a worker thread here and, in a
        # child whose affinity leaves it one CPU, on the caller alone
        if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs sched_setaffinity and two usable CPUs")
        code = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from nonlocality_wb import cli, sdp\n"
            "assert sdp._usable_cpus() == 1\n"
            "sys.exit(cli.main(['npa', '6', '--level', '2', '--json']))\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert sdp._usable_cpus() >= 2
        exit_code, out = run_cli(capsys, "npa", "6", "--level", "2", "--json")
        assert exit_code == 0
        payloads = [re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', p) for p in (proc.stdout, out)]
        assert payloads[0] == payloads[1]

    def test_output_to_a_closed_pipe_exits_cleanly(self):
        # the reader leaves before the first line is written, as `| head -1`
        # does when it has read its line before the command flushes the rest
        proc = subprocess.Popen(
            [sys.executable, "-m", "nonlocality_wb.cli", "table1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=python_env(),
        )
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert b"Traceback" not in err and b"BrokenPipeError" not in err, err.decode()

    @pytest.mark.skipif(shutil.which("bash") is None or shutil.which("head") is None, reason="needs bash and head")
    def test_piped_to_head(self):
        proc = subprocess.run(
            ["bash", "-c", 'set -o pipefail; "$0" -m nonlocality_wb.cli table1 | head -1', sys.executable],
            capture_output=True,
            text=True,
            env=python_env(),
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.split() == list(TABLE1_COLUMNS)
        assert "Traceback" not in proc.stderr, proc.stderr

    @pytest.mark.skipif(resource is None, reason="needs resource limits")
    def test_oversize_npa_program_exits_2_before_it_allocates(self):
        # m = 46076: the solver's packed Schur matrix would take 7.9 GiB.  The child
        # runs the command line in process and then prints its own peak RSS
        code = (
            "import resource, sys\n"
            "from nonlocality_wb.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "unit = 2**20 if sys.platform == 'darwin' else 2**10\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        limit = 3 * 2**30
        proc = subprocess.run(
            [sys.executable, "-c", code, "npa", "6", "--level", "3", "--json"],
            capture_output=True,
            text=True,
            env=python_env(OPENBLAS_NUM_THREADS="1"),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            timeout=300,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "m = 46076" in proc.stderr and "7.9 GiB" in proc.stderr, proc.stderr
        # refused once m is known, before its LMI blocks are built
        peak_mb = float(proc.stderr.split()[-1])
        assert peak_mb < 150, proc.stderr

    def test_first_solve_pins_scipys_openblas(self):
        # the solve imports scipy, so the BLAS lookup must not run before scipy's OpenBLAS is mapped
        code = (
            "import contextlib, io, json\n"
            "from nonlocality_wb import cli, sdp\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    cli.main(['npa', '2', '--level', '1', '--json'])\n"
            "payload = json.loads(out.getvalue())\n"
            "print(len(sdp._blas_setters()), len(sdp._blas_setters.__wrapped__()),\n"
            "      payload['outputs']['diagnostics']['blas_threads'])\n"
        )
        proc = run_python("-c", code, OPENBLAS_NUM_THREADS="2")
        assert proc.returncode == 0, proc.stderr
        cached, mapped, threads = proc.stdout.split()
        if mapped != "2":
            pytest.skip("needs numpy's and scipy's OpenBLAS with thread setters")
        assert (cached, threads) == ("2", "1")

    def test_import_leaves_blas_lookup_for_the_first_solve(self):
        code = (
            "import nonlocality_wb.cli\n"
            "from nonlocality_wb import sdp\n"
            "print(sdp._blas_setters.cache_info().currsize)\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]


class TestInProcess:
    def test_main_runs_in_a_worker_thread(self, capsys):
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main(["table1", "--json"])))
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert codes == [0]
        assert json.loads(capsys.readouterr().out)["command"] == "table1"

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
    def test_main_leaves_sigpipe_handling_alone(self, capsys):
        before = signal.getsignal(signal.SIGPIPE)
        assert main(["table1", "--json"]) == 0
        assert signal.getsignal(signal.SIGPIPE) == before
