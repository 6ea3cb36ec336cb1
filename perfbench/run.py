"""Benchmark of the nonlocality-wb command line at the paper's problem sizes.

Run from the repository root:

    python3 perfbench/run.py --workload npa-n4-l3 --seed 42 --seconds 1 --trace 0

A workload is a fixed list of CLI commands.  One caller runs them back to
back in this process through ``nonlocality_wb.cli.main([..., "--json"])``, a
closed loop, each command with its own default thread count.  The workload
seed is passed to ``optimize`` as ``--seed``; the other commands take no seed.

``--trace 0`` times the list, repeated until ``--seconds`` have passed, and
prints the end-to-end metrics.  ``--trace 1`` runs the list once untraced and
once traced (see tracer.py) and prints the per-layer metrics, including the
tracing overhead.  Every payload is checked against reference values, and
every repeat of a command, traced or not, must give a payload identical to
the first apart from ``wall_time_ms``.  A command fails if it exits non-zero,
fails its check or changes between repeats; ``correct`` is false if a
command reported success with a wrong payload, any repeat changed or a
tracer self-check failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
describe the run: environment, each metric with its unit and sample count,
and every failure.  The benchmark exits with code 2 and prints no result if
the library cannot be imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = {
    "small-mix": [
        ["classical-bound", "10"],
        ["certify", "10"],
        ["npa", "2", "--level", "1"],
        ["npa", "2", "--level", "3"],
        ["npa", "original", "--level", "2"],
        ["npa", "original", "--level", "3"],
        ["npa", "4", "--level", "2"],
        ["table1"],
    ],
    "optimize-original": [["optimize", "original"]],
    "npa-n4-l3": [["npa", "4", "--level", "3"]],
}

HARDY_ORIGINAL = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
#: Best known qubit Hardy values; a moment-relaxation bound must not be below.
QUBIT_BEST = {"2": 0.41399015, "4": 0.77343830, "original": HARDY_ORIGINAL}
ARITHMETIC_2 = math.sqrt(2.0) - 1.0

#: Reference check per command (outputs of its --json payload), with the
#: windows the repository's tests use.
CHECKS = {
    "classical-bound 10": (
        "value 55 with 6144 maximizers",
        lambda o: o["value"] == 55 and o["maximizer_count"] == 6144,
    ),
    "certify 10": ("sound with 3702 saturating", lambda o: o["sound"] and o["saturating"] == 3702),
    "npa 2 --level 1": (
        "bound sqrt(2)-1 +/- 1e-6",
        lambda o: abs(o["upper_bound"] - ARITHMETIC_2) <= 1e-6,
    ),
    "npa 2 --level 3": (
        "bound in [0.41399015 - 1e-5, sqrt(2)-1 + 1e-6]",
        lambda o: QUBIT_BEST["2"] - 1e-5 <= o["upper_bound"] <= ARITHMETIC_2 + 1e-6,
    ),
    "npa original --level 2": (
        "bound (5*sqrt(5)-11)/2 +/- 5e-4",
        lambda o: abs(o["upper_bound"] - HARDY_ORIGINAL) <= 5e-4,
    ),
    "npa original --level 3": (
        "bound (5*sqrt(5)-11)/2 +/- 5e-4",
        lambda o: abs(o["upper_bound"] - HARDY_ORIGINAL) <= 5e-4,
    ),
    "npa 4 --level 2": ("bound >= 0.7804 - 5e-3", lambda o: o["upper_bound"] >= 0.7804 - 5e-3),
    "npa 4 --level 3": (
        "bound in [0.77343830 - 1e-5, 0.7805]",
        lambda o: QUBIT_BEST["4"] - 1e-5 <= o["upper_bound"] <= 0.7805,
    ),
    "optimize original": ("hardy value in (0.0896, 0.0903)", lambda o: 0.0896 < o["hardy_value"] < 0.0903),
    "table1": ("every row within tolerance", lambda o: o["ok"]),
}

#: Environment variables the run must not inherit: the solver trace prints to
#: stdout, which breaks --json parsing, and the thread override would replace
#: the optimizer's default thread count.
UNSET_ENV = ("NONLOCALITY_WB_SDP_TRACE", "NONLOCALITY_WB_THREADS")
#: Fresh interpreters timed per run for setup_s; each costs about a second.
SETUP_SAMPLES = 7
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import nonlocality_wb.cli as c; "
    "print(c.__file__, flush=True)"
)
#: Single-threaded layers whose traced time must fit inside the traced wall time.
SINGLE_THREADED = {
    "lhv": ("lhv.classical_max_s", "lhv.certify_s"),
    "npa": ("npa.build_s", "npa.solve_s"),
    "sdp": ("sdp.solve_lmi_s",),
}
#: Remainders of a span minus the spans nested in it; one below zero means a
#: nested span was counted twice or outside its parent.
REMAINDERS = ("cli.overhead_s", "npa.prepare_s", "sdp.other_s")


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


class Run:
    """Outcomes of every command executed in one benchmark run."""

    def __init__(self, cli, seed: int):
        self.cli = cli
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.incorrect = False
        self.check_failures: list[str] = []
        self.first_payload: dict[str, str] = {}
        self.outputs: dict[str, dict] = {}

    def argv(self, command: list[str]) -> list[str]:
        return command + (["--seed", str(self.seed)] if command[0] == "optimize" else [])

    def execute(self, command: list[str]) -> float:
        """Run one command, record its outcome; returns seconds spent in main."""
        key = " ".join(command)
        self.attempted += 1
        what, check = CHECKS[key]
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main([*self.argv(command), "--json"])
            seconds = time.perf_counter() - start
            report = json.loads(out.getvalue().splitlines()[-1])
            report.pop("wall_time_ms")
            outputs = report["outputs"]
            passed = check(outputs)
        except Exception:  # a crash or malformed payload fails the command; the run goes on
            self.failures.append(f"{key}: raised\n{traceback.format_exc()}")
            return time.perf_counter() - start
        payload = json.dumps(report, sort_keys=True)
        self.outputs[key] = outputs
        if payload != self.first_payload.setdefault(key, payload):
            self.incorrect = True
            self.failures.append(f"{key}: payload differs from its first run")
        elif code != 0:
            self.failures.append(f"{key}: exit {code} (status {outputs.get('status', '-')})")
        elif not passed:
            self.incorrect = True
            self.failures.append(f"{key}: check failed, expected {what}")
        return seconds

    def run_pass(self, commands) -> tuple[float, float, float]:
        """Run the workload once; returns wall, CPU and in-main seconds."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        main_s = sum(self.execute(command) for command in commands)
        return time.perf_counter() - wall0, time.process_time() - cpu0, main_s


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42, help="passed to optimize --seed (default 42)")
    parser.add_argument("--seconds", type=float, default=1.0, help="timed-run length; at least one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_cli():
    """Import the library from this checkout's src/, or exit with code 2."""
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    try:
        import nonlocality_wb.cli as cli
    except ImportError as exc:
        fail(f"cannot import nonlocality_wb from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        fail(f"nonlocality_wb was imported from {cli.__file__}, not from {SRC}")
    return cli


def blas_threads() -> dict[str, int]:
    """Thread count of every loaded OpenBLAS, read from the library itself."""
    import ctypes

    found = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(config):
        return config["Build Dependencies"]["blas"].get("version")

    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads()
    if any(count > nproc for count in threads.values()):
        fail(f"BLAS thread count {threads} exceeds nproc = {nproc}")
    return {
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy.show_config(mode="dicts")),
        "scipy_blas": blas_version(scipy.show_config(mode="dicts")),
        "blas_threads": threads,
    }


def setup_seconds() -> list[float]:
    """Seconds from process start until nonlocality_wb.cli is imported."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)], stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline().decode().strip()
            samples.append(time.perf_counter() - start)
        if proc.returncode != 0 or not Path(line).resolve().is_relative_to(SRC):
            fail(f"set-up import failed (exit {proc.returncode}, module {line!r})")
    return samples


def accuracy(run: Run) -> dict[str, float]:
    """Bound margin over the npa commands and the qubit excess; 0 where not run."""
    margins = [
        outputs["upper_bound"] - QUBIT_BEST[key.split()[1]]
        for key, outputs in run.outputs.items()
        if key.startswith("npa ")
    ]
    optimized = run.outputs.get("optimize original")
    return {
        "npa.bound_margin_min": min(margins, default=0.0),
        "qubit.value_excess": optimized["hardy_value"] - HARDY_ORIGINAL if optimized else 0.0,
    }


def timed_metrics(run: Run, commands, seconds: float) -> tuple[dict, dict]:
    setup = setup_seconds()
    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cpu, _ = run.run_pass(commands)
        walls.append(wall)
        cpus.append(cpu)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": f"median of {len(setup)} imports",
        "wall_s": f"median of {len(walls)} passes",
        "cpu_s": f"median of {len(cpus)} passes, user + system",
        "peak_rss_mb": "process peak",
    }
    return metrics, samples


def traced_metrics(run: Run, commands) -> tuple[dict, dict]:
    from tracer import Tracer

    plain_wall, _, _ = run.run_pass(commands)
    tracer = Tracer()
    with tracer.installed():
        traced_wall, _, main_s = run.run_pass(commands)
    metrics = tracer.metrics(main_s)
    metrics.update(accuracy(run))
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    notes = {"trace.overhead_s": f"traced wall_s {traced_wall:.6f} minus untraced {plain_wall:.6f}, one pair"}
    checks = {}
    for layer, names in SINGLE_THREADED.items():
        total = sum(metrics[name] for name in names)
        checks[names[-1]] = (f"{layer} time {total:.6f} s <= traced wall_s", total <= traced_wall)
    for name in REMAINDERS:
        checks[name] = (f"{name} {metrics[name]:.6f} >= 0", metrics[name] >= 0.0)
    for name, (what, passed) in checks.items():
        notes[name] = f"self-check: {what}: {'ok' if passed else 'FAILED'}"
        if not passed:
            run.incorrect = True
            run.check_failures.append(what)
    return metrics, notes


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    env = environment()
    commands = WORKLOADS[args.workload]
    run = Run(cli, args.seed)
    units = declared_units(args.trace)
    if args.trace:
        metrics, notes = traced_metrics(run, commands)
    else:
        metrics, notes = timed_metrics(run, commands, args.seconds)
    if set(metrics) != set(units):
        fail(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, closed loop, 1 caller")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:<30} {value:16.6f} {units[name]:<11} {notes.get(name, '')}")
    failed = len(run.failures)
    print(f"{'fail_ratio':<30} {failed / run.attempted:16.6f} ratio, {failed} of {run.attempted} commands")
    for failure in run.failures:
        print(f"failed: {failure}")
    for what in run.check_failures:
        print(f"tracer self-check failed: {what}")
    result = {
        "correct": not run.incorrect,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
