"""Repeat the benchmark to check that its figures are steady.

Run from the repository root:

    python3 perfbench/steady.py --workload small-mix --runs 10 --first-seed 1
    python3 perfbench/steady.py --workload npa-n4-l3 --trace

Without ``--trace``, each workload runs ``--runs`` times with consecutive
seeds and untraced, as BENCHMARK.json describes the command and run length.
For every end-to-end metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, against the metric's bound: a spread up to a third of the bound is
steady.  With ``--trace``, each workload runs traced twice with the same
seed, and every count metric that differs between the two is reported as
unsteady.  The exit code is 1 if a run is not correct, a spread exceeds its
bound or a count is unsteady, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spreads(spec: dict, workload: str, runs: int, first_seed: int) -> bool:
    """Print each end-to-end metric's quartile spread; True if all are within bound."""
    results = [run_once(spec, workload, seed, 0) for seed in range(first_seed, first_seed + runs)]
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    correct = all(r["correct"] for r in results)
    ok = correct
    print(f"{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}, correct {correct}, "
          f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} commands)")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        ok = ok and spread <= metric["bound"]
        verdict = "steady" if spread <= metric["bound"] / 3 else (
            "within bound" if spread <= metric["bound"] else "UNSTEADY")
        print(f"  {metric['name']:<12} median {median:12.6f} {metric['unit']:<3} "
              f"q1 {q1:12.6f} q3 {q3:12.6f} spread {spread:7.4f} bound {metric['bound']}: {verdict}")
        print("    " + " ".join(f"{v:.6g}" for v in values))
    return ok


def count_repeats(spec: dict, workload: str, seed: int) -> bool:
    """Compare two traced runs; True if both are correct and every count repeats."""
    results = [run_once(spec, workload, seed, 1) for _ in range(2)]
    first, second = (r["metrics"] for r in results)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    unsteady = [name for name in counts if first[name]["value"] != second[name]["value"]]
    outcomes = ", ".join(f"correct {r['correct']} failed {r['failed']} of {r['attempted']}" for r in results)
    print(f"{workload}: two traced runs, seed {seed} ({outcomes}); unsteady counts: {', '.join(unsteady) or 'none'}")
    for metric in spec["per_layer"]:
        name = metric["name"]
        print(f"  {name:<30} {first[name]['value']:16.6f} {second[name]['value']:16.6f} {metric['unit']}")
    return not unsteady and all(r["correct"] for r in results)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names, help="default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="compare counts of two traced runs instead")
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or names:
        if args.trace:
            ok = count_repeats(spec, workload, args.first_seed) and ok
        else:
            ok = spreads(spec, workload, args.runs, args.first_seed) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
