"""Command-line front end producing reproducible reports.

Subcommands
-----------
classical-bound N   deterministic maximum of the n-setting expression by
                    exhaustive strategy enumeration
certify N           soundness certificate for the realigned paradox (exit 0
                    iff sound)
optimize N|original constrained qubit maximization of the Hardy value
npa N --level L     moment-relaxation upper bound on the Hardy value
table1              evaluates the bundled reference models and compares
                    against their reference Hardy values
dump-paradox ...    paradox JSON (optionally with its moment program)

Every command understands ``--json`` (machine-readable run report with a
stable payload: identical inputs and seed give identical bytes apart from
``wall_time_ms``); ``table1`` also understands ``--csv``.  Exit codes:
0 success / sound, 1 computational non-convergence or failed reproduction,
2 validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import __version__
from .hardy import HardyParadox, check, original_hardy, realigned_hardy
from .lhv import certify_hardy_soundness, classical_max
from .npa import MAX_LEVEL, SdpConfig, build_program, solve
from .qubit import (
    OptimizerConfig,
    QubitModel,
    behavior_of_model,
    maximize_hardy,
)
from .scenario import SCHEMA_VERSION, ValidationError, as_inequality

#: Reference qubit models reproduced by ``table1``: per setting count, the
#: optimized parameters reaching the paradox's reference Hardy value.
REFERENCE_MODELS = {
    2: QubitModel(0.7968, (-0.1996, 0.5901), (0.1996, -0.5901)),
    4: QubitModel(
        1.0793,
        (-1.5309, 1.3084, 2.1179, 0.9181),
        (-1.6107, -1.3084, -2.1179, -0.9181),
    ),
}


#: Columns of the ``table1`` text and ``--csv`` output.
TABLE1_COLUMNS = ("n", "condition_residual", "hardy_value", "reference_value", "abs_delta")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _paradox_from_arg(target: str) -> HardyParadox:
    if target == "original":
        return original_hardy()
    try:
        n = int(target)
    except ValueError as exc:
        raise ValidationError(
            f"paradox must be 'original' or an even setting count, got {target!r}"
        ) from exc
    return realigned_hardy(n)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc


def _report(command: str, inputs: dict, outputs: dict, seed=None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "versions": {"schema_version": SCHEMA_VERSION, "artifact": __version__},
        "seed": seed,
        "wall_time_ms": 0,  # filled by the driver
    }


def _cmd_classical_bound(args) -> tuple[dict, int, list[str]]:
    expr = as_inequality(args.n)
    result = classical_max(expr)
    outputs = {
        "n": args.n,
        "value": result.value,
        "maximizer_count": result.maximizer_count,
        "strategy_count": 4**args.n,
    }
    lines = [
        f"classical bound for n={args.n}: {_fmt(result.value)}",
        f"maximizers: {result.maximizer_count} of {4 ** args.n} deterministic strategies",
    ]
    return _report("classical-bound", {"n": args.n}, outputs), 0, lines


def _cmd_certify(args) -> tuple[dict, int, list[str]]:
    paradox = realigned_hardy(args.n)
    report = certify_hardy_soundness(paradox)
    outputs = report.to_json_dict()
    lines = [
        f"paradox: {report.paradox_id}",
        f"checked {report.checked} strategies, {report.saturating} saturate the condition",
        f"sound: {report.sound}",
    ]
    if not report.sound:
        lines.append(f"counterexamples: {len(report.counterexamples)}")
    return _report("certify", {"n": args.n}, outputs), 0 if report.sound else 1, lines


def _cmd_optimize(args) -> tuple[dict, int, list[str]]:
    paradox = _paradox_from_arg(args.paradox)
    # a given flag wins over a config-file key, which wins over default_for
    cfg = OptimizerConfig.default_for(paradox)
    if args.config:
        cfg = OptimizerConfig.from_json_dict(_load_json(args.config), cfg)
    flags = {"seed": args.seed, "constraint_tol": args.tol}
    cfg = OptimizerConfig.from_json_dict({k: v for k, v in flags.items() if v is not None}, cfg)
    result = maximize_hardy(paradox, cfg)
    outputs = result.to_json_dict()
    outputs["paradox_id"] = paradox.paradox_id
    reference = paradox.quantum_value_reference
    lines = [
        f"paradox: {paradox.paradox_id}",
        f"hardy value: {_fmt(result.hardy_value)}"
        + (f" (reference {_fmt(reference)})" if reference is not None else ""),
        f"converged: {result.converged} "
        f"(max residual {_fmt(max((abs(r) for r in result.condition_residuals), default=0.0))})",
        f"theta: {_fmt(result.model.theta)}",
        "alpha: " + " ".join(_fmt(a) for a in result.model.alpha),
        "beta:  " + " ".join(_fmt(b) for b in result.model.beta),
        f"restarts: {result.restarts_used} ({result.feasible_restarts} feasible, "
        f"{result.restarts_near_best} within 1e-6 of the best)",
        f"objective evaluations: {result.objective_evals}",
    ]
    code = 0 if result.converged else 1
    inputs = {"paradox": args.paradox, "config": dataclasses.asdict(cfg)}
    return _report("optimize", inputs, outputs, seed=cfg.seed), code, lines


def _cmd_npa(args) -> tuple[dict, int, list[str]]:
    paradox = _paradox_from_arg(args.paradox)
    cfg = SdpConfig.from_json_dict(_load_json(args.config)) if args.config else SdpConfig()
    program = build_program(paradox, args.level)
    solution = solve(program, cfg)
    outputs = {
        "paradox_id": paradox.paradox_id,
        "level": args.level,
        "upper_bound": solution.objective_value,
        "status": solution.status,
        "min_eigenvalue": solution.min_eigenvalue,
        "max_equality_residual": float(solution.residuals.max(initial=0.0)),
        "diagnostics": solution.diagnostics,
    }
    lines = [
        f"paradox: {paradox.paradox_id}, level {args.level}",
        f"upper bound on hardy value: {_fmt(solution.objective_value)}",
        f"status: {solution.status} "
        f"({solution.diagnostics['iterations']} iterations, "
        f"gap {solution.diagnostics['rel_gap']:.2e})",
        f"moment matrix: {solution.diagnostics['matrix_size']} x "
        f"{solution.diagnostics['matrix_size']}, "
        f"{solution.diagnostics['variables']} variables",
    ]
    code = 0 if solution.status == "optimal" else 1
    inputs = {"paradox": args.paradox, "level": args.level}
    return _report("npa", inputs, outputs), code, lines


def _cmd_table1(args) -> tuple[dict, int, list[str]]:
    tol = args.tol if args.tol is not None else 2e-3
    rows = []
    for n, model in sorted(REFERENCE_MODELS.items()):
        paradox = realigned_hardy(n)
        reference = paradox.quantum_value_reference
        result = check(paradox, behavior_of_model(model), tol=tol)
        delta = abs(result.hardy_value - reference)
        rows.append(
            {
                "n": n,
                "condition_residual": float(max(abs(r) for r in result.residuals)),
                "hardy_value": float(result.hardy_value),
                "reference_value": reference,
                "abs_delta": float(delta),
                "within_tolerance": bool(delta <= tol and result.conditions_met),
            }
        )
    ok = all(row["within_tolerance"] for row in rows)
    lines = ["  ".join(f"{h:>18}" for h in TABLE1_COLUMNS)]
    for row in rows:
        lines.append("  ".join(f"{_fmt(row[h]):>18}" for h in TABLE1_COLUMNS))
    lines.append(f"all rows within {_fmt(tol)}: {ok}")
    outputs = {"rows": rows, "tolerance": tol, "ok": ok}
    return _report("table1", {"tolerance": tol}, outputs), 0 if ok else 1, lines


def _cmd_dump_paradox(args) -> tuple[dict, int, list[str]]:
    paradox = _paradox_from_arg(args.paradox)
    outputs = {"paradox": paradox.to_json_dict()}
    if args.level is not None:
        outputs["moment_program"] = build_program(paradox, args.level).to_json_dict()
    lines = [json.dumps(outputs, indent=2, sort_keys=True)]
    inputs = {"paradox": args.paradox, "level": args.level}
    return _report("dump-paradox", inputs, outputs), 0, lines


def _csv_table1(report: dict) -> str:
    out = [",".join(TABLE1_COLUMNS)]
    for row in report["outputs"]["rows"]:
        cells = (repr(row[h]) if isinstance(row[h], float) else str(row[h]) for h in TABLE1_COLUMNS)
        out.append(",".join(cells))
    return "\n".join(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonlocality-wb",
        description="Realigned Hardy paradox workbench: classical bounds, "
        "qubit optimization, and moment-matrix upper bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    levels = tuple(range(1, MAX_LEVEL + 1))

    def common(p, csv=False):
        p.add_argument("--json", action="store_true", help="emit a machine-readable run report")
        if csv:
            p.add_argument("--csv", action="store_true", help="emit CSV rows")

    p = sub.add_parser("classical-bound", help="deterministic maximum by enumeration")
    p.add_argument("n", type=int)
    common(p)
    p.set_defaults(handler=_cmd_classical_bound)

    p = sub.add_parser("certify", help="exhaustive Hardy soundness certificate")
    p.add_argument("n", type=int)
    common(p)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("optimize", help="constrained qubit maximization")
    p.add_argument("paradox", help="even setting count or 'original'")
    p.add_argument("--config", help="optimizer config JSON file")
    p.add_argument("--seed", type=int, default=None,
                   help=f"restart seed (default {OptimizerConfig.seed})")
    p.add_argument("--tol", type=float, default=None, help="constraint tolerance override")
    common(p)
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("npa", help="moment-relaxation upper bound")
    p.add_argument("paradox", help="even setting count or 'original'")
    p.add_argument("--level", type=int, choices=levels, default=2)
    p.add_argument("--config", help="solver config JSON file")
    common(p)
    p.set_defaults(handler=_cmd_npa)

    p = sub.add_parser("table1", help="reproduce the bundled reference models")
    p.add_argument("--tol", type=float, default=None, help="reproduction tolerance (default 2e-3)")
    common(p, csv=True)
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser("dump-paradox", help="print the paradox JSON document")
    p.add_argument("paradox", help="even setting count or 'original'")
    p.add_argument("--level", type=int, choices=levels, default=None,
                   help="also dump the moment program at this level")
    common(p)
    p.set_defaults(handler=_cmd_dump_paradox)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report, code, lines = args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["wall_time_ms"] = int((time.perf_counter() - start) * 1000)
    try:
        if getattr(args, "json", False):
            print(json.dumps(report, sort_keys=True))
        elif getattr(args, "csv", False):
            print(_csv_table1(report))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone, as with `| head`: drop the rest of the output,
        # including what the interpreter would flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
