"""Command-line front end producing reproducible reports.

Subcommands
-----------
classical-bound N   deterministic maximum of the n-setting expression and its
                    maximizer count, from Bob's best responses to each of
                    Alice's 2^n strategies (n <= 16)
certify N           soundness certificate for the realigned paradox from the
                    same table (exit 0 iff sound, n <= 16)
optimize N|original constrained qubit maximization of the Hardy value
npa N --level L     moment-relaxation upper bound on the Hardy value
table1              evaluates the bundled reference models and compares
                    against their reference Hardy values
dump-paradox ...    paradox JSON (optionally with its moment program)

Every command understands ``--json`` (machine-readable run report with a
stable payload: identical inputs and seed give identical bytes apart from
``wall_time_ms``); ``table1`` also understands ``--csv``.  This module builds
every schema-v1 document in those reports; the library's result types are
plain data.  Exit codes:
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
from collections.abc import Iterable

from . import __version__
from .hardy import HardyParadox, check, original_hardy, realigned_hardy
from .lhv import certify_hardy_soundness, check_capacity, classical_max
from .npa import MomentProgram, build_program, check_bytes, check_program_size, label, solve
from .qubit import OptimizerConfig, QubitModel, behavior_of_model, maximize_hardy, screen_bytes
from .scenario import Scenario, ValidationError, as_inequality

#: Version of the run reports and of the JSON documents inside them.
SCHEMA_VERSION = "1"

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


def _paradox_from_arg(target: str, level: int | None = None, screen: bool = False) -> HardyParadox:
    """The named paradox; with a level, its moment program's size is checked
    first, and with ``screen``, that of ``optimize``'s screen at its default
    restarts; both before the O(n^2) paradox is built."""
    try:
        n = 2 if target == "original" else int(target)
    except ValueError as exc:
        raise ValidationError(
            f"paradox must be 'original' or an even setting count, got {target!r}"
        ) from exc
    if level is not None:
        check_program_size(n, level)
    if screen:
        restarts = OptimizerConfig.for_settings(Scenario(n).n_settings).restarts
        check_bytes(screen_bytes(n, restarts), f"the screen of {restarts} restarts for n = {n}; its largest array")
    return original_hardy() if target == "original" else realigned_hardy(n)


def _document(kind: str, fields: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}


def _paradox_document(paradox: HardyParadox) -> dict:
    """The ``hardy_paradox`` document; condition terms in canonical order."""
    conditions = [
        {"terms": [dict(zip("ijxy", key), coeff=c) for key, c in expr.items()], "target": target}
        for expr, target in paradox.conditions
    ]
    return _document(
        "hardy_paradox",
        {
            "paradox_id": paradox.paradox_id,
            "n": paradox.scenario.n_settings,
            "conditions": conditions,
            "hardy_term": dict(zip("ijxy", paradox.hardy_term)),
            "reference_value": paradox.quantum_value_reference,
        },
    )


def _program_document(program: MomentProgram) -> dict:
    """The ``moment_program`` document; words as labels, ``cell_class`` row-major."""
    return _document(
        "moment_program",
        {
            "n_settings": program.n_settings,
            "level": program.level,
            "description": program.description,
            "basis": [label(w) for w in program.basis],
            "class_words": [label(w) for w in program.class_words],
            "cell_class": program.cell_class.ravel().tolist(),
            "objective": program.objective.tolist(),
            "objective_offset": program.objective_offset,
            "equalities": [
                {"coefficients": vec.tolist(), "target": rhs} for vec, rhs in program.equalities
            ],
        },
    )


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
    check_capacity(args.n)  # before the O(n^2) expression is built
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
    check_capacity(args.n)  # before the O(n^2) paradox is built
    paradox = realigned_hardy(args.n)
    report = certify_hardy_soundness(paradox)
    outputs = _document("soundness_report", {**dataclasses.asdict(report), "sound": report.sound})
    lines = [
        f"paradox: {report.paradox_id}",
        f"checked {report.checked} strategies, {report.saturating} saturate the condition",
        f"sound: {report.sound}",
    ]
    if not report.sound:
        lines.append(f"counterexamples: {len(report.counterexamples)}")
    return _report("certify", {"n": args.n}, outputs), 0 if report.sound else 1, lines


def _cmd_optimize(args) -> tuple[dict, int, list[str]]:
    paradox = _paradox_from_arg(args.paradox, screen=True)
    cfg = dataclasses.replace(
        OptimizerConfig.default_for(paradox), seed=args.seed, constraint_tol=args.tol
    )
    result = maximize_hardy(paradox, cfg)
    fields = {**dataclasses.asdict(result), "paradox_id": paradox.paradox_id}
    outputs = _document("optimization_result", fields)
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
    paradox = _paradox_from_arg(args.paradox, args.level)
    program = build_program(paradox, args.level)
    solution = solve(program)
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
    rows = []
    for n, model in sorted(REFERENCE_MODELS.items()):
        paradox = realigned_hardy(n)
        reference = paradox.quantum_value_reference
        result = check(paradox, behavior_of_model(model), tol=args.tol)
        delta = abs(result.hardy_value - reference)
        rows.append(
            {
                "n": n,
                "condition_residual": float(max(abs(r) for r in result.residuals)),
                "hardy_value": float(result.hardy_value),
                "reference_value": reference,
                "abs_delta": float(delta),
                "within_tolerance": bool(delta <= args.tol and result.conditions_met),
            }
        )
    ok = all(row["within_tolerance"] for row in rows)
    lines = ["  ".join(f"{h:>18}" for h in TABLE1_COLUMNS)]
    for row in rows:
        lines.append("  ".join(f"{_fmt(row[h]):>18}" for h in TABLE1_COLUMNS))
    lines.append(f"all rows within {_fmt(args.tol)}: {ok}")
    outputs = {"rows": rows, "tolerance": args.tol, "ok": ok}
    return _report("table1", {"tolerance": args.tol}, outputs), 0 if ok else 1, lines


def _cmd_dump_paradox(args) -> tuple[dict, int, Iterable[str]]:
    paradox = _paradox_from_arg(args.paradox, args.level)
    outputs = {"paradox": _paradox_document(paradox)}
    if args.level is not None:
        outputs["moment_program"] = _program_document(build_program(paradox, args.level))
    # the text dump is built only if it is printed, not under --json
    lines = (json.dumps(doc, indent=2, sort_keys=True) for doc in [outputs])
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
    p.add_argument("--seed", type=int, default=OptimizerConfig.seed,
                   help="restart seed (default %(default)s)")
    p.add_argument("--tol", type=float, default=OptimizerConfig.constraint_tol,
                   help="largest condition residual of a feasible restart (default %(default)s)")
    common(p)
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("npa", help="moment-relaxation upper bound")
    p.add_argument("paradox", help="even setting count or 'original'")
    p.add_argument("--level", type=int, default=2)
    common(p)
    p.set_defaults(handler=_cmd_npa)

    p = sub.add_parser("table1", help="reproduce the bundled reference models")
    p.add_argument("--tol", type=float, default=2e-3,
                   help="reproduction tolerance (default %(default)s)")
    common(p, csv=True)
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser("dump-paradox", help="print the paradox JSON document")
    p.add_argument("paradox", help="even setting count or 'original'")
    p.add_argument("--level", type=int, default=None,
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
