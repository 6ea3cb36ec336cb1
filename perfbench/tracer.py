"""Per-layer tracing for the benchmark, installed from outside the library.

Every span is taken around a public call into a layer, patched at the name
its caller looks up, so the library itself carries no timing code:

    cli    nonlocality_wb.cli.{classical_max, certify_hardy_soundness,
           maximize_hardy, build_program, solve}
    qubit  nonlocality_wb.qubit.minimize and the objective passed to it
    sdp    nonlocality_wb.npa.solve_lmi, LmiProblem.schur, and inside
           solve_lmi scipy.linalg.{cho_factor, cholesky, solve_triangular,
           eigvalsh}

Times of calls made from the optimizer's worker threads are summed over the
threads, so they can exceed wall time on that layer.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict
from unittest import mock

import scipy.linalg

from nonlocality_wb import cli, npa, qubit, sdp

#: scipy.linalg calls that solve_lmi makes for step lengths and backtracking.
STEP_CALLS = ("cholesky", "solve_triangular", "eigvalsh")
#: Library calls made by the command handlers; cli overhead is main minus these.
CLI_CALLS = ("classical_max", "certify_hardy_soundness", "maximize_hardy", "build_program", "solve")


def _strategies(args, _result):
    return {"strategies": 4 ** args[0].scenario.n_settings}


def _restarts(_args, result):
    return {"restarts": result.restarts_used} if result is not None else {}


def _flops(args, _result):
    """m^3/3 for every factorization attempted, including ones that failed."""
    return {"cholesky_flop": args[0].shape[0] ** 3 // 3}


class Tracer:
    """Accumulates seconds and counts per span name; safe across threads."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._in_lmi = threading.local()

    def add(self, name: str, seconds: float, **counts: int) -> None:
        with self._lock:
            self.seconds[name] += seconds
            self.counts[name] += 1
            for key, value in counts.items():
                self.counts[key] += value

    def _timed(self, name, fn, counts_of=None):
        """Wrap ``fn`` so that every call, returned or raised, is one span.

        ``counts_of(args, result)`` gives the call's extra counts; ``result``
        is None for a call that raised, such as a failed Cholesky attempt.
        """

        def wrapper(*args, **kwargs):
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                seconds = time.perf_counter() - start
                self.add(name, seconds, **(counts_of(args, result) if counts_of else {}))

        return wrapper

    def _inside_lmi(self, name, fn, counts_of=None):
        timed = self._timed(name, fn, counts_of)

        def wrapper(*args, **kwargs):
            if getattr(self._in_lmi, "active", False):
                return timed(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _solve_lmi(self, fn):
        def wrapper(problem, *args, **kwargs):
            counts = {"variables": problem.m}
            self._in_lmi.active = True
            start = time.perf_counter()
            try:
                result = fn(problem, *args, **kwargs)
                counts["iterations"] = result.iterations
                return result
            finally:
                self._in_lmi.active = False
                self.add("solve_lmi", time.perf_counter() - start, **counts)

        return wrapper

    def _minimize(self, fn):
        def wrapper(fun, *args, **kwargs):
            counts = {}
            start = time.perf_counter()
            try:
                result = fn(self._timed("objective", fun), *args, **kwargs)
                counts["minimize_success"] = int(bool(result.success))
                return result
            finally:
                self.add("minimize", time.perf_counter() - start, **counts)

        return wrapper

    def metrics(self, main_seconds: float) -> dict[str, float]:
        """Per-layer metrics; ``main_seconds`` is the time spent in ``cli.main``."""
        s, c = self.seconds, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        lhv_s = s["classical_max"] + s["certify_hardy_soundness"]
        return {
            "cli.overhead_s": main_seconds - sum(s[name] for name in CLI_CALLS),
            "lhv.classical_max_s": s["classical_max"],
            "lhv.certify_s": s["certify_hardy_soundness"],
            "lhv.strategies_per_s": ratio(c["strategies"], lhv_s),
            "qubit.maximize_s": s["maximize_hardy"],
            "qubit.minimize_calls": c["minimize"],
            "qubit.objective_evals": c["objective"],
            "qubit.evals_per_restart": ratio(c["objective"], c["restarts"]),
            "qubit.objective_s": s["objective"],
            "qubit.scipy_s": s["minimize"] - s["objective"],
            "qubit.us_per_eval": 1e6 * ratio(s["objective"], c["objective"]),
            "qubit.minimize_success_ratio": ratio(c["minimize_success"], c["minimize"]),
            "npa.build_s": s["build_program"],
            "npa.solve_s": s["solve"],
            "npa.prepare_s": s["solve"] - s["solve_lmi"],
            "npa.variables": c["variables"],
            "sdp.solve_lmi_s": s["solve_lmi"],
            "sdp.iterations": c["iterations"],
            "sdp.schur_s": s["schur"],
            "sdp.schur_calls": c["schur"],
            "sdp.schur_share": ratio(s["schur"], s["solve_lmi"]),
            "sdp.cholesky_s": s["cho_factor"],
            "sdp.cholesky_calls": c["cho_factor"],
            "sdp.cholesky_gflop": c["cholesky_flop"] / 1e9,
            "sdp.step_s": s["step"],
            "sdp.other_s": s["solve_lmi"] - s["schur"] - s["cho_factor"] - s["step"],
        }

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced call for the duration of the block."""
        patches = [
            (cli, "classical_max", self._timed("classical_max", cli.classical_max, _strategies)),
            (cli, "certify_hardy_soundness",
             self._timed("certify_hardy_soundness", cli.certify_hardy_soundness, _strategies)),
            (cli, "maximize_hardy", self._timed("maximize_hardy", cli.maximize_hardy, _restarts)),
            (cli, "build_program", self._timed("build_program", cli.build_program)),
            (cli, "solve", self._timed("solve", cli.solve)),
            (qubit, "minimize", self._minimize(qubit.minimize)),
            (npa, "solve_lmi", self._solve_lmi(npa.solve_lmi)),
            (sdp.LmiProblem, "schur", self._timed("schur", sdp.LmiProblem.schur)),
            (scipy.linalg, "cho_factor", self._inside_lmi("cho_factor", scipy.linalg.cho_factor, _flops)),
        ]
        patches += [(scipy.linalg, name, self._inside_lmi("step", getattr(scipy.linalg, name)))
                    for name in STEP_CALLS]
        with contextlib.ExitStack() as stack:
            for owner, name, wrapper in patches:
                stack.enter_context(mock.patch.object(owner, name, wrapper))
            yield self
