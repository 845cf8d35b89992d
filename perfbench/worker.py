"""One measured run in a fresh process: a closed loop (one client, one op in
flight) over the op stream of (workload, seed).

    python3 perfbench/worker.py --workload W --seed N --rounds R --out FILE
        [--trace]

It runs R rounds (and stops early, mid-round, once MAX_WALL_S have
passed), records each op's latency and outcome, and writes them to FILE as
JSON.  After the timed loop it adds the exact B values the distribution and
generating-function checks used (``exact_values``).  With --trace it also
writes its spans to .perfbench/spans-W.bin.  It does not judge the
outcomes; run.py does, after the run, against the references in check.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

from qzeta import analytic, characters, padic, qbernoulli  # noqa: E402

from calib import CAL_EVERY_S, K_REF, K_SPAWN_REF, kernel, spawn_kernel  # noqa: E402
from ops import cli_argv, lerch_pool, rounds  # noqa: E402

MAX_WALL_S = 50         # stop early if the program has become very slow
OP_TIMEOUT_S = 30
ROOT = os.getcwd()


class OpTimeout(BaseException):
    """Raised by the alarm inside an op that overran OP_TIMEOUT_S."""


def _alarm(signum, frame):
    raise OpTimeout()


def _padic(p: int, fr: str):
    return padic.PadicNumber.from_fraction(p, Fraction(fr), 40)


class Runner:
    def __init__(self, traced: bool):
        self.pool = lerch_pool()
        self.traced = traced
        self.cli_parts: list[dict] = []
        self.cli_process_s = 0.0
        self.cli_output_bytes = 0

    def run_op(self, op: tuple) -> list:
        kind = op[0]
        if kind == "dist":
            return [qbernoulli.distribution_check(*op[1:]).passed]
        if kind == "genfun":
            return [qbernoulli.gen_function_identity_check(*op[1:]).passed]
        if kind == "witt":
            p, h, q, levels, n = op[1:]
            rep = padic.witt_verify(h, n, _padic(p, q), list(levels), 12, 3)
            return [rep.passed, [v for _, v in rep.levels]]
        if kind == "shift":
            p, h, n, q, b, N = op[1:]
            f = padic.MonomialTestFunction(n, h, _padic(p, q))
            return [padic.shift_identity_verify(f, b, N, 12, 3).passed]
        if kind == "closedform":
            p, h, t, q, N = op[1:]
            return [padic.closed_form_verify(h, _padic(p, t), _padic(p, q), N,
                                             12, 3).passed]
        if kind == "twisted":
            p, d, idx, h, n, q, levels = op[1:]
            chi = characters.enumerate_characters(d)[idx]
            return [padic.padic_generalized_verify(chi, h, n, _padic(p, q),
                                                   list(levels), 12, 3).passed]
        if kind == "zinterp":
            h, q, n, x = op[1:]
            rep = analytic.zeta_interpolation_verify(h, q, n, x)
            return [rep.passed, rep.witnesses[0][1]]
        if kind == "linterp":
            h, q, n, d, idx = op[1:]
            chi = characters.enumerate_characters(d)[idx]
            rep = analytic.l_interpolation_verify(h, q, n, chi)
            return [rep.passed, rep.witnesses[0][1]]
        if kind == "pool":
            pt = self.pool[op[1]]
            if pt[0] == "zeta":
                v = analytic.q_hurwitz_zeta(*pt[1:])
            else:
                _, h, q, s, d, idx = pt
                v = analytic.q_lfunction(h, q, s,
                                         characters.enumerate_characters(d)[idx])
            return [v.real, v.imag]
        if kind == "cli":
            return self.run_cli(op)
        raise ValueError(f"unknown op kind {kind}")

    def run_cli(self, op: tuple) -> list:
        argv = cli_argv(op)
        if not self.traced:
            cmd = [sys.executable, "-m", "qzeta.cli", *argv]
            return self._spawn(cmd)
        with tempfile.NamedTemporaryFile(dir=os.path.join(ROOT, ".perfbench"),
                                         suffix=".json", delete=False) as fh:
            path = fh.name
        try:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "cli_traced.py"),
                   path, *argv]
            t = perf_counter()
            out = self._spawn(cmd)
            wall = perf_counter() - t
            with open(path) as fh:
                part = json.load(fh)
        finally:
            os.unlink(path)
        self.cli_parts.append(part["summary"])
        self.cli_process_s += wall - part["main_s"]
        return out

    def _spawn(self, cmd: list[str]) -> list:
        try:
            res = subprocess.run(cmd, capture_output=True, cwd=ROOT,
                                 timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return ["timeout"]
        self.cli_output_bytes += len(res.stdout)
        return [res.returncode, res.stdout.decode()]


def exact_values(ops: list[tuple]) -> dict:
    """B_n^{(h)}(x) for each (h, n) of the distribution checks and B_0..B_order
    for each (h, order) of the generating-function checks among `ops`, as
    exact JSON.  Read after the timed loop, from the same caches the checks
    used.  A key whose values raise is left out, which fails its ops."""
    out = {"poly": [], "table": []}
    for kind, key, values in (
            ("dist", "poly", lambda h, n: qbernoulli.q_bernoulli_polynomial(h, n).coeffs),
            ("genfun", "table", lambda h, n: qbernoulli.q_bernoulli_table(h, n).values)):
        for h, n in sorted({op[1:3] for op in ops if op[0] == kind}):
            try:
                out[key].append([h, n, [v.to_json_dict() for v in values(h, n)]])
            except Exception:
                pass
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    # one core for the ops and the calibration kernel, so that both see the
    # same contention from whatever else shares the machine
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runner = Runner(args.trace)
    run_op = runner.run_op
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        run_op = tracer.wrap_op(run_op)
    in_process = args.workload != "cli-oneshot"
    if in_process:
        signal.signal(signal.SIGALRM, _alarm)
    cal_kernel, k_ref = (kernel, K_REF) if in_process else (spawn_kernel, K_SPAWN_REF)

    gen = rounds(args.workload, args.seed)
    lat: list[float] = []
    starts: list[float] = []
    cal: list[list[float]] = []       # [time, kernel seconds]
    outs: list[list] = []
    ran: list[tuple] = []
    n_rounds = 0
    start = last_cal = perf_counter()
    for _ in range(10):
        cal.append([perf_counter() - start, cal_kernel()])
    while n_rounds < args.rounds and perf_counter() - start < MAX_WALL_S:
        n_rounds += 1
        for op in next(gen):
            if perf_counter() - start >= MAX_WALL_S:
                break
            if perf_counter() - last_cal >= CAL_EVERY_S:
                cal.append([perf_counter() - start, cal_kernel()])
                last_cal = perf_counter()
            if in_process:
                signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            t = perf_counter()
            try:
                out = run_op(op)
            except OpTimeout:
                out = ["timeout"]
            except Exception as e:  # an op that raises is a failed op
                out = ["raise", f"{type(e).__name__}: {e}"[:200]]
            dt = perf_counter() - t
            if in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
            lat.append(dt)
            starts.append(t - start)
            outs.append(out)
            ran.append(op)
    for _ in range(10):
        cal.append([perf_counter() - start, cal_kernel()])

    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    doc = {"rounds": n_rounds, "lat": lat, "start": starts, "cal": cal,
           "k_ref": k_ref, "out": outs,
           "maxrss_kb": resource.getrusage(who).ru_maxrss}
    if tracer is not None:
        from spans import merge_summaries
        tracer.close()
        summary = tracer.summary()
        if runner.cli_parts:
            summary = merge_summaries(runner.cli_parts)
        doc["summary"] = summary
        doc["cli"] = {"process_s": runner.cli_process_s,
                      "output_bytes": runner.cli_output_bytes}
        tracer.dump(os.path.join(ROOT, ".perfbench", f"spans-{args.workload}.bin"))
    doc["exact_values"] = exact_values(ran)
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
