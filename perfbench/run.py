"""The qzeta benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ./src.
With --trace 0 it measures the import time of qzeta in fresh processes, then
runs S seconds' worth of rounds of the workload (ops.rounds_for) in a fresh
worker process (worker.py) and reports the end-to-end metrics, with times
scaled to the reference speed (calib.py).  With --trace 1 it runs the rounds
of S/2 untraced and then the same rounds again with spans around every
traced function (spans.py), and reports the per-layer metrics.
Either way every op's outcome is checked against an independent reference
(check.py) after the measurement.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calib import K_REF  # noqa: E402
from ops import WORKLOADS, cli_argv, cli_options, lerch_pool, rounds, rounds_for  # noqa: E402

SETUP_SAMPLES = 15      # fresh processes that time `import qzeta`
WORKER_TIMEOUT_S = 100  # the worker stops itself after worker.MAX_WALL_S
CAL_WINDOW_S = 1.0      # calibration samples this close to an op scale it
CAL_MIN_SAMPLES = 11
# `import qzeta` is timed first, so that it pays for every module it loads;
# the calibration kernel runs after it, in the same process
IMPORT_PROBE = ("import os, time; "
                "os.sched_setaffinity(0, {{max(os.sched_getaffinity(0))}}); "
                "t = time.perf_counter(); import qzeta; "
                "t = time.perf_counter() - t; "
                "import statistics, sys; sys.path.insert(0, {here!r}); "
                "from calib import kernel; "
                "print(t, statistics.median([kernel() for _ in range(21)]))")


class BenchError(Exception):
    pass


def _env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("QZK_DEFAULT_PRECISION", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _import_times(root: str, env: dict, n: int) -> tuple[list[float], list[float]]:
    """Raw and speed-scaled seconds of `import qzeta` in n fresh processes."""
    raw, scaled = [], []
    for _ in range(n):
        res = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(here=HERE)],
                             env=env, cwd=root, capture_output=True, text=True,
                             timeout=60)
        if res.returncode:
            raise BenchError(f"import qzeta failed:\n{res.stderr}")
        t, k = map(float, res.stdout.split())
        raw.append(t)
        scaled.append(t * K_REF / k)
    return raw, scaled


def scaled_latencies(run: dict) -> list[float]:
    """Each op's latency at the reference speed (see calib.py): scaled by the
    run's reference kernel time over the median calibration time within
    CAL_WINDOW_S of the op, widened to at least CAL_MIN_SAMPLES samples."""
    ts = [t for t, _ in run["cal"]]
    ks = [k for _, k in run["cal"]]
    out = []
    for t0, dt in zip(run["start"], run["lat"]):
        lo = bisect.bisect_left(ts, t0 - CAL_WINDOW_S)
        hi = bisect.bisect_right(ts, t0 + dt + CAL_WINDOW_S)
        while hi - lo < CAL_MIN_SAMPLES:
            lo, hi = max(0, lo - 1), min(len(ts), hi + 1)
        out.append(dt * run["k_ref"] / statistics.median(ks[lo:hi]))
    return out


def _work(root: str, env: dict, workload: str, seed: int, n_rounds: int,
          traced: bool = False) -> dict:
    state = os.path.join(root, ".perfbench")
    out = os.path.join(state, f"{workload}-{seed}-{'traced' if traced else 'plain'}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--out", out,
           "--rounds", str(n_rounds)]
    if traced:
        cmd.append("--trace")
    res = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                         timeout=WORKER_TIMEOUT_S)
    if res.returncode:
        raise BenchError(f"worker failed ({res.returncode}):\n{res.stderr}")
    with open(out) as fh:
        doc = json.load(fh)
    os.unlink(out)
    return doc


def _ops_of(workload: str, seed: int, n_rounds: int) -> list[tuple]:
    return [op for rnd in islice(rounds(workload, seed), n_rounds) for op in rnd]


def _judge(checker, ops: list[tuple], run: dict) -> tuple[int, int]:
    """(failed, failed outside the known defects) of the ops a worker ran,
    a prefix of `ops` when it stopped early.  A distribution or
    generating-function check whose B values are wrong has failed too."""
    outs = run["out"]
    if len(outs) > len(ops):
        raise BenchError("worker and generator disagree on the op stream")
    values_ok = checker.exact_values_ok(run.get("exact_values", {}))
    failed = unknown = 0
    for op, out in zip(ops, outs):
        right, known = checker.check(op, out)
        if op[0] in ("dist", "genfun") and op[:3] not in values_ok:
            right, known = False, False
        if not right:
            failed += 1
            unknown += not known
    return failed, unknown


def _p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile; ops.MIN_OPS = 100 leaves ten above it."""
    s = sorted(values)
    return s[math.ceil(0.9 * len(s)) - 1]


def input_properties(ops: list[tuple]) -> dict:
    """The input properties the program's behaviour depends on."""
    pool = lerch_pool()
    q_abs, pn, keys = [], [], {}

    def seen(family, key):
        fam = keys.setdefault(family, [0, set()])
        fam[0] += key in fam[1]
        fam[1].add(key)

    for op in ops:
        kind = op[0]
        if kind == "pool":
            q_abs.append(abs(pool[op[1]][2]))
            seen("pool_point", op[1])
        elif kind in ("zinterp", "linterp"):
            q_abs.append(abs(op[2]))
            seen("interp_key", (kind,) + op[1:2] + op[3:])
        elif kind == "dist":
            seen("dist_hn", op[1:3])
        elif kind == "genfun":
            seen("genfun_h_order", op[1:])
        elif kind == "witt":
            pn.append(op[1] ** max(op[4]))
            seen("witt_pass", op[1:5])
        elif kind == "shift":
            pn.append(op[1] ** op[6])
        elif kind == "twisted":
            pn.append(op[2] * op[1] ** max(op[7]))
        elif kind == "cli":
            argv = cli_argv(op)
            opts = cli_options(argv)
            if "#pool" in op:
                q_abs.append(abs(pool[op[op.index("#pool") + 1]][2]))
            elif "--q" in opts and "--p" not in opts:
                q_abs.append(abs(complex(opts["--q"])))
            seen("cli_subcommand", " ".join(argv[:2] if argv[0] == "verify" else argv[:1]))
    props = {"ops": len(ops)}
    if q_abs:
        props["q_abs"] = {"min": min(q_abs), "median": statistics.median(q_abs),
                          "max": max(q_abs), "count": len(q_abs)}
    if pn:   # the sizes of the p^N loops (closed_form_verify has none)
        props["p^N"] = {"min": min(pn), "median": statistics.median(pn),
                        "max": max(pn), "count": len(pn)}
    # repeats over occurrences: the share of ops whose key came earlier
    props["repeat_share"] = {k: round(v[0] / (v[0] + len(v[1])), 4)
                             for k, v in keys.items()}
    return props


def environment(root: str) -> dict:
    import mpmath

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "cpu": cpu, "commit": commit}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description="qzeta benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qzeta", "__init__.py")):
        print("error: run from the root of a qzeta checkout (no src/qzeta here)",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    env = _env(root)
    # the checker takes character values (exact roots of unity) from qzeta
    sys.path.insert(1, os.path.join(root, "src"))

    from check import Checker

    try:
        checker = Checker()
        if args.trace == 0:
            setup_raw, setup = _import_times(root, env, SETUP_SAMPLES)
            run = _work(root, env, args.workload, args.seed,
                        rounds_for(args.workload, args.seconds))
            runs = [run]
        else:
            plain = _work(root, env, args.workload, args.seed,
                          rounds_for(args.workload, args.seconds / 2))
            traced = _work(root, env, args.workload, args.seed,
                           plain["rounds"], traced=True)
            runs = [plain, traced]
        ops = _ops_of(args.workload, args.seed, runs[0]["rounds"])
        failed = unknown = 0
        for r in runs:
            f, u = _judge(checker, ops, r)
            failed += f
            unknown += u
    except (BenchError, subprocess.TimeoutExpired, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = sum(len(r["lat"]) for r in runs)
    raw = runs[0]["lat"]
    lat = scaled_latencies(runs[0])
    print("env " + json.dumps(environment(root)))
    print("inputs " + json.dumps(input_properties(ops[:len(raw)])))
    print(f"checked {attempted} ops: {failed} failed "
          f"(failed_frac {failed / attempted:.4f}), "
          f"{unknown} of them outside the known defects")
    if args.trace == 0:
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "ops_per_s": _metric(len(lat) / sum(lat), "1/s"),
            "op_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
            "op_p90_ms": _metric(_p90(lat) * 1e3, "ms"),
            "peak_rss_mb": _metric(run["maxrss_kb"] / 1024, "MB"),
        }
        print("unscaled " + json.dumps({
            "setup_s": statistics.median(setup_raw),
            "ops_per_s": len(raw) / sum(raw),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_p90_ms": _p90(raw) * 1e3,
            "calibration_ms": statistics.median(k for _, k in run["cal"]) * 1e3}))
        print(f"samples: {len(lat)} op latencies, {len(setup)} imports; "
              f"failed_frac {failed / attempted:.4f}")
    else:
        from spans import layer_metrics

        cli = traced["cli"] if args.workload == "cli-oneshot" else None
        overhead = sum(scaled_latencies(traced)) / sum(lat) - 1
        metrics = {k: _metric(v, u) for k, (v, u) in
                   layer_metrics(traced["summary"], cli, overhead).items()}
    print(json.dumps({"correct": unknown == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
