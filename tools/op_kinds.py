"""Op kinds: where one workload's time goes, kind by kind.

    python3 tools/op_kinds.py WORKLOAD SEED ROUNDS

It runs ROUNDS rounds of WORKLOAD's op stream at SEED (`perfbench/ops.rounds`)
in this process, from this checkout's src, each op through
`perfbench/worker.Runner.run_op`, untraced, as a benchmark run does (a cli op
spawns one CLI process).  It reads `perfbench/` and edits nothing there.
For each op kind it prints the number of ops, those that raised, its op
time in seconds and its share of the total, the p50 and max latency in ms,
and the garbage collector passes that started during its ops (all
generations, and generation 2 alone), counted through `gc.callbacks`.  The
last line gives the totals.  The times are wall time on the machine that
runs it, not scaled to the reference speed as the benchmark's are.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def measure(workload: str, seed: int, n_rounds: int) -> dict[str, dict]:
    """{kind: {"lat": [seconds per op], "raised": n, "gc": n, "gc2": n}}."""
    # the package and the CLI processes read this checkout's src, with the
    # default precision the benchmark uses
    os.environ.pop("QZK_DEFAULT_PRECISION", None)
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import ops
    import worker

    if workload not in ops.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}: one of "
                         f"{', '.join(ops.WORKLOADS)}")
    runner = worker.Runner(traced=False)
    passes = [0, 0]

    def count(phase, info):
        if phase == "start":
            passes[0] += 1
            passes[1] += info["generation"] == 2

    out: dict[str, dict] = {}
    stream = ops.rounds(workload, seed)
    gc.callbacks.append(count)
    try:
        for _ in range(n_rounds):
            for op in next(stream):
                row = out.setdefault(op[0], {"lat": [], "raised": 0,
                                             "gc": 0, "gc2": 0})
                before = passes[:]
                t = perf_counter()
                try:
                    runner.run_op(op)
                except Exception:
                    row["raised"] += 1
                row["lat"].append(perf_counter() - t)
                row["gc"] += passes[0] - before[0]
                row["gc2"] += passes[1] - before[1]
    finally:
        gc.callbacks.remove(count)
    return out


def table(kinds: dict[str, dict]) -> list[str]:
    rows = sorted(kinds.items())
    every = {"lat": [t for _, row in rows for t in row["lat"]]}
    every.update({key: sum(row[key] for _, row in rows)
                  for key in ("raised", "gc", "gc2")})
    total = sum(every["lat"])
    lines = [f"{'kind':<12}{'ops':>7}{'raised':>8}{'time_s':>9}{'share':>8}"
             f"{'p50_ms':>10}{'max_ms':>10}{'gc':>7}{'gc2':>6}"]
    for kind, row in [*rows, ("total", every)]:
        lat = row["lat"]
        lines.append(f"{kind:<12}{len(lat):>7}{row['raised']:>8}"
                     f"{sum(lat):>9.3f}{sum(lat) / total if total else 0:>8.3f}"
                     f"{statistics.median(lat) * 1e3:>10.3f}"
                     f"{max(lat) * 1e3:>10.3f}{row['gc']:>7}{row['gc2']:>6}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    workload, seed, n_rounds = argv[0], int(argv[1]), int(argv[2])
    if n_rounds < 1:
        print("ROUNDS must be >= 1", file=sys.stderr)
        return 2
    print("\n".join(table(measure(workload, seed, n_rounds))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
