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

When some op computed a q-zeta or q-L value in this process, a second
table follows: per op kind, how many values the residue route served,
how many the direct sums served, and how many of those the residue sum
had computed but not certified first.  It counts them by wrapping the
two kernels of `qzeta.analytic`, `_residue_sum` and `_lerch`, in the
module's namespace for the run.  An op computes one value at most: an
interpolation check's series side, or a pool value.  A cli op runs in its
own process and is not counted.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
ROUTES = ("residue", "direct", "fallback")


class _Routes:
    """Wraps `analytic._residue_sum` and `analytic._lerch` while in its
    `with` block and tells, op by op, which route served the op's value;
    tests/test_analytic.py reads the route of single values through it."""

    def __init__(self, analytic):
        self.analytic = analytic
        self.kernels = {"_residue_sum": analytic._residue_sum,
                        "_lerch": analytic._lerch}
        self.seen: dict[str, bool] = {}

    def __enter__(self):
        for name, fn in self.kernels.items():
            setattr(self.analytic, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for name, fn in self.kernels.items():
            setattr(self.analytic, name, fn)

    def _wrap(self, name, fn):
        def wrapper(*a, **k):
            out = fn(*a, **k)
            self.seen[name] = self.seen.get(name, False) or out is not None
            return out
        return wrapper

    def route(self) -> str | None:
        """The route of the op since the last call: "residue", "direct",
        "fallback" (a residue sum, then the direct sums) or None."""
        seen, self.seen = self.seen, {}
        if "_lerch" in seen:
            return "fallback" if seen.get("_residue_sum") else "direct"
        return "residue" if seen.get("_residue_sum") else None


def measure(workload: str, seed: int, n_rounds: int) -> dict[str, dict]:
    """{kind: {"lat": [seconds per op], "raised": n, "gc": n, "gc2": n,
    "residue": n, "direct": n, "fallback": n}}."""
    # the package and the CLI processes read this checkout's src
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import ops
    import worker
    from qzeta import analytic

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
        with _Routes(analytic) as routes:
            for _ in range(n_rounds):
                for op in next(stream):
                    row = out.setdefault(op[0], {
                        "lat": [], **dict.fromkeys(
                            ("raised", "gc", "gc2", *ROUTES), 0)})
                    before = passes[:]
                    t = perf_counter()
                    try:
                        runner.run_op(op)
                    except Exception:
                        row["raised"] += 1
                    row["lat"].append(perf_counter() - t)
                    row["gc"] += passes[0] - before[0]
                    row["gc2"] += passes[1] - before[1]
                    route = routes.route()
                    if route:
                        row[route] += 1
    finally:
        gc.callbacks.remove(count)
    return out


def table(kinds: dict[str, dict]) -> list[str]:
    rows = sorted(kinds.items())
    every = {"lat": [t for _, row in rows for t in row["lat"]]}
    every.update({key: sum(row[key] for _, row in rows)
                  for key in ("raised", "gc", "gc2", *ROUTES)})
    total = sum(every["lat"])
    lines = [f"{'kind':<12}{'ops':>7}{'raised':>8}{'time_s':>9}{'share':>8}"
             f"{'p50_ms':>10}{'max_ms':>10}{'gc':>7}{'gc2':>6}"]
    for kind, row in [*rows, ("total", every)]:
        lat = row["lat"]
        lines.append(f"{kind:<12}{len(lat):>7}{row['raised']:>8}"
                     f"{sum(lat):>9.3f}{sum(lat) / total if total else 0:>8.3f}"
                     f"{statistics.median(lat) * 1e3:>10.3f}"
                     f"{max(lat) * 1e3:>10.3f}{row['gc']:>7}{row['gc2']:>6}")
    if any(every[key] for key in ROUTES):
        lines.append(f"{'kind':<12}" + "".join(f"{key:>10}" for key in ROUTES))
        for kind, row in [*rows, ("total", every)]:
            lines.append(f"{kind:<12}"
                         + "".join(f"{row[key]:>10}" for key in ROUTES))
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
