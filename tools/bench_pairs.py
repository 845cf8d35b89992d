"""Paired benchmark runs of this checkout against a parent commit.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<PR>.json \\
        --workload exact-identities:5:701 --workload padic-levels:3:701 ...

Run it from the root of a checkout.  It extracts REV with `git archive`, and
copies the checkout's files that git tracks or would add (the change), each
into a fresh temporary directory, so that both sides run from a clean tree
of the same kind.  Then for each `--workload NAME:PAIRS:SEED` it runs
`perfbench/run.py` in the two trees, one after the other, PAIRS times with
the seeds SEED, SEED + 1, ...; the parent goes first in the even pairs and
the change in the odd ones, so a drift of the machine's speed does not
favour one side.  It writes every result line (the last stdout line of
run.py) with that run's `inputs` line (the properties of its ops, such as
`repeat_share`, the share of ops whose key came earlier, which a claim
resting on repeated inputs quotes), and, per workload, a summary of each
end-to-end metric of BENCHMARK.json: the medians and interquartile ranges
of both sides, the number of pairs in which the change did better and a
verdict against the metric's bound (see `verdict`), and the `failed` counts
of both sides, pair by pair.  BENCHMARK.json is only read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(par: list[float], chg: list[float], sign: int,
            bound: float) -> str:
    """One metric's runs against its relative bound; sign is 1 where
    higher is better, -1 where lower is.

    "unresolved" when the parent's own IQR exceeds bound * its median and
    not every change run beats every parent run; else "better" when the
    change wins at least 9 pairs in 10 and its median beats the parent's
    by more than the parent's IQR; else "worse" when its median is worse
    than the parent's by more than bound * the parent's median; else
    "within bound"."""
    pm, cm, spread = statistics.median(par), statistics.median(chg), _iqr(par)
    if (spread > bound * abs(pm)
            and min(sign * c for c in chg) <= max(sign * p for p in par)):
        return "unresolved"
    wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
    if 10 * wins >= 9 * len(par) and sign * (cm - pm) > spread:
        return "better"
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse"
    return "within bound"


def summarise(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """The summary of one workload's pairs, each {"seed", "first",
    "parent", "change"} with run.py result lines, for the metrics of
    `end_to_end` (BENCHMARK.json's entries: "name", "better" = "higher" or
    "lower", and the relative "bound")."""
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        par, chg = ([p[side]["metrics"][name]["value"] for p in pairs]
                    for side in ("parent", "change"))
        sign = 1 if metric["better"] == "higher" else -1
        out[name] = {
            "parent_median": statistics.median(par),
            "change_median": statistics.median(chg),
            "parent_iqr": _iqr(par),
            "change_iqr": _iqr(chg),
            "pairs_better": sum(sign * (c - p) > 0 for p, c in zip(par, chg)),
            "pairs": len(pairs),
            "verdict": verdict(par, chg, sign, metric["bound"])}
    out["failed"] = {side: [p[side]["failed"] for p in pairs]
                     for side in ("parent", "change")}
    return out


def _run(root: Path, workload: str, seed: int,
         seconds: float) -> tuple[dict, dict]:
    """run.py's result line (its last stdout line) and its `inputs` line,
    the properties of the ops it ran, such as `repeat_share`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"run.py {workload} {seed} in {root} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    inputs = next(line for line in lines if line.startswith("inputs "))
    return json.loads(lines[-1]), json.loads(inputs.split(" ", 1)[1])


def _copy_checkout(into: Path) -> None:
    """Copy the files of the checkout that git tracks or would add."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], capture_output=True,
                           check=True).stdout.decode().split("\0")
    for name in filter(None, names):
        if Path(name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(name, into / name)


def _extract(rev: str, into: Path) -> str:
    """Write the tree of `rev` into `into`; return its short hash."""
    tar = subprocess.run(["git", "archive", rev], capture_output=True,
                         check=True).stdout
    tarfile.open(fileobj=BytesIO(tar)).extractall(into)
    return subprocess.run(["git", "rev-parse", "--short", rev],
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit to compare to")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workload", action="append", required=True,
                    help="NAME:PAIRS:SEED")
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()
    end_to_end = json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]
    doc = {"description": "", "command": "python3 perfbench/run.py "
           f"--workload W --seed N --seconds {args.seconds:g}", "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        rev = _extract(args.parent, trees["parent"])
        _copy_checkout(trees["change"])
        doc["description"] = (
            "perfbench/run.py result lines (last stdout line) of alternating "
            f"parent/change pairs, --seconds {args.seconds:g}, --trace 0; "
            f"parent = {rev}, change = the checkout's files. "
            f"{os.cpu_count()} cores, Python {platform.python_version()}. "
            "`first` says which side ran first in the pair.")
        for spec in args.workload:
            name, n_pairs, seed = spec.split(":")
            pairs = []
            for i in range(int(n_pairs)):
                order = ["parent", "change"][::1 if i % 2 == 0 else -1]
                runs = {side: _run(trees[side], name, int(seed) + i,
                                   args.seconds)
                        for side in order}
                pairs.append({"seed": int(seed) + i, "first": order[0],
                              **{side: line for side, (line, _) in runs.items()},
                              "inputs": {side: inputs for side, (_, inputs)
                                         in runs.items()}})
                print(name, int(seed) + i,
                      {side: line["metrics"]["ops_per_s"]["value"]
                       for side, (line, _) in runs.items()}, file=sys.stderr)
            doc["workloads"][name] = {"summary": summarise(pairs, end_to_end),
                                      "pairs": pairs}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
