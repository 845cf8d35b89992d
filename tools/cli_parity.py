"""CLI parity: run a fixed grid of qzeta commands from one source tree and
hash what each prints.

    python3 tools/cli_parity.py [TREE] > parity.json

For each command of GOLDEN, VALID and BAD, in that order, it runs
`python -m qzeta.cli ARGS` with PYTHONPATH=TREE/src (TREE defaults to the
checkout this file is in) and records [exit code, stdout, stderr].  It prints
one JSON document {"n", "sha256", "cases"}, where the digest hashes every
record in order.  Run it on two trees, for example a `git archive` of the
parent commit and the checkout: equal digests mean the CLI behaves the same,
byte for byte, on the whole grid.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = [  # the commands of the golden files under tests/data
    "bernoulli --h -3 --n 8", "bernoulli --h 2 --n 12", "polynomial --h 3 --n 5",
    "bernoulli --h 2 --n 10 --q 0.5", "bernoulli --h -3 --n 12 --q 0.3+0.4j",
    "generalized --modulus 5 --char-index 2 --h 1 --n 6 --q 0.45",
    "verify witt --p 5 --h 2 --n 6 --levels 3:9",
    "verify twisted --p 5 --modulus 4 --char-index 1 --h 1 --n 2 --levels 3:5",
    "zeta --h 1 --q 0.5 --s 3",
    "lfunction --modulus 4 --char-index 1 --h 2 --q=0.3+0.4j --s=-2.5+1j"]

VALID = [  # every other subcommand, verify target and format; FAIL verdicts
    "characters --modulus 3", "characters --modulus 8 --format csv",
    "characters --modulus 3 --format text", "polynomial --h -1 --n 3 --format csv",
    "verify witt --levels 3:4 --format text", "verify shift --b 3 --levels 4",
    "verify closedform --levels 5", "verify closedform --p 3 --t 9 --levels 4",
    "verify distribution --h 2 --n 4 --m 3", "verify genfunction --h -2 --n 5",
    "verify interp-zeta --h 1 --q 0.5 --n 2", "verify interp-l --h 1 --q 0.4 --n 2",
    "verify interp-l --h 1 --q 0.4 --n 1 --modulus 1 --char-index 0",
    "verify twisted --p 2 --levels 3:4", "verify witt --p 2 --h 0 --levels 3",
    "zeta --h 1 --q 0.5 --s -2+1i --x 2.5",
    "lfunction --modulus 5 --char-index 2 --h 1 --q 0.4 --s 2"]

BAD = [  # bad input: exit 2 or 3
    "bernoulli --h 1 --n -3", "bernoulli --h 1 --n 2 --q nan",
    "bernoulli --h 1 --n 2 --q 1.5", "polynomial --h 1 --n -1",
    "generalized --modulus 4 --char-index 5 --h 1 --n 2 --q 0.5",
    "generalized --modulus 0 --h 1 --n 2 --q 0.5",
    "generalized --modulus 4 --h 1 --n -1 --q 0.5",
    "characters --modulus 0", "characters --modulus -3",
    "zeta --h 1 --q 0.5 --s 1.0", "zeta --h 1 --q 1.5 --s 2",
    "zeta --h 1 --q abc --s 2", "zeta --h 1 --q 0.5 --s=-120",
    "zeta --h 1 --q 0.5 --s 2 --x nan", "zeta --h 1 --q 0.5 --s 2 --tol nan",
    "zeta --h 1 --q 0.5 --s 2 --max-terms 0", "zeta --h 0 --q 0.5 --s 2",
    "zeta --h 1 --q 0.99999 --s 2.0 --tol 1e-13 --max-terms 10",
    "lfunction --modulus 4 --char-index 9 --h 1 --q 0.5 --s 2",
    "lfunction --modulus 4 --char-index 1 --h 1 --q 0.5 --s=-300",
    "verify witt --p 4", "verify witt --p 1",
    "verify witt --p 18446744073709551629", "verify witt --q abc",
    "verify witt --q 2", "verify witt --levels 5:3", "verify witt --levels abc",
    "verify witt --levels 3:4000", "verify witt --precision 0",
    "verify witt --slack -1", "verify shift --b 0 --levels 3",
    "verify shift --b 1000000000 --levels 3", "verify closedform --t 1/0",
    "verify closedform --t 2", "verify closedform --p 6",
    "verify twisted --modulus 10", "verify twisted --modulus 4 --char-index 7",
    "verify distribution --h 1 --n 3 --m 0", "verify genfunction --h 1 --n -1",
    "verify interp-zeta --h 1 --n 2", "verify interp-zeta --h 1 --q 0.5 --n 0",
    "verify interp-zeta --h 1 --q 0.5 --n 2 --tol -1",
    "verify interp-l --modulus 4 --char-index 5 --q 0.5",
    "verify interp-zeta --h 1 --q 0.5 --n 300", "verify nonsense", "nonsense",
    "zeta --h 1 --q 0.5 --s --x 1", "--format csv characters --modulus 3"]


def run(tree: Path, timeout: float = 120) -> dict:
    """{"n", "sha256", "cases"} of the whole grid, run from `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cases, total = {}, hashlib.sha256()
    for argv in GOLDEN + VALID + BAD:
        done = subprocess.run([sys.executable, "-m", "qzeta.cli", *argv.split()],
                              capture_output=True, env=env, timeout=timeout)
        rec = [done.returncode, done.stdout.decode(), done.stderr.decode()]
        total.update(json.dumps(rec).encode())
        cases[argv] = rec
    return {"n": len(cases), "sha256": total.hexdigest(), "cases": cases}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", nargs="?", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="the source tree whose src/ is run")
    print(json.dumps(run(ap.parse_args().tree.resolve())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
