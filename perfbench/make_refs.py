"""Write lerch_refs.json: the mpmath reference of every point of
ops.lerch_pool(), with its rounding bound.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run it from the repository root after changing the pool; it uses one process
per available core and takes about ten minutes on two.  The benchmark refuses to run when the stored digest
does not match the pool.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check import REFS_FILE, lerch_reference, pool_digest  # noqa: E402
from ops import POOL_SEED, lerch_pool  # noqa: E402

DPS = 30


def _ref(pt):
    val, rb = lerch_reference(pt, DPS)
    return [val.real, val.imag, rb]


def main() -> int:
    pool = lerch_pool()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as workers:
        refs = workers.map(_ref, pool, chunksize=16)
    doc = {"pool_seed": POOL_SEED, "dps": DPS, "digest": pool_digest(pool),
           "refs": refs}
    with open(REFS_FILE, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
