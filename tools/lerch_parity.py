"""Lerch parity: hash every Lerch sum of one source tree at the benchmark's
pool points.

    python3 tools/lerch_parity.py [TREE]

It imports qzeta from TREE/src and the 4,096 points of
`perfbench/ops.lerch_pool()` from TREE (TREE defaults to the checkout this
file is in).  At each point, under three settings (tol 1e-12, tol 1e-13, and
tol 1e-12 with max_terms = 500), it records the repr of the result, or the
class and text of the error, of
- `analytic._lerch_pair` with `alone` False and True, on each series the
  point's value sums: (q^h, s, x) at a zeta point, and ((q^h)^d, s, r/d)
  for r = 1..d at an L point with modulus d;
- `q_hurwitz_zeta_with_bound` or `q_lfunction_with_bound` at the point.
It prints one JSON document {"n", "sha256"}, where the digest hashes every
record in order.  Equal digests on two trees, for example a `git archive` of
the parent commit and the checkout, mean the same bits (and the same errors)
at every point.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError) as e:
        return f"{type(e).__name__}: {e}"


def run(tree: Path) -> dict:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from ops import lerch_pool
    from qzeta import analytic
    from qzeta.characters import enumerate_characters

    cfgs = (analytic.SeriesEvalConfig(1e-12), analytic.SeriesEvalConfig(1e-13),
            analytic.SeriesEvalConfig(1e-12, 500))
    total, n = hashlib.sha256(), 0
    for pt in lerch_pool():
        kind, h, q, s = pt[:4]
        w = complex(q) ** h
        if kind == "zeta":
            series = [(w, s, pt[4])]
        else:
            d = pt[4]
            chi = enumerate_characters(d)[pt[5]]
            series = [(w ** d, s, r / d) for r in range(1, d + 1)]
        for cfg in cfgs:
            recs = [_outcome(analytic._lerch_pair, *args, cfg, alone)
                    for args in series for alone in (False, True)]
            if kind == "zeta":
                recs.append(_outcome(analytic.q_hurwitz_zeta_with_bound,
                                     h, q, s, pt[4], cfg))
            else:
                recs.append(_outcome(analytic.q_lfunction_with_bound,
                                     h, q, s, chi, cfg))
            for rec in recs:
                total.update(rec.encode() + b"\n")
            n += len(recs)
    return {"n": n, "sha256": total.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", nargs="?", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="the source tree whose src/ and perfbench/ are read")
    print(json.dumps(run(ap.parse_args().tree.resolve())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
