"""p-adic parity: hash what the p-adic verifiers, log, exp and the exact
twisted terms give on one source tree over a fixed grid.

    python3 tools/padic_parity.py [TREE]

It imports qzeta from TREE/src (TREE defaults to the checkout this file is
in) and records, in order:
- the report (levels and valuations, verdict), or the class and text of the
  error, of `witt_verify`, `padic_generalized_verify` (every quadratic
  character of modulus 3, 4 and 5 prime to p), `shift_identity_verify`
  (b = 1, 3) and `closed_form_verify` (t = p, 2p, p/(1 + p), doubled at
  p = 2), for p in 2, 3, 5, 7, h in -2..3, n <= 8, q in 1 + p,
  (1 + p)/(1 + 2p), 1 - p and the level ranges [2, 3, 4] and [5, 7];
- (valuation, unit, precision) of `padic_log` at q and of `padic_exp` at t
  of valuation 1 and 2 (2 and 3 at p = 2), of either sign and with a
  denominator, at absolute precisions 1..30, from the rational and from the
  residue alone;
- repr and JSON of `qbernoulli._twisted_terms_mod(d, h, n)` for d <= 8,
  h in -2..3, n <= 8.
It prints one JSON document {"n", "sha256"}, where the digest hashes every
record in order.  Equal digests on two trees, for example a `git archive` of
the parent commit and the checkout, mean the same verdicts, digits, terms
and errors on the whole grid.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction as F
from itertools import product
from pathlib import Path

LEVELS = ([2, 3, 4], [5, 7])


def _outcome(fn, *args) -> str:
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as e:
        return f"{type(e).__name__}: {e}"
    if hasattr(out, "levels"):
        return repr((out.identity, out.levels, out.passed))
    return repr((out.val, out.unit, out.prec))


def _records(tree: Path):
    sys.path[:0] = [str(tree / "src")]
    from qzeta import padic, qbernoulli
    from qzeta.characters import enumerate_characters

    for p in (2, 3, 5, 7):
        qs = [padic.PadicNumber.from_fraction(p, x, 40)
              for x in (F(1 + p), F(1 + p, 1 + 2 * p), F(1 - p))]
        m = 2 if p == 2 else 1          # the least valuation in the domain
        ts = [padic.PadicNumber.from_fraction(p, x, 40)
              for x in (F(m * p), F(2 * m * p), F(m * p, 1 + p))]
        chars = [chi for d in (3, 4, 5) if d % p
                 for chi in enumerate_characters(d) if chi.is_real()]
        for q, h, n, levels in product(qs, range(-2, 4), range(9), LEVELS):
            yield _outcome(padic.witt_verify, h, n, q, levels)
            for chi in chars:
                yield _outcome(padic.padic_generalized_verify, chi, h, n, q,
                               levels)
            f = padic.MonomialTestFunction(n, h, q)
            for b in (1, 3):
                yield _outcome(padic.shift_identity_verify, f, b, levels[-1])
            if n == 0:
                for t in ts:
                    yield _outcome(padic.closed_form_verify, h, t, q,
                                   levels[-1])
        logs = [F(1 + s * m * p ** k, c) for s, k, c in
                product((1, -1), (1, 2), (1, 1 + p ** 2 * m))]
        exps = [F(s * m * p ** k, c) for s, k, c in
                product((1, -1), (1, 2), (1, 1 + p))]
        for a in range(1, 31):
            for fn, xs in ((padic.padic_log, logs), (padic.padic_exp, exps)):
                for x in xs:
                    z = padic.PadicNumber.from_int_mod(p, x, a)
                    yield _outcome(fn, z)
                    if not z.is_zero():
                        yield _outcome(fn, padic.PadicNumber.from_fraction(
                            p, x, a - z.val))
    for d, h, n in product(range(1, 9), range(-2, 4), range(9)):
        for term in qbernoulli._twisted_terms_mod(d, h, n):
            yield repr(term) + json.dumps(term.to_json_dict())


def run(tree: Path) -> dict:
    total, n = hashlib.sha256(), 0
    for rec in _records(tree):
        total.update(rec.encode() + b"\n")
        n += 1
    return {"n": n, "sha256": total.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", nargs="?", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="the source tree whose src/ is read")
    print(json.dumps(run(ap.parse_args().tree.resolve())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
