"""Parity: hash what one source tree gives on a fixed grid.

    python3 tools/parity.py GRID [TREE]

GRID is `cli`, `lerch`, `padic` or `exact`, each a generator of records
below.  It runs TREE/src (TREE defaults to this checkout) and prints {"n",
"sha256"}, the digest of every record in order: cli records with no
separator, the others each followed by a newline.  Equal digests on two
trees, for example a `git archive` of the parent commit and the checkout,
mean the same bytes, bits, verdicts and errors on the whole grid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import product
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


def _outcome(fn, *args, show=repr) -> str:
    """show(fn(*args)), or the class and text of its error."""
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as e:
        return f"{type(e).__name__}: {e}"
    return show(out)


def cli(tree: Path):
    """[exit code, stdout, stderr] of `python -m qzeta.cli ARGS` for each
    command of GOLDEN, VALID and BAD, with PYTHONPATH=TREE/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for argv in GOLDEN + VALID + BAD:
        done = subprocess.run([sys.executable, "-m", "qzeta.cli", *argv.split()],
                              capture_output=True, env=env, timeout=120)
        yield json.dumps([done.returncode, done.stdout.decode(),
                          done.stderr.decode()])


def lerch(tree: Path):
    """At each of the 4,096 points of TREE's `perfbench/ops.lerch_pool()`,
    under tol 1e-12, tol 1e-13 and tol 1e-12 with max_terms = 500: the repr
    of `analytic._lerch_pair` with `alone` False and True on each series the
    point's value sums ((q^h, s, x) at a zeta point, ((q^h)^d, s, r/d) for
    r = 1..d at an L point of modulus d), then of `q_hurwitz_zeta_with_bound`
    or `q_lfunction_with_bound` at the point."""
    sys.path[:0] = [str(tree / "perfbench")]
    from ops import lerch_pool
    from qzeta import analytic
    from qzeta.characters import enumerate_characters

    cfgs = (analytic.SeriesEvalConfig(1e-12), analytic.SeriesEvalConfig(1e-13),
            analytic.SeriesEvalConfig(1e-12, 500))
    for pt in lerch_pool():
        kind, h, q, s = pt[:4]
        w = complex(q) ** h
        if kind == "zeta":
            series = [(w, s, pt[4])]
            value = (analytic.q_hurwitz_zeta_with_bound, h, q, s, pt[4])
        else:
            d, chi = pt[4], enumerate_characters(pt[4])[pt[5]]
            series = [(w ** d, s, r / d) for r in range(1, d + 1)]
            value = (analytic.q_lfunction_with_bound, h, q, s, chi)
        for cfg in cfgs:
            for args, alone in product(series, (False, True)):
                yield _outcome(analytic._lerch_pair, *args, cfg, alone)
            yield _outcome(*value, cfg)


def padic(tree: Path):
    """For p in 2, 3, 5, 7, h in -2..3, n <= 8, q in 1 + p, (1 + p)/(1 + 2p),
    1 - p and levels [2, 3, 4] and [5, 7]: the levels and verdict of
    `witt_verify`, `padic_generalized_verify` (each quadratic character mod
    3, 4, 5 prime to p), `shift_identity_verify` (b = 1, 3) and
    `closed_form_verify` (t = p, 2p, p/(1 + p), doubled at p = 2); then
    (val, unit, prec) of `padic_log` and `padic_exp` at arguments of
    valuation 1 and 2 (2 and 3 at p = 2), of either sign and with a
    denominator, at precisions 1..30, from the rational and from the residue
    alone; then repr and JSON of `qbernoulli._twisted_terms_mod(d, h, n)`,
    d <= 8."""
    from qzeta import padic, qbernoulli
    from qzeta.characters import enumerate_characters

    def out(fn, *args):
        return _outcome(fn, *args, show=lambda r: repr(
            (r.identity, r.levels, r.passed) if hasattr(r, "levels")
            else (r.val, r.unit, r.prec)))

    for p in (2, 3, 5, 7):
        qs = [padic.PadicNumber.from_fraction(p, x, 40)
              for x in (F(1 + p), F(1 + p, 1 + 2 * p), F(1 - p))]
        m = 2 if p == 2 else 1          # the least valuation in the domain
        ts = [padic.PadicNumber.from_fraction(p, x, 40)
              for x in (F(m * p), F(2 * m * p), F(m * p, 1 + p))]
        chars = [chi for d in (3, 4, 5) if d % p
                 for chi in enumerate_characters(d) if chi.is_real()]
        for q, h, n, levels in product(qs, range(-2, 4), range(9),
                                       ([2, 3, 4], [5, 7])):
            yield out(padic.witt_verify, h, n, q, levels)
            for chi in chars:
                yield out(padic.padic_generalized_verify, chi, h, n, q, levels)
            f = padic.MonomialTestFunction(n, h, q)
            for b in (1, 3):
                yield out(padic.shift_identity_verify, f, b, levels[-1])
            for t in ts if n == 0 else ():
                yield out(padic.closed_form_verify, h, t, q, levels[-1])
        logs = [F(1 + s * m * p ** k, c) for s, k, c in
                product((1, -1), (1, 2), (1, 1 + p ** 2 * m))]
        exps = [F(s * m * p ** k, c) for s, k, c in
                product((1, -1), (1, 2), (1, 1 + p))]
        for a in range(1, 31):
            for fn, xs in ((padic.padic_log, logs), (padic.padic_exp, exps)):
                for x in xs:
                    z = padic.PadicNumber.from_int_mod(p, x, a)
                    yield out(fn, z)
                    if not z.is_zero():
                        yield out(fn, padic.PadicNumber.from_fraction(
                            p, x, a - z.val))
    for d, h, n in product(range(1, 9), range(-2, 4), range(9)):
        for term in qbernoulli._twisted_terms_mod(d, h, n):
            yield repr(term) + json.dumps(term.to_json_dict())


def exact(tree: Path):
    """For h in -3..3: the JSON report of `distribution_check(h, n, m)` for
    n <= 12, m in 1, 2, 3, 5; of `gen_function_identity_check(h, order)` for
    h != 0, order <= 16; the JSON of `q_bernoulli_table(h, 12)` and of
    `q_bernoulli_polynomial(h, n)` for n <= 12.  Then, on criterion 9's grid,
    the repr of `generalized_q_bernoulli(chi, h, n, q)` for h in -2, 1, 2, 3,
    q in 0.2, 0.5, 0.3 + 0.4i, 0.3 + 0.2i, every chi mod 1, 3, 4, 5, n <= 6."""
    from qzeta import qbernoulli as qb
    from qzeta.characters import enumerate_characters

    def out(fn, *args):   # a report, or a list of values, as JSON
        return _outcome(fn, *args, show=lambda r: json.dumps(
            r.to_dict() if hasattr(r, "to_dict")
            else [v.to_json_dict() for v in r]))

    for h in range(-3, 4):
        for n, m in product(range(13), (1, 2, 3, 5)):
            yield out(qb.distribution_check, h, n, m)
        for order in range(17) if h else ():
            yield out(qb.gen_function_identity_check, h, order)
        yield out(lambda: qb.q_bernoulli_table(h, 12).values)
        for n in range(13):
            yield out(lambda: qb.q_bernoulli_polynomial(h, n).coeffs)
    for h, q, d in product((-2, 1, 2, 3), (0.2, 0.5, 0.3 + 0.4j, 0.3 + 0.2j),
                           (1, 3, 4, 5)):
        for chi, n in product(enumerate_characters(d), range(7)):
            yield _outcome(qb.generalized_q_bernoulli, chi, h, n, q)


GRIDS = {grid.__name__: grid for grid in (cli, lerch, padic, exact)}


def run(grid: str, tree: Path) -> dict:
    """{"n", "sha256"} of `grid`'s records, run from `tree`."""
    sep = b"" if grid == "cli" else b"\n"
    sys.path[:0] = [str(tree / "src")]
    total, n = hashlib.sha256(), 0
    for rec in GRIDS[grid](tree):
        total.update(rec.encode() + sep)
        n += 1
    return {"n": n, "sha256": total.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("grid", choices=GRIDS)
    ap.add_argument("tree", nargs="?", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="the tree whose src/ (and perfbench/) is read")
    args = ap.parse_args()
    print(json.dumps(run(args.grid, args.tree.resolve())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
