"""Batch command-line surface: table generation and identity verification.

Exit codes: 0 success/pass, 1 verification failure, 2 usage error,
3 precision or convergence failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import analytic, characters, padic, qbernoulli
from .analytic import SeriesEvalConfig
from .exact import DomainError, ExactError, eval_log_scalar_complex
from .padic import (MonomialTestFunction, PadicDomainError, PadicError,
                    PadicNumber)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace("i", "j"))
    except ValueError as e:
        raise UsageError(f"cannot parse complex number {text!r}") from e


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"cannot parse rational {text!r}") from e


def _parse_levels(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        levels = list(range(int(lo), int(hi) + 1))
    else:
        levels = [int(text)]
    if not levels or levels[0] < 1:
        raise UsageError(
            f"--levels {text!r} must name levels N >= 1, lo <= hi")
    return levels


def _char(modulus: int, index: int) -> characters.DirichletCharacter:
    chars = characters.enumerate_characters(modulus)
    if not 0 <= index < len(chars):
        raise UsageError(
            f"char index {index} out of range (modulus {modulus} has {len(chars)})")
    return chars[index]


def _emit(doc, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        wtr = csv.writer(buf)
        rows = doc if isinstance(doc, list) else [doc]

        def cell(v):
            return json.dumps(v, sort_keys=True) if isinstance(
                v, (dict, list)) else v
        if rows and isinstance(rows[0], dict):
            fields = sorted({k for r in rows for k in r})
            wtr.writerow(fields)
            for r in rows:
                wtr.writerow([cell(r.get(k, "")) for k in fields])
        else:
            for row in rows:
                wtr.writerow(row)
        text = buf.getvalue()
    else:
        text = _text_render(doc)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _text_render(doc, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(doc, dict):
        return "".join(f"{pad}{k}:\n{_text_render(v, indent + 1)}"
                       if isinstance(v, (dict, list))
                       else f"{pad}{k}: {v}\n"
                       for k, v in sorted(doc.items()))
    if isinstance(doc, list):
        return "".join(_text_render(v, indent) for v in doc)
    return f"{pad}{doc}\n"


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "text"],
                        default=None)
    common.add_argument("--out", default=None,
                        help="output file (default stdout)")
    ap = argparse.ArgumentParser(
        prog="qzeta", parents=[common],
        description="(h,q)-Bernoulli tables and identity verification")
    subactions = ap.add_subparsers(dest="command", required=True)

    class _Sub:
        def add_parser(self, name, **kw):
            return subactions.add_parser(name, parents=[common], **kw)
    sub = _Sub()

    b = sub.add_parser("bernoulli", help="exact B_n^{(h)} table")
    b.add_argument("--h", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--q", default=None, help="complex q for numeric evaluation")

    p = sub.add_parser("polynomial", help="exact B_n^{(h)}(x) coefficients")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    g = sub.add_parser("generalized", help="character-twisted values")
    g.add_argument("--modulus", type=int, required=True)
    g.add_argument("--char-index", type=int, default=0)
    g.add_argument("--h", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--q", required=True)

    c = sub.add_parser("characters", help="list Dirichlet characters mod d")
    c.add_argument("--modulus", type=int, required=True)

    z = sub.add_parser("zeta", help="q-zeta / q-Hurwitz zeta value")
    z.add_argument("--h", type=int, required=True)
    z.add_argument("--q", required=True)
    z.add_argument("--s", required=True)
    z.add_argument("--x", type=float, default=1.0)
    z.add_argument("--tol", type=float, default=1e-12)
    z.add_argument("--max-terms", type=int, default=10 ** 7)

    lf = sub.add_parser("lfunction", help="q-L-function value")
    lf.add_argument("--modulus", type=int, required=True)
    lf.add_argument("--char-index", type=int, default=0)
    lf.add_argument("--h", type=int, required=True)
    lf.add_argument("--q", required=True)
    lf.add_argument("--s", required=True)
    lf.add_argument("--tol", type=float, default=1e-12)
    lf.add_argument("--max-terms", type=int, default=10 ** 7)

    v = sub.add_parser("verify", help="run an identity verification")
    v.add_argument("target", choices=["witt", "shift", "closedform",
                                      "distribution", "genfunction",
                                      "interp-zeta", "interp-l", "twisted"])
    v.add_argument("--p", type=int, default=5)
    v.add_argument("--q", default=None)
    v.add_argument("--h", type=int, default=1)
    v.add_argument("--n", type=int, default=1)
    v.add_argument("--m", type=int, default=2)
    v.add_argument("--b", type=int, default=1)
    v.add_argument("--x", type=float, default=1.0)
    v.add_argument("--t", default=None, help="rational t for closedform")
    v.add_argument("--modulus", type=int, default=4)
    v.add_argument("--char-index", type=int, default=1)
    v.add_argument("--levels", default="3:6")
    v.add_argument("--tol", type=float, default=1e-8)
    v.add_argument("--slack", type=int, default=padic.DEFAULT_SLACK)
    v.add_argument("--precision", type=int, default=padic.DEFAULT_PRECISION)
    return ap


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases: exact below 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return all(pow(b, d, n) == 1 or
               any(pow(b, d << r, n) == n - 1 for r in range(s))
               for b in bases)


def _padic_q(args) -> PadicNumber:
    if args.p >= 2 ** 64:
        raise UsageError(f"--p {args.p} is not below the bound 2^64")
    if not _is_prime(args.p):
        raise UsageError(f"--p {args.p} is not prime")
    # 1 + p is outside the log domain at p = 2, which needs q = 1 mod 4
    q = (_parse_rational(args.q) if args.q
         else Fraction(5 if args.p == 2 else 1 + args.p))
    qp = PadicNumber.from_fraction(args.p, q, args.precision + 24)
    # witt, shift and closedform read q only through q^h; the twisted
    # target's exact value is evaluated with log q even at h = 0
    if (args.h or args.target == "twisted") and not padic._log_domain_ok(qp):
        raise PadicDomainError(f"--q {q} is outside the p-adic log domain "
                               "|q - 1|_p < p^(-1/(p-1))")
    return qp


def _run(args) -> tuple[object, int]:
    cmd = args.command
    if cmd == "bernoulli":
        table = qbernoulli.q_bernoulli_table(args.h, args.n)
        if args.q is not None:
            qv = _parse_complex(args.q)
            vals = [eval_log_scalar_complex(v, qv) for v in table.values]
            return [{"n": n, "re": z.real, "im": z.imag}
                    for n, z in enumerate(vals)], EXIT_OK
        return [{"n": n, "value": v.to_json_dict()}
                for n, v in enumerate(table.values)], EXIT_OK

    if cmd == "polynomial":
        poly = qbernoulli.q_bernoulli_polynomial(args.h, args.n)
        return [{"x_power": j, "coeff": c.to_json_dict()}
                for j, c in enumerate(poly.coeffs)], EXIT_OK

    if cmd == "generalized":
        chi = _char(args.modulus, args.char_index)
        qv = _parse_complex(args.q)
        vals = [qbernoulli.generalized_q_bernoulli(chi, args.h, n, qv)
                for n in range(args.n + 1)]
        return [{"n": n, "re": v.real, "im": v.imag}
                for n, v in enumerate(vals)], EXIT_OK

    if cmd == "characters":
        out = []
        for idx, chi in enumerate(characters.enumerate_characters(args.modulus)):
            values = {}
            for a in range(args.modulus):
                u = chi(a)
                values[str(a)] = ("0" if u.is_zero()
                                  else f"e(2*pi*i*{u.exponent})")
            out.append({"modulus": args.modulus, "index": idx,
                        "exponents": list(chi.exponents),
                        "conductor": chi.conductor(), "values": values})
        return out, EXIT_OK

    if cmd == "zeta":
        cfg = SeriesEvalConfig(tol=args.tol, max_terms=args.max_terms)
        qv = _parse_complex(args.q)
        s = _parse_complex(args.s)
        val, bound = analytic.q_hurwitz_zeta_with_bound(args.h, qv, s, args.x,
                                                        cfg)
        return {"re": val.real, "im": val.imag,
                "certified_tail_bound": bound}, EXIT_OK

    if cmd == "lfunction":
        cfg = SeriesEvalConfig(tol=args.tol, max_terms=args.max_terms)
        chi = _char(args.modulus, args.char_index)
        val, bound = analytic.q_lfunction_with_bound(
            args.h, _parse_complex(args.q), _parse_complex(args.s), chi, cfg)
        return {"re": val.real, "im": val.imag,
                "certified_tail_bound": bound}, EXIT_OK

    # verify, the last subcommand argparse allows
    rep = _run_verify(args, _parse_levels(args.levels))
    return rep.to_dict(), EXIT_OK if rep.passed else EXIT_FAIL


def _run_verify(args, levels):
    t = args.target
    if t == "genfunction":
        return qbernoulli.gen_function_identity_check(args.h, args.n)
    if t == "distribution":
        return qbernoulli.distribution_check(args.h, args.n, args.m)
    if t == "witt":
        return padic.witt_verify(args.h, args.n, _padic_q(args), levels,
                                 prec=args.precision, slack=args.slack)
    if t == "shift":
        f = MonomialTestFunction(args.n, args.h, _padic_q(args))
        return padic.shift_identity_verify(f, args.b, max(levels),
                                           prec=args.precision,
                                           slack=args.slack)
    if t == "closedform":
        # check --p before from_fraction, which never returns at p = 1
        q = _padic_q(args)
        tv = (_parse_rational(args.t) if args.t
              else Fraction(4 if args.p == 2 else args.p))
        tp = PadicNumber.from_fraction(args.p, tv, args.precision + 24)
        if not padic._exp_domain_ok(tp):
            raise PadicDomainError(f"--t {tv} is outside the p-adic exp "
                                   "domain |t|_p < p^(-1/(p-1))")
        return padic.closed_form_verify(args.h, tp, q, max(levels),
                                        prec=args.precision, slack=args.slack)
    if t == "twisted":
        chi = _char(args.modulus, args.char_index)
        return padic.padic_generalized_verify(chi, args.h, args.n,
                                              _padic_q(args), levels,
                                              prec=args.precision,
                                              slack=args.slack)
    if t == "interp-zeta":
        return analytic.zeta_interpolation_verify(
            args.h, _parse_complex(args.q), args.n, args.x, tol=args.tol)
    # interp-l, the last target argparse allows
    chi = _char(args.modulus, args.char_index)
    return analytic.l_interpolation_verify(
        args.h, _parse_complex(args.q), args.n, chi, tol=args.tol)


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    args.format = args.format or "json"
    try:
        doc, code = _run(args)
    except (UsageError, analytic.PoleAt1, DomainError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (analytic.SeriesDivergence, analytic.TruncationFailure,
            PadicError, ExactError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(doc, args.format, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
