"""Batch command-line surface: table generation and identity verification.

Exit codes: 0 success/pass, 1 verification failure, 2 bad input, 3 a
number that cannot be computed or certified.  Python's exception hierarchy
carries the rule: bad input raises a ValueError (UsageError,
exact.DomainError, analytic.PoleAt1) and exits 2, as does an OSError of
writing --out; a failed computation raises an ArithmeticError (the analytic
series errors, exact.ExactError, padic.PadicError with PadicDomainError,
ZeroDivisionError, OverflowError) and exits 3.  A class that is both exits 2.

A process loads only the modules its subcommand runs: `characters` needs
no exact arithmetic, `zeta` and `lfunction` none either and no p-adic
code, `verify witt` no complex series.  Each branch of `_run` and
`_run_verify` imports what it uses.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import characters

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


def _parse_complex(text: str) -> complex:
    # only a trailing i is the imaginary unit: "inf" and "nan" keep theirs
    t = text.strip()
    try:
        return complex(t[:-1] + "j" if t.endswith("i") else t)
    except ValueError as e:
        raise UsageError(f"cannot parse complex number {text!r}") from e


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"cannot parse rational {text!r}") from e


def _parse_levels(text: str) -> range:
    # a range, not a list: the p-adic work bound rejects a runaway range
    # before anything of its length is built
    lo, sep, hi = text.partition(":")
    try:
        levels = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        levels = range(0)
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
        import csv
        import io

        buf = io.StringIO()
        wtr = csv.writer(buf)
        rows = doc if isinstance(doc, list) else [doc]

        def cell(v):
            return json.dumps(v, sort_keys=True) if isinstance(
                v, (dict, list)) else v
        if rows:            # every document is a dict or a list of dicts
            fields = sorted({k for r in rows for k in r})
            wtr.writerow(fields)
            for r in rows:
                wtr.writerow([cell(r.get(k, "")) for k in fields])
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
                        default="json")
    common.add_argument("--out", default=None,
                        help="output file (default stdout)")
    ap = argparse.ArgumentParser(
        prog="qzeta",
        description="(h,q)-Bernoulli tables and identity verification")
    subactions = ap.add_subparsers(dest="command", required=True)

    def sub(name, **kw):
        return subactions.add_parser(name, parents=[common], **kw)

    b = sub("bernoulli", help="exact B_n^{(h)} table")
    b.add_argument("--h", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--q", default=None, help="complex q for numeric evaluation")

    p = sub("polynomial", help="exact B_n^{(h)}(x) coefficients")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    g = sub("generalized", help="character-twisted values")
    g.add_argument("--modulus", type=int, required=True)
    g.add_argument("--char-index", type=int, default=0)
    g.add_argument("--h", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--q", required=True)

    c = sub("characters", help="list Dirichlet characters mod d")
    c.add_argument("--modulus", type=int, required=True)

    z = sub("zeta", help="q-zeta / q-Hurwitz zeta value")
    z.add_argument("--h", type=int, required=True)
    z.add_argument("--q", required=True)
    z.add_argument("--s", required=True)
    z.add_argument("--x", type=float, default=1.0)
    z.add_argument("--tol", type=float, default=1e-12)
    z.add_argument("--max-terms", type=int, default=10 ** 7)

    lf = sub("lfunction", help="q-L-function value")
    lf.add_argument("--modulus", type=int, required=True)
    lf.add_argument("--char-index", type=int, default=0)
    lf.add_argument("--h", type=int, required=True)
    lf.add_argument("--q", required=True)
    lf.add_argument("--s", required=True)
    lf.add_argument("--tol", type=float, default=1e-12)
    lf.add_argument("--max-terms", type=int, default=10 ** 7)

    v = sub("verify", help="run an identity verification")
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
    v.add_argument("--modulus", type=int, default=None,
                   help="default 4 (3 for twisted at p = 2)")
    v.add_argument("--char-index", type=int, default=1)
    v.add_argument("--levels", default="3:6")
    v.add_argument("--tol", type=float, default=1e-8)
    # None: padic's defaults, read only when a p-adic target runs
    v.add_argument("--slack", type=int, default=None)
    v.add_argument("--precision", type=int, default=None)
    return ap


def _padic_q(args, prec: int):
    from .padic import (PadicDomainError, PadicNumber, _is_prime,
                        _log_domain_ok)

    if args.p >= 2 ** 64:
        raise UsageError(f"--p {args.p} is not below the bound 2^64")
    if not _is_prime(args.p):
        raise UsageError(f"--p {args.p} is not prime")
    # 1 + p is outside the log domain at p = 2, which needs q = 1 mod 4
    q = (_parse_rational(args.q) if args.q
         else Fraction(5 if args.p == 2 else 1 + args.p))
    qp = PadicNumber.from_fraction(args.p, q, prec + 24)
    # log q is read only at h != 0: no target has a log part at h = 0
    if args.h and not _log_domain_ok(qp):
        raise PadicDomainError(f"--q {q} is outside the p-adic log domain "
                               "|q - 1|_p < p^(-1/(p-1))")
    return qp


def _run(args) -> tuple[object, int]:
    cmd = args.command
    if cmd == "bernoulli":
        from .qbernoulli import q_bernoulli_table

        table = q_bernoulli_table(args.h, args.n)
        if args.q is not None:
            from .exact import eval_log_scalar_complex

            qv = _parse_complex(args.q)
            vals = [eval_log_scalar_complex(v, qv) for v in table.values]
            return [{"n": n, "re": z.real, "im": z.imag}
                    for n, z in enumerate(vals)], EXIT_OK
        return [{"n": n, "value": v.to_json_dict()}
                for n, v in enumerate(table.values)], EXIT_OK

    if cmd == "polynomial":
        from .qbernoulli import q_bernoulli_polynomial

        poly = q_bernoulli_polynomial(args.h, args.n)
        return [{"x_power": j, "coeff": c.to_json_dict()}
                for j, c in enumerate(poly.coeffs)], EXIT_OK

    if cmd == "generalized":
        from .qbernoulli import generalized_q_bernoulli

        if args.n < 0:
            raise UsageError("n must be >= 0")
        chi = _char(args.modulus, args.char_index)
        qv = _parse_complex(args.q)
        vals = [generalized_q_bernoulli(chi, args.h, n, qv)
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

    if cmd in ("zeta", "lfunction"):
        from . import analytic

        cfg = analytic.SeriesEvalConfig(tol=args.tol, max_terms=args.max_terms)
        if cmd == "zeta":
            val, bound = analytic.q_hurwitz_zeta_with_bound(
                args.h, _parse_complex(args.q), _parse_complex(args.s),
                args.x, cfg)
        else:
            chi = _char(args.modulus, args.char_index)
            val, bound = analytic.q_lfunction_with_bound(
                args.h, _parse_complex(args.q), _parse_complex(args.s), chi,
                cfg)
        return {"re": val.real, "im": val.imag,
                "certified_tail_bound": bound}, EXIT_OK

    # verify, the last subcommand argparse allows
    rep = _run_verify(args)
    return rep.to_dict(), EXIT_OK if rep.passed else EXIT_FAIL


def _run_verify(args):
    t = args.target
    if t == "genfunction":
        from .qbernoulli import gen_function_identity_check

        return gen_function_identity_check(args.h, args.n)
    if t == "distribution":
        from .qbernoulli import distribution_check

        return distribution_check(args.h, args.n, args.m)
    # the default modulus 4 shares the factor 2 with p = 2
    modulus = (args.modulus if args.modulus is not None
               else 3 if t == "twisted" and args.p == 2 else 4)
    if t in ("interp-zeta", "interp-l") and args.q is None:
        raise UsageError(f"verify {t} needs --q, a complex q with 0 < |q| < 1")
    if t == "interp-zeta":
        from .analytic import zeta_interpolation_verify

        return zeta_interpolation_verify(
            args.h, _parse_complex(args.q), args.n, args.x, tol=args.tol)
    if t == "interp-l":
        from .analytic import l_interpolation_verify

        chi = _char(modulus, args.char_index)
        return l_interpolation_verify(
            args.h, _parse_complex(args.q), args.n, chi, tol=args.tol)
    return _run_padic(args, modulus)


def _run_padic(args, modulus: int):
    """witt, shift, closedform and twisted, the targets that read --levels.
    --precision and --slack default to padic.DEFAULT_PRECISION and
    DEFAULT_SLACK."""
    levels = _parse_levels(args.levels)
    from . import padic

    prec = padic.DEFAULT_PRECISION if args.precision is None else args.precision
    slack = padic.DEFAULT_SLACK if args.slack is None else args.slack
    t = args.target
    if t == "witt":
        return padic.witt_verify(args.h, args.n, _padic_q(args, prec), levels,
                                 prec=prec, slack=slack)
    if t == "shift":
        f = padic.MonomialTestFunction(args.n, args.h, _padic_q(args, prec))
        return padic.shift_identity_verify(f, args.b, levels[-1],
                                           prec=prec, slack=slack)
    if t == "closedform":
        # check --p before --t: from_fraction takes any p >= 2, prime or not
        q = _padic_q(args, prec)
        tv = (_parse_rational(args.t) if args.t
              else Fraction(4 if args.p == 2 else args.p))
        tp = padic.PadicNumber.from_fraction(args.p, tv, prec + 24)
        if not padic._exp_domain_ok(tp):
            raise padic.PadicDomainError(f"--t {tv} is outside the p-adic exp "
                                         "domain |t|_p < p^(-1/(p-1))")
        return padic.closed_form_verify(args.h, tp, q, levels[-1],
                                        prec=prec, slack=slack)
    # twisted, the last target argparse allows
    chi = _char(modulus, args.char_index)
    q = _padic_q(args, prec)
    if modulus % args.p == 0:
        raise padic.PadicDomainError(f"--modulus {modulus} is divisible by "
                                     f"--p {args.p}: need gcd(p, d) = 1")
    return padic.padic_generalized_verify(chi, args.h, args.n, q, levels,
                                          prec=prec, slack=slack)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """`--s -2+1i` -> `--s=-2+1i`, and likewise for `--q`.  argparse reads a
    token that starts with '-' and is not a plain negative number as an
    option, so a negative complex or infinite value would lose its flag; a
    token that is no number (`--s --x 1`) stays apart, and argparse reports
    the missing value."""
    out: list[str] = []
    for tok in argv:
        if (out and out[-1] in ("--q", "--s") and tok.startswith("-")
                and _is_complex(tok)):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _is_complex(text: str) -> bool:
    try:
        _parse_complex(text)
    except UsageError:
        return False
    return True


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(_attach_negative_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        doc, code = _run(args)
        _emit(doc, args.format, args.out)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    return code


if __name__ == "__main__":
    sys.exit(main())
