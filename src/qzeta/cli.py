"""Batch command-line surface: table generation and identity verification.

Exit codes: 0 success/pass, 1 verification failure, 2 bad input, 3 a
number that cannot be computed or certified.  Python's exception hierarchy
carries the rule: bad input raises a ValueError (UsageError,
exact.DomainError, analytic.PoleAt1) and exits 2, as does an OSError of
writing --out; a failed computation raises an ArithmeticError (the analytic
series errors, exact.ExactError, padic.PadicError with PadicDomainError,
ZeroDivisionError, OverflowError) and exits 3.  A class that is both exits 2.

A process compiles and builds only what its subcommand runs: the parser
holds every subcommand's name and help but the options of the named one
alone, and each branch of `_run` and `_run_verify` imports what it uses.
Every subcommand loads `_base` (`_Frozen`, `euler_phi`, `_is_prime`); the
tables add `exact` and `qbernoulli`, `zeta` and `lfunction` `analytic`,
the verify targets `report` and the modules they check with (`padic` for
those that read --levels), and only `generalized`, `characters`,
`lfunction`, `verify twisted` and `verify interp-l`, which take a
character, load `characters`.  A bad --p is refused before any p-adic code
loads.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

    from .characters import DirichletCharacter

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


def _parse_rational(text: str | None, default: int) -> Fraction:
    """The rational `text`, or `default` when it is None or empty."""
    from fractions import Fraction

    if not text:
        return Fraction(default)
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


def _char(modulus: int, index: int) -> DirichletCharacter:
    from . import characters

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


_COMMANDS = {
    "bernoulli": "exact B_n^{(h)} table",
    "polynomial": "exact B_n^{(h)}(x) coefficients",
    "generalized": "character-twisted values",
    "characters": "list Dirichlet characters mod d",
    "zeta": "q-zeta / q-Hurwitz zeta value",
    "lfunction": "q-L-function value",
    "verify": "run an identity verification",
}


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """Every subcommand with its help, and the options of `command` alone,
    the subcommand that a valid command line names first."""
    ap = argparse.ArgumentParser(
        prog="qzeta",
        description="(h,q)-Bernoulli tables and identity verification")
    subactions = ap.add_subparsers(dest="command", required=True)
    subs = {name: subactions.add_parser(name, help=text)
            for name, text in _COMMANDS.items()}
    if command not in subs:
        return ap
    a = subs[command].add_argument
    a("--format", choices=["json", "csv", "text"], default="json")
    a("--out", default=None, help="output file (default stdout)")

    if command == "bernoulli":
        a("--h", type=int, required=True)
        a("--n", type=int, required=True)
        a("--q", default=None, help="complex q for numeric evaluation")
    elif command == "polynomial":
        a("--h", type=int, required=True)
        a("--n", type=int, required=True)
    elif command == "generalized":
        a("--modulus", type=int, required=True)
        a("--char-index", type=int, default=0)
        a("--h", type=int, required=True)
        a("--n", type=int, required=True)
        a("--q", required=True)
    elif command == "characters":
        a("--modulus", type=int, required=True)
    elif command == "zeta":
        a("--h", type=int, required=True)
        a("--q", required=True)
        a("--s", required=True)
        a("--x", type=float, default=1.0)
        a("--tol", type=float, default=1e-12)
        a("--max-terms", type=int, default=10 ** 7)
    elif command == "lfunction":
        a("--modulus", type=int, required=True)
        a("--char-index", type=int, default=0)
        a("--h", type=int, required=True)
        a("--q", required=True)
        a("--s", required=True)
        a("--tol", type=float, default=1e-12)
        a("--max-terms", type=int, default=10 ** 7)
    else:
        a("target", choices=["witt", "shift", "closedform", "distribution",
                             "genfunction", "interp-zeta", "interp-l",
                             "twisted"])
        a("--p", type=int, default=5)
        a("--q", default=None)
        a("--h", type=int, default=1)
        a("--n", type=int, default=1)
        a("--m", type=int, default=2)
        a("--b", type=int, default=1)
        a("--x", type=float, default=1.0)
        a("--t", default=None, help="rational t for closedform")
        a("--modulus", type=int, default=None,
          help="default 4 (3 for twisted at p = 2)")
        a("--char-index", type=int, default=1)
        a("--levels", default="3:6")
        a("--tol", type=float, default=1e-8)
        # None: padic's defaults, read only when a p-adic target runs
        a("--slack", type=int, default=None)
        a("--precision", type=int, default=None)
    return ap


def _padic_q(args, prec: int):
    """--q as a p-adic number, --p being checked already."""
    from .padic import PadicDomainError, PadicNumber, _log_domain_ok

    # 1 + p is outside the log domain at p = 2, which needs q = 1 mod 4
    q = _parse_rational(args.q, 5 if args.p == 2 else 1 + args.p)
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
        from . import characters

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
    t = args.target
    levels = _parse_levels(args.levels)
    # a bad --char-index is reported before a bad --p, and a bad --p before
    # any p-adic code loads
    chi = _char(modulus, args.char_index) if t == "twisted" else None
    from ._base import _is_prime

    if args.p >= 2 ** 64:
        raise UsageError(f"--p {args.p} is not below the bound 2^64")
    if not _is_prime(args.p):
        raise UsageError(f"--p {args.p} is not prime")
    from . import padic

    prec = padic.DEFAULT_PRECISION if args.precision is None else args.precision
    slack = padic.DEFAULT_SLACK if args.slack is None else args.slack
    if t == "witt":
        return padic.witt_verify(args.h, args.n, _padic_q(args, prec), levels,
                                 prec=prec, slack=slack)
    if t == "shift":
        f = padic.MonomialTestFunction(args.n, args.h, _padic_q(args, prec))
        return padic.shift_identity_verify(f, args.b, levels[-1],
                                           prec=prec, slack=slack)
    if t == "closedform":
        q = _padic_q(args, prec)
        tv = _parse_rational(args.t, 4 if args.p == 2 else args.p)
        tp = padic.PadicNumber.from_fraction(args.p, tv, prec + 24)
        if not padic._exp_domain_ok(tp):
            raise padic.PadicDomainError(f"--t {tv} is outside the p-adic exp "
                                         "domain |t|_p < p^(-1/(p-1))")
        return padic.closed_form_verify(args.h, tp, q, levels[-1],
                                        prec=prec, slack=slack)
    # twisted, the last target argparse allows
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
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    # argparse reads the first argument that names no option as the
    # subcommand: where that is a subcommand, it is the first one named
    ap = _build_parser(next((a for a in argv if a in _COMMANDS), None))
    try:
        args = ap.parse_args(argv)
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
