"""Independent references and the per-op checks.

References come from mpmath, never from qzeta's float paths:

- B_n^{(h)} at numeric q is f^{(n)}(h log q) with f(u) = u/(e^u - 1)
  (``mpmath.taylor`` at 40 digits); twisted values come the same way from
  their generating function.
- q-zeta and q-L values are sums of ``mpmath.lerchphi`` terms; they are
  stored in lerch_refs.json by make_refs.py.

A value is right when it lies within 1e-8 * max(1, |ref|) of the reference.
Each failure is also classed as *known* or not.  Known failures are the
defects the ROADMAP documents:

- float evaluation of exact B values at numeric q (``eval_log_scalar_complex``
  and its callers), which loses digits to cancellation, or meets a spurious
  pole (PoleError, exit 3): every interpolation check, ``bernoulli --q`` and
  ``generalized``;
- a Lerch sum whose rounding bound (number of terms * 2^-53 * sum of |term|,
  computed by make_refs.py) exceeds the tolerance;
- ``verify witt --p 4``, which passes because nothing checks that p is prime.

A failure is known only when it has the signature of its defect: a FAIL
verdict with a finite residual, a PoleError or exit 3 for the float B
evaluation; a well-formed value for a Lerch sum; exit 0 for ``--p 4``.
A usage error, another exit code, or malformed output is never known.

A run is ``correct`` when every failure is a known one.  Known failures still
count in ``failed``.

The distribution and generating-function checks are exact identities that a
consistently wrong B_n^{(h)} could still satisfy, so the worker also reports
the B_n^{(h)}(x) polynomials and tables they used (``exact_values``), which
are compared at q = 1/2 with the reference.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import os
from fractions import Fraction
from math import comb, gcd, isfinite

import mpmath as mp

from ops import POOL_SIZE, cli_argv, cli_options, lerch_pool

DPS = 40
EPS = 2.0 ** -53
REFS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "lerch_refs.json")


def close(value: complex, ref: complex) -> bool:
    return abs(value - ref) <= 1e-8 * max(1.0, abs(ref))


def pool_digest(pool) -> str:
    return hashlib.sha256(repr(pool).encode()).hexdigest()


def load_pool_refs(pool) -> list[tuple[complex, float]]:
    with open(REFS_FILE) as fh:
        doc = json.load(fh)
    if doc["digest"] != pool_digest(pool) or len(doc["refs"]) != POOL_SIZE:
        raise RuntimeError("lerch_refs.json does not match ops.lerch_pool(); "
                           "rerun perfbench/make_refs.py")
    return [(complex(re, im), rb) for re, im, rb in doc["refs"]]


# ---------------------------------------------------------------------------
# Lerch-type references (used by make_refs.py)
# ---------------------------------------------------------------------------

def _abs_lerch(r: float, sigma: float, a: float) -> tuple[float, int]:
    """sum_k r^k (k+a)^(-sigma) over positive terms, and the number of terms
    a float loop needs before the rest is below 1e-17 of the sum."""
    acc, k, rk = 0.0, 0, 1.0
    while True:
        t = rk * (k + a) ** (-sigma)
        acc += t
        k += 1
        rk *= r
        growing = sigma < 0 and r * ((k + 1 + a) / (k + a)) ** (-sigma) > 1
        if not growing and rk * (k + a) ** (-sigma) < 1e-17 * acc * (1 - r):
            return acc, k


def rounding_bound(h: int, q: complex, s: complex, x: float | None = None,
                   d: int | None = None) -> float:
    """The ROADMAP's rounding bound, terms * 2^-53 * sum |term|, of the float
    sums behind q_hurwitz_zeta(h, q, s, x) (d None) or q_lfunction mod d."""
    w = abs(q) ** h
    fac = abs(h * cmath.log(q) / (s - 1))
    if d is None:
        parts = [(1.0, w, x, 1)]
    else:
        parts = [(w ** a, w ** d, a / d, d) for a in range(1, d + 1)
                 if d == 1 or gcd(a, d) == 1]
    rb = 0.0
    for scale, r, a, dd in parts:
        for sig, weight in ((s.real, 1.0), (s.real - 1, fac)):
            total, k = _abs_lerch(r, sig, a)
            rb += k * EPS * scale * weight * dd ** -sig * total
    return rb


def _chi_values(d: int, idx: int) -> list:
    from qzeta.characters import enumerate_characters

    chi = enumerate_characters(d)[idx]
    out = []
    for a in range(d + 1):
        e = chi(a)
        out.append(mp.mpc(0) if e.is_zero() else
                   mp.expjpi(2 * mp.mpf(e.exponent.numerator) / e.exponent.denominator))
    return out


def lerch_reference(pt: tuple, dps: int = 30) -> tuple[complex, float]:
    """(value, rounding bound) of one pool point."""
    kind, h, q, s = pt[0], pt[1], pt[2], complex(pt[3])
    with mp.workdps(dps):
        mq = mp.mpc(q.real, q.imag)
        w = mq ** h
        ms = mp.mpc(s.real, s.imag)
        fac = h * mp.log(mq) / (ms - 1)
        if kind == "zeta":
            x = mp.mpf(pt[4])
            val = mp.lerchphi(w, ms, x) - fac * mp.lerchphi(w, ms - 1, x)
            return complex(val), rounding_bound(h, q, s, x=pt[4])
        d, idx = pt[4], pt[5]
        chi = _chi_values(d, idx)
        wd = w ** d
        val = mp.mpc(0)
        for a in range(1, d + 1):
            if chi[a] != 0:
                val += chi[a] * w ** a * (
                    mp.power(d, -ms) * mp.lerchphi(wd, ms, mp.mpf(a) / d)
                    - fac * mp.power(d, 1 - ms) * mp.lerchphi(wd, ms - 1, mp.mpf(a) / d))
        return complex(val), rounding_bound(h, q, s, d=d)


# ---------------------------------------------------------------------------
# B_n^{(h)} and twisted references
# ---------------------------------------------------------------------------

_B_CACHE: dict = {}


def bernoulli_ref(h: int, q, n_max: int) -> list:
    """B_0..B_n_max at q as mpmath numbers (q a Fraction or a complex)."""
    key = (h, q, n_max)
    if key not in _B_CACHE:
        with mp.workdps(DPS):
            mq = (mp.mpf(q.numerator) / q.denominator if isinstance(q, Fraction)
                  else mp.mpc(q.real, q.imag))
            u0 = h * mp.log(mq)
            c = mp.taylor(lambda u: u / mp.expm1(u) if u != 0 else mp.mpf(1),
                          u0, n_max)
            _B_CACHE[key] = [c[n] * mp.factorial(n) for n in range(n_max + 1)]
    return _B_CACHE[key]


def twisted_ref(d: int, idx: int, h: int, q: complex, n_max: int) -> list[complex]:
    """B_{n,chi}^{(h)}, n <= n_max, as n! [t^n] of
    sum_i chi(i) q^{hi} (t + h log q) e^{it} / (q^{hd} e^{dt} - 1)."""
    chi = _chi_values(d, idx)
    with mp.workdps(DPS):
        mq = mp.mpc(q.real, q.imag)
        lam = h * mp.log(mq)
        qhd = mq ** (h * d)

        def gen(t):
            num = sum(chi[i] * mq ** (h * i) * (t + lam) * mp.exp(i * t)
                      for i in range(d))
            return num / (qhd * mp.exp(d * t) - 1)
        c = mp.taylor(gen, 0, n_max)
        return [complex(c[n] * mp.factorial(n)) for n in range(n_max + 1)]


def _log_scalar_at_half(doc: dict):
    """Exact JSON LogScalar evaluated at q = 1/2 (rational parts exactly)."""
    half = Fraction(1, 2)

    def poly(cs):
        return sum((Fraction(c) * half ** k for k, c in enumerate(cs)), Fraction(0))

    def rf(r):
        return poly(r["num"]) / poly(r["den"])

    with mp.workdps(DPS):
        rat, log = rf(doc["rat"]), rf(doc["log"])
        return (mp.mpf(rat.numerator) / rat.denominator
                + mp.mpf(log.numerator) / log.denominator * mp.log(mp.mpf(0.5)))


# ---------------------------------------------------------------------------
# per-op checks
# ---------------------------------------------------------------------------

class Checker:
    def __init__(self):
        self.pool = lerch_pool()
        self.pool_refs = load_pool_refs(self.pool)

    def check(self, op: tuple, out: list) -> tuple[bool, bool]:
        """(right, known) for one op and the outcome the worker recorded."""
        kind = op[0]
        if out[0] == "timeout":
            return False, False
        if out[0] == "raise":
            # a float evaluation of exact B values can meet a spurious pole
            return False, (kind in ("zinterp", "linterp")
                           and out[1].startswith("PoleError"))
        if kind in ("dist", "genfun", "shift", "closedform", "twisted"):
            return out[0] is True, False
        if kind == "witt":
            vals = out[1]
            return out[0] is True and vals == sorted(vals), False
        if kind in ("zinterp", "linterp"):
            return _interp_verdict(kind == "linterp" and op[4] == 1 and op[3] == 1,
                                   out[0], out[1])
        if kind == "pool":
            ref, rb = self.pool_refs[op[1]]
            tol = 1e-8 * max(1.0, abs(ref))
            return close(complex(*out), ref), rb > tol
        if kind == "cli":
            try:
                return self._check_cli(op, out)
            except (TypeError, KeyError, IndexError, AttributeError):
                return False, False     # malformed output
        raise ValueError(f"unknown op kind {kind}")

    def exact_values_ok(self, values: dict) -> set:
        """The keys ("dist", h, n) and ("genfun", h, order) whose B_n^{(h)}(x)
        polynomial or B_0..B_order table, as reported by the worker, matches
        the reference at q = 1/2."""
        half = Fraction(1, 2)
        ok = set()
        for h, n, coeffs in values.get("poly", []):
            refs = bernoulli_ref(h, half, n)
            if len(coeffs) == n + 1 and all(
                    close(complex(_log_scalar_at_half(c)),
                          comb(n, j) * complex(refs[n - j]))
                    for j, c in enumerate(coeffs)):
                ok.add(("dist", h, n))
        for h, order, table in values.get("table", []):
            refs = bernoulli_ref(h, half, order)
            if len(table) == order + 1 and all(
                    close(complex(_log_scalar_at_half(v)), complex(b))
                    for v, b in zip(table, refs)):
                ok.add(("genfun", h, order))
        return ok

    def _check_cli(self, op, out) -> tuple[bool, bool]:
        code, text = out[0], out[1]
        argv = cli_argv(op)
        opt = cli_options(argv)
        cmd = argv[0]
        if cmd == "verify" and opt.get("--p") == "4":
            # the known defect: nothing checks that p is prime, so it runs
            return code == 2, code == 0
        if cmd == "verify" and ":" in opt.get("--levels", ""):
            lo, hi = map(int, opt["--levels"].split(":"))
            if lo > hi:
                return code == 2, False
        interp = cmd == "verify" and argv[1] in ("interp-zeta", "interp-l")
        b_float = cmd == "generalized" or cmd == "bernoulli" and "--q" in opt
        if code == 3:
            # exit 3 from a spurious pole in the float evaluation of B values
            return False, b_float or interp
        try:
            doc = json.loads(text) if code in (0, 1) else None
        except json.JSONDecodeError:
            return False, False
        if cmd == "bernoulli":
            h, n = int(opt["--h"]), int(opt["--n"])
            if code != 0 or [r["n"] for r in doc] != list(range(n + 1)):
                return False, False
            if "--q" in opt:
                q = _cli_q(opt)
                refs = bernoulli_ref(h, q, n)
                right = all(close(complex(r["re"], r["im"]), complex(b))
                            for r, b in zip(doc, refs))
                return right, True
            refs = bernoulli_ref(h, Fraction(1, 2), n)
            return all(close(complex(_log_scalar_at_half(r["value"])), complex(b))
                       for r, b in zip(doc, refs)), False
        if cmd == "polynomial":
            h, n = int(opt["--h"]), int(opt["--n"])
            if code != 0 or [r["x_power"] for r in doc] != list(range(n + 1)):
                return False, False
            refs = bernoulli_ref(h, Fraction(1, 2), n)
            return all(close(complex(_log_scalar_at_half(r["coeff"])),
                             comb(n, r["x_power"]) * complex(refs[n - r["x_power"]]))
                       for r in doc), False
        if cmd == "generalized":
            d, idx = int(opt["--modulus"]), int(opt["--char-index"])
            h, n = int(opt["--h"]), int(opt["--n"])
            q = _cli_q(opt)
            if code != 0 or [r["n"] for r in doc] != list(range(n + 1)):
                return False, False
            refs = twisted_ref(d, idx, h, q, n)
            return all(close(complex(r["re"], r["im"]), b)
                       for r, b in zip(doc, refs)), True
        if cmd == "characters":
            return code == 0 and _characters_ok(int(opt["--modulus"]), doc), False
        if cmd in ("zeta", "lfunction"):
            ref, rb = self.pool_refs[op[op.index("#pool") + 1]]
            if code != 0:
                return False, False
            return (close(complex(doc["re"], doc["im"]), ref),
                    rb > 1e-8 * max(1.0, abs(ref)))
        if cmd == "verify":
            if interp:
                if code not in (0, 1):
                    return False, False
                right, known = _interp_verdict(
                    argv[1] == "interp-l" and opt["--modulus"] == "1"
                    and opt["--n"] == "1",
                    doc["pass"], doc["witnesses"][0]["discrepancy"])
                # the exit code must agree with the verdict
                agree = code == (0 if doc["pass"] is True else 1)
                return right and agree, known and agree
            return code == 0 and doc["pass"] is True, False
        raise ValueError(f"unknown cli op {op}")


def _interp_verdict(fail_cell: bool, passed, disc) -> tuple[bool, bool]:
    """(right, known) of an interpolation check that reported `passed` with
    residual `disc`.  The modulus-1, n = 1 L cell must FAIL with residual 1,
    every other cell must PASS.  A FAIL with a finite residual is the known
    cancellation of the float B evaluation; anything else is not."""
    finite = (isinstance(disc, (int, float)) and not isinstance(disc, bool)
              and isfinite(disc))
    if fail_cell:
        right = passed is False and finite and abs(abs(disc) - 1) < 1e-7
    else:
        right = passed is True
    return right, passed is False and finite


def _cli_q(opt: dict) -> complex:
    return complex(opt["--q"].replace("i", "j"))


def _characters_ok(d: int, doc: list) -> bool:
    """phi(d) distinct characters, zero exactly off the units, multiplicative,
    and each with its conductor: the least f | d with chi = 1 on the units
    congruent to 1 mod f."""
    units = [a for a in range(d) if gcd(a, d) == 1] if d > 1 else [0]
    if len(doc) != len(units):
        return False
    seen = set()
    for row in doc:
        ex = {}
        for a_str, v in row["values"].items():
            a = int(a_str)
            if v == "0":
                if a in units:
                    return False
                continue
            if a not in units:
                return False
            ex[a] = Fraction(v[len("e(2*pi*i*"):-1]) % 1
        for a in units:
            for b in units:
                if (ex[a] + ex[b] - ex[a * b % d if d > 1 else 0]) % 1:
                    return False
        key = tuple(ex[a] for a in units)
        if key in seen:
            return False
        seen.add(key)
        cond = next(f for f in range(1, d + 1) if d % f == 0 and all(
            ex[a] == 0 for a in units if (a - 1) % f == 0))
        if row["conductor"] != cond:
            return False
    return True
