"""p-adic arithmetic at finite precision, p-adic log/exp, Volkenborn sums,
and the p-adic verification suite (Witt's formula, the shift identities, the
closed-form integral and the character-twisted integral).

Witt's formula is the twisted integral at the character mod 1: both sum
chi(x) x^n q^{hx} over x < d p^N in one core (`_level_sums`), each calling
it in the same way at its own n alone, and pass when every level N reaches
min(prec, N - slack).  The core reads the power sums S_k = sum_{y<p^N} y^k
r^y only at the k whose coefficient is nonzero (k = n alone for Witt), from
one Mahler expansion (`_power_sums`) at precision p^w: n + 1 rows of K = n
+ ceil(w / v_p(r - 1)) coefficients, built once for all levels, and per
level K binomials and one dot product of length K for each k read.  Shift
sums b end terms, q-Volkenborn n + 1 geometric series: nothing loops over
x < p^N.

The verifiers compare these sums with an exact LogScalar target r(q) +
l(q) log q.  `eval_log_scalar_padic` evaluates both rational parts exactly
at the rational q came from and reduces each once; only log_p q is p-adic,
taken at the precision its coefficient needs, so the target is known modulo
p^(q.abs_prec) and no digit is lost to cancellation.

A PadicNumber is (p, valuation, unit mantissa mod p^prec, prec); the value
is known modulo p^(valuation + prec).  `from_fraction` is `from_int_mod`,
the one residue constructor, plus the remembered rational, so that an input
q can be lifted to any working precision.  The results of arithmetic and
of `padic_log` and `padic_exp` (one series in integers mod p^(abs_prec of the
argument)) remember none: `at_precision` on them raises PrecisionExhausted.
The four verifiers share one report: an (N, valuation) pair per level.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import accumulate
from math import ceil, comb, log2

from .characters import DirichletCharacter, _Frozen
from .exact import LogScalar, _Ring
from .qbernoulli import generalized_q_bernoulli_exact, q_bernoulli_number
from .report import VerificationReport

_BIG = 10 ** 9  # valuation sentinel for an exact zero

DEFAULT_PRECISION = int(os.environ.get("QZK_DEFAULT_PRECISION", "16"))
DEFAULT_SLACK = 3
# Work bound on one call of the level sums: k_max + w, their number of Mahler
# terms when v_p(q^h - 1) = 1, where w (at least twice the top level) is their
# p-adic working precision.  Each term is weighted by (size of p^w / 1024
# bits)^1.58, at least 1: a term's cost barely grows up to 1024 bits, and
# beyond that CPython multiplies in about size^1.58 (Karatsuba), so the bound
# falls as log p or w grows.  The closed-form check, about w products mod
# p^w in its exp series and p^N-th power, takes the same bound with k_max = 0.
# Larger calls raise PrecisionExhausted before anything of size p^w is built.
MAX_POWER_SUM_TERMS = 360
# The same bound on the products mod p^w of the shift check: its b end terms,
# about w terms of the log series and N log2 p squarings for r^(p^N).  For
# p < 2^64 it admits every b <= 50,000 / (weight of p^w) with any w and N
# that the bound above admits, so any b <= 7,000 there.  q_volkenborn_sum
# takes it on its (n + 2) N log2 p squarings.
MAX_SHIFT_TERMS = 62_000


class PadicError(ArithmeticError):
    pass


class PrecisionExhausted(PadicError):
    pass


class PadicDomainError(PadicError):
    pass


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


def _check_prime(p: int) -> None:
    """The constructors take any p >= 2; a composite p would fail deep
    inside, on a unit that has no inverse mod p^w.  `_is_prime` is exact
    only below 2^64, so a larger p is refused, as the CLI refuses it."""
    if p >= 2 ** 64:
        raise ValueError(f"p = {p} is not below the bound 2^64")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def _check_levels(levels) -> None:
    """A level sum over x < p^N needs N >= 1: at N <= 0 a verifier's bar
    min(prec, N - slack) is <= 0, and its verdict would check nothing."""
    if not levels or min(levels) < 1:
        raise ValueError(
            f"levels {list(levels)} must be non-empty, each N >= 1")


def _check_base(p: int) -> None:
    # _vp loops forever at p = 1 or -1
    if p < 2:
        raise ValueError(f"p = {p} must be a prime >= 2")


def _vp(n: int, p: int) -> int:
    if n == 0:
        return _BIG
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicNumber(_Ring, _Frozen):
    __slots__ = ("p", "val", "unit", "prec", "_exact")
    __eq__, __hash__ = object.__eq__, object.__hash__   # identity

    def __init__(self, p: int, val: int, unit: int, prec: int,
                 _exact: Fraction | None = None):
        self._set(p, val, unit, prec, _exact)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, p: int, abs_prec: int = _BIG) -> "PadicNumber":
        _check_base(p)
        return cls(p, abs_prec, 0, 0, Fraction(0) if abs_prec >= _BIG else None)

    @classmethod
    def from_fraction(cls, p: int, fr, prec: int = DEFAULT_PRECISION
                      ) -> "PadicNumber":
        """`from_int_mod` at relative precision max(prec, 1) that remembers
        the rational fr; 0 is the exact zero."""
        _check_base(p)
        fr = Fraction(fr)
        if fr == 0:
            return cls.zero(p)
        z = cls.from_int_mod(p, fr, _vp(fr.numerator, p)
                             - _vp(fr.denominator, p) + max(prec, 1))
        return cls(p, z.val, z.unit, z.prec, fr)

    @classmethod
    def from_int_mod(cls, p: int, value, abs_prec: int) -> "PadicNumber":
        """Number known as the integer or rational `value` modulo
        p^abs_prec."""
        _check_base(p)
        fr = Fraction(value)
        vn, vd = _vp(fr.numerator, p), _vp(fr.denominator, p)
        v = vn - vd
        if v >= abs_prec:
            return cls.zero(p, abs_prec)
        mod = p ** (abs_prec - v)
        unit = (fr.numerator // p ** vn
                * pow(fr.denominator // p ** vd, -1, mod) % mod)
        return cls(p, v, unit, abs_prec - v)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        """Zero to the known precision."""
        return self.unit == 0

    @property
    def abs_prec(self) -> int:
        return self.val + self.prec

    def valuation(self) -> int:
        """Exact valuation, or the absolute precision bound for a zero."""
        return self.val

    def at_precision(self, prec: int) -> "PadicNumber":
        """Same value at relative precision >= prec (lifts via the exact
        origin when available)."""
        if self.prec >= prec or self.is_zero():
            return self
        if self._exact is None:
            raise PrecisionExhausted(
                f"cannot lift to {prec} digits: no exact origin")
        return PadicNumber.from_fraction(self.p, self._exact, prec)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            if other.p != self.p:
                raise PadicDomainError("mixed primes")
            return other
        if isinstance(other, (int, Fraction)):
            fr = Fraction(other)
            if fr == 0:
                return PadicNumber.zero(self.p)
            v = _vp(fr.numerator, self.p) - _vp(fr.denominator, self.p)
            # enough relative digits that the coerced operand never caps the
            # other operand's absolute precision; an exact zero has none
            # to match
            need = (self.abs_prec - v + 2 if self.abs_prec < _BIG
                    else 4 * DEFAULT_PRECISION + 64)
            return PadicNumber.from_fraction(self.p, fr, max(2, need))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        n = min(self.abs_prec, o.abs_prec)
        terms = [z for z in (self, o) if not z.is_zero() and z.val < n]
        if not terms:
            return PadicNumber(p, n, 0, 0)
        m = min(z.val for z in terms)
        mod = p ** (n - m)
        v = sum(z.unit * p ** (z.val - m) for z in terms) % mod
        if v == 0:
            return PadicNumber(p, n, 0, 0)
        dv = _vp(v, p)
        return PadicNumber(p, m + dv, v // p ** dv, n - m - dv)

    def __neg__(self):
        if self.is_zero():
            return PadicNumber(self.p, self.val, 0, 0)
        return PadicNumber(self.p, self.val,
                           (-self.unit) % self.p ** self.prec, self.prec)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        if self.is_zero() or o.is_zero():
            # O(p^a) * (unit p^v) = O(p^(a+v))
            return PadicNumber(p, self.val + o.val, 0, 0)
        prec = min(self.prec, o.prec)
        unit = self.unit * o.unit % p ** prec
        return PadicNumber(p, self.val + o.val, unit, prec)

    def inverse(self) -> "PadicNumber":
        if self.is_zero():
            raise ZeroDivisionError("division by (p-adic) zero")
        return PadicNumber(self.p, -self.val,
                           pow(self.unit, -1, self.p ** self.prec), self.prec)

    def __pow__(self, x: int):
        return padic_pow(self, x)

    def __repr__(self):
        if self.is_zero():
            return f"O({self.p}^{self.val})"
        return (f"{self.unit}*{self.p}^{self.val} + "
                f"O({self.p}^{self.abs_prec})")


# ---------------------------------------------------------------------------
# log / exp / powers
# ---------------------------------------------------------------------------

def _exp_domain_ok(t: PadicNumber) -> bool:
    """|t|_p < p^(-1/(p-1)): v(t) >= 1, or >= 2 for p = 2."""
    return t.is_zero() or t.val >= (2 if t.p == 2 else 1)


def _log_domain_ok(q: PadicNumber) -> bool:
    """`_exp_domain_ok(q - 1)` in integers: v(q) = 0 and v_p(unit - 1) >= 1
    (>= 2 for p = 2), where unit - 1 is known mod p^prec; a zero q has a
    zero q - 1 only when it is known to no digit (abs_prec <= 0)."""
    if q.is_zero():
        return q.abs_prec <= 0
    x = (q.unit - 1) % q.p ** q.prec
    return q.val == 0 and (x == 0 or _vp(x, q.p) >= (2 if q.p == 2 else 1))


def _unit_factorials(units: list[int], mod: int) -> tuple[list[int], list[int]]:
    """The products units[1] ... units[k] mod `mod` for k < len(units) (1 at
    k = 0), and their inverses, from one modular inverse of the last: the
    inverse of the (k-1)-th is units[k] times that of the k-th.  With
    units[k] the unit part of k, these are the unit parts of k! and their
    inverses."""
    fact = [1] * len(units)
    for k in range(1, len(units)):
        fact[k] = fact[k - 1] * units[k] % mod
    inv = fact[:]
    inv[-1] = pow(fact[-1], -1, mod)
    for k in range(len(units) - 1, 1, -1):
        inv[k - 1] = inv[k] * units[k] % mod
    return fact, inv


def _series(t: PadicNumber, exp: bool) -> PadicNumber:
    """exp t = 1 + sum_{k>=1} t^k / k!, or log(1 + t) = sum_{k>=1} (-1)^(k+1)
    t^k / k, mod p^a (a = t.abs_prec) in integers: term k of t = p^v u is
    p^(k v - v_p(den_k)) u^k / (unit of den_k).  From the first k with k v -
    B(k) >= a on every term is 0 mod p^a, as B(k) >= v_p(den_k) grows by at
    most v per step: floor((k-1)/(p-1)) >= v_p(k!) for exp, floor(log2 k).
    So the K - 1 terms are known before the loop: the inverses of the unit
    parts of 1!, ..., (K-1)! come from one modular inverse
    (`_unit_factorials`; for log, 1 / (unit of k) is (unit of (k-1)!) /
    (unit of k!)), and p^(k v) is a running product, divided by
    p^v_p(den_k) from a small table."""
    p, v, a = t.p, t.val, t.abs_prec
    if t.is_zero():                 # known to no digit: every term is 0
        return PadicNumber.from_int_mod(p, int(exp), a)
    mod = p ** a
    K = 1
    while K * v - ((K - 1) // (p - 1) if exp else K.bit_length() - 1) < a:
        K += 1
    es = [0] + [_vp(k, p) for k in range(1, K)]
    fact, inv = _unit_factorials([k // p ** e for k, e in enumerate(es)], mod)
    dvs = list(accumulate(es)) if exp else es       # v_p(den_k)
    pows = [p ** e for e in range(max(dvs) + 1)]
    s, uk, pk, pv = int(exp), 1, 1, p ** v          # u^k, p^(k v), p^v
    for k in range(1, K):
        uk = uk * t.unit % mod
        pk *= pv
        c = inv[k] if exp else inv[k] * fact[k - 1] * (1 if k % 2 else -1)
        s += pk // pows[dvs[k]] * uk * c
    return PadicNumber.from_int_mod(p, s, a)


def padic_log(q: PadicNumber) -> PadicNumber:
    """log q = sum (-1)^(k+1) (q-1)^k / k for |q-1|_p < p^(-1/(p-1)): the
    domain test in integers (`_log_domain_ok`), then q - 1, formed once, into
    `_series`."""
    _check_prime(q.p)
    if not _log_domain_ok(q):
        raise PadicDomainError("padic_log needs v(q-1) >= 1 (>= 2 for p = 2)")
    return _series(q - 1, False)    # 0 too, known mod p^(q.abs_prec)


def padic_exp(t: PadicNumber) -> PadicNumber:
    """exp t = sum t^k / k! for v(t) >= 1 (>= 2 for p = 2)."""
    p = t.p
    _check_prime(p)
    if not _exp_domain_ok(t):
        raise PadicDomainError("padic_exp needs v(t) >= 1 (>= 2 for p = 2)")
    if t.is_zero():
        return PadicNumber.from_fraction(
            p, 1, min(t.val, 4 * DEFAULT_PRECISION + 64))
    return _series(t, True)


def padic_pow(q: PadicNumber, x) -> PadicNumber:
    """q^x: integers (an integer-valued Fraction too) by square-and-multiply
    on the mantissa, other rational x with |x|_p <= 1 via exp(x log q)."""
    p = q.p
    if not isinstance(x, int):
        x = Fraction(x)
        if x.denominator == 1:
            x = x.numerator
    if isinstance(x, int):
        if x == 0:
            return PadicNumber.from_fraction(p, 1, max(q.prec,
                                                       DEFAULT_PRECISION))
        if q.is_zero():
            if x < 0:
                raise ZeroDivisionError("0^negative")
            return PadicNumber(p, q.val * x, 0, 0)
        return PadicNumber(p, q.val * x, pow(q.unit, x, p ** q.prec), q.prec)
    if _vp(x.denominator, p) > 0:
        raise PadicDomainError("exponent must satisfy |x|_p <= 1")
    return padic_exp(x * padic_log(q))


def q_bracket(x: int, q: PadicNumber) -> PadicNumber:
    """[x]_q = (1 - q^x) / (1 - q); q must differ from 1 at the working
    precision."""
    one_minus_q = 1 - q
    if one_minus_q.is_zero():
        raise PadicDomainError("[x]_q undefined at q = 1")
    return (1 - padic_pow(q, x)) / one_minus_q


# ---------------------------------------------------------------------------
# LogScalar evaluation at a p-adic point
# ---------------------------------------------------------------------------

def eval_log_scalar_padic(a: LogScalar, q: PadicNumber) -> PadicNumber:
    """rat(q) + log-part(q) * log_p q, known modulo p^(q.abs_prec).

    Both rational parts are evaluated exactly at the rational q came from,
    so no digit is lost to cancellation; log_p q is taken only when a has a
    log part, at q lifted by -v_p of its coefficient, so that the product
    keeps the absolute precision of q."""
    if q._exact is None:
        raise PrecisionExhausted("cannot evaluate exactly: no exact origin")
    p, k = q.p, q.abs_prec
    out = PadicNumber.from_int_mod(p, a.rat.eval_fraction(q._exact), k)
    if a.log:
        if not _log_domain_ok(q):
            raise PadicDomainError("need |q-1|_p < p^(-1/(p-1))")
        c = PadicNumber.from_int_mod(p, a.log.eval_fraction(q._exact), k)
        out = out + c * padic_log(q.at_precision(k - c.val))
    return out


# ---------------------------------------------------------------------------
# Volkenborn sums
# ---------------------------------------------------------------------------

class MonomialTestFunction(_Frozen):
    """f(x) = x^n q^{h x}."""

    __slots__ = ("n", "h", "q")

    def __init__(self, n: int, h: int, q: PadicNumber):
        if n < 0:
            raise ValueError("n must be >= 0")
        self._set(n, h, q)


def _check_work(terms: int, w: int, p: int, need: str,
                bound: str = "MAX_POWER_SUM_TERMS") -> None:
    """Raise PrecisionExhausted, saying what `need`s the work, when `terms`
    products mod p^w are above the work bound named `bound`."""
    bits = w * log2(p)                          # the size of p^w
    cap = globals()[bound]
    if terms * (max(bits, 1024) / 1024) ** 1.58 > cap:
        raise PrecisionExhausted(
            f"{need} on {bits:.0f}-bit integers, above the work bound "
            f"{bound} = {cap} terms of up to 1024 bits")


def _power_sums(r: int, ks: list[int], levels: list[int], p: int,
                w: int) -> list[list[int]]:
    """[sum_{x<p^N} x^k r^x mod p^w for k in `ks`], for each N in `levels`.

    Mahler expansion: sum_{x<M} f(x) = sum_m (Delta^m f)(0) C(M, m+1).  For
    f_k(x) = x^k r^x and u = r - 1, the coefficients a_{k,m} = (Delta^m
    f_k)(0) satisfy a_{0,m} = u^m and a_{k+1,m} = m (a_{k,m-1} + a_{k,m})
    (from x C(x, m) = (m+1) C(x, m+1) + m C(x, m)), so a_{k,m} = 0 mod
    p^((m-k) v) with v = v_p(u), and K = max(ks) + ceil(w/v) terms give the
    sums mod p^w.  The rows a_k run up to k = max(ks), but only the rows in
    `ks` are kept and dotted with the binomials.  They do not depend on N;
    each level then costs only the binomials C(p^N, j) = p^(N - v_p(j))
    prod_{0<i<j} (p^N - i)/p^v_p(i) / (unit part of j!), all of whose
    factors but the first are units: the p-powers come from a table per
    level, and the K inverses of the unit parts of j! from one modular
    inverse (`_unit_factorials`).  Integer arithmetic mod p^w, no division
    by p.
    """
    mod = p ** w
    u = (r - 1) % mod
    v = min(_vp(u, p), w)
    if v == 0:
        raise PadicDomainError(
            "q^h must be 1 mod p: x -> q^(hx) is not continuous on Z_p")
    k_max = max(ks, default=0)
    K = k_max + -(-w // v)
    row = [1] * K
    for m in range(1, K):
        row[m] = row[m - 1] * u % mod
    rows = [row] if 0 in ks else []
    for k in range(1, k_max + 1):
        row = [0] + [m * (row[m - 1] + row[m]) % mod for m in range(1, K)]
        if k in ks:
            rows.append(row)
    vs = [0] + [_vp(j, p) for j in range(1, K + 1)]
    units = [j // p ** vs[j] for j in range(K + 1)]
    inv_fact = _unit_factorials(units, mod)[1]
    out = []
    for N in levels:
        pe = [p ** (N - e) % mod for e in range(min(N, max(vs)) + 1)]
        binom, num = [], 1        # binom[m] = C(p^N, m+1) mod p^w
        for j in range(1, min(K, p ** N) + 1):
            binom.append(pe[vs[j]] * num * inv_fact[j] % mod)
            num = num * (pe[vs[j]] - units[j]) % mod
        out.append([sum(a * b for a, b in zip(a_k, binom)) % mod
                    for a_k in rows])
    return out


def _unit_power(q: PadicNumber, h: int, w: int) -> int:
    """q^h mod p^w, as an integer, for a p-adic unit q."""
    if q.val != 0:
        raise PadicDomainError("q must be a p-adic unit")
    return pow(q.at_precision(w).unit, h, q.p ** w)


def _level_sums(chi: list[int], h: int, ns: range, q: PadicNumber,
                levels: list[int], prec: int) -> dict[int, list[PadicNumber]]:
    """{N: [(1/(d p^N)) sum_{x < d p^N} chi(x) q^{h x} x^n for n in ns]} for
    each N in `levels`, d = len(chi) prime to p, chi(x) = chi[x mod d].  With
    x = a + d y and r = q^h, a sum is sum_j C(n, j) d^j c_j S_j, where c_j =
    sum_a chi(a) r^a a^(n-j) and S_j = sum_{y<p^N} y^j r^(d y) (`_power_sums`,
    asked only for the j whose coefficient is nonzero mod p^w); at the
    character mod 1 (d = 1, chi = [1]) only c_n = 1 is left: Witt's
    S_N.  Sums are taken mod p^w, w = prec + 2 N_max, N_max = max(levels); a
    level-N sum is reduced mod p^(prec + N_max + N) and divided by d p^N, so
    every value is known to prec + N_max absolute digits."""
    if not ns or ns[0] < 0:
        raise ValueError("n must be >= 0")
    p, d, k_max, n_top = q.p, len(chi), ns[-1], max(levels)
    w = prec + 2 * n_top
    _check_work(k_max + w, w, p, f"level sums need up to k_max + w = "
                f"{k_max + w} Mahler terms")
    mod = p ** w
    r = _unit_power(q, h, w)
    chi_r = [c * pow(r, a, mod) for a, c in enumerate(chi)]
    coefs = [[comb(n, j) * d ** j * sum(t * a ** (n - j)
                                         for a, t in enumerate(chi_r)) % mod
              for j in range(n + 1)] + [0] * (k_max - n) for n in ns]
    ks = sorted({j for coef in coefs for j, c in enumerate(coef) if c})
    sums = _power_sums(pow(r, d, mod), ks, levels, p, w)
    return {N: [PadicNumber.from_int_mod(
                    p, sum(coef[k] * s for k, s in zip(ks, row)),
                    prec + n_top + N)
                / PadicNumber(p, N, d % mod, w) for coef in coefs]
            for N, row in zip(levels, sums)}


def volkenborn_levels(n_max: int, h: int, q: PadicNumber, levels: list[int],
                      prec: int = DEFAULT_PRECISION) -> dict[int, list[PadicNumber]]:
    """S_N = p^-N sum_{x < p^N} q^{h x} x^n for n = 0..n_max and every N in
    `levels`: the level sums of `_level_sums` at the character mod 1, each
    known to prec + max(levels) absolute digits.  No verifier calls it: it is
    the paper's S_N family, reached by `volkenborn_sum` (and traced by the
    benchmark as padic.volkenborn); `witt_verify` sums its own n alone."""
    _check_prime(q.p)
    _check_levels(levels)
    return _level_sums([1], h, range(n_max + 1), q, levels, prec)


def volkenborn_sum(f: MonomialTestFunction, N: int,
                   prec: int = DEFAULT_PRECISION) -> PadicNumber:
    """Level-N Volkenborn approximant p^-N sum_{x<p^N} f(x): the paper's
    object, kept as such, though no src/ path calls it."""
    return volkenborn_levels(f.n, f.h, f.q, [N], prec)[N][f.n]


def q_volkenborn_sum(n: int, h: int, x0, q: PadicNumber, N: int,
                     prec: int = DEFAULT_PRECISION) -> PadicNumber:
    """Level-N approximant of the q-Volkenborn integral of
    [x0 + x1]_q^n q^{x1 (h-1)} against mu_q:

        (1/[p^N]_q) sum_{x1 < p^N} [x0+x1]_q^n q^{x1 (h-1)} q^{x1}

    in closed form: with [y]_q = (1 - q^y)/(1 - q) and M = p^N it is

        (1-q)^(1-n) / (1-q^M) * sum_j C(n, j) (-q^x0)^j G_j,
        G_j = sum_{x<M} q^((h+j) x) = (1 - q^((h+j) M)) / (1 - q^(h+j)),

    or G_j = M when h + j = 0.
    """
    p = q.p
    _check_prime(p)
    _check_levels([N])
    x0 = Fraction(x0)
    if _vp(x0.denominator, p) > 0:
        raise PadicDomainError("|x0|_p <= 1 required")
    # digits lost: v(1-q) + N + v(h+j) in 1 - q^((h+j) M), and about
    # n v(1-q) + N in the sum, whose terms are (1 - q^(x0+x))^n q^(hx)
    w = (prec + N + (n + 1) * (1 - q).valuation()
         + max((_vp(h + j, p) for j in range(n + 1) if h + j), default=0) + 4)
    # n + 2 powers q^(e M), each N log2 p squarings mod p^w
    terms = (n + 2) * ceil(N * log2(p))
    _check_work(terms, w, p, f"the q-Volkenborn sum needs (n + 2) N log2 p = "
                f"{terms} products", "MAX_SHIFT_TERMS")
    M = p ** N
    qw = q.at_precision(w)
    one_minus_q = 1 - qw
    if one_minus_q.is_zero():
        raise PadicDomainError("q = 1 is outside the q-Volkenborn domain")
    minus_qx0 = -padic_pow(qw, x0)
    acc = PadicNumber.zero(p, w)
    for j in range(n + 1):
        e = h + j
        g = M if e == 0 else (1 - padic_pow(qw, e * M)) / (1 - padic_pow(qw, e))
        acc = acc + comb(n, j) * padic_pow(minus_qx0, j) * g
    return padic_pow(one_minus_q, 1 - n) * acc / (1 - padic_pow(qw, M))


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def _check_prec_slack(p: int, prec: int, slack: int, levels) -> None:
    """A verdict needs a prime p, at least one digit, a slack that only
    lowers the bar and at least one level, each N >= 1."""
    _check_prime(p)
    if prec < 1:
        raise ValueError(f"precision {prec} must be >= 1")
    if slack < 0:
        raise ValueError(f"slack {slack} must be >= 0")
    _check_levels(levels)


def _level_report(identity: str, params: dict, vals: list[tuple[int, int]],
                  passed: bool) -> VerificationReport:
    """A p-adic verifier's report: a witness "N=..." per (N, valuation)."""
    return VerificationReport(identity, params,
                              tuple((f"N={N}", v) for N, v in vals), passed,
                              tuple(vals))


def _target_verdict(identity: str, params: dict, exact, q: PadicNumber,
                    levels: list[int], sums: dict) -> VerificationReport:
    """Witt's and twisted's verdict: every level N has v(sums[N][-1] -
    exact(h)) >= min(prec, N - slack).  At q = 1 both parts of the target
    have a pole; the target is their q -> 1 limit, the h = 0 value."""
    levels = sorted(levels)
    h, prec, slack = params["h"], params["prec"], params["slack"]
    target = eval_log_scalar_padic(exact(h if q._exact != 1 else 0),
                                   q.at_precision(prec + levels[-1]))
    vals = [(N, (sums[N][-1] - target).valuation()) for N in levels]
    return _level_report(identity, params, vals,
                         all(v >= min(prec, N - slack) for N, v in vals))


def witt_verify(h: int, n: int, q: PadicNumber, levels: list[int],
                prec: int = DEFAULT_PRECISION,
                slack: int = DEFAULT_SLACK) -> VerificationReport:
    """S_N -> B_n^{(h)} at the given q, the twisted check at the character
    mod 1: it calls `_level_sums` at chi = [1] and its own n alone, as the
    twisted check does at its character, and at every level N the valuation
    of S_N - target must reach min(prec, N - slack).  The valuations need not
    increase with N: S_N can come closer to the target than S_(N+1)."""
    _check_prec_slack(q.p, prec, slack, levels)
    sums = _level_sums([1], h, range(n, n + 1), q, levels, prec)
    return _target_verdict(
        "witt", {"h": h, "n": n, "p": q.p, "prec": prec, "slack": slack},
        lambda g: q_bernoulli_number(g, n), q, levels, sums)


def shift_identity_verify(f: MonomialTestFunction, b: int, N: int,
                          prec: int = DEFAULT_PRECISION,
                          slack: int = DEFAULT_SLACK) -> VerificationReport:
    """I_1(f(.+b)) = I_1(f) + sum_{i<b} f'(i) at level N: the residual's
    valuation must be >= N - slack.  The level sums differ by b end terms,
    sum_{x<p^N} f(x+b) - f(x) = sum_{i<b} f(p^N+i) - f(i), so one loop over
    i < b mod p^w gives both sides."""
    _check_prec_slack(f.q.p, prec, slack, [N])
    if b < 1:
        raise ValueError("b must be >= 1")
    p, n, h = f.q.p, f.n, f.h
    w = max(prec, N) + N    # >= N - slack absolute digits after / p^N
    terms = b + w + ceil(N * log2(p))
    _check_work(terms, w, p, f"the shift check needs b + w + N log2 p = "
                f"{terms} products", "MAX_SHIFT_TERMS")
    mod, M = p ** w, p ** N
    r = _unit_power(f.q, h, w)
    if (r - 1) % p:
        raise PadicDomainError(
            "q^h must be 1 mod p: x -> q^(hx) is not continuous on Z_p")
    r_m = pow(r, M, mod)
    # f(i) = i^n r^i, f'(i) = r^i (n i^(n-1) + h i^n log q); lg, a sum of
    # residues, is 0 just where the exact log part is, which reads log q
    ends, rat, lg, r_i = 0, 0, 0, 1
    for i in range(b):
        i_n1 = pow(i, n - 1, mod) if n else 0
        i_n = i * i_n1 if n else 1
        ends += (pow(M + i, n, mod) * r_m - i_n) * r_i
        rat += n * i_n1 * r_i
        lg += i_n * r_i % mod
        r_i = r_i * r % mod
    v = (PadicNumber.from_int_mod(p, ends % mod, w) / PadicNumber(p, N, 1, w)
         - eval_log_scalar_padic(LogScalar(rat % mod, h * lg),
                                 f.q.at_precision(w))).valuation()
    return _level_report(
        "shift", {"n": f.n, "h": f.h, "b": b, "N": N, "p": p, "slack": slack},
        [(N, v)], v >= N - slack)


def closed_form_verify(h: int, t: PadicNumber, q: PadicNumber, N: int,
                       prec: int = DEFAULT_PRECISION,
                       slack: int = DEFAULT_SLACK) -> VerificationReport:
    """Level-N sum of q^{h x} e^{x t} against (h log q + t)/(q^h e^t - 1)."""
    _check_prec_slack(q.p, prec, slack, [N])
    p = q.p
    # after / p^N, min(prec, N) + 6 >= N - slack digits remain
    w = max(prec, N) + N + 6
    _check_work(w, w, p, f"the closed form needs w = {w} products")
    qw = q.at_precision(w)
    tw = t.at_precision(w)
    e_t = padic_exp(tw)
    r = padic_pow(qw, h) * e_t          # common ratio q^h e^t
    # sum_{x<p^N} r^x = (r^{p^N} - 1)/(r - 1)
    den = r - 1
    if den.is_zero():
        raise PadicDomainError("q^h e^t = 1 to working precision")
    lhs = (padic_pow(r, p ** N) - 1) / den / PadicNumber(p, N, 1, w)
    num = tw if h == 0 else h * padic_log(qw) + tw
    v = (lhs - num / den).valuation()
    return _level_report("closed-form",
                         {"h": h, "N": N, "p": p, "slack": slack},
                         [(N, v)], v >= N - slack)


def padic_generalized_verify(chi: DirichletCharacter, h: int, n: int,
                             q: PadicNumber, levels: list[int],
                             prec: int = DEFAULT_PRECISION,
                             slack: int = DEFAULT_SLACK) -> VerificationReport:
    """(1/(d p^N)) sum_{x < d p^N} chi(x) q^{h x} x^n against the exact
    twisted value for quadratic chi, gcd(p, d) = 1, with witt's verdict."""
    _check_prec_slack(q.p, prec, slack, levels)
    p, d = q.p, chi.modulus
    if d % p == 0:
        raise PadicDomainError("need gcd(p, d) = 1")
    if not chi.is_real():
        raise PadicDomainError("p-adic route needs a quadratic character")
    sums = _level_sums([int(chi.value_rational(a)) for a in range(d)], h,
                       range(n, n + 1), q, levels, prec)
    return _target_verdict(
        "twisted-volkenborn",
        {"d": d, "exponents": list(chi.exponents), "h": h, "n": n, "p": p,
         "prec": prec, "slack": slack},
        lambda g: generalized_q_bernoulli_exact(chi, g, n), q, levels, sums)
