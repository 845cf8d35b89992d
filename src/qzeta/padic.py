"""p-adic arithmetic at finite precision, p-adic log/exp, Volkenborn sums,
and the p-adic verification suite (Witt's formula, the shift identities, the
closed-form integral and the character-twisted integral).

The level-N sums sum_{x<p^N} x^n q^{hx} behind Witt's formula, the shift
identities and the twisted integral come in closed form from one Mahler
expansion (`_power_sums`), in O(n (n + w)) operations per level at working
precision p^w; the q-Volkenborn sum is n + 1 geometric series.  Nothing
here loops over x < p^N.

A PadicNumber is (p, valuation, unit mantissa mod p^prec, prec); the value
is known modulo p^(valuation + prec).  Only a number built from a rational
(`from_fraction`, an exact `zero`) remembers it, so that an input q can be
lifted to whatever working precision a level-N sum needs; the results of
arithmetic do not, and `at_precision` on one raises PrecisionExhausted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb, log2

from .characters import DirichletCharacter
from .exact import LogScalar
from .qbernoulli import (classical_bernoulli, generalized_q_bernoulli_exact,
                         q_bernoulli_number)
from .report import VerificationReport

_BIG = 10 ** 9  # valuation sentinel for an exact zero

DEFAULT_PRECISION = int(os.environ.get("QZK_DEFAULT_PRECISION", "16"))
DEFAULT_SLACK = 3
# Work bound on one call of the level sums: k_max + w, their number of Mahler
# terms when v_p(q^h - 1) = 1, where w (at least twice the top level) is their
# p-adic working precision.  Each term is weighted by the size of p^w in units
# of 1024 bits, the size up to which a term's cost barely grows, so the bound
# falls as log p grows.  Larger calls raise PrecisionExhausted.
MAX_POWER_SUM_TERMS = 360


class PadicError(ArithmeticError):
    pass


class PrecisionExhausted(PadicError):
    pass


class PadicDomainError(PadicError):
    pass


def _vp(n: int, p: int) -> int:
    if n == 0:
        return _BIG
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicNumber:
    __slots__ = ("p", "val", "unit", "prec", "_exact")

    def __init__(self, p: int, val: int, unit: int, prec: int,
                 _exact: Fraction | None = None):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "_exact", _exact)

    def __setattr__(self, *a):
        raise AttributeError("PadicNumber is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, p: int, abs_prec: int = _BIG) -> "PadicNumber":
        return cls(p, abs_prec, 0, 0, Fraction(0) if abs_prec >= _BIG else None)

    @classmethod
    def from_fraction(cls, p: int, fr, prec: int = DEFAULT_PRECISION,
                      exact: bool = True) -> "PadicNumber":
        """Relative precision `prec`; remembers fr when exact=True."""
        fr = Fraction(fr)
        if fr == 0:
            return cls.zero(p) if exact else cls.zero(p, prec)
        prec = max(prec, 1)
        v = _vp(fr.numerator, p) - _vp(fr.denominator, p)
        num = fr.numerator // p ** max(_vp(fr.numerator, p), 0)
        den = fr.denominator // p ** max(_vp(fr.denominator, p), 0)
        mod = p ** prec
        unit = num * pow(den, -1, mod) % mod
        return cls(p, v, unit, prec, fr if exact else None)

    @classmethod
    def from_int_mod(cls, p: int, value: int, abs_prec: int) -> "PadicNumber":
        """Number known as `value` modulo p^abs_prec."""
        value %= p ** abs_prec
        if value == 0:
            return cls.zero(p, abs_prec)
        v = _vp(value, p)
        unit = value // p ** v
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

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return PadicNumber(self.p, self.val, 0, 0)
        return PadicNumber(self.p, self.val,
                           (-self.unit) % self.p ** self.prec, self.prec)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

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

    __rmul__ = __mul__

    def inverse(self) -> "PadicNumber":
        if self.is_zero():
            raise ZeroDivisionError("division by (p-adic) zero")
        return PadicNumber(self.p, -self.val,
                           pow(self.unit, -1, self.p ** self.prec), self.prec)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

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
    return _exp_domain_ok(q - 1)


def padic_log(q: PadicNumber) -> PadicNumber:
    """log q = sum (-1)^(k+1) (q-1)^k / k for |q-1|_p < p^(-1/(p-1))."""
    p = q.p
    if not _log_domain_ok(q):
        raise PadicDomainError("padic_log needs v(q-1) >= 1 (>= 2 for p = 2)")
    u = q - 1
    if u.is_zero():
        return PadicNumber.zero(p, u.val)
    a = q.abs_prec
    vu = u.val
    ufr = q._exact - 1 if q._exact is not None else Fraction(u.unit * p ** vu)
    s = Fraction(0)
    k, term = 1, ufr
    while k * vu - _vp(k, p) < a:
        s += term / k if k % 2 else -term / k
        k += 1
        term *= ufr
    v = _vp(s.numerator, p) - _vp(s.denominator, p)
    return PadicNumber.from_fraction(p, s, max(a - v, 1), exact=False)


def _vp_factorial(k: int, p: int) -> int:
    v, pk = 0, p
    while pk <= k:
        v += k // pk
        pk *= p
    return v


def padic_exp(t: PadicNumber) -> PadicNumber:
    """exp t = sum t^k / k! for v(t) >= 1 (>= 2 for p = 2)."""
    p = t.p
    if not _exp_domain_ok(t):
        raise PadicDomainError("padic_exp needs v(t) >= 1 (>= 2 for p = 2)")
    if t.is_zero():
        return PadicNumber.from_fraction(
            p, 1, min(t.val, 4 * DEFAULT_PRECISION + 64))
    a = t.abs_prec
    vt = t.val
    tfr = t._exact if t._exact is not None else Fraction(t.unit * p ** vt)
    s = Fraction(1)
    k, term = 1, tfr
    while k * vt - _vp_factorial(k, p) < a:
        s += term / Fraction(_factorial_cached(k))
        k += 1
        term *= tfr
    return PadicNumber.from_fraction(p, s, a, exact=False)


_FACT = [1]


def _factorial_cached(k: int) -> int:
    while len(_FACT) <= k:
        _FACT.append(_FACT[-1] * len(_FACT))
    return _FACT[k]


def padic_pow(q: PadicNumber, x) -> PadicNumber:
    """q^x: integers by square-and-multiply on the mantissa, rational x with
    |x|_p <= 1 via exp(x log q)."""
    p = q.p
    if isinstance(x, int):
        if x == 0:
            return PadicNumber.from_fraction(p, 1, max(q.prec,
                                                       DEFAULT_PRECISION))
        if q.is_zero():
            if x < 0:
                raise ZeroDivisionError("0^negative")
            return PadicNumber(p, q.val * x, 0, 0)
        return PadicNumber(p, q.val * x, pow(q.unit, x, p ** q.prec), q.prec)
    x = Fraction(x)
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
    """rat(q) + log-part(q) * log_p q, with tracked precision."""
    if not _log_domain_ok(q):
        raise PadicDomainError("need |q-1|_p < p^(-1/(p-1))")

    def horner(poly) -> PadicNumber:
        coeffs = poly.coeffs
        if not coeffs:
            return PadicNumber.zero(q.p)
        acc = PadicNumber.from_fraction(q.p, coeffs[-1], q.prec + 2)
        for c in reversed(coeffs[:-1]):
            acc = acc * q + c
        return acc

    def rf(r) -> PadicNumber:
        den = horner(r.den)
        if den.is_zero():
            raise PrecisionExhausted("denominator vanishes to working precision")
        return horner(r.num) / den

    out = rf(a.rat)
    if a.log:
        out = out + rf(a.log) * padic_log(q)
    return out


# ---------------------------------------------------------------------------
# Volkenborn sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialTestFunction:
    """f(x) = x^n q^{h x}."""
    n: int
    h: int
    q: PadicNumber


def _ratio(q: PadicNumber, h: int, k_max: int, w: int) -> int:
    """r = q^h modulo p^w for a unit q, for a call of `_power_sums` with
    this k_max and w, whose work bound it checks before lifting q."""
    bits = w * log2(q.p)                        # the size of p^w
    if (k_max + w) * max(bits, 1024) > MAX_POWER_SUM_TERMS * 1024:
        raise PrecisionExhausted(
            f"level sums need up to k_max + w = {k_max + w} Mahler terms on "
            f"{bits:.0f}-bit integers, above the work bound "
            f"MAX_POWER_SUM_TERMS = {MAX_POWER_SUM_TERMS} terms of up to "
            "1024 bits")
    if q.val != 0:
        raise PadicDomainError("q must be a p-adic unit")
    return pow(q.at_precision(w).unit, h, q.p ** w)


def _power_sums(r: int, k_max: int, levels: list[int], p: int,
                w: int) -> list[list[int]]:
    """[sum_{x<p^N} x^k r^x mod p^w for k = 0..k_max], for each N in
    `levels`.

    Mahler expansion: sum_{x<M} f(x) = sum_m (Delta^m f)(0) C(M, m+1).  For
    f_k(x) = x^k r^x and u = r - 1, the coefficients a_{k,m} = (Delta^m
    f_k)(0) satisfy a_{0,m} = u^m and a_{k+1,m} = m (a_{k,m-1} + a_{k,m})
    (from x C(x, m) = (m+1) C(x, m+1) + m C(x, m)), so a_{k,m} = 0 mod
    p^((m-k) v) with v = v_p(u), and K = k_max + ceil(w/v) terms give the
    sums mod p^w.  They do not depend on N; each level then costs only the
    binomials C(p^N, j) = p^(N - v_p(j)) prod_{0<i<j} (p^N - i)/p^v_p(i)
    / (unit part of j!), all of whose factors but the first are units.
    Integer arithmetic mod p^w, no division by p.
    """
    mod = p ** w
    u = (r - 1) % mod
    v = min(_vp(u, p), w)
    if v == 0:
        raise PadicDomainError(
            "q^h must be 1 mod p: x -> q^(hx) is not continuous on Z_p")
    K = k_max + -(-w // v)
    row = [1] * K
    for m in range(1, K):
        row[m] = row[m - 1] * u % mod
    rows = [row]
    for _ in range(k_max):
        row = [0] + [m * (row[m - 1] + row[m]) % mod for m in range(1, K)]
        rows.append(row)
    vs = [0] + [_vp(j, p) for j in range(1, K + 1)]
    units = [j // p ** vs[j] for j in range(K + 1)]
    inv_fact = [1] * (K + 1)      # 1 / (unit part of j!) mod p^w
    for j in range(1, K + 1):
        inv_fact[j] = inv_fact[j - 1] * pow(units[j], -1, mod) % mod
    out = []
    for N in levels:
        binom, num = [], 1        # binom[m] = C(p^N, m+1) mod p^w
        for j in range(1, min(K, p ** N) + 1):
            pe = pow(p, N - vs[j], mod)
            binom.append(pe * num * inv_fact[j] % mod)
            num = num * (pe - units[j]) % mod
        out.append([sum(a * b for a, b in zip(a_k, binom)) % mod
                    for a_k in rows])
    return out


def volkenborn_levels(n_max: int, h: int, q: PadicNumber, levels: list[int],
                      prec: int = DEFAULT_PRECISION) -> dict[int, list[PadicNumber]]:
    """S_N = p^-N sum_{x < p^N} q^{h x} x^n for n = 0..n_max and every N in
    `levels`, from the closed-form power sums of `_power_sums`.

    Each level-N sum is reduced modulo p^(prec + N_max + N), N_max =
    max(levels), and divided by p^N, so every S_N is known to prec + N_max
    absolute digits.
    """
    p = q.p
    n_top = max(levels)
    w = prec + 2 * n_top
    r = _ratio(q, h, n_max, w)
    sums = _power_sums(r, n_max, levels, p, w)
    return {N: [PadicNumber.from_int_mod(p, s, prec + n_top + N)
                / PadicNumber(p, N, 1, w) for s in row]
            for N, row in zip(levels, sums)}


def volkenborn_sum(f: MonomialTestFunction, N: int,
                   prec: int = DEFAULT_PRECISION) -> PadicNumber:
    """Level-N Volkenborn approximant p^-N sum_{x<p^N} f(x)."""
    if N < 1:
        raise ValueError("N must be >= 1")
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
    x0 = Fraction(x0)
    if _vp(x0.denominator, p) > 0:
        raise PadicDomainError("|x0|_p <= 1 required")
    M = p ** N
    # digits lost: v(1-q) + N + v(h+j) in 1 - q^((h+j) M), and about
    # n v(1-q) + N in the sum, whose terms are (1 - q^(x0+x))^n q^(hx)
    w = (prec + N + (n + 1) * (1 - q).valuation()
         + max((_vp(h + j, p) for j in range(n + 1) if h + j), default=0) + 4)
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

def _check_prec_slack(prec: int, slack: int) -> None:
    """A verdict needs at least one digit and a slack that only lowers the bar."""
    if prec < 1:
        raise ValueError(f"precision {prec} must be >= 1")
    if slack < 0:
        raise ValueError(f"slack {slack} must be >= 0")


def witt_verify(h: int, n: int, q: PadicNumber, levels: list[int],
                prec: int = DEFAULT_PRECISION,
                slack: int = DEFAULT_SLACK) -> VerificationReport:
    """S_N -> B_n^{(h)} at the given q: valuations of S_N - target must be
    nondecreasing and reach min(prec, N_max - slack)."""
    _check_prec_slack(prec, slack)
    levels = sorted(levels)
    sums = volkenborn_levels(n, h, q, levels, prec)
    if h == 0:
        target = PadicNumber.from_fraction(q.p, classical_bernoulli(n)[n],
                                           prec + max(levels))
    else:
        qq = q.at_precision(prec + max(levels) + n + 4)
        target = eval_log_scalar_padic(q_bernoulli_number(h, n), qq)
    vals = [(N, (sums[N][n] - target).valuation()) for N in levels]
    seq = [v for _, v in vals]
    ok = all(a <= b for a, b in zip(seq, seq[1:])) and \
        seq[-1] >= min(prec, max(levels) - slack)
    return VerificationReport(
        identity="witt",
        params={"h": h, "n": n, "p": q.p, "prec": prec, "slack": slack},
        witnesses=tuple((f"N={N}", v) for N, v in vals),
        passed=ok,
        levels=tuple(vals),
    )


def _fprime(f: MonomialTestFunction, i: int, w: int) -> PadicNumber:
    """f'(i) = q^{h i} (n i^{n-1} + h log q * i^n)."""
    p = f.q.p
    qw = f.q.at_precision(w)
    n = f.n
    lead = Fraction(n * i ** (n - 1)) if n >= 1 else Fraction(0)
    out = PadicNumber.from_fraction(p, lead, w)
    if f.h:
        out = out + f.h * Fraction(i) ** n * padic_log(qw)
    return padic_pow(qw, f.h * i) * out


def shift_identity_verify(f: MonomialTestFunction, b: int, N: int,
                          prec: int = DEFAULT_PRECISION,
                          slack: int = DEFAULT_SLACK) -> VerificationReport:
    """I_1(f(.+b)) = I_1(f) + sum_{i<b} f'(i) at level N: the residual's
    valuation must be >= N - slack."""
    _check_prec_slack(prec, slack)
    if b < 1:
        raise ValueError("b must be >= 1")
    p = f.q.p
    n = f.n
    w = max(prec, N) + N    # >= N - slack absolute digits after / p^N
    mod = p ** w
    r = _ratio(f.q, f.h, n, w)
    (row,) = _power_sums(r, n, [N], p, w)
    # sum_{x<p^N} r^(x+b) (x+b)^n = r^b sum_j C(n, j) b^(n-j) S_j
    acc_fb = pow(r, b, mod) * sum(comb(n, j) * b ** (n - j) * row[j]
                                  for j in range(n + 1)) % mod
    inv_pn = PadicNumber(p, N, 1, w)
    i_f = PadicNumber.from_int_mod(p, row[n], w) / inv_pn
    i_fb = PadicNumber.from_int_mod(p, acc_fb, w) / inv_pn
    deriv = PadicNumber.zero(p, w)
    for i in range(b):
        deriv = deriv + _fprime(f, i, w)
    residual = i_fb - i_f - deriv
    v = residual.valuation()
    ok = v >= N - slack
    return VerificationReport(
        identity="shift",
        params={"n": f.n, "h": f.h, "b": b, "N": N, "p": p, "slack": slack},
        witnesses=((f"N={N}", v),),
        passed=ok,
        levels=((N, v),),
    )


def closed_form_verify(h: int, t: PadicNumber, q: PadicNumber, N: int,
                       prec: int = DEFAULT_PRECISION,
                       slack: int = DEFAULT_SLACK) -> VerificationReport:
    """Level-N sum of q^{h x} e^{x t} against (h log q + t)/(q^h e^t - 1)."""
    _check_prec_slack(prec, slack)
    p = q.p
    w = prec + N + 6
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
    rhs = num / den
    v = (lhs - rhs).valuation()
    ok = v >= N - slack
    return VerificationReport(
        identity="closed-form",
        params={"h": h, "N": N, "p": p, "slack": slack},
        witnesses=((f"N={N}", v),),
        passed=ok,
        levels=((N, v),),
    )


def padic_generalized_verify(chi: DirichletCharacter, h: int, n: int,
                             q: PadicNumber, levels: list[int],
                             prec: int = DEFAULT_PRECISION,
                             slack: int = DEFAULT_SLACK) -> VerificationReport:
    """(1/(d p^N)) sum_{x < d p^N} chi(x) q^{h x} x^n against the exact
    twisted value, for quadratic chi with gcd(p, d) = 1."""
    _check_prec_slack(prec, slack)
    p = q.p
    d = chi.modulus
    if d % p == 0:
        raise PadicDomainError("need gcd(p, d) = 1")
    if not chi.is_real():
        raise PadicDomainError("p-adic route needs a quadratic character")
    levels = sorted(levels)
    n_top = max(levels)
    w = prec + 2 * n_top
    mod = p ** w
    r = _ratio(q, h, n, w)
    # x = a + d y: sum_x chi(x) r^x x^n
    #   = sum_a chi(a) r^a sum_j C(n, j) a^(n-j) d^j S_j(r^d, p^N)
    chivals = [int(chi.value_rational(a)) for a in range(d)]
    coef = [comb(n, j) * d ** j * sum(chivals[a] * pow(r, a, mod) * a ** (n - j)
                                      for a in range(d)) % mod
            for j in range(n + 1)]
    sums = _power_sums(pow(r, d, mod), n, levels, p, w)
    qq = q.at_precision(prec + n_top + n + 4)
    target = eval_log_scalar_padic(generalized_q_bernoulli_exact(chi, h, n), qq)
    vals = []
    for N, row in zip(levels, sums):
        acc = sum(c * s for c, s in zip(coef, row))
        s = PadicNumber.from_int_mod(p, acc, prec + n_top + N) \
            / PadicNumber(p, N, 1, w) / d
        vals.append((N, (s - target).valuation()))
    seq = [v for _, v in vals]
    ok = seq[-1] >= min(prec, n_top - slack)
    return VerificationReport(
        identity="twisted-volkenborn",
        params={"d": d, "exponents": list(chi.exponents), "h": h, "n": n,
                "p": p, "prec": prec, "slack": slack},
        witnesses=tuple((f"N={N}", v) for N, v in vals),
        passed=ok,
        levels=tuple(vals),
    )
