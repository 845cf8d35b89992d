"""Exact scalar tower: polynomials and rational functions in the
indeterminate q, plus scalars of the form r(q) + l(q)*LAMBDA where LAMBDA
stands for log q as a formal symbol of degree at most one.

Everything here is immutable and exact.  A QPolynomial stores its rational
coefficients only as integers over one common denominator, (ints, den), in
canonical form: ints ascending with no trailing zeros, den > 0 and
gcd(den, *ints) == 1, so the zero polynomial is ((), 1).  Equal polynomials
have equal (ints, den); ``.coeffs`` derives the ``fractions.Fraction``
coefficients on access.

Invariant: every denominator is q^a * prod_{d>=1} Phi_d(q)^e_d, a power of
q times cyclotomic polynomials, which is all that the generating function
(h log q + t)/(q^h e^t - 1) ever puts there.  A RationalFunction stores the
exponents {d: e_d} (Phi_0 = q): products add them, sums take their maximum,
and lowest terms come from exact integer division of the numerator by the
monic Phi_d, with no polynomial gcd.  A denominator with any other factor
raises DomainError.  The exact types have `+`, `-`, `*` and rational
scalars, and no `/` or `**`: a quotient is built as RationalFunction(num,
den).

Only this module reads that format: `rf_sum` and both identity checks of
qbernoulli lift with `_lift_all` to integer numerator lists over one common
denominator, and `_lower` turns such a list back into lowest terms.
qbernoulli's closed form for q^{h a} B_{n, q^d}^{(h)}(a/d) hands `_lower`
numerators with nothing to cancel: each is over a power of q^{|h| d} - 1,
and at q^{|h| d} = 1, where every factor of that denominator vanishes, its
Eulerian factor is d^m m! != 0.  For the distribution check,
`_lift_to_power` reads values at q^m from the same lift: the rows over L,
read in Q = q^m, are the numerators over L(q^m), so no substituted
coefficient is lifted.  Those rows come from the polynomial, which lifts
its coefficients over L once (`XPolynomial._lifted`), so each m lifts only
to lcm(L, L(q^m)).  The lift multiplies in the binomial basis (`_expand`):
prod_d Phi_d^e_d = prod_M (q^M - 1)^E_M, by sparse products with the
cached binomials (q^M - 1)^E_M for E_M > 0 and then exact divisions by
prefix sums for E_M < 0, with no dense cyclotomic power.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, zip_longest
from math import comb, gcd, lcm
from typing import Iterable, Sequence

from ._base import _Frozen, euler_phi


class ExactError(ArithmeticError):
    pass


class LogDegreeOverflow(ExactError):
    """Raised when a product would carry (log q)^2."""


class PoleError(ExactError):
    """Denominator vanishes at the evaluation point."""


class DomainError(ExactError, ValueError):
    pass


def _trim(c: list) -> list:
    """Drop the trailing zeros of a coefficient list, in place."""
    while c and not c[-1]:
        c.pop()
    return c


# -- cyclotomic polynomials: the only denominator factors, Phi_0 = q ----------

def _divmod_monic(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by the monic b, both integer polynomials;
    exact integer long division, no gcd."""
    nb = len(b) - 1
    terms = [(j, c) for j, c in enumerate(b[:-1]) if c]
    r = list(a)
    quo = [0] * max(len(a) - nb, 0)
    for i in range(len(quo) - 1, -1, -1):
        k = r[i + nb]
        if k:
            quo[i] = k
            for j, c in terms:
                r[i + j] -= k * c
    return quo, _trim(r[:nb])


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Coefficients of Phi_d, ascending; Phi_0 = q by convention.  Expanded
    from its exponents in the binomial basis (`_binomial_exponents`)."""
    return _expand({d: 1}).ints


def _subst_exps(exps: dict, m: int) -> dict:
    """The exponents of prod_d Phi_d(q^m)^exps[d]: Phi_0(q^m) = q^m, and
    Phi_d(q^m), d >= 1, is the product of the Phi_c with c | d m and
    c / gcd(c, m) = d, so each c comes from one d only."""
    out = {}
    for d, e in exps.items():
        if d == 0:
            out[0] = m * e
        else:
            out.update((c, e) for c in range(1, d * m + 1)
                       if d * m % c == 0 and c // gcd(c, m) == d)
    return out


def _cancel(ints: Sequence[int], exps: dict, check) -> tuple[list[int], dict]:
    """Divide the integer polynomial `ints` by Phi_d, for each d in `check`,
    as often as it divides and at most exps[d] times: (quotient, the
    exponents left)."""
    left = dict(exps)
    for d in check:
        while left[d]:
            quo, rem = _divmod_monic(ints, _cyclotomic(d))
            if rem:
                break
            ints, left[d] = quo, left[d] - 1
    return ints, {d: e for d, e in left.items() if e}


def _cyclotomic_factors(p: "QPolynomial") -> tuple[Fraction, dict] | None:
    """(c, {d: e}) with p = c * prod_d Phi_d^e (Phi_0 = q), or None when p
    has any other factor.  Trial division by every Phi_d of degree
    phi(d) <= deg; phi(d) >= sqrt(d/2) bounds d by 2 deg^2."""
    ints = p.ints
    a = next(i for i, c in enumerate(ints) if c)
    lead = ints[-1]
    if abs(ints[a]) != abs(lead) or any(c % lead for c in ints[a:]):
        return None
    rest = [c // lead for c in ints[a:]]
    exps = {0: a}
    d = 1
    while len(rest) > 1 and d <= 2 * (len(rest) - 1) ** 2:
        if euler_phi(d) < len(rest):
            n = len(rest) - 1
            rest, left = _cancel(rest, {d: n}, [d])
            exps[d] = n - left.get(d, 0)
        d += 1
    if len(rest) > 1:
        return None
    return Fraction(lead, p.den), {d: e for d, e in exps.items() if e}

# ---------------------------------------------------------------------------
# the operators every number type derives from its primitives
# ---------------------------------------------------------------------------

class _Ring:
    """`-`, `==`, `hash` and the reflected operators, from a type's
    `_coerce` (its own type, or None for a foreign operand), `+`, unary `-`
    and `*`.  A foreign operand, such as a p-adic number met by an exact
    one, gets NotImplemented both ways, so Python raises TypeError."""

    __slots__ = ()

    def __hash__(self):
        """Equal across the exact types, int and Fraction: a constant's is
        its Fraction's, any other value's that of its LogScalar normal form."""
        v = self if isinstance(self, LogScalar) else LogScalar(self)
        if not v.log and not v.rat.exps and v.rat.num.degree < 1:
            return hash(v.rat.num(0))
        return hash(tuple((r.num.ints, r.num.den, tuple(sorted(r.exps.items())))
                          for r in (v.rat, v.log)))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._key() == o._key()

    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self


# ---------------------------------------------------------------------------
# public polynomial type
# ---------------------------------------------------------------------------

class QPolynomial(_Ring, _Frozen):
    """Univariate polynomial in q with rational coefficients, stored only as
    integers over a common denominator, ints / den, in the canonical form of
    the module docstring."""

    __slots__ = ("ints", "den")

    def __new__(cls, coeffs: Iterable = ()):  # accepts ints/Fractions
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(
                    f"expected int or Fraction, got {type(c).__name__}")
        den = lcm(*(c.denominator for c in coeffs))
        return cls._raw([c.numerator * (den // c.denominator)
                         for c in coeffs], den)

    @classmethod
    def _raw(cls, ints: list[int], den: int = 1) -> "QPolynomial":
        """ints / den, den > 0, in canonical form; trims `ints` in place."""
        _trim(ints)
        if den != 1:
            g = gcd(den, *ints)
            if g != 1:
                ints, den = [c // g for c in ints], den // g
        obj = object.__new__(cls)
        object.__setattr__(obj, "ints", tuple(ints))
        object.__setattr__(obj, "den", den)
        return obj

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending, derived on access."""
        return tuple(Fraction(c, self.den) for c in self.ints)

    @classmethod
    def monomial(cls, n: int, c=1) -> "QPolynomial":
        return cls([0] * n + [c])

    @property
    def degree(self) -> int:
        return len(self.ints) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.ints

    def __bool__(self) -> bool:
        return bool(self.ints)

    def _coerce(self, other):
        if isinstance(other, QPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return QPolynomial([other])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = lcm(self.den, o.den)
        ka, kb = d // self.den, d // o.den
        return QPolynomial._raw([ka * x + kb * y for x, y in zip_longest(
            self.ints, o.ints, fillvalue=0)], d)

    def __neg__(self):
        return QPolynomial._raw([-c for c in self.ints], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPolynomial._raw([c * other.numerator for c in self.ints],
                                    self.den * other.denominator)
        if isinstance(other, QPolynomial):
            # over the nonzero terms only: the binomials of _expand are sparse
            b = [(j, y) for j, y in enumerate(other.ints) if y]
            out = [0] * (len(self.ints) + len(other.ints) - 1)
            for i, x in enumerate(self.ints):
                if x:
                    for j, y in b:
                        out[i + j] += x * y
            return QPolynomial._raw(out, self.den * other.den)
        return NotImplemented

    def gcd(self, other: "QPolynomial") -> "QPolynomial":
        """Monic gcd over Q by Euclid's algorithm.  No arithmetic path uses
        it: denominators are kept factored (see RationalFunction)."""
        a, b = list(self.coeffs), list(other.coeffs)
        while b:
            r = a
            while len(r) >= len(b):
                k = r[-1] / b[-1]
                shift = len(r) - len(b)
                r = _trim([c - k * b[i - shift] if i >= shift else c
                           for i, c in enumerate(r)])
            a, b = b, [c / r[-1] for c in r] if r else r
        return QPolynomial([c / a[-1] for c in a])

    def eval_pair(self, x: Fraction) -> tuple[int, int]:
        """The value at x = a/b as (numerator, denominator), in integers and
        not in lowest terms: Horner's rule gives sum_i c_i a^i b^(D - i), D
        the degree, over den b^D."""
        if not self.ints:
            return 0, 1
        a, b = x.numerator, x.denominator
        acc, bk = self.ints[-1], 1
        for c in reversed(self.ints[:-1]):
            bk *= b
            acc = acc * a + c * bk
        return acc, self.den * bk

    def __call__(self, x: Fraction) -> Fraction:
        return Fraction(*self.eval_pair(x))

    def eval_complex(self, x: complex) -> complex:
        # c / den per coefficient: int / int is correctly rounded, so each
        # term is the float nearest the exact coefficient
        acc = 0j
        for c in reversed(self.ints):
            acc = acc * x + c / self.den
        return acc

    def __repr__(self):
        if not self.ints:
            return "QPolynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*q^{i}" if i else f"{c}")
        return "QPolynomial(" + " + ".join(terms) + ")"


_P1 = QPolynomial([1])


# ---------------------------------------------------------------------------
# rational functions of q over cyclotomic denominators, always in lowest terms
# ---------------------------------------------------------------------------

def _expand(exps: dict, num: QPolynomial = _P1) -> QPolynomial:
    """num * prod_d Phi_d^exps[d], expanded.  exps[0] (Phi_0 = q) is >= 0;
    any other exponent may be negative and divides exactly, with ExactError
    where the result is not a polynomial.

    In the binomial basis prod_d Phi_d^e_d = prod_M (q^M - 1)^E_M.  num is
    first multiplied by the sparse (q^M - 1)^E_M for each E_M > 0, then
    divided by (1 - q^M)^u, u = -E_M, for each E_M < 0: u prefix sums down
    each residue column mod M that holds a nonzero (a column of zeros stays
    zero, and at |h| > 1 a numerator of B_n^{(h)} lives on one residue
    class mod |h|).  Past the quotient's degree, u M zero coefficients in a
    row force every later one to 0 by the recurrence of (1 - q^M)^u, so one
    check of that tail proves the division exact.  The sign (-1)^u of each
    division is applied once at the end, and q^a as a shift."""
    total = {}
    for d, e in exps.items():
        if d:
            for m, k in _binomial_exponents(d):
                total[m] = total.get(m, 0) + k * e
    prod = num
    for m, e in sorted(total.items()):
        if e > 0:
            prod = prod * _binomial(m, e)
    ints, flips = list(prod.ints), 0
    for m, e in total.items():
        if e < 0:
            out = ints[:]
            for r in range(m):
                col = ints[r::m]
                if any(col):
                    for _ in range(-e):
                        col = accumulate(col)
                    out[r::m] = col
            cut = max(len(out) + m * e, 0)
            if any(out[cut:]):
                raise ExactError(f"{num!r} times the cyclotomic powers {exps} "
                                 "is not a polynomial")
            ints, flips = out[:cut], flips - e
    lead = [0] * exps.get(0, 0)
    return QPolynomial._raw(lead + [-c for c in ints] if flips % 2
                            else lead + ints, prod.den)


@lru_cache(maxsize=None)
def _binomial(m: int, e: int) -> QPolynomial:
    """(q^m - 1)^e, e >= 1, expanded."""
    binom = [0] * (m * e + 1)
    binom[::m] = [(-1) ** (e - k) * comb(e, k) for k in range(e + 1)]
    return QPolynomial._raw(binom)


@lru_cache(maxsize=None)
def _binomial_exponents(d: int) -> tuple[tuple[int, int], ...]:
    """The pairs (M, E) with Phi_d = prod_M (q^M - 1)^E, d >= 1: Phi_d is
    q^d - 1 over the Phi_c, c | d, c < d."""
    out = {d: 1}
    for c in range(1, d):
        if d % c == 0:
            for m, e in _binomial_exponents(c):
                out[m] = out.get(m, 0) - e
    return tuple((m, e) for m, e in out.items() if e)


class RationalFunction(_Ring, _Frozen):
    """num / den in lowest terms, den = prod_d Phi_d^exps[d] with Phi_0 = q
    (see the module docstring); `den`, expanded, is built on first use."""

    __slots__ = ("num", "exps", "_den")

    def __init__(self, num=0, den=1):
        num = num if isinstance(num, QPolynomial) else QPolynomial(
            num if isinstance(num, (list, tuple)) else [num])
        den = den if isinstance(den, QPolynomial) else QPolynomial(
            den if isinstance(den, (list, tuple)) else [den])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        factored = _cyclotomic_factors(den)
        if factored is None:
            raise DomainError(f"denominator {den!r} is not q^a times a "
                              "product of cyclotomic polynomials")
        lead, exps = factored
        num = num * (1 / lead)
        low = _lower(list(num.ints), num.den, exps, exps)
        self._set(low.num, low.exps, None)

    @classmethod
    def _raw(cls, num: QPolynomial, exps: dict) -> "RationalFunction":
        """num / prod Phi_d^exps[d], already in lowest terms."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "exps", exps)
        object.__setattr__(obj, "_den", None)
        return obj

    @classmethod
    def q_power(cls, k: int) -> "RationalFunction":
        """q^k for any integer k."""
        if k >= 0:
            return cls._raw(QPolynomial.monomial(k), {})
        return cls._raw(_P1, {0: -k})

    @property
    def den(self) -> QPolynomial:
        if self._den is None:
            object.__setattr__(self, "_den", _expand(self.exps))
        return self._den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction._raw(QPolynomial([other]), {})
        if isinstance(other, QPolynomial):
            return RationalFunction._raw(other, {})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return rf_sum((self, o))

    def __neg__(self):
        return RationalFunction._raw(-self.num, self.exps)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return _RF0
            return RationalFunction._raw(self.num * other, self.exps)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num or not o.num:
            return _RF0
        # each numerator is coprime to its own denominator, so only the
        # other one's factors can cancel
        a = _lower(list(self.num.ints), self.num.den, o.exps, o.exps)
        b = _lower(list(o.num.ints), o.num.den, self.exps, self.exps)
        exps = dict(b.exps)
        for d, e in a.exps.items():
            exps[d] = exps.get(d, 0) + e
        return RationalFunction._raw(a.num * b.num, exps)

    def eval_pair(self, x: Fraction) -> tuple[int, int]:
        """The value at x as (numerator, denominator), not in lowest terms."""
        c, d = self.den.eval_pair(x)
        if not c:
            raise PoleError(f"pole of rational function at q={x}")
        a, b = self.num.eval_pair(x)
        return a * d, b * c

    def eval_fraction(self, x: Fraction) -> Fraction:
        return Fraction(*self.eval_pair(x))

    def eval_complex(self, x: complex) -> complex:
        dv = self.den.eval_complex(x)
        if dv == 0:
            raise PoleError(f"pole of rational function at q={x}")
        return self.num.eval_complex(x) / dv

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


_RF0 = RationalFunction._raw(QPolynomial(), {})


def _lift_all(parts, s: int = 0,
              top: dict | None = None) -> tuple[dict, int, list[list[int]]]:
    """Lift the rational functions `parts` once to their least common
    denominator, or to the multiple of it whose exponents are `top`, times
    q^s: (its exponents, an integer D, one integer list per part, all of one
    length), where part i has the numerator q^s * lists[i] / D over that
    denominator.  D does not depend on `top`: a lift multiplies by a monic
    integer polynomial, which keeps the content of the numerator."""
    if top is None:
        top = {}
        for r in parts:
            for d, e in r.exps.items():
                if e > top.get(d, 0):
                    top[d] = e
    nums = []
    for r in parts:   # times the factors of top that its denominator lacks
        lift = _excess(top, r.exps)
        nums.append(_expand(lift, r.num) if lift else r.num)
    den = lcm(*(p.den for p in nums))
    width = max((len(p.ints) for p in nums), default=0)
    rows = []
    for p in nums:
        k = den // p.den
        rows.append([c * k for c in p.ints] + [0] * (width - len(p.ints)))
    return {**top, 0: top.get(0, 0) + s} if s else top, den, rows


def _excess(top: dict, exps: dict) -> dict:
    """The exponents of the factors of `top` that `exps` lacks."""
    return {d: e - exps.get(d, 0) for d, e in top.items()
            if e > exps.get(d, 0)}


def _lift_to_power(parts, lift, m: int, s: int = 0):
    """Compare the rational functions `parts` with their values at q^m from
    one lift in q: (top, D, lhs, rows, up).  `lift` is `_lift_all(parts)`,
    (L, D, rows), which the distribution check keeps on the polynomial
    (`XPolynomial._lifted`), so a new m pays only the lift to top.
    rows[i] / D is part i over the least common denominator L, and the same
    list read in Q = q^m is the numerator of part i at q^m over L(q^m), so
    nothing substituted is lifted.  top holds the exponents of
    lcm(L, L(q^m)) times q^s, and q^s lhs[i] / D is part i over it (rows
    itself where that is L).  up(ints) lifts a numerator over L(q^m) q^s to
    top: times the factors of L that q -> q^m does not give back, as
    Phi_4(q^2) = Phi_8 does not give back Phi_4; a power of q^k - 1 has
    none.  The lists of lhs and of up may differ in length."""
    low, den, rows = lift
    high = _subst_exps(low, m)
    top = {d: max(low.get(d, 0), high.get(d, 0)) for d in {**low, **high}}
    full, _, lhs = (low, den, rows) if top == low and not s else \
        _lift_all(parts, s, top)
    extra = _excess(top, high)

    def up(ints: list[int]) -> list[int]:
        return (list(_expand(extra, QPolynomial._raw(list(ints))).ints)
                if extra else ints)
    return full, den, lhs, rows, up


def _lower(ints: list[int], den: int, exps: dict, check) -> RationalFunction:
    """ints / den over prod Phi_d^exps[d], with each Phi_d, d in `check`,
    cancelled from the numerator (a list it takes over) as often as it
    divides: the one step that brings a value to lowest terms."""
    if not any(ints):
        return _RF0
    quo, left = _cancel(ints, exps, check)
    return RationalFunction._raw(QPolynomial._raw(quo, den), left)


def rf_sum(parts) -> RationalFunction:
    """Sum over the least common denominator, whose exponent of each Phi_d
    is the largest among the parts: the column sums of `_lift_all`.  Phi_d
    can divide the summed numerator only where two or more parts reach that
    largest exponent."""
    parts = [p for p in parts if p]
    top, den, rows = _lift_all(parts)
    reached = [d for d, e in top.items()
               if sum(p.exps.get(d, 0) == e for p in parts) > 1]
    return _lower(list(map(sum, zip(*rows))), den, top, reached)


# ---------------------------------------------------------------------------
# log-extended scalars
# ---------------------------------------------------------------------------

class LogScalar(_Ring, _Frozen):
    """r(q) + l(q)*LAMBDA with LAMBDA = log q, both components rational
    functions of q.  LAMBDA has formal degree one: multiplying two scalars
    that both carry a log part raises LogDegreeOverflow."""

    __slots__ = ("rat", "log")

    def __init__(self, rat=0, log=0):
        rat = rat if isinstance(rat, RationalFunction) else RationalFunction(rat)
        log = log if isinstance(log, RationalFunction) else RationalFunction(log)
        self._set(rat, log)

    def is_zero(self) -> bool:
        return self.rat.is_zero() and self.log.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, LogScalar):
            return other
        if isinstance(other, (int, Fraction, QPolynomial, RationalFunction)):
            return LogScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LogScalar(self.rat + o.rat, self.log + o.log)

    def __neg__(self):
        return LogScalar(-self.rat, -self.log)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LogScalar(self.rat * other, self.log * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.log.is_zero():
            if not self.log.is_zero():
                raise LogDegreeOverflow("log-degree overflow: LAMBDA * LAMBDA")
            return LogScalar(self.rat * o.rat, self.rat * o.log)
        return LogScalar(self.rat * o.rat, self.log * o.rat)

    # -- JSON interchange ---------------------------------------------------

    def to_json_dict(self) -> dict:
        def poly(p: QPolynomial) -> list[str]:   # den > 0: gcd(0, den) = den
            return [f"{c // g}/{p.den // g}" for c in p.ints
                    for g in (gcd(c, p.den),)]

        def rf(r: RationalFunction) -> dict:
            return {"num": poly(r.num), "den": poly(r.den)}

        return {"rat": rf(self.rat), "log": rf(self.log)}

    def __repr__(self):
        return f"LogScalar({self.rat!r}, {self.log!r})"


_LS0 = LogScalar()


def _in_unit_disc(qv) -> complex:
    """complex(qv), which must satisfy 0 < |qv| < 1; a NaN fails too."""
    qv = complex(qv)
    if not 0 < abs(qv) < 1:
        raise DomainError("need 0 < |q| < 1")
    return qv


def eval_log_scalar_complex(a: LogScalar, qv: complex) -> complex:
    """Numeric value of a at q = qv, 0 < |qv| < 1, principal log branch."""
    qv = _in_unit_disc(qv)
    out = a.rat.eval_complex(qv)
    if a.log:
        out += a.log.eval_complex(qv) * cmath.log(qv)
    return out


# ---------------------------------------------------------------------------
# polynomials in x with LogScalar coefficients
# ---------------------------------------------------------------------------

class XPolynomial(_Frozen):
    """Polynomial in x whose coefficients are LogScalar values; `_lifted`,
    their lift per component, is built on first use."""

    __slots__ = ("coeffs", "_lifts")

    def __init__(self, coeffs: Iterable = ()):
        c = [x if isinstance(x, LogScalar) else LogScalar(x) for x in coeffs]
        while c and c[-1].is_zero():
            c.pop()
        self._set(tuple(c), None)

    def _lifted(self, part: str) -> tuple[list, tuple]:
        """(the coefficients' `part`, "rat" or "log", and their `_lift_all`
        over the least common denominator), built for both parts on first
        use; the caller only reads them."""
        if self._lifts is None:
            lifts = {}
            for p in ("rat", "log"):
                parts = [getattr(c, p) for c in self.coeffs]
                lifts[p] = parts, _lift_all(parts)
            object.__setattr__(self, "_lifts", lifts)
        return self._lifts[part]

    def eval_fraction(self, x: Fraction) -> LogScalar:
        """The value at x, by Horner's rule in LogScalar arithmetic."""
        acc = _LS0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_complex(self, x: complex, qv: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + eval_log_scalar_complex(c, qv)
        return acc

    def __repr__(self):
        return f"XPolynomial({list(self.coeffs)!r})"
