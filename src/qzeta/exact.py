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
raises DomainError; inverting such a numerator raises NonInvertible.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, gcd, lcm
from typing import Iterable, Sequence

from .characters import euler_phi


class ExactError(ArithmeticError):
    pass


class LogDegreeOverflow(ExactError):
    """Raised when a product would carry (log q)^2."""


class NonInvertible(ExactError):
    pass


class PoleError(ExactError):
    """Denominator vanishes at the evaluation point."""


class DomainError(ExactError):
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
    """Coefficients of Phi_d, ascending; Phi_0 = q by convention."""
    if d == 0:
        return (0, 1)
    a = [-1] + [0] * (d - 1) + [1]           # q^d - 1 = prod_{c | d} Phi_c
    for c in range(1, d):
        if d % c == 0:
            a = _divmod_monic(a, _cyclotomic(c))[0]
    return tuple(a)


@lru_cache(maxsize=None)
def _subst_factors(d: int, m: int) -> tuple[int, ...]:
    """The factors c of Phi_d(q^m) = prod Phi_c: q^m for d = 0, else every
    c | d m with c / gcd(c, m) = d."""
    if d == 0:
        return (0,) * m
    return tuple(c for c in range(1, d * m + 1)
                 if d * m % c == 0 and c // gcd(c, m) == d)


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
# public polynomial type
# ---------------------------------------------------------------------------

class QPolynomial:
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

    def __setattr__(self, *a):
        raise AttributeError("QPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.ints) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.ints

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPolynomial):
            return self.ints == other.ints and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == QPolynomial([other])
        return NotImplemented

    def __hash__(self):
        return hash((self.ints, self.den))

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

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial._raw([-c for c in self.ints], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPolynomial._raw([c * other.numerator for c in self.ints],
                                    self.den * other.denominator)
        if isinstance(other, QPolynomial):
            a, b = self.ints, other.ints
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            return QPolynomial._raw(out, self.den * other.den)
        return NotImplemented

    __rmul__ = __mul__

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

    def subst_q_power(self, m: int) -> "QPolynomial":
        out = [0] * ((len(self.ints) - 1) * m + 1)
        out[::m] = self.ints
        return QPolynomial._raw(out, self.den)

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.ints):
            acc = acc * x + c
        return acc / self.den

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


_P0 = QPolynomial()
_P1 = QPolynomial([1])


# ---------------------------------------------------------------------------
# rational functions of q over cyclotomic denominators, always in lowest terms
# ---------------------------------------------------------------------------

def _expand(exps: dict) -> QPolynomial:
    """prod_d Phi_d^exps[d], expanded."""
    out = _P1
    for d, e in sorted(exps.items()):
        out = out * _phi_power(d, e)
    return out


@lru_cache(maxsize=None)
def _phi_power(d: int, e: int) -> QPolynomial:
    if e == 1:
        return QPolynomial(_cyclotomic(d))
    return _phi_power(d, e // 2) * _phi_power(d, e - e // 2)


def _lowest(num: QPolynomial, exps: dict, check) -> tuple[QPolynomial, dict]:
    """num / prod Phi_d^exps[d] with the factors Phi_d, d in `check`,
    cancelled from num."""
    if not num:
        return num, {}
    quo, left = _cancel(num.ints, exps, check)
    if quo is not num.ints:
        num = QPolynomial._raw(quo, num.den)
    return num, left


class RationalFunction:
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
        num, exps = _lowest(num * (1 / lead), exps, exps)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "_den", None)

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

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    @property
    def den(self) -> QPolynomial:
        if self._den is None:
            object.__setattr__(self, "_den", _expand(self.exps))
        return self._den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(other)
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.exps == other.exps
        return NotImplemented

    def __hash__(self):
        return hash((self.num, frozenset(self.exps.items())))

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

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._raw(-self.num, self.exps)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

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
        n1, e2 = _lowest(self.num, o.exps, o.exps)
        n2, e1 = _lowest(o.num, self.exps, self.exps)
        exps = dict(e1)
        for d, e in e2.items():
            exps[d] = exps.get(d, 0) + e
        return RationalFunction._raw(n1 * n2, exps)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RationalFunction":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = RationalFunction._raw(_P1, {})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise NonInvertible("division by zero rational function")
        factored = _cyclotomic_factors(self.num)
        if factored is None:
            raise NonInvertible(f"numerator {self.num!r} is not q^a times a "
                                "product of cyclotomic polynomials")
        lead, exps = factored
        return RationalFunction._raw(self.den * (1 / lead), exps)

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

    def subst_q_power(self, m: int) -> "RationalFunction":
        """q -> q^m.  Stays in lowest terms: q -> q^m sends each root of a
        new factor Phi_c to a root of Phi_d, where the numerator is not 0."""
        if m < 1:
            raise DomainError("substitution exponent must be >= 1")
        if m == 1:
            return self
        exps = {}
        for d, e in self.exps.items():
            for c in _subst_factors(d, m):
                exps[c] = exps.get(c, 0) + e
        return RationalFunction._raw(self.num.subst_q_power(m), exps)

    def eval_fraction(self, x: Fraction) -> Fraction:
        dv = self.den(x)
        if not dv:
            raise PoleError(f"pole of rational function at q={x}")
        return self.num(x) / dv

    def eval_complex(self, x: complex) -> complex:
        dv = self.den.eval_complex(x)
        if dv == 0:
            raise PoleError(f"pole of rational function at q={x}")
        return self.num.eval_complex(x) / dv

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


_RF0 = RationalFunction._raw(_P0, {})


def rf_sum(parts) -> RationalFunction:
    """Sum over the least common denominator, whose exponent of each Phi_d
    is the largest among the parts.  Phi_d can divide the summed numerator
    only where two or more parts reach that largest exponent."""
    parts = [p for p in parts if not p.is_zero()]
    top, reached = {}, {}
    for p in parts:
        for d, e in p.exps.items():
            if e > top.get(d, 0):
                top[d], reached[d] = e, 1
            elif e == top[d]:
                reached[d] += 1
    num = _P0
    for p in parts:
        lift = {d: e - p.exps.get(d, 0) for d, e in top.items()
                if e > p.exps.get(d, 0)}
        num = num + (p.num * _expand(lift) if lift else p.num)
    return RationalFunction._raw(
        *_lowest(num, top, [d for d, k in reached.items() if k > 1]))


# ---------------------------------------------------------------------------
# log-extended scalars
# ---------------------------------------------------------------------------

class LogScalar:
    """r(q) + l(q)*LAMBDA with LAMBDA = log q, both components rational
    functions of q.  LAMBDA has formal degree one: multiplying two scalars
    that both carry a log part raises LogDegreeOverflow."""

    __slots__ = ("rat", "log")

    def __init__(self, rat=0, log=0):
        rat = rat if isinstance(rat, RationalFunction) else RationalFunction(rat)
        log = log if isinstance(log, RationalFunction) else RationalFunction(log)
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "log", log)

    def __setattr__(self, *a):
        raise AttributeError("LogScalar is immutable")

    @classmethod
    def lam(cls, coeff=1) -> "LogScalar":
        """coeff * LAMBDA."""
        return cls(0, coeff)

    @classmethod
    def one(cls) -> "LogScalar":
        return _LS1

    @classmethod
    def zero(cls) -> "LogScalar":
        return _LS0

    def is_zero(self) -> bool:
        return self.rat.is_zero() and self.log.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.rat == o.rat and self.log == o.log

    def __hash__(self):
        return hash((self.rat, self.log))

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

    __radd__ = __add__

    def __neg__(self):
        return LogScalar(-self.rat, -self.log)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

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

    __rmul__ = __mul__

    def inverse(self) -> "LogScalar":
        if not self.log.is_zero():
            raise NonInvertible("non-invertible: scalar carries a log part")
        return LogScalar(self.rat.inverse())

    def __truediv__(self, other):
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, Fraction):
            return LogScalar(self.rat * (1 / other), self.log * (1 / other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def subst_q_power(self, m: int) -> "LogScalar":
        """q -> q^m; the LAMBDA coefficient picks up a factor m since
        log q^m = m log q."""
        if m < 1:
            raise DomainError("substitution exponent must be >= 1")
        return LogScalar(self.rat.subst_q_power(m),
                         self.log.subst_q_power(m) * m)

    def eval_complex(self, qv: complex) -> complex:
        return eval_log_scalar_complex(self, qv)

    # -- JSON interchange ---------------------------------------------------

    def to_json_dict(self) -> dict:
        def poly(p: QPolynomial) -> list[str]:
            return [f"{c.numerator}/{c.denominator}" for c in p.coeffs]

        def rf(r: RationalFunction) -> dict:
            return {"num": poly(r.num), "den": poly(r.den)}

        return {"rat": rf(self.rat), "log": rf(self.log)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "LogScalar":
        def poly(cs: list[str]) -> QPolynomial:
            return QPolynomial([Fraction(c) for c in cs])

        def rf(r: dict) -> RationalFunction:
            return RationalFunction(poly(r["num"]), poly(r["den"]))

        return cls(rf(d["rat"]), rf(d["log"]))

    def __repr__(self):
        return f"LogScalar({self.rat!r}, {self.log!r})"


_LS0 = LogScalar()
_LS1 = LogScalar(1)


def log_scalar_sum(parts) -> LogScalar:
    """Componentwise rf_sum over a list of LogScalar terms."""
    parts = list(parts)
    if not parts:
        return _LS0
    return LogScalar(rf_sum([p.rat for p in parts]),
                     rf_sum([p.log for p in parts]))


def eval_log_scalar_complex(a: LogScalar, qv: complex) -> complex:
    """Numeric value of a at q = qv, 0 < |qv| < 1, principal log branch."""
    qv = complex(qv)
    if qv == 0:
        raise DomainError("q = 0 is outside the evaluation domain")
    if abs(qv) >= 1:
        raise DomainError("complex evaluation requires |q| < 1")
    out = a.rat.eval_complex(qv)
    if a.log:
        out += a.log.eval_complex(qv) * cmath.log(qv)
    return out


def eval_log_scalar_mp(a: LogScalar, q: Fraction, dps: int = 60):
    """High-precision real evaluation at exact rational q > 0.

    The rational components are evaluated exactly; only log q and the final
    combination are floating point (mpmath at `dps` digits).  Used where the
    two components nearly cancel, e.g. q close to 1.
    """
    import mpmath as mp

    q = Fraction(q)
    if q <= 0:
        raise DomainError("mp evaluation requires rational q > 0")
    with mp.workdps(dps):
        rv = a.rat.eval_fraction(q)
        out = mp.mpf(rv.numerator) / mp.mpf(rv.denominator)
        if a.log:
            lv = a.log.eval_fraction(q)
            lf = mp.mpf(lv.numerator) / mp.mpf(lv.denominator)
            out += lf * mp.log(mp.mpf(q.numerator) / mp.mpf(q.denominator))
        return out


# ---------------------------------------------------------------------------
# polynomials in x with LogScalar coefficients
# ---------------------------------------------------------------------------

class XPolynomial:
    """Polynomial in x whose coefficients are LogScalar values."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        c = [x if isinstance(x, LogScalar) else LogScalar(x) for x in coeffs]
        while c and c[-1].is_zero():
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, *a):
        raise AttributeError("XPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> LogScalar:
        return self.coeffs[k] if k < len(self.coeffs) else _LS0

    def __eq__(self, other):
        if isinstance(other, XPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, XPolynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return XPolynomial([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        if not isinstance(other, XPolynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return XPolynomial([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RationalFunction, LogScalar)):
            return XPolynomial([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def eval_fraction(self, x: Fraction) -> LogScalar:
        acc = _LS0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_complex(self, x: complex, qv: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + eval_log_scalar_complex(c, qv)
        return acc

    def compose_affine(self, a: Fraction, b: Fraction) -> "XPolynomial":
        """P(a*x + b), exact in a, b rational."""
        a, b = Fraction(a), Fraction(b)
        n = len(self.coeffs)
        buckets: list[list[LogScalar]] = [[] for _ in range(n)]
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            # (a x + b)^k expanded
            for j in range(k + 1):
                buckets[j].append(c * (comb(k, j) * a ** j * b ** (k - j)))
        return XPolynomial([log_scalar_sum(bk) for bk in buckets])

    def subst_q_power(self, m: int) -> "XPolynomial":
        return XPolynomial([c.subst_q_power(m) for c in self.coeffs])

    def __repr__(self):
        return f"XPolynomial({list(self.coeffs)!r})"
