"""Exact scalar tower: polynomials and rational functions in the
indeterminate q, plus scalars of the form r(q) + l(q)*LAMBDA where LAMBDA
stands for log q as a formal symbol of degree at most one.

Everything here is immutable and exact; coefficients are arbitrary-precision
rationals (``fractions.Fraction``).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Sequence


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


_F0 = Fraction(0)
_F1 = Fraction(1)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficient lists, ascending degree, trimmed)
# ---------------------------------------------------------------------------

def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _padd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list:
    n = max(len(a), len(b))
    out = [_F0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] += x
    return _trim(out)


def _pneg(a: Sequence[Fraction]) -> list:
    return [-x for x in a]


def _psub(a, b) -> list:
    return _padd(a, _pneg(b))


def _pscale(a: Sequence[Fraction], k: Fraction) -> list:
    if not k:
        return []
    return [x * k for x in a]


def _peval(a: Sequence[Fraction], x):
    """Horner evaluation; x may be a Fraction or any ring element that
    supports `x * self + Fraction`."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _peval_complex(a: Sequence[Fraction], x: complex) -> complex:
    acc = 0j
    for c in reversed(a):
        acc = acc * x + c.numerator / c.denominator
    return acc


def _psubst_pow(a: Sequence[Fraction], m: int) -> list:
    if m == 1 or not a:
        return list(a)
    out = [_F0] * ((len(a) - 1) * m + 1)
    for i, c in enumerate(a):
        out[i * m] = c
    return _trim(out)


# -- polynomial gcd: heuristic (evaluate at a big integer) with a primitive
#    pseudo-remainder fallback ------------------------------------------------

def _int_primitive(a: list[int]) -> list[int]:
    g = 0
    for c in a:
        g = gcd(g, c)
        if g == 1:
            return a
    if g == 0:
        return a
    return [c // g for c in a]


def _int_eval(a: list[int], x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _balanced_digits(n: int, base: int) -> list[int]:
    out = []
    while n:
        d = n % base
        if d > base // 2:
            d -= base
        out.append(d)
        n = (n - d) // base
    return out


def _int_prem(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder of f by g over Z: lc(g)^k f mod g for some k >= 0."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg:
        df = len(f) - 1
        lead = f[-1]
        f = [c * lg for c in f[:-1]]
        for i in range(dg):
            f[df - dg + i] -= lead * g[i]
        while f and f[-1] == 0:
            f.pop()
        if not f:
            break
    return f


def _int_exact_div(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a/b in Z[x]; b primitive and dividing a in Z[x]."""
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    lb = b[-1]
    for d in range(len(a) - len(b), -1, -1):
        k = r[d + len(b) - 1] // lb
        q[d] = k
        if k:
            for i, bc in enumerate(b):
                r[d + i] -= k * bc
    return q


def _int_divides(a: list[int], b: list[int]) -> bool:
    """Does b divide a over Q (both integer polys)?"""
    return not _int_prem(a, b)


def _prs_gcd(f: list[int], g: list[int]) -> list[int]:
    # primitive pseudo-remainder sequence
    while g:
        if len(f) < len(g):
            f, g = g, f
            continue
        rem = _int_prem(f, g)
        f, g = g, _int_primitive(rem)
    return _int_primitive(f)


def _int_gcd_poly(f: list[int], g: list[int]) -> list[int]:
    if not f:
        return list(g)
    if not g:
        return list(f)
    if len(f) == 1 or len(g) == 1:
        return [1]
    # heuristic gcd, cf. the classical heugcd: evaluate both at a large
    # integer, take the integer gcd, reconstruct via balanced digits
    bound = 2 * min(max(abs(c) for c in f), max(abs(c) for c in g)) + 2
    x0 = max(bound, 100)
    for _ in range(6):
        vf, vg = _int_eval(f, x0), _int_eval(g, x0)
        if vf and vg:
            h = _int_primitive(_balanced_digits(gcd(vf, vg), x0))
            if h and _int_divides(f, h) and _int_divides(g, h):
                return h
        x0 = x0 * 73794 // 27011 + 1
    return _prs_gcd(f, g)


def _clear_denoms(a: Sequence[Fraction]) -> tuple[list[int], int]:
    """(integer coefficients, d) with a_k = ints_k / d."""
    d = lcm(*(c.denominator for c in a)) if len(a) > 1 else a[0].denominator
    return [int(c * d) for c in a], d



# ---------------------------------------------------------------------------
# public polynomial type
# ---------------------------------------------------------------------------

class QPolynomial:
    """Univariate polynomial in q with Fraction coefficients, ascending
    degree, no trailing zeros."""

    __slots__ = ("coeffs", "_intform")

    def __init__(self, coeffs: Iterable = ()):  # accepts ints/Fractions
        c = [_as_fraction(x) for x in coeffs]
        _trim(c)
        object.__setattr__(self, "coeffs", tuple(c))
        object.__setattr__(self, "_intform", None)

    @classmethod
    def _raw(cls, coeffs: list) -> "QPolynomial":
        obj = object.__new__(cls)
        object.__setattr__(obj, "coeffs", tuple(coeffs))
        object.__setattr__(obj, "_intform", None)
        return obj

    def int_form(self) -> tuple[list[int], int]:
        """(integer coefficients, d) with coeffs_k = ints_k / d; cached."""
        if self._intform is None:
            form = _clear_denoms(self.coeffs) if self.coeffs else ([], 1)
            object.__setattr__(self, "_intform", form)
        return self._intform

    @classmethod
    def monomial(cls, n: int, c=1) -> "QPolynomial":
        return cls([0] * n + [c])

    def __setattr__(self, *a):
        raise AttributeError("QPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPolynomial([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

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
        return QPolynomial._raw(_padd(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial._raw(_pneg(self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QPolynomial._raw(_psub(self.coeffs, o.coeffs))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPolynomial._raw(_pscale(self.coeffs, _as_fraction(other)))
        if isinstance(other, QPolynomial):
            if not self.coeffs or not other.coeffs:
                return QPolynomial._raw([])
            ia, da = self.int_form()
            ib, db = other.int_form()
            out = [0] * (len(ia) + len(ib) - 1)
            for i, x in enumerate(ia):
                if x:
                    for j, y in enumerate(ib):
                        out[i + j] += x * y
            d = da * db
            return QPolynomial._raw([Fraction(c, d) for c in out])
        return NotImplemented

    __rmul__ = __mul__

    def exact_div(self, other: "QPolynomial") -> "QPolynomial":
        """Quotient by an exact divisor (integer-arithmetic fast path)."""
        if other == _P1 or self.is_zero():
            return self
        A, da = self.int_form()
        G, dg = other.int_form()
        cg = 0
        for c in G:
            cg = gcd(cg, c)
            if cg == 1:
                break
        if cg > 1:
            G = [c // cg for c in G]
        q = _int_exact_div(A, G)
        scale = Fraction(dg, da * max(cg, 1))
        return QPolynomial._raw([k * scale for k in q])

    def _monomial_degree(self) -> int | None:
        """Degree when self is c*q^k, else None."""
        nz = [i for i, c in enumerate(self.coeffs) if c]
        return nz[0] if len(nz) == 1 else None

    def _q_valuation(self) -> int:
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    def gcd(self, other: "QPolynomial") -> "QPolynomial":
        """Monic gcd over Q."""
        if self.is_zero():
            g = _int_primitive(other.int_form()[0])
        elif other.is_zero():
            g = _int_primitive(self.int_form()[0])
        else:
            # gcd with a monomial c*q^a is q^min(a, val_q(other))
            ma, mb = self._monomial_degree(), other._monomial_degree()
            if ma is not None:
                return QPolynomial.monomial(min(ma, other._q_valuation()))
            if mb is not None:
                return QPolynomial.monomial(min(mb, self._q_valuation()))
            g = _int_gcd_poly(_int_primitive(self.int_form()[0]),
                              _int_primitive(other.int_form()[0]))
        if not g:
            return QPolynomial._raw([])
        lead = g[-1]
        return QPolynomial._raw([Fraction(c, lead) for c in g])

    def subst_q_power(self, m: int) -> "QPolynomial":
        return QPolynomial._raw(_psubst_pow(self.coeffs, m))

    def __call__(self, x):
        return _peval(self.coeffs, x)

    def eval_complex(self, x: complex) -> complex:
        return _peval_complex(self.coeffs, x)

    def __repr__(self):
        if not self.coeffs:
            return "QPolynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*q^{i}" if i else f"{c}")
        return "QPolynomial(" + " + ".join(terms) + ")"


_P0 = QPolynomial()
_P1 = QPolynomial([1])


# ---------------------------------------------------------------------------
# rational functions of q, always canonical (gcd-reduced, monic denominator)
# ---------------------------------------------------------------------------

class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        num = num if isinstance(num, QPolynomial) else QPolynomial(
            num if isinstance(num, (list, tuple)) else [num])
        den = den if isinstance(den, QPolynomial) else QPolynomial(
            den if isinstance(den, (list, tuple)) else [den])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = _rf_reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _raw(cls, num: QPolynomial, den: QPolynomial) -> "RationalFunction":
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        return obj

    @classmethod
    def q_power(cls, k: int) -> "RationalFunction":
        """q^k for any integer k."""
        if k >= 0:
            return cls._raw(QPolynomial.monomial(k), _P1)
        return cls._raw(_P1, QPolynomial.monomial(-k))

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(other)
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction, QPolynomial)):
            return RationalFunction(other if isinstance(other, QPolynomial)
                                    else QPolynomial([other]))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RationalFunction._raw(*_rf_reduce(self.num + o.num, self.den))
        # frequent case: one denominator divides the other exactly
        big, small = self, o
        if big.den.degree < small.den.degree:
            big, small = small, big
        A, _ = big.den.int_form()
        B, _ = small.den.int_form()
        if not _int_prem(A, _int_primitive(B)):
            mult = big.den.exact_div(small.den)
            num = big.num + small.num * mult
            return RationalFunction._raw(*_rf_reduce(num, big.den))
        g = self.den.gcd(o.den)
        if g == _P1:
            num = self.num * o.den + o.num * self.den
            return RationalFunction._raw(*_rf_reduce(num, self.den * o.den))
        db = o.den.exact_div(g)
        da = self.den.exact_div(g)
        num = self.num * db + o.num * da
        return RationalFunction._raw(*_rf_reduce(num, self.den * db))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._raw(-self.num, self.den)

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
            return RationalFunction._raw(self.num * other, self.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # cross-reduce before multiplying to keep degrees down
        g1 = self.num.gcd(o.den)
        g2 = o.num.gcd(self.den)
        n1 = self.num.exact_div(g1)
        d2 = o.den.exact_div(g1)
        n2 = o.num.exact_div(g2)
        d1 = self.den.exact_div(g2)
        num, den = n1 * n2, d1 * d2
        if not num:
            return _RF0
        lead = den.coeffs[-1]
        if lead != 1:
            num, den = num * (1 / lead), den * (1 / lead)
        return RationalFunction._raw(num, den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RationalFunction":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = RationalFunction._raw(_P1, _P1)
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
        num, den = self.den, self.num
        lead = den.coeffs[-1]
        if lead != 1:
            num, den = num * (1 / lead), den * (1 / lead)
        return RationalFunction._raw(num, den)

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
        if m < 1:
            raise DomainError("substitution exponent must be >= 1")
        if m == 1:
            return self
        num, den = self.num.subst_q_power(m), self.den.subst_q_power(m)
        lead = den.coeffs[-1]
        if lead != 1:
            num, den = num * (1 / lead), den * (1 / lead)
        return RationalFunction._raw(num, den)

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


def _rf_reduce(num: QPolynomial, den: QPolynomial) -> tuple[QPolynomial, QPolynomial]:
    if num.is_zero():
        return _P0, _P1
    g = num.gcd(den)
    if g != _P1:
        num = num.exact_div(g)
        den = den.exact_div(g)
    lead = den.coeffs[-1]
    if lead != 1:
        num, den = num * (1 / lead), den * (1 / lead)
    return num, den


_RF0 = RationalFunction._raw(_P0, _P1)


def rf_sum(parts) -> RationalFunction:
    """Sum with one canonical reduction at the end instead of one per add."""
    parts = [p for p in parts if not p.is_zero()]
    if not parts:
        return _RF0
    num, den = parts[0].num, parts[0].den
    for t in parts[1:]:
        if t.den == den:
            num = num + t.num
            continue
        A, _ = den.int_form()
        B, _ = t.den.int_form()
        if den.degree >= t.den.degree and not _int_prem(A, _int_primitive(B)):
            num = num + t.num * den.exact_div(t.den)
        elif not _int_prem(B, _int_primitive(A)):
            num = num * t.den.exact_div(den) + t.num
            den = t.den
        else:
            g = den.gcd(t.den)
            db = t.den.exact_div(g)
            num = num * db + t.num * den.exact_div(g)
            den = den * db
    return RationalFunction._raw(*_rf_reduce(num, den))


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
        x = _as_fraction(x) if not isinstance(x, Fraction) else x
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
