"""The (h,q)-extension of Bernoulli numbers and polynomials.

B_n^{(h)}(q) is defined by the generating function

    (h*LAMBDA + t) / (q^h e^t - 1)  =  sum_n B_n t^n / n!

with LAMBDA = log q.  The left side is f(t + h*LAMBDA) with
f(u) = u/(e^u - 1), so B_n^{(h)} = f^{(n)}(h*LAMBDA), and expanding
1/(e^u - 1) = sum_{k>=1} e^{-ku} gives the closed form

    B_n^{(h)} = (-1)^n [h*LAMBDA * Li_{-n}(q^{-h}) - n * Li_{1-n}(q^{-h})],
    Li_{-n}(z) = sum_k k^n z^k = z A_n(z) / (1 - z)^{n+1},

with A_n the Eulerian polynomial.  Both components are integer polynomials
over a power of q^{|h|} - 1 and need no gcd.  For h = 0 the family reduces to
the classical Bernoulli numbers, which is what we return on that path.

Also here: the character-twisted generalized values (finite-sum and
generating-function routes) and the exact identity checkers for the
generating function and the distribution relation.  The generating-function
check multiplies the closed-form values by q^h e^t - 1, so it is independent
of how they were built.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .characters import DirichletCharacter
from .exact import (DomainError, LogScalar, QPolynomial, RationalFunction,
                    XPolynomial, eval_log_scalar_complex, log_scalar_sum)
from .report import VerificationReport
from .series import TruncatedSeries


def classical_bernoulli(n_max: int) -> list[Fraction]:
    """B_0..B_n via sum_{k<=n} C(n+1,k) B_k = 0, with B_1 = -1/2."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    bs = [Fraction(1)]
    for n in range(1, n_max + 1):
        s = sum(Fraction(comb(n + 1, k)) * bs[k] for k in range(n))
        bs.append(-s / (n + 1))
    return bs


@dataclass(frozen=True)
class QBernoulliTable:
    h: int
    max_n: int
    values: tuple[LogScalar, ...]

    def __getitem__(self, n: int) -> LogScalar:
        return self.values[n]


@lru_cache(maxsize=None)
def _eulerian(n: int) -> tuple[int, ...]:
    """Coefficients of T_n(z) = z A_n(z); Li_{-n}(z) = T_n(z)/(1 - z)^{n+1}."""
    if n <= 1:
        return (0, 1)
    # Li_{-n} = z d/dz Li_{1-n}:  T_n = z (1 - z) T_{n-1}' + n z T_{n-1}
    out = [0] * (n + 1)
    for i, c in enumerate(_eulerian(n - 1)):
        out[i] += i * c
        out[i + 1] += (n - i) * c
    return tuple(out)


def _over_one_minus_z(num: list[int], k: int, h: int) -> RationalFunction:
    """num(z) / (1 - z)^k at z = q^{-h}, deg num <= k, over the monic
    denominator (q^{|h|} - 1)^k.  No gcd: the caller's num(1) != 0."""
    if h > 0:  # multiply through by (q^h)^k = z^{-k}
        num = (num + [0] * (k + 1 - len(num)))[::-1]
    else:
        num = [(-1) ** k * c for c in num]
    # (q^{|h|} - 1)^k = prod_{d | |h|} Phi_d^k
    return RationalFunction._raw(QPolynomial._raw(num).subst_q_power(abs(h)),
                                 {d: k for d in range(1, abs(h) + 1)
                                  if h % d == 0})


@lru_cache(maxsize=None)
def q_bernoulli_number(h: int, n: int) -> LogScalar:
    """B_n^{(h)} from the Eulerian closed form in the module docstring.

    Every root of q^{|h|} - 1 has z = 1, where the numerators are
    +-T_n(1) = +-n! and +-n T_{n-1}(1) = +-n!, so both components are in
    lowest terms as built.  The rational one, n Li_{1-n}, has one factor of
    (1 - z) fewer in its denominator."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if h == 0:
        return LogScalar(classical_bernoulli(n)[n])
    sign = (-1) ** n
    log = _over_one_minus_z([sign * h * c for c in _eulerian(n)], n + 1, h)
    if n == 0:
        return LogScalar(0, log)
    rat = _over_one_minus_z([-sign * n * c for c in _eulerian(n - 1)], n, h)
    return LogScalar(rat, log)


@lru_cache(maxsize=None)
def q_bernoulli_table(h: int, max_n: int) -> QBernoulliTable:
    """B_0..B_max_n for the given h (any integer, including h <= 0)."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if h == 0:
        vals = tuple(LogScalar(b) for b in classical_bernoulli(max_n))
    else:
        vals = tuple(q_bernoulli_number(h, n) for n in range(max_n + 1))
    return QBernoulliTable(h, max_n, vals)


@lru_cache(maxsize=None)
def q_bernoulli_polynomial(h: int, n: int) -> XPolynomial:
    """B_n^{(h)}(x) = sum_k C(n,k) x^{n-k} B_k^{(h)}; degree n in x."""
    table = q_bernoulli_table(h, n)
    coeffs = [table[n - j] * comb(n, j) for j in range(n + 1)]
    # coefficient of x^j is C(n, n-j) B_{n-j} = C(n,j) B_{n-j}
    return XPolynomial(coeffs)


def gen_function_identity_check(h: int, order: int) -> VerificationReport:
    """(q^h e^t - 1) * sum B_n t^n/n! == h*LAMBDA + t, coefficientwise."""
    if h == 0:
        raise DomainError("identity check needs h != 0")
    table = q_bernoulli_table(h, order)
    f = TruncatedSeries(
        [table[n] / factorial(n) for n in range(order + 1)], order)
    qh = RationalFunction.q_power(h)
    den = [LogScalar(qh * Fraction(1, factorial(k))) for k in range(order + 1)]
    den[0] = den[0] - 1
    prod = TruncatedSeries(den, order) * f
    expected = [LogScalar.lam(h)] + [LogScalar(1)] + [LogScalar.zero()] * max(order - 1, 0)
    witnesses = []
    ok = True
    for n in range(order + 1):
        diff = prod.coeffs[n] - expected[n]
        good = diff.is_zero()
        ok = ok and good
        witnesses.append((f"t^{n}", "0" if good else diff))
    return VerificationReport(
        identity="generating-function",
        params={"h": h, "order": order},
        witnesses=tuple(witnesses),
        passed=ok,
    )


def distribution_check(h: int, n: int, m: int) -> VerificationReport:
    """B_n^{(h)}(x) == m^{n-1} sum_{i<m} q^{h i} B_{n, base q^m}^{(h)}((x+i)/m),
    exact coefficientwise equality of both sides as polynomials in x."""
    if m < 1:
        raise ValueError("m must be >= 1")
    lhs = q_bernoulli_polynomial(h, n)
    base = lhs.subst_q_power(m)  # B_n^{(h)} polynomial at base q^m
    terms = []
    for i in range(m):
        term = base.compose_affine(Fraction(1, m), Fraction(i, m))
        terms.append(term * LogScalar(RationalFunction.q_power(h * i)))
    width = max((len(t.coeffs) for t in terms), default=0)
    rhs = XPolynomial([log_scalar_sum([t.coeff(j) for t in terms])
                       for j in range(width)])
    rhs = rhs * Fraction(m) ** (n - 1)
    witnesses = []
    ok = True
    for j in range(max(lhs.degree, rhs.degree) + 1):
        diff = lhs.coeff(j) - rhs.coeff(j)
        good = diff.is_zero()
        ok = ok and good
        witnesses.append((f"x^{j}", "0" if good else diff))
    return VerificationReport(
        identity="distribution",
        params={"h": h, "n": n, "m": m},
        witnesses=tuple(witnesses),
        passed=ok,
    )


# ---------------------------------------------------------------------------
# generalized (character-twisted) values
# ---------------------------------------------------------------------------

def _twisted_terms(chi: DirichletCharacter, h: int, n: int) -> list[LogScalar]:
    """Exact q^{h i} * B_{n, q^d}^{(h)}(i/d) for i = 0..d-1."""
    d = chi.modulus
    poly = q_bernoulli_polynomial(h, n).subst_q_power(d)
    out = []
    for i in range(d):
        v = poly.eval_fraction(Fraction(i, d))
        out.append(v * LogScalar(RationalFunction.q_power(h * i)))
    return out


def generalized_q_bernoulli_exact(chi: DirichletCharacter, h: int, n: int) -> LogScalar:
    """d^{n-1} sum_i chi(i) q^{h i} B_{n, q^d}^{(h)}(i/d) for a character with
    values in {-1, 0, 1}, kept fully symbolic."""
    if not chi.is_real():
        raise DomainError("exact generalized values need a quadratic character")
    d = chi.modulus
    acc = LogScalar.zero()
    for i, term in enumerate(_twisted_terms(chi, h, n)):
        c = chi.value_rational(i)
        if c:
            acc = acc + term * c
    return acc * Fraction(d) ** (n - 1)


def generalized_q_bernoulli(chi: DirichletCharacter, h: int, n: int,
                            qv: complex) -> complex:
    """Finite-sum route of the twisted value at numeric q; the per-residue
    bracket stays exact, only the final evaluation is numeric."""
    d = chi.modulus
    if h == 0:
        raise DomainError("h = 0 is degenerate for the twisted family")
    qv = complex(qv)
    if not 0 < abs(qv) < 1:
        raise DomainError("need 0 < |q| < 1")
    acc = 0j
    for i, term in enumerate(_twisted_terms(chi, h, n)):
        c = chi.value_complex(i)
        if c:
            acc += c * eval_log_scalar_complex(term, qv)
    return acc * float(d) ** (n - 1)


def generalized_via_generating_function(chi: DirichletCharacter, h: int,
                                        n_max: int, qv: complex,
                                        order: int | None = None) -> list[complex]:
    """Twisted values B_0..B_n_max by coefficient extraction from

        [ sum_i (t e^{i t} + h log q e^{i t}) chi(i) q^{h i} ] / (q^{h d} e^{d t} - 1)

    built over complex coefficients at numeric q."""
    d = chi.modulus
    qv = complex(qv)
    if not 0 < abs(qv) < 1:
        raise DomainError("need 0 < |q| < 1")
    if h == 0:
        raise DomainError("h d = 0 makes the denominator constant term vanish")
    order = n_max if order is None else order
    logq = cmath.log(qv)
    # coefficient k of (t + h log q) e^{it} is (k i^(k-1) + h log q i^k) / k!
    num = [0j] * (order + 1)
    for i in range(d):
        ci = chi.value_complex(i)
        if ci == 0:
            continue
        w = ci * qv ** (h * i)
        for k in range(order + 1):
            lead = k * i ** (k - 1) if k else 0
            num[k] += w * (lead + h * logq * i ** k) / factorial(k)
    den_coeffs = [qv ** (h * d) * (d ** k / factorial(k)) for k in range(order + 1)]
    den_coeffs[0] -= 1
    f = TruncatedSeries(num, order) * TruncatedSeries(den_coeffs, order).invert()
    return [f.coeffs[n] * factorial(n) for n in range(n_max + 1)]


def classical_limit_errors(h: int, n: int, eps_list=(Fraction(1, 10 ** 3),
                                                    Fraction(1, 10 ** 4),
                                                    Fraction(1, 10 ** 5)),
                           dps: int = 80) -> list[float]:
    """|B_n^{(h)} at q = 1+eps  -  B_n| for each eps, evaluated at high
    precision (the two scalar components cancel heavily near q = 1)."""
    from .exact import eval_log_scalar_mp

    bq = q_bernoulli_number(h, n)
    bn = classical_bernoulli(n)[n]
    out = []
    for eps in eps_list:
        v = eval_log_scalar_mp(bq, 1 + Fraction(eps), dps=dps)
        out.append(abs(float(v - Fraction(bn))))
    return out
