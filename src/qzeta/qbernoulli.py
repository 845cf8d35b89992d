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

Also here: the character-twisted generalized values, exact and at numeric
q, both as the finite sum over residues, and the exact identity checkers for
the generating function and the distribution relation.  The exact
per-residue terms q^{h i} B_{n, q^d}^{(h)}(i/d) of a twisted value depend
on the character only through its modulus d, so they are cached per
(d, h, n) and shared by every character mod d, the L-interpolation check,
the numeric twisted values and the p-adic twisted target.

Both checks lift each term once, per component (rat, log), to one common
cyclotomic denominator (`exact._lift_all`), and then build every coefficient
of lhs - rhs from integer lists by integer multiples, additions and shifts
by powers of q, with no polynomial product; `exact._lower` brings only a
nonzero one to lowest terms.  The generating-function check runs the
recurrence that multiplying by q^h e^t - 1 gives, so it is independent of
how the closed-form values were built; the distribution check builds its
right side from Taylor shifts x -> x + 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import add, sub

from .characters import DirichletCharacter, _Frozen
from .exact import (DomainError, LogScalar, RationalFunction, XPolynomial,
                    _in_unit_disc, _lift_all, _lower, eval_log_scalar_complex)
from .report import VerificationReport


def classical_bernoulli(n_max: int) -> list[Fraction]:
    """B_0..B_n via sum_{k<=n} C(n+1,k) B_k = 0, with B_1 = -1/2."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    bs = [Fraction(1)]
    for n in range(1, n_max + 1):
        s = sum(Fraction(comb(n + 1, k)) * bs[k] for k in range(n))
        bs.append(-s / (n + 1))
    return bs


class QBernoulliTable(_Frozen):
    __slots__ = ("h", "max_n", "values")

    def __init__(self, h: int, max_n: int, values: tuple[LogScalar, ...]):
        self._set(h, max_n, values)

    def __getitem__(self, n: int) -> LogScalar:
        return self.values[n]


_EULERIAN = [(0, 1), (0, 1)]     # T_0, T_1, ... as far as built


def _eulerian(n: int) -> tuple[int, ...]:
    """Coefficients of T_n(z) = z A_n(z); Li_{-n}(z) = T_n(z)/(1 - z)^{n+1}.
    Each row is built once, from the one before, in a loop."""
    while len(_EULERIAN) <= n:
        m, prev = len(_EULERIAN), _EULERIAN[-1]
        # Li_{-m} = z d/dz Li_{1-m}:  T_m = z (1 - z) T_{m-1}' + m z T_{m-1}
        out = [0] * (m + 1)
        for i, c in enumerate(prev):
            out[i] += i * c
            out[i + 1] += (m - i) * c
        _EULERIAN.append(tuple(out))
    return _EULERIAN[n]


def _over_one_minus_z(num: list[int], k: int, h: int) -> RationalFunction:
    """num(z) / (1 - z)^k at z = q^{-h}, deg num <= k, over the monic
    denominator (q^{|h|} - 1)^k.  No gcd: the caller's num(1) != 0."""
    if h > 0:  # multiply through by (q^h)^k = z^{-k}
        num = (num + [0] * (k + 1 - len(num)))[::-1]
    else:
        num = [(-1) ** k * c for c in num]
    return _lower(num, 1, {1: k}, ()).subst_q_power(abs(h))


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
        raise ValueError(f"n must be >= 0 (max_n = {max_n})")
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


def _report(identity: str, params: dict, var: str, parts) -> VerificationReport:
    """One witness per power of `var`.  `parts` holds per component (rat,
    log) its denominator's exponents and, per power, lhs - rhs as an integer
    numerator list and an integer divisor.  The identity holds where both
    lists are 0, and only a nonzero one is reduced to lowest terms, as the
    witness."""
    witnesses = []
    for j, nums in enumerate(zip(*(nums for _, nums in parts))):
        if not any(any(ints) for ints, _ in nums):
            witnesses.append((f"{var}^{j}", "0"))
            continue
        witnesses.append((f"{var}^{j}", LogScalar(*(
            _lower(ints, d, exps, exps)
            for (ints, d), (exps, _) in zip(nums, parts)))))
    return VerificationReport(
        identity=identity, params=params, witnesses=tuple(witnesses),
        passed=all(w == "0" for _, w in witnesses))


def gen_function_identity_check(h: int, order: int) -> VerificationReport:
    """(q^h e^t - 1) * sum B_n t^n/n! == h*LAMBDA + t, coefficientwise.

    n! times the t^n coefficient of the left side is the recurrence
    q^h sum_{j<=n} C(n, j) B_j - B_n.  Per component (rat, log), B_0..B_order
    and the constant 1 are lifted once to one common denominator, times
    q^{|h|} for h < 0, so each coefficient minus its expected value is one
    numerator: the lifted numerators, shifted by the power of q.  The
    binomial sums are rows of Pascal's triangle on the lifted rows, each
    level the pairwise sums of the one before: additions only."""
    if h == 0:
        raise DomainError("identity check needs h != 0")
    table = q_bernoulli_table(h, order)
    s = max(-h, 0)
    parts = []
    for part, want in (("rat", {1: 1}), ("log", {0: h})):
        full, den, b = _lift_all([getattr(c, part) for c in table.values]
                                 + [RationalFunction.q_power(0)], s)
        one = b.pop()
        width, level = len(one), b
        nums = []
        for n in range(order + 1):
            if n:   # Pascal's rule: row 0 of level n is sum_j C(n, j) b_j
                level = [list(map(add, x, y)) for x, y in zip(level, level[1:])]
            acc = [0] * max(h, 0) + level[0] + [0] * s
            w = want.get(n, 0)
            acc[s:s + width] = [x - y - w * e for x, y, e in
                                zip(acc[s:s + width], b[n], one)]
            nums.append((acc, den * factorial(n)))
        parts.append((full, nums))
    return _report("generating-function", {"h": h, "order": order}, "t",
                   parts)


def _taylor_shift(c: list) -> None:
    """c(x) -> c(x + 1) in place, c[k] being the x^k coefficient as a list
    of integers, all of one length: additions only."""
    for i in range(len(c) - 1):
        for k in range(len(c) - 2, i - 1, -1):
            c[k] = list(map(add, c[k], c[k + 1]))


def distribution_check(h: int, n: int, m: int) -> VerificationReport:
    """B_n^{(h)}(x) == m^{n-1} sum_{i<m} q^{h i} B_{n, base q^m}^{(h)}((x+i)/m),
    exact coefficientwise equality of both sides as polynomials in x.

    With b_k the x^k coefficient at base q^m and R(x) = sum_k m^{n-1-k} b_k
    x^k, the right side is sum_{i<m} q^{h i} R(x + i).  Per component (rat,
    log), the coefficients of both sides are lifted once to one common
    denominator, times q^s for h < 0, so each R(x + i) is a Taylor shift by
    1 of R(x + i - 1) on integer lists, added at offset h i + s, and each
    lhs - rhs is one numerator over that denominator."""
    if m < 1:
        raise ValueError("m must be >= 1")
    poly = q_bernoulli_polynomial(h, n)
    lhs, base = poly.coeffs, poly.subst_q_power(m).coeffs
    s = max(-h, 0) * (m - 1)
    parts = []
    for part in ("rat", "log"):
        full, den, ints = _lift_all([getattr(c, part) for c in lhs + base], s)
        width = len(ints[0])
        # m R(x), so that k = n stays integral: both sides are over m * den
        r = [[m ** (n - k) * c for c in row]
             for k, row in enumerate(ints[len(lhs):])]
        nums = [[0] * s + [m * c for c in row] + [0] * (abs(h) * (m - 1) - s)
                for row in ints[:len(lhs)]]
        for i in range(m):
            if i:
                _taylor_shift(r)
            o = h * i + s
            for num, row in zip(nums, r):
                num[o:o + width] = map(sub, num[o:o + width], row)
        parts.append((full, [(num, m * den) for num in nums]))
    return _report("distribution", {"h": h, "n": n, "m": m}, "x", parts)


# ---------------------------------------------------------------------------
# generalized (character-twisted) values
# ---------------------------------------------------------------------------

def _twisted_terms(chi: DirichletCharacter, h: int, n: int) -> tuple[LogScalar, ...]:
    """Exact q^{h i} * B_{n, q^d}^{(h)}(i/d) for i = 0..d-1, d = chi.modulus."""
    return _twisted_terms_mod(chi.modulus, h, n)


@lru_cache(maxsize=None)
def _twisted_terms_mod(d: int, h: int, n: int) -> tuple[LogScalar, ...]:
    """q^{h i} B_{n, q^d}^{(h)}(i/d), i < d: the coefficients are lifted
    once per component and every residue is one integer combination of
    them (`XPolynomial.eval_points`)."""
    poly = q_bernoulli_polynomial(h, n).subst_q_power(d)
    return tuple(poly.eval_points(range(d), d, h))


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
    """The twisted value at numeric q as the finite sum over residues; the
    per-residue bracket stays exact, only the final evaluation is numeric."""
    d = chi.modulus
    if h == 0:
        raise DomainError("h = 0 is degenerate for the twisted family")
    qv = _in_unit_disc(qv)
    acc = 0j
    for i, term in enumerate(_twisted_terms(chi, h, n)):
        c = chi.value_complex(i)
        if c:
            acc += c * eval_log_scalar_complex(term, qv)
    return acc * float(d) ** (n - 1)


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
