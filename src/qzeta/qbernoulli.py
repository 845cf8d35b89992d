"""The (h,q)-extension of Bernoulli numbers and polynomials.

B_n^{(h)}(q) is defined by the generating function

    (h*LAMBDA + t) / (q^h e^t - 1)  =  sum_n B_n t^n / n!

with LAMBDA = log q.  At base q^d, x = a/d and t -> d t, times q^{h a},
the generating function of B_n^{(h)}(x) is (h*LAMBDA + t) q^{h a} e^{a t}
/ (q^{h d} e^{d t} - 1), and expanding 1/(1 - z) = sum_{k>=0} z^k gives
the closed form, with w = q^h:

    d^{n-1} q^{h a} B_{n, q^d}^{(h)}(a/d) = -[h*LAMBDA S_n(a, d) + n S_{n-1}(a, d)],
    S_m(a, d) = sum_{k>=0} (a + d k)^m w^{a + d k} = w^a N(w^d) / (1 - w^d)^{m+1},
    N(z) = sum_j C(m, j) a^{m-j} d^j T_j(z) (1 - z)^{m-j},

where sum_{k>=0} k^j z^k = T_j(z) / (1 - z)^{j+1}: T_0 = 1 and T_j = z A_j(z)
with A_j the Eulerian polynomial.  B_n^{(h)} is the case a = 0, d = 1, where
N = T_m.  Each component is an integer polynomial over a power of
q^{|h| d} - 1, in lowest terms as built: N(1) = d^m m! is not 0, so no
factor Phi_c, c | |h| d, of the denominator divides the numerator, and no
gcd or trial division is needed.  For h = 0 the family reduces to the
classical Bernoulli numbers, which is what we return on that path.

Also here: the character-twisted generalized values, exact and at numeric
q, both as the finite sum over the units i mod d, and the exact identity
checkers for the generating function and the distribution relation.  The
exact terms q^{h i} B_{n, q^d}^{(h)}(i/d) at the units, the closed form at
a = i, depend on the character only through its modulus d, so they are
cached per (d, h, n) and shared by every character mod d, the
L-interpolation check, the numeric twisted values and the p-adic twisted
target.

Both checks lift their terms, per component (rat, log), to one common
cyclotomic denominator (`exact._lift_all`), and then build every coefficient
of lhs - rhs from integer lists by integer multiples, additions and shifts
by powers of q, with no polynomial product; `exact._lower` brings only a
nonzero one to lowest terms.  The generating-function check runs the
recurrence that multiplying by q^h e^t - 1 gives, so it is independent of
how the closed-form values were built.  The distribution check lifts
B_n^{(h)}(x) in q alone, once per polynomial (`XPolynomial._lifted`, read
by `exact._lift_to_power`), Taylor-shifts x -> x + 1 its right side on
those rows read in Q = q^m and adds them at stride m; only the left rows
are lifted again, to the common denominator, and lhs - rhs is formed only
where the two differ.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, factorial, gcd, lgamma, log, log2
from operator import add

from .characters import DirichletCharacter, _Frozen
from .exact import (DomainError, LogScalar, RationalFunction, XPolynomial,
                    _in_unit_disc, _lift_all, _lift_to_power, _lower, _trim,
                    eval_log_scalar_complex, rf_sum)
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


_EULERIAN = [(1,)]     # T_0, T_1, ... as far as built


def _eulerian(n: int) -> tuple[int, ...]:
    """Coefficients of T_n(z), sum_{k>=0} k^n z^k = T_n(z)/(1 - z)^{n+1}:
    T_0 = 1 and T_n = z A_n(z), A_n the Eulerian polynomial.  Each row is
    built once, from the one before, in a loop."""
    while len(_EULERIAN) <= n:
        m, prev = len(_EULERIAN), _EULERIAN[-1]
        # Li_{-m} = z d/dz Li_{1-m}:  T_m = z (1 - z) T_{m-1}' + m z T_{m-1}
        out = [0] * (m + 1)
        for i, c in enumerate(prev):
            out[i] += i * c
            out[i + 1] += (m - i) * c
        _EULERIAN.append(tuple(out))
    return _EULERIAN[n]


def _eulerian_term(a: int, d: int, h: int, n: int) -> LogScalar:
    """q^{h a} B_{n, q^d}^{(h)}(a/d) for h != 0 and 0 <= a < d (a = 0 at
    d = 1, where it is B_n^{(h)}), from the closed form in the module
    docstring: d^{1-n} times the log part -h S_n(a, d) and the rational
    part -n S_{n-1}(a, d).

    S_m = w^a N(z) / (1 - z)^{m+1}, w = q^h, z = w^d, and the numerator
    N = sum_j C(m, j) a^{m-j} d^j T_j (1 - z)^{m-j} is built by Horner's
    rule in 1 - z, already times the part's scale (N = T_m at a = 0).
    Over (q^e - 1)^{m+1}, e = |h| d, the numerator is (-1)^{m+1} q^{h a}
    N(q^e) for h > 0, and for h < 0 it is q^{|h|(d-a)} times N reversed,
    at q^e: deg N = m, as its top coefficient is (d - a)^m.  N(1) = d^m m!
    is not 0, so no Phi_c, c | e, divides N(q^e): each part is in lowest
    terms as built, and only its power of q is placed."""
    e, den, parts = abs(h) * d, d ** max(n - 1, 0), []
    shift = h * a if h > 0 else -h * (d - a)
    cyclotomic = [c for c in range(1, e + 1) if e % c == 0]   # q^e - 1
    for m, k in ((n, h), (n - 1, n)):   # log part -h S_n, rat -n S_{n-1}
        if m < 0:
            parts.append(0)             # n = 0: no rational part
            continue
        s = (-k if h < 0 else (-1) ** m * k) * (1 if n else d)
        if a == 0:      # so d = 1
            num = [s * t for t in _eulerian(m)]
        else:   # N -> N (1 - z) + c_j T_j
            num = []
            for j in range(m + 1):
                c = s * comb(m, j) * a ** (m - j) * d ** j
                num = [c * t + x - y for t, x, y in
                       zip(_eulerian(j), num + [0], [0] + num)]
        if h < 0:
            num.reverse()
        # the content and the scale are settled before spreading at stride e
        g = gcd(den, *num)
        ints = [0] * (shift + e * m + 1)
        ints[shift::e] = [c // g for c in num] if g > 1 else num
        parts.append(_lower(ints, den // g, dict.fromkeys(cyclotomic, m + 1),
                            ()))
    return LogScalar(parts[1], parts[0])


@lru_cache(maxsize=None)
def q_bernoulli_number(h: int, n: int) -> LogScalar:
    """B_n^{(h)}: `_eulerian_term` at a = 0, d = 1 (the classical B_n at
    h = 0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if h == 0:
        return LogScalar(classical_bernoulli(n)[n])
    return _eulerian_term(0, 1, h, n)


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


# Work bound on one distribution check: the size of its lift, in bits,
# estimated before any lift as the n + 1 rows, times the degree |h| (n +
# 1) m of (q^{|h| m} - 1)^{n+1}, times log2 n! + (n + 1)(log2 m + 1) bits
# a coefficient.  h = 0 is priced as |h| = 1: its rows are shorter, but
# its m - 1 Taylor shifts and rows of width m still grow with m.  Its time
# runs at 1-2.5e-8 s a unit on one core, so the bound holds a check to
# about 2.5 s.
MAX_LIFT_BITS = 100_000_000


def _lift_bits(h: int, n: int, m: int) -> float:
    """`MAX_LIFT_BITS`' estimate for distribution_check(h, n, m), n >= 0."""
    return ((n + 1) * ((n + 1) * max(abs(h), 1) * m + 1)
            * (lgamma(n + 1) / log(2) + (n + 1) * (log2(m) + 1)))


def distribution_check(h: int, n: int, m: int) -> VerificationReport:
    """B_n^{(h)}(x) == m^{n-1} sum_{i<m} q^{h i} B_{n, base q^m}^{(h)}((x+i)/m),
    exact coefficientwise equality of both sides as polynomials in x.

    With b_k the x^k coefficient at base q^m and R(x) = sum_k m^{n-1-k} b_k
    x^k, the right side is sum_{i<m} q^{h i} R(x + i).  Per component (rat,
    log), the coefficients of B_n^{(h)}(x) are lifted once, in q: read in
    Q = q^m, those rows are the numerators of the b_k (times m in the log
    part), so each R(x + i) is a Taylor shift by 1 of R(x + i - 1) on rows
    in Q, added at stride m and offset h i + s, times q^s for h < 0.  Each
    lhs - rhs is then one numerator over one common denominator, formed
    only where the two numerators differ.  A check whose lift is above
    MAX_LIFT_BITS raises ArithmeticError before it builds anything."""
    if m < 1:
        raise ValueError("m must be >= 1")
    bits = _lift_bits(h, max(n, 0), m)
    if bits > MAX_LIFT_BITS:
        raise ArithmeticError(
            f"the distribution check at h = {h}, n = {n}, m = {m} lifts "
            f"about {bits:.3g} bits, above the work bound MAX_LIFT_BITS = "
            f"{MAX_LIFT_BITS}")
    poly = q_bernoulli_polynomial(h, n)
    s = max(-h, 0) * (m - 1)
    parts = []
    for part, log_m in (("rat", 1), ("log", m)):
        full, den, lhs, rows, up = _lift_to_power(*poly._lifted(part), m, s)
        width = m * len(rows[0])
        # m R(x), so that k = n stays integral: both sides are over m * den
        r = [[log_m * m ** (n - k) * c for c in row]
             for k, row in enumerate(rows)]
        rhs = [[0] * (width + abs(h) * (m - 1)) for _ in r]
        for i in range(m):
            if i:
                _taylor_shift(r)
            o = h * i + s
            for acc, row in zip(rhs, r):
                acc[o:o + width:m] = map(add, acc[o:o + width:m], row)
        nums = []
        for left, acc in zip(lhs, rhs):
            a, b = _trim([0] * s + [m * c for c in left]), _trim(up(acc))
            nums.append(([] if a == b else [x - y for x, y in zip_longest(
                a, b, fillvalue=0)], m * den))
        parts.append((full, nums))
    return _report("distribution", {"h": h, "n": n, "m": m}, "x", parts)


# ---------------------------------------------------------------------------
# generalized (character-twisted) values
# ---------------------------------------------------------------------------

def _twisted_terms(chi: DirichletCharacter, h: int, n: int) -> dict[int, LogScalar]:
    """`_twisted_terms_mod` at d = chi.modulus: the terms chi can weight."""
    return _twisted_terms_mod(chi.modulus, h, n)


@lru_cache(maxsize=None)
def _twisted_terms_mod(d: int, h: int, n: int) -> dict[int, LogScalar]:
    """{i: q^{h i} B_{n, q^d}^{(h)}(i/d)} over the units i < d (i = 0 at
    d = 1), where characters mod d are nonzero: `_eulerian_term` at each,
    and the classical B_n(i/d) at h = 0, where q^{h d} = 1."""
    units = [i for i in range(d) if gcd(i, d) == 1]
    if h == 0:
        poly = q_bernoulli_polynomial(0, n)
        return {i: poly.eval_fraction(Fraction(i, d)) for i in units}
    return {i: _eulerian_term(i, d, h, n) for i in units}


def generalized_q_bernoulli_exact(chi: DirichletCharacter, h: int, n: int) -> LogScalar:
    """d^{n-1} sum_i chi(i) q^{h i} B_{n, q^d}^{(h)}(i/d) for a character with
    values in {-1, 0, 1}, kept fully symbolic."""
    if not chi.is_real():
        raise DomainError("exact generalized values need a quadratic character")
    terms = [(term, chi.value_rational(i))
             for i, term in _twisted_terms(chi, h, n).items()]
    scale = Fraction(chi.modulus) ** (n - 1)
    return LogScalar(rf_sum([t.rat * c for t, c in terms]) * scale,
                     rf_sum([t.log * c for t, c in terms]) * scale)


def generalized_q_bernoulli(chi: DirichletCharacter, h: int, n: int,
                            qv: complex) -> complex:
    """The twisted value at numeric q as the finite sum over the units mod d;
    each unit's term stays exact, only the final evaluation is numeric."""
    d = chi.modulus
    if h == 0:
        raise DomainError("h = 0 is degenerate for the twisted family")
    qv = _in_unit_disc(qv)
    acc = 0j
    for i, term in _twisted_terms(chi, h, n).items():
        acc += chi.value_complex(i) * eval_log_scalar_complex(term, qv)
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
