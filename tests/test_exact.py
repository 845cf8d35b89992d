"""Exact-layer tests: polynomials, rational functions, log scalars."""

import functools
import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from qzeta.exact import (DomainError, ExactError, LogDegreeOverflow,
                         LogScalar, QPolynomial, RationalFunction,
                         XPolynomial, _cyclotomic,
                         _divmod_monic, _expand, eval_log_scalar_complex,
                         rf_sum)
from q_substitution import subst_q_power

F = Fraction


# -- QPolynomial -------------------------------------------------------------

def test_polynomial_trims_trailing_zeros():
    p = QPolynomial([1, 2, 0, 0])
    assert p.coeffs == (F(1), F(2))
    assert p.degree == 1
    assert QPolynomial([0, 0]).is_zero()
    assert QPolynomial().degree == -1


def test_polynomial_ring_ops():
    p = QPolynomial([1, 1])        # 1 + q
    q = QPolynomial([-1, 1])       # q - 1
    assert p * q == QPolynomial([-1, 0, 1])
    assert p + q == QPolynomial([0, 2])
    assert p - p == QPolynomial()
    assert p * QPolynomial() == QPolynomial()


def _schoolbook(a, b):
    """a * b by the dense schoolbook product of the integer forms."""
    out = [0] * (len(a.ints) + len(b.ints) - 1)
    for i, x in enumerate(a.ints):
        for j, y in enumerate(b.ints):
            out[i + j] += x * y
    return QPolynomial([F(c, a.den * b.den) for c in out])


@functools.lru_cache(maxsize=None)
def _cyclotomic_by_division(d):
    """Coefficients of Phi_d, ascending, Phi_0 = q: q^d - 1 divided by every
    Phi_c, c | d, c < d, by long division, independently of `_expand`."""
    if d == 0:
        return (0, 1)
    a = [-1] + [0] * (d - 1) + [1]           # q^d - 1 = prod_{c | d} Phi_c
    for c in range(1, d):
        if d % c == 0:
            a = _divmod_monic(a, _cyclotomic_by_division(c))[0]
    return tuple(a)


def test_cyclotomic_matches_division():
    # `_cyclotomic` expands Phi_d from its binomial exponents
    for d in range(61):
        assert _cyclotomic(d) == _cyclotomic_by_division(d), d


# few nonzero terms between runs of zeros, and sometimes none at all
_SPARSE = st.lists(st.one_of(st.just(0), st.integers(-9, 9),
                             st.fractions(-5, 5, max_denominator=7)),
                   max_size=12).map(QPolynomial)
_QUICK = settings(derandomize=True, database=None, max_examples=80,
                  deadline=None)


@_QUICK
@given(_SPARSE, _SPARSE)
def test_sparse_product_matches_schoolbook(a, b):
    assert a * b == _schoolbook(a, b) == b * a


def _horner(poly, x):
    """poly(x) by Horner's rule in Fractions, one normalised step per
    coefficient."""
    acc = F(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


@_QUICK
@given(_SPARSE, st.one_of(st.sampled_from([0, F(0)]),
                          st.integers(-10 ** 6, 10 ** 6).map(F),
                          st.fractions(max_denominator=10 ** 6)))
@example(QPolynomial(), F(3, 7))
@example(QPolynomial([F(1, 2), 0, F(-3, 5)]), F(-999_999, 10 ** 6))
def test_call_matches_fraction_horner(poly, x):
    # integer Horner over a^i b^(D - i), then one Fraction
    got = poly(x)
    assert type(got) is F
    assert got == _horner(poly, x)


@_QUICK
@given(st.dictionaries(st.integers(1, 30), st.integers(0, 5), max_size=4),
       st.integers(0, 5), _SPARSE)
# the lifts of the distribution check:
# Phi_1^2 Phi_3^2 Phi_5^4 Phi_15^4 = (q^15 - 1)^4 / (q^3 - 1)^2
@example({1: 2, 3: 2, 5: 4, 15: 4}, 1, QPolynomial([1, 0, F(2, 3)]))
# squared primes (mu = 0), three primes, and exponents E_M of both signs in
# prod_M (q^M - 1)^E_M
@example({4: 3, 12: 2}, 0, QPolynomial([F(1, 2), -1]))
@example({30: 2}, 2, QPolynomial([0, 3, 0, 0, -5]))
@example({4: 2, 12: 1, 30: 2}, 1, QPolynomial([F(-7, 3), 0, 1]))
def test_expand_is_the_product_of_cyclotomic_powers(exps, a, num):
    # prod_M (q^M - 1)^E_M and q^a as a shift, against the schoolbook
    # product of every Phi_d
    exps = {**exps, 0: a}
    want = QPolynomial([1])
    for d, e in exps.items():
        for _ in range(e):
            want = _schoolbook(want, QPolynomial(_cyclotomic_by_division(d)))
    assert _expand(exps) == want
    assert _expand(exps, num) == _schoolbook(num, want)


def test_expand_divides_exactly_or_raises():
    # a negative exponent divides: Phi_5 = (q^5 - 1)/(q - 1), so num is
    # multiplied by q - 1 and then divided by q^5 - 1 on prefix sums, whose
    # tail must vanish
    tail = QPolynomial([2, 1])
    assert _expand({5: -1}, QPolynomial(_cyclotomic(5)) * tail) == tail
    assert _expand({4: -2, 12: -1}, _expand({4: 2, 12: 1}, tail)) == tail
    with pytest.raises(ExactError):
        _expand({5: -1}, tail)
    with pytest.raises(ExactError):
        _expand({4: -2}, QPolynomial(_cyclotomic(4)) * tail)


@_QUICK
@given(st.dictionaries(st.integers(1, 30), st.integers(1, 3), min_size=1,
                       max_size=3), _SPARSE)
def test_expand_with_negative_exponents_divides_exactly(exps, num):
    # num * prod Phi_d^-e_d is returned only when it is a polynomial
    over = {d: -e for d, e in exps.items()}
    assert _expand(over, _expand(exps, num)) == num
    try:
        quo = _expand(over, num)
    except ExactError:
        return
    assert _expand(exps, quo) == num


def test_polynomial_immutable():
    p = QPolynomial([1])
    with pytest.raises(AttributeError):
        p.coeffs = (F(2),)


def _assert_canonical(p):
    """ints / den with no trailing zeros, den > 0, gcd(den, *ints) == 1."""
    assert isinstance(p.ints, tuple)
    assert all(type(c) is int for c in p.ints)
    assert not p.ints or p.ints[-1]
    assert p.den > 0 and gcd(p.den, *p.ints) == 1


def _oracle_trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


@pytest.mark.parametrize("seed", range(6))
def test_integer_form_matches_fraction_oracle(seed):
    rng = random.Random(seed)

    def rand_coeffs():
        dens = [1, 1, 2, 3, 4, 6, 35, 144]
        return [F(rng.randint(-40, 40), rng.choice(dens))
                for _ in range(rng.randint(0, 7))]

    for _ in range(20):
        a, b = rand_coeffs(), rand_coeffs()
        pa, pb = QPolynomial(a), QPolynomial(b)
        k = F(rng.randint(-9, 9), rng.randint(1, 9))     # 0 included
        m = rng.randint(1, 4)
        n = max(len(a), len(b))
        a0, b0 = a + [F(0)] * (n - len(a)), b + [F(0)] * (n - len(b))
        prod = [F(0)] * (len(a) + len(b) - 1 if a and b else 0)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                prod[i + j] += u * v
        subst = [F(0)] * ((len(a) - 1) * m + 1 if a else 0)
        for i, u in enumerate(a):
            subst[i * m] = u
        cases = [(pa + pb, [u + v for u, v in zip(a0, b0)]),
                 (pa - pb, [u - v for u, v in zip(a0, b0)]),
                 (pa * pb, prod),
                 (pa * k, [u * k for u in a]),
                 (k * pa, [u * k for u in a]),
                 (pa * 0, []),
                 (-pa, [-u for u in a]),
                 (subst_q_power(pa, m), subst)]
        for got, want in cases:
            _assert_canonical(got)
            assert got.coeffs == _oracle_trim(want)
        x = F(rng.randint(-9, 9), rng.randint(1, 9))
        assert pa(x) == sum((c * x ** i for i, c in enumerate(a)), F(0))
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        acc = 0j
        for c in reversed(_oracle_trim(a)):
            acc = acc * z + float(c)
        assert repr(pa.eval_complex(z)) == repr(acc)   # bit for bit
        # the same value built by different routes has one representation
        routes = [(pa + pb) - pb, pb + pa - pb, QPolynomial(a + [0, F(0, 5)]),
                  QPolynomial([3 * c for c in a]) * F(1, 3)]
        if k:
            routes.append(pa * k * (1 / k))
        for r in routes:
            _assert_canonical(r)
            assert (r.ints, r.den) == (pa.ints, pa.den)
            assert r == pa and hash(r) == hash(pa)
    zero = QPolynomial([F(0), F(0, 3)])
    assert (zero.ints, zero.den) == ((), 1)


# -- RationalFunction --------------------------------------------------------

def test_rational_function_reduces_to_lowest_terms():
    # (q^2 - 1)/(q - 1) == q + 1
    r = RationalFunction(QPolynomial([-1, 0, 1]), QPolynomial([-1, 1]))
    assert r.num == QPolynomial([1, 1])
    assert r.den == QPolynomial([1])


def test_rational_function_monic_denominator():
    r = RationalFunction(QPolynomial([1]), QPolynomial([0, 2]))
    assert r.den.coeffs[-1] == 1


def test_rational_function_field_ops():
    q = RationalFunction.q_power(1)
    one = RationalFunction(1)
    r = RationalFunction(1, _q_minus_one(1))
    assert r * (q - 1) == one
    assert (r + r) == 2 * r
    assert RationalFunction.q_power(-2) * RationalFunction.q_power(2) == one


def test_rational_function_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(1, QPolynomial())


def test_rational_subst_q_power():
    r = RationalFunction(1, _q_minus_one(1))
    assert subst_q_power(r, 3) == RationalFunction(1, _q_minus_one(3))


# -- LogScalar ---------------------------------------------------------------

def test_log_scalar_linear_algebra():
    a = LogScalar(1, 2)            # 1 + 2L
    b = LogScalar(3)               # 3
    assert a + b == LogScalar(4, 2)
    assert a - a == LogScalar()
    assert a * b == LogScalar(3, 6)
    assert b * a == LogScalar(3, 6)


def test_log_degree_overflow():
    lam = LogScalar(0, 1)
    with pytest.raises(LogDegreeOverflow):
        lam * lam
    with pytest.raises(LogDegreeOverflow):
        LogScalar(1, 1) * LogScalar(2, 1)


def test_log_scalar_subst_q_power_scales_log_part():
    q = RationalFunction.q_power(1)
    a = LogScalar(q, q)            # q + q*L
    s = subst_q_power(a, 2)
    q2 = RationalFunction.q_power(2)
    assert s.rat == q2
    assert s.log == 2 * q2         # log q^2 = 2 log q


def test_log_scalar_json_writes_each_coefficient_in_lowest_terms():
    # the coefficients share one denominator, 4, which JSON reduces per
    # coefficient; a zero coefficient is written 0/1
    a = LogScalar(QPolynomial([F(1, 2), 1, 0, F(-3, 4)]))
    assert a.to_json_dict() == {
        "rat": {"num": ["1/2", "1/1", "0/1", "-3/4"], "den": ["1/1"]},
        "log": {"num": [], "den": ["1/1"]}}


def test_eval_log_scalar_complex():
    import cmath
    q = RationalFunction.q_power(1)
    a = LogScalar(q, 1)            # q + log q
    qv = 0.3 + 0.1j
    assert abs(eval_log_scalar_complex(a, qv) - (qv + cmath.log(qv))) < 1e-15
    with pytest.raises(DomainError):
        eval_log_scalar_complex(a, 1.5)
    with pytest.raises(DomainError):
        eval_log_scalar_complex(a, 0)


# -- XPolynomial -------------------------------------------------------------

def test_xpolynomial_eval_and_compose():
    # P(x) = x^2 + 3x + 2 with plain rational coefficients
    p = XPolynomial([2, 3, 1])
    assert p.eval_fraction(F(1, 2)) == LogScalar(F(15, 4))


def _horner_log_scalar(poly, x):
    """Horner's rule in LogScalar arithmetic: the reference for
    `XPolynomial.eval_fraction`."""
    acc = LogScalar()
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def _same(a, b):
    return all((x.num.ints, x.num.den, x.exps) == (y.num.ints, y.num.den, y.exps)
               for x, y in ((a.rat, b.rat), (a.log, b.log)))


def test_xpolynomial_eval_fraction_matches_horner():
    # q-powers in numerators and denominators, coefficients that share the
    # top exponent of Phi_1 (so x = 1 cancels q - 1), a log part, a zero
    # polynomial and a = 0, against Horner's rule, and in floats against
    # `eval_complex`, which sums the coefficients' values at q
    import cmath
    q = RationalFunction.q_power(1)
    sq = _q_minus_one(3) * _q_minus_one(3)      # (q^3 - 1)^2
    polys = [XPolynomial([]), XPolynomial([2, 3, 1]),
             XPolynomial([RationalFunction([0, 1], _q_minus_one(1)),
                          RationalFunction(-1, _q_minus_one(1))]),
             XPolynomial([LogScalar(RationalFunction.q_power(-1),
                                    RationalFunction([0, 1], _q_minus_one(2))),
                          LogScalar(q),
                          LogScalar(0, RationalFunction(
                              -1, _q_minus_one(1) * QPolynomial.monomial(3)))]),
             XPolynomial([LogScalar(RationalFunction([0, 0, 1], sq),
                                    RationalFunction.q_power(-2)),
                          LogScalar(RationalFunction(-1, _q_minus_one(3)),
                                    RationalFunction([0, 1], [1, 1])),
                          LogScalar(RationalFunction(1, sq))])]
    for poly, b in zip(polys, [1, 2, 3, 4, 5]):
        for a in range(-b, 2 * b + 1):
            x = F(a, b)
            got = poly.eval_fraction(x)
            want = _horner_log_scalar(poly, x)
            assert got == want and _same(got, want), (poly, x)
            assert cmath.isclose(eval_log_scalar_complex(got, 0.3 + 0.4j),
                                 poly.eval_complex(float(x), 0.3 + 0.4j),
                                 rel_tol=1e-12, abs_tol=1e-12), (poly, x)


def test_xpolynomial_eval_complex_with_log_coeff():
    import cmath
    p = XPolynomial([LogScalar(0, 1), LogScalar(1)])   # log q + x
    qv = 0.4
    got = p.eval_complex(2.0, qv)
    assert abs(got - (cmath.log(qv) + 2.0)) < 1e-15


def test_xpolynomial_subst_q_power():
    q = RationalFunction.q_power(1)
    p = XPolynomial([LogScalar(q, 1)])
    s = subst_q_power(p, 3)
    assert s.coeffs[0] == LogScalar(RationalFunction.q_power(3), 3)


# -- the cyclotomic denominator invariant ------------------------------------

def _q_minus_one(k):
    return QPolynomial([-1] + [0] * (k - 1) + [1])


def _assert_lowest_terms(r):
    assert r.den.coeffs[-1] == 1
    if r.num:
        assert r.num.gcd(r.den) == QPolynomial([1])


@pytest.mark.parametrize("seed", range(6))
def test_arithmetic_stays_in_lowest_terms(seed):
    import random
    from qzeta.qbernoulli import q_bernoulli_number

    rng = random.Random(seed)
    values = [part for h in (-3, -2, -1, 1, 2, 3) for n in range(7)
              for part in (q_bernoulli_number(h, n).rat,
                           q_bernoulli_number(h, n).log)]
    x = F(3, 7)
    for _ in range(12):
        a, b = rng.choice(values), rng.choice(values)
        m = rng.randint(2, 4)
        cases = [(a + b, a.eval_fraction(x) + b.eval_fraction(x)),
                 (a - b, a.eval_fraction(x) - b.eval_fraction(x)),
                 (a * b, a.eval_fraction(x) * b.eval_fraction(x)),
                 (subst_q_power(a, m), a.eval_fraction(x ** m))]
        for r, want in cases:
            _assert_lowest_terms(r)
            assert r.eval_fraction(x) == want
        # undoing an operation must cancel back to the same canonical form
        assert (a + b) - b == a


@pytest.mark.parametrize("d", range(1, 13))
def test_subst_q_power_splits_cyclotomic_factors(d):
    r = RationalFunction(1, _q_minus_one(d))
    for m in range(1, 7):
        s = subst_q_power(r, m)
        assert s.den == _q_minus_one(d * m)
        assert s == RationalFunction(1, _q_minus_one(d * m))


def test_non_cyclotomic_denominator_rejected():
    odd = QPolynomial([2, 1, 1])       # q^2 + q + 2
    with pytest.raises(DomainError):
        RationalFunction(1, odd)
    with pytest.raises(DomainError):
        RationalFunction(1, odd * QPolynomial([-1, 1]))
    # a scaled product of q and cyclotomic polynomials is accepted
    r = RationalFunction(3, QPolynomial([0, -2, 0, 2]))   # 2q(q^2 - 1)
    assert r.den == QPolynomial([0, -1, 0, 1])
    assert r.num == QPolynomial([F(3, 2)])


def test_mixed_operand_contract():
    # -, == and the reflected operators derive from _coerce, +, unary - and
    # *; a number of the other arithmetic world, or a string, is foreign
    # both ways
    import operator

    from qzeta.padic import PadicNumber

    rf = RationalFunction(QPolynomial([1, 1]), QPolynomial([0, -1, 1]))
    ls = LogScalar(rf, 3)
    pn = PadicNumber.from_fraction(5, F(6, 7))
    exact = [QPolynomial([1, 1]), rf, ls]
    foreign = [(a, pn) for a in exact] + [(a, "x") for a in exact + [pn]]
    for a, b in foreign + [(b, a) for a, b in foreign]:
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(a, b)
        assert (a == b) is False
    # QPolynomial has no inverse, so no /
    with pytest.raises(TypeError):
        QPolynomial([1]) / 2
    with pytest.raises(TypeError):
        1 / QPolynomial([1])
    # nor a float coefficient
    with pytest.raises(TypeError, match=r"^expected int or Fraction, got "
                                        r"float$"):
        QPolynomial([1.5])
    # == follows _coerce, as + does
    assert RationalFunction(QPolynomial([1, 1])) == QPolynomial([1, 1])
    # reflected operators give what they gave when each type wrote its own
    den = QPolynomial([0, -1, 1])                     # q^2 - q
    assert 1 - rf == RationalFunction(QPolynomial([-1, -2, 1]), den)
    assert 2 * rf == RationalFunction(QPolynomial([2, 2]), den)
    assert 3 + rf == RationalFunction(QPolynomial([1, -2, 3]), den)
    assert 1 - ls == LogScalar(1 - rf, -3)
    assert 2 * ls == LogScalar(2 * rf, 6)
    assert 3 + ls == LogScalar(3 + rf, 3)
    for got, want in ((1 - pn, F(1, 7)), (2 * pn, F(12, 7)),
                      (3 + pn, F(27, 7)), (1 / pn, F(7, 6))):
        assert (got - PadicNumber.from_fraction(5, want)).is_zero()


def test_exact_types_have_no_division_or_power():
    # a ring, not a field: a quotient is built as RationalFunction(num, den)
    import operator

    rf = RationalFunction(QPolynomial([1, 1]), QPolynomial([0, -1, 1]))
    for a in (QPolynomial([1, 1]), rf, LogScalar(rf), LogScalar(rf, 3)):
        for b in (2, F(1, 2), a):
            for op in (operator.truediv, operator.pow):
                with pytest.raises(TypeError):
                    op(a, b)
                with pytest.raises(TypeError):
                    op(b, a)


# -- hashing: equal values hash equal ----------------------------------------

def test_equal_values_hash_equal():
    p = QPolynomial([1, 2])
    assert p == RationalFunction(p) == LogScalar(p)
    assert len({p, RationalFunction(p), LogScalar(p)}) == 1
    assert LogScalar(3) in {3}
    assert {QPolynomial([F(1, 2)]): 1}[F(1, 2)] == 1
    assert hash(RationalFunction(F(2, 3))) == hash(F(2, 3))
    # a denominator and a log part: the LogScalar normal form
    r = RationalFunction(QPolynomial([1, 1]), QPolynomial([0, -1, 1]))
    assert hash(r) == hash(LogScalar(r)) == hash(LogScalar(r, 0))
    assert len({LogScalar(r, 3), LogScalar(r, 3) + 0, r}) == 2
    # a p-adic number keeps identity == and hash
    from qzeta.padic import PadicNumber
    a, b = PadicNumber.from_fraction(5, F(6)), PadicNumber.from_fraction(5, F(6))
    assert a != b and len({a, b}) == 2


# -- ring laws on random values over cyclotomic denominators -----------------

# Phi_d^e (d <= 12) and q^a: the only factors a denominator may hold
_DENS = st.tuples(st.dictionaries(st.integers(1, 12), st.integers(1, 2),
                                  max_size=2),
                  st.integers(0, 2))
_NUMS = st.lists(st.integers(-3, 3), max_size=4)
_RING = settings(derandomize=True, database=None, max_examples=40,
                 deadline=None)


def _den(exps, a):
    """prod_d Phi_d^exps[d] times q^a, built by schoolbook products."""
    out = QPolynomial([0] * a + [1])
    for d, e in exps.items():
        for _ in range(e):
            out = _schoolbook(out, QPolynomial(_cyclotomic_by_division(d)))
    return out


_RF = st.builds(lambda num, den, c: RationalFunction(
    QPolynomial(num) * c, _den(*den)), _NUMS, _DENS,
    st.fractions(-2, 2, max_denominator=3))
_UNIT = st.builds(lambda top, bottom, c: RationalFunction(
    _den(*top) * c, _den(*bottom)), _DENS, _DENS,
    st.sampled_from([F(1), F(-2), F(3, 5)]))
_LS = st.builds(LogScalar, _RF, _RF)


@_RING
@given(_RF, _RF, _RF)
def test_rational_function_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == 0
    for r in (a + b, a * b, a - b, a * (b + c)):
        _assert_lowest_terms(r)


@_RING
@given(_LS, _LS, _RF, _RF)
def test_log_scalar_ring_laws(a, b, c, d):
    # at most one factor of a product may carry a log part
    assert (a + b) + c == a + (b + c)
    assert (a * c) * d == a * (c * d)
    assert a * (c + d) == a * c + a * d
    assert (a + b) * c == a * c + b * c
    assert a - a == 0 and (a - a).is_zero()
    for v in (a + b, a * c, a - b):
        _assert_lowest_terms(v.rat)
        _assert_lowest_terms(v.log)


@_RING
@given(st.lists(_RF, max_size=5))
def test_rf_sum_is_the_folded_sum(parts):
    total = rf_sum(parts)
    assert total == functools.reduce(operator.add, parts, RationalFunction(0))
    # an oracle that shares no lift: each part evaluated at a rational point
    x = F(2, 7)
    assert total.eval_fraction(x) == sum((p.eval_fraction(x) for p in parts),
                                         F(0))
    _assert_lowest_terms(total)


@_RING
@given(_LS, _RF, _UNIT)
def test_equal_values_hash_equal_across_types(a, r, u):
    # the same value reached by different routes, and through each type
    for x, y in ((r, rf_sum([r, u, -u])), (r, LogScalar(r)), (a, a + r - r)):
        assert x == y and hash(x) == hash(y)
    if not r.den.degree:           # a polynomial: QPolynomial too
        assert hash(r) == hash(r.num) == hash(LogScalar(r.num))
        if r.num.degree < 1:       # a constant: Fraction, and int when whole
            c = r.num.coeffs[0] if r.num else F(0)
            assert hash(r) == hash(c) and r == c
            if c.denominator == 1:
                assert hash(r) == hash(int(c))
