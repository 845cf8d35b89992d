"""Exact-layer tests: polynomials, rational functions, log scalars."""

import functools
import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from qzeta.exact import (DomainError, ExactError, LogDegreeOverflow,
                         LogScalar, NonInvertible, QPolynomial,
                         RationalFunction, XPolynomial, _cyclotomic, _expand,
                         eval_log_scalar_complex, eval_log_scalar_mp, rf_sum)

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
            want = _schoolbook(want, QPolynomial(_cyclotomic(d)))
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
                 (pa.subst_q_power(m), subst)]
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
    r = one / (q - 1)
    assert r * (q - 1) == one
    assert (r + r) == 2 * r
    assert (q ** 3) == RationalFunction.q_power(3)
    assert RationalFunction.q_power(-2) * RationalFunction.q_power(2) == one


def test_rational_function_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(1, QPolynomial())
    with pytest.raises(NonInvertible):
        RationalFunction(1) / RationalFunction(0)


def test_rational_subst_q_power():
    q = RationalFunction.q_power(1)
    r = 1 / (q - 1)
    assert r.subst_q_power(3) == 1 / (RationalFunction.q_power(3) - 1)


# -- LogScalar ---------------------------------------------------------------

def test_log_scalar_linear_algebra():
    a = LogScalar(1, 2)            # 1 + 2L
    b = LogScalar(3)               # 3
    assert a + b == LogScalar(4, 2)
    assert a - a == LogScalar.zero()
    assert a * b == LogScalar(3, 6)
    assert b * a == LogScalar(3, 6)


def test_log_degree_overflow():
    lam = LogScalar.lam()
    with pytest.raises(LogDegreeOverflow):
        lam * lam
    with pytest.raises(LogDegreeOverflow):
        LogScalar(1, 1) * LogScalar(2, 1)


def test_log_scalar_inverse():
    a = LogScalar(RationalFunction(F(2, 3)))
    assert a.inverse() * a == LogScalar.one()
    with pytest.raises(NonInvertible):
        LogScalar(1, 1).inverse()


def test_log_scalar_subst_q_power_scales_log_part():
    q = RationalFunction.q_power(1)
    a = LogScalar(q, q)            # q + q*L
    s = a.subst_q_power(2)
    q2 = RationalFunction.q_power(2)
    assert s.rat == q2
    assert s.log == 2 * q2         # log q^2 = 2 log q


def test_log_scalar_json_round_trip():
    q = RationalFunction.q_power(1)
    a = LogScalar(1 / (q - 1), F(-5, 7) * q)
    assert LogScalar.from_json_dict(a.to_json_dict()) == a


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


def test_eval_log_scalar_mp_matches_complex_eval():
    import math
    q = RationalFunction.q_power(1)
    a = LogScalar(1 / (q - 1), q)
    got = float(eval_log_scalar_mp(a, F(1, 2), dps=40))
    want = 1 / (0.5 - 1) + 0.5 * math.log(0.5)
    assert abs(got - want) < 1e-14
    with pytest.raises(DomainError, match=r"^mp evaluation requires rational "
                                          r"q > 0$"):
        eval_log_scalar_mp(a, 0)


# -- XPolynomial -------------------------------------------------------------

def test_xpolynomial_eval_and_compose():
    # P(x) = x^2 + 3x + 2 with plain rational coefficients
    p = XPolynomial([2, 3, 1])
    assert p.eval_fraction(F(1, 2)) == LogScalar(F(15, 4))


def _horner_log_scalar(poly, x):
    """Horner's rule in LogScalar arithmetic: the reference for
    `XPolynomial.eval_fraction` and `eval_points`."""
    acc = LogScalar()
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def _same(a, b):
    return all((x.num.ints, x.num.den, x.exps) == (y.num.ints, y.num.den, y.exps)
               for x, y in ((a.rat, b.rat), (a.log, b.log)))


def test_xpolynomial_eval_points_match_horner():
    # q-powers in numerators and denominators, coefficients that share the
    # top exponent of Phi_1 (so x = 1 cancels q - 1), a log part, a zero
    # polynomial and a = 0, against Horner's rule times q^(h i)
    q = RationalFunction.q_power(1)
    polys = [XPolynomial([]), XPolynomial([2, 3, 1]),
             XPolynomial([q / (q - 1), -1 / (q - 1)]),
             XPolynomial([LogScalar(1 / q, q / (q ** 2 - 1)), LogScalar(q),
                          LogScalar(0, -1 / ((q - 1) * q ** 3))]),
             XPolynomial([LogScalar(q ** 2 / (q ** 3 - 1) ** 2, 1 / q ** 2),
                          LogScalar(-1 / (q ** 3 - 1), q / (q + 1)),
                          LogScalar(1 / (q ** 3 - 1) ** 2)])]
    for poly, b, h in zip(polys * 3, [1, 2, 3, 4, 5] * 3, range(-7, 8)):
        nums = list(range(-b, 2 * b + 1))
        got = poly.eval_points(nums, b, h)
        for i, (a, g) in enumerate(zip(nums, got)):
            want = _horner_log_scalar(poly, F(a, b)) * LogScalar(
                RationalFunction.q_power(h * i))
            assert g == want and _same(g, want), (poly, a, b, h)
        for a in nums:
            x = F(a, b)
            assert _same(poly.eval_fraction(x),
                         _horner_log_scalar(poly, x)), (poly, x)


def test_xpolynomial_eval_complex_with_log_coeff():
    import cmath
    p = XPolynomial([LogScalar(0, 1), LogScalar(1)])   # log q + x
    qv = 0.4
    got = p.eval_complex(2.0, qv)
    assert abs(got - (cmath.log(qv) + 2.0)) < 1e-15


def test_xpolynomial_subst_q_power():
    q = RationalFunction.q_power(1)
    p = XPolynomial([LogScalar(q, 1)])
    s = p.subst_q_power(3)
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
    q = RationalFunction.q_power(1)
    values = [part for h in (-3, -2, -1, 1, 2, 3) for n in range(7)
              for part in (q_bernoulli_number(h, n).rat,
                           q_bernoulli_number(h, n).log)]
    units = [q ** k for k in (-2, -1, 1, 3)] + \
        [RationalFunction(_q_minus_one(k)) ** j for k in (1, 2, 3, 6)
         for j in (1, 2)]
    x = F(3, 7)
    for _ in range(12):
        a, b = rng.choice(values), rng.choice(values)
        u = rng.choice(units)
        m = rng.randint(2, 4)
        cases = [(a + b, a.eval_fraction(x) + b.eval_fraction(x)),
                 (a - b, a.eval_fraction(x) - b.eval_fraction(x)),
                 (a * b, a.eval_fraction(x) * b.eval_fraction(x)),
                 (a / u, a.eval_fraction(x) / u.eval_fraction(x)),
                 (a.subst_q_power(m), a.eval_fraction(x ** m))]
        for r, want in cases:
            _assert_lowest_terms(r)
            assert r.eval_fraction(x) == want
        # undoing an operation must cancel back to the same canonical form
        assert (a + b) - b == a
        assert (a * u) / u == a
        assert (a / u) * u == a


def test_subst_q_power_needs_a_positive_exponent():
    q = RationalFunction.q_power(1)
    for a in (1 / (q - 1), LogScalar(q, 1)):
        with pytest.raises(DomainError, match=r"^substitution exponent must "
                                              r"be >= 1$"):
            a.subst_q_power(0)


@pytest.mark.parametrize("d", range(1, 13))
def test_subst_q_power_splits_cyclotomic_factors(d):
    r = RationalFunction(1, _q_minus_one(d))
    for m in range(1, 7):
        s = r.subst_q_power(m)
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


def test_non_cyclotomic_numerator_not_invertible():
    r = RationalFunction(QPolynomial([2, 1, 1]))
    with pytest.raises(NonInvertible):
        r.inverse()
    with pytest.raises(NonInvertible):
        RationalFunction(1) / r
    assert r / RationalFunction(QPolynomial([0, 2])) == \
        RationalFunction(QPolynomial([1, F(1, 2), F(1, 2)]), QPolynomial([0, 1]))


def test_division_has_one_path():
    # LogScalar divides as every number type does, through _Ring and inverse
    errors = []
    for a in (LogScalar(1), RationalFunction(1)):
        with pytest.raises(NonInvertible) as e:
            a / 0
        errors.append((type(e.value), str(e.value)))
    assert errors[0] == errors[1] == (NonInvertible,
                                      "division by zero rational function")
    assert repr(LogScalar(0, 1) / 2) == repr(LogScalar(0, 1) * F(1, 2))
    assert repr(LogScalar(3, 1) / F(2, 3)) == repr(LogScalar(3, 1) * F(3, 2))


def test_mixed_operand_contract():
    # -, /, == and the reflected operators derive from _coerce, +, unary -,
    # * and inverse; a number of the other arithmetic world, or a string,
    # is foreign both ways
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
    assert 1 / rf == RationalFunction(den, QPolynomial([1, 1]))
    assert 1 - ls == LogScalar(1 - rf, -3)
    assert 2 * ls == LogScalar(2 * rf, 6)
    assert 3 + ls == LogScalar(3 + rf, 3)
    for got, want in ((1 - pn, F(1, 7)), (2 * pn, F(12, 7)),
                      (3 + pn, F(27, 7)), (1 / pn, F(7, 6))):
        assert (got - PadicNumber.from_fraction(5, want)).is_zero()
    assert 1 / LogScalar(2) == LogScalar(F(1, 2))


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
            out = _schoolbook(out, QPolynomial(_cyclotomic(d)))
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
@given(_LS, _RF, _UNIT)
def test_division_by_a_unit_undoes_the_product(a, r, u):
    assert (r / u) * u == r
    assert (a / u) * u == a
    assert (a * u) / u == a
    _assert_lowest_terms(r / u)


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
    for x, y in ((r, (r * u) / u), (r, rf_sum([r, u, -u])), (r, LogScalar(r)),
                 (a, (a * u) / u), (a, a + r - r)):
        assert x == y and hash(x) == hash(y)
    if not r.den.degree:           # a polynomial: QPolynomial too
        assert hash(r) == hash(r.num) == hash(LogScalar(r.num))
        if r.num.degree < 1:       # a constant: Fraction, and int when whole
            c = r.num.coeffs[0] if r.num else F(0)
            assert hash(r) == hash(c) and r == c
            if c.denominator == 1:
                assert hash(r) == hash(int(c))
