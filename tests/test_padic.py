"""p-adic arithmetic, Volkenborn sums, and the p-adic identity verifiers."""

import time
from fractions import Fraction
from itertools import product

import pytest

from qzeta.characters import enumerate_characters
from qzeta.exact import LogScalar, RationalFunction
from qzeta.padic import (MonomialTestFunction, PadicDomainError, PadicNumber,
                         PrecisionExhausted, _power_sums, closed_form_verify,
                         eval_log_scalar_padic, padic_exp,
                         padic_generalized_verify, padic_log, padic_pow,
                         q_bracket, q_volkenborn_sum, shift_identity_verify,
                         volkenborn_levels, volkenborn_sum, witt_verify)

F = Fraction


def Q(p, fr, prec=30):
    return PadicNumber.from_fraction(p, fr, prec)


# -- PadicNumber arithmetic --------------------------------------------------

def test_valuation_and_unit():
    x = Q(5, F(50, 3))
    assert x.valuation() == 2
    assert x.unit % 5 != 0
    assert Q(5, F(3, 25)).valuation() == -2


def test_field_axioms_random_sample():
    import random
    rng = random.Random(7)
    for _ in range(50):
        a = Q(7, F(rng.randint(-99, 99), rng.choice([1, 2, 3, 5])) or 1)
        b = Q(7, F(rng.randint(1, 99), rng.choice([1, 2, 3, 5])))
        assert ((a + b) - b - a).is_zero()
        assert ((a * b) / b - a).is_zero()


def test_inverse_round_trip():
    x = Q(5, F(7, 3))
    assert (x * x.inverse() - 1).is_zero()
    with pytest.raises(ZeroDivisionError):
        PadicNumber.zero(5).inverse()


def test_exact_zero_handling():
    z = PadicNumber.zero(5)
    x = Q(5, F(2))
    assert (x + z - x).is_zero()
    assert (x * z).is_zero()


def test_precision_lifting_through_exact_tag():
    x = Q(5, F(1, 3), prec=4)
    y = x.at_precision(20)
    assert y.prec >= 20
    assert (y - Q(5, F(1, 3), 20)).valuation() >= 20


def test_only_numbers_built_from_rationals_remember_them():
    x, y = Q(5, F(1, 3), prec=4), Q(5, F(6), prec=4)
    for z in (x + y, x - y, -x, x * y, x / y, x.inverse(), padic_pow(y, 3)):
        assert z._exact is None
        with pytest.raises(PrecisionExhausted):
            z.at_precision(20)


def test_repr_and_is_zero():
    x = Q(5, F(25))
    assert "5^2" in repr(x)
    assert not x.is_zero()


# -- log / exp / powers ------------------------------------------------------

def test_padic_log_exp_inverse():
    q = Q(5, F(6), 25)
    lg = padic_log(q)
    assert lg.valuation() == 1
    back = padic_exp(lg)
    assert (back - q).valuation() >= 20


def test_padic_log_domain():
    with pytest.raises(PadicDomainError):
        padic_log(Q(5, F(2)))       # v(q-1) = 0
    with pytest.raises(PadicDomainError):
        padic_exp(Q(5, F(2)))       # v(t) = 0


def test_padic_log_multiplicative():
    q = Q(7, F(8), 25)
    r = Q(7, F(15), 25)
    lhs = padic_log(q * r)
    rhs = padic_log(q) + padic_log(r)
    assert (lhs - rhs).valuation() >= 20


def test_padic_pow_integer_matches_repeated_product():
    q = Q(5, F(6), 20)
    acc = PadicNumber.from_fraction(5, 1, 20)
    for _ in range(7):
        acc = acc * q
    assert (padic_pow(q, 7) - acc).valuation() >= 18
    assert (padic_pow(q, -2) * padic_pow(q, 2) - 1).valuation() >= 18
    assert (padic_pow(q, 0) - 1).is_zero()


def test_padic_pow_rational_interpolates_integers():
    q = Q(5, F(6), 25)
    # q^(1/2) squared is q
    half = padic_pow(q, F(1, 2))
    assert (half * half - q).valuation() >= 18
    with pytest.raises(PadicDomainError):
        padic_pow(q, F(1, 5))       # |1/5|_5 > 1


def test_q_bracket_values():
    q = Q(5, F(6), 25)
    # [3]_q = 1 + q + q^2 = 43 at q = 6
    assert (q_bracket(3, q) - Q(5, F(43), 25)).valuation() >= 20


def test_eval_log_scalar_padic():
    # q/(q-1) + log q at q = 6, p = 5
    qrf = RationalFunction.q_power(1)
    a = LogScalar(qrf / (qrf - 1), 1)
    q = Q(5, F(6), 25)
    want = Q(5, F(6, 5), 25) + padic_log(q)
    got = eval_log_scalar_padic(a, q)
    assert (got - want).valuation() >= 15


# -- Volkenborn sums ---------------------------------------------------------

def test_volkenborn_classical_bernoulli():
    # h = 0: the level sums converge to the classical B_n
    q = Q(5, F(6), 30)
    s = volkenborn_sum(MonomialTestFunction(1, 0, q), 5, prec=12)
    assert (s - Q(5, F(-1, 2), 30)).valuation() >= 5
    s2 = volkenborn_sum(MonomialTestFunction(2, 0, q), 5, prec=12)
    assert (s2 - Q(5, F(1, 6), 30)).valuation() >= 4


def test_level_sums_reject_discontinuous_ratio():
    # q^h = 2 is not 1 mod 5: x -> q^(hx) is not continuous on Z_5
    q = Q(5, F(2))
    with pytest.raises(PadicDomainError):
        volkenborn_levels(2, 1, q, [3])
    with pytest.raises(PadicDomainError):
        volkenborn_sum(MonomialTestFunction(2, 1, q), 3)
    # q^4 = 16 is 1 mod 5, so h = 4 is inside the domain
    assert len(volkenborn_levels(2, 4, q, [3])[3]) == 3


# -- closed-form level sums against the p^N loop ---------------------------

def _loop_power_sums(r, k_max, M, p, w):
    """[sum_{x<M} x^k r^x mod p^w for k = 0..k_max], term by term: the O(M)
    reference for `_power_sums`."""
    mod = p ** w
    acc = [0] * (k_max + 1)
    rx = 1
    for x in range(M):
        t = rx
        for k in range(k_max + 1):
            acc[k] += t
            t = t * x % mod
        rx = rx * r % mod
    return [a % mod for a in acc]


def _loop_sum(p, w, M, term):
    """sum_{x<M} term(x) mod p^w, term by term."""
    return sum(term(x) for x in range(M)) % p ** w


def _ratio_mod(p, q, h, w):
    mod = p ** w
    return pow(q.numerator * pow(q.denominator, -1, mod), h, mod)


# q = p - 1 has q^h = 1 mod p only for even h; p = 2 tests v_2(q - 1) = 1
ORACLE_Q = (lambda p: F(1 + p), lambda p: F(1 + p, 1 + 2 * p),
            lambda p: F(p - 1))


@pytest.mark.parametrize("h", range(-3, 4))
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_power_sums_match_loop(p, h):
    for make_q in ORACLE_Q:
        for N in range(1, 6):
            w = 2 * N + 5
            r = _ratio_mod(p, make_q(p), h, w)
            if (r - 1) % p:
                with pytest.raises(PadicDomainError):
                    _power_sums(r, 8, [N], p, w)
                continue
            want = _loop_power_sums(r, 8, p ** N, p, w)
            assert _power_sums(r, 8, [N], p, w) == [want], (make_q(p), N)


@pytest.fixture
def residues(monkeypatch):
    """The integers the verifiers reduce to p-adic numbers, in call order."""
    seen = []
    real = PadicNumber.from_int_mod

    def spy(cls, p, value, abs_prec):
        seen.append(value % p ** abs_prec)
        return real(p, value, abs_prec)
    monkeypatch.setattr(PadicNumber, "from_int_mod", classmethod(spy))
    return seen


@pytest.mark.parametrize("h", range(-3, 4))
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_shift_sums_match_loop(p, h, residues):
    qf = F(5) if p == 2 else F(1 + p)       # inside the log domain
    b, N, prec = 3, 5 if p < 7 else 4, 4
    w = max(prec, N) + N
    mod = p ** w
    r = _ratio_mod(p, qf, h, w)
    for n in (0, 1, 4, 8):
        residues.clear()
        shift_identity_verify(MonomialTestFunction(n, h, Q(p, qf)), b, N,
                              prec=prec)
        want_f = _loop_sum(p, w, p ** N,
                           lambda x: pow(x, n, mod) * pow(r, x, mod))
        want_fb = _loop_sum(p, w, p ** N,
                            lambda x: pow(x + b, n, mod) * pow(r, x + b, mod))
        assert residues == [want_f, want_fb], n


@pytest.mark.parametrize("p,d", [(2, 3), (2, 5), (3, 4), (3, 8), (5, 3),
                                 (5, 4), (5, 8), (7, 3), (7, 4), (7, 5)])
def test_twisted_sums_match_loop(p, d, residues):
    qf = F(5) if p == 2 else F(1 + p)
    levels, prec = ([2, 3] if p == 7 else [3, 4]), 6
    chi = next(c for c in enumerate_characters(d)
               if c.is_real() and not c.is_principal())
    chivals = [int(chi.value_rational(a)) for a in range(d)]
    for h, n in ((-2, 3), (0, 2), (1, 0), (3, 4)):
        residues.clear()
        padic_generalized_verify(chi, h, n, Q(p, qf), levels, prec=prec)
        want = []
        for N in levels:
            w = prec + max(levels) + N
            mod = p ** w
            r = _ratio_mod(p, qf, h, w)
            want.append(_loop_sum(
                p, w, d * p ** N,
                lambda x: chivals[x % d] * pow(x, n, mod) * pow(r, x, mod)))
        assert residues == want, (h, n)


def test_q_volkenborn_constant_is_one():
    q = Q(5, F(6), 40)
    s = q_volkenborn_sum(0, 1, 0, q, 3, prec=10)
    assert (s - 1).is_zero()


def _q_volkenborn_loop(n, h, c, r, p, N, w):
    """(1/[p^N]_q) sum_{x<p^N} [x0+x]_q^n q^(hx), term by term, for q = r
    and q^x0 = c mod p^w: the sums of (1 - c q^x)^n q^(hx) and of q^x, over
    (1-q)^n."""
    mod = p ** w
    num = _loop_sum(p, w, p ** N, lambda x: pow(1 - c * pow(r, x, mod), n, mod)
                    * pow(r, h * x, mod))
    bracket = _loop_sum(p, w, p ** N, lambda x: pow(r, x, mod))
    return (PadicNumber.from_int_mod(p, num, w)
            / PadicNumber.from_int_mod(p, 1 - r, w) ** n
            / PadicNumber.from_int_mod(p, bracket, w))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_q_volkenborn_sum_matches_loop(p):
    # v_p(q - 1) <= 2, N <= 3 and n <= 4 lose at most 2 N + 2 (n + 1) digits
    prec, w = 10, 34
    for qf, x0 in product((F(1 + p), F(1 - 2 * p, 1 + p), F(1 + p * p)),
                          (0, 1, F(1, 2), 3)):
        q = Q(p, qf)
        c = padic_pow(Q(p, qf, w), F(x0)).unit
        for N, n, h in product(range(1, 4), range(5), range(-2, 3)):
            got = q_volkenborn_sum(n, h, x0, q, N, prec=prec)
            want = _q_volkenborn_loop(n, h, c, _ratio_mod(p, qf, 1, w),
                                      p, N, w)
            assert want.prec >= prec, (qf, x0, N, n, h)
            assert (got - want).valuation() >= want.valuation() + prec, \
                (qf, x0, N, n, h)


def test_q_volkenborn_sum_deep_level_is_fast():
    start = time.perf_counter()
    s = q_volkenborn_sum(4, 2, 1, Q(5, F(6)), 60, prec=10)
    assert time.perf_counter() - start < 1.0
    assert s.prec >= 10


@pytest.mark.parametrize("h,n", [(0, 1), (1, 0), (1, 2), (2, 3)])
def test_witt_formula(h, n):
    q = Q(5, F(6), 40)
    rep = witt_verify(h, n, q, [3, 4, 5], prec=10)
    assert rep.passed
    vals = [v for _, v in rep.levels]
    assert vals == sorted(vals)


@pytest.mark.parametrize("p,qf,h,n,levels,prec,want", [
    # each level keeps prec + N_max absolute digits; when S_N had only
    # prec + N_max - N, these valuations fell and the checks FAILed
    (3, F(10), 0, 4, [4, 5, 6], 6, [7, 9, 11]),
    (5, F(6), 1, 6, list(range(3, 41)), 16, list(range(4, 42))),
    # the target's Horner steps coerce Fraction coefficients; capped at
    # 4 * DEFAULT_PRECISION + 64 relative digits they held these at 116
    (5, F(6), 1, 6, [100, 130, 160, 168], 16, [101, 131, 161, 169]),
])
def test_witt_precision_does_not_fall_with_level(p, qf, h, n, levels, prec,
                                                 want):
    rep = witt_verify(h, n, Q(p, qf, 40), levels, prec=prec)
    assert rep.passed
    assert [v for _, v in rep.levels] == want


def test_witt_formula_p7():
    q = Q(7, F(8), 40)
    assert witt_verify(1, 2, q, [2, 3, 4], prec=10).passed


# -- identity verifiers ------------------------------------------------------

@pytest.mark.parametrize("b", [1, 2, 3])
def test_shift_identity(b):
    q = Q(5, F(6), 40)
    f = MonomialTestFunction(2, 1, q)
    rep = shift_identity_verify(f, b, 4, prec=12)
    assert rep.passed
    assert rep.levels[0][1] >= 4 - 3


# (150, 16): f'(i) coerces ints, and with coerced operands capped at
# 4 * DEFAULT_PRECISION + 64 relative digits the residual stopped at 129
@pytest.mark.parametrize("N,prec", [(8, 4), (40, 16), (150, 16)])
def test_shift_identity_beyond_working_precision(N, prec):
    # N - slack > prec: the level sums keep N absolute digits, not prec
    q = Q(5, F(6), 40)
    rep = shift_identity_verify(MonomialTestFunction(6, 1, q), 3, N, prec=prec)
    assert rep.passed
    assert rep.levels[0][1] >= N - 3


@pytest.mark.parametrize("prec,slack", [(0, 3), (-5, 3), (16, -1)])
def test_verifiers_reject_meaningless_precision_or_slack(prec, slack):
    q = Q(5, F(6), 40)
    chi4 = next(c for c in enumerate_characters(4) if not c.is_principal())
    calls = [
        lambda: witt_verify(1, 2, q, [3, 4], prec=prec, slack=slack),
        lambda: shift_identity_verify(MonomialTestFunction(2, 1, q), 1, 4,
                                      prec=prec, slack=slack),
        lambda: closed_form_verify(1, Q(5, F(5), 40), q, 4, prec=prec,
                                   slack=slack),
        lambda: padic_generalized_verify(chi4, 1, 1, q, [3, 4], prec=prec,
                                         slack=slack),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_closed_form():
    q = Q(5, F(6), 40)
    t = Q(5, F(5), 40)
    for N in (3, 4, 5):
        rep = closed_form_verify(1, t, q, N, prec=12)
        assert rep.passed, N


def test_generalized_padic_vs_exact():
    q = Q(5, F(6), 40)
    chi3 = next(c for c in enumerate_characters(3) if not c.is_principal())
    chi4 = next(c for c in enumerate_characters(4) if not c.is_principal())
    for chi in (chi3, chi4):
        for n in (0, 1, 2):
            rep = padic_generalized_verify(chi, 1, n, q, [3, 4], prec=12)
            assert rep.passed, (chi.modulus, n)


def test_generalized_requires_coprime_modulus():
    q = Q(5, F(6), 40)
    chi5 = next(c for c in enumerate_characters(5) if not c.is_principal())
    with pytest.raises(PadicDomainError):
        padic_generalized_verify(chi5, 1, 1, q, [3], prec=10)
