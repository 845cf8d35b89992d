"""p-adic arithmetic, Volkenborn sums, and the p-adic identity verifiers."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from qzeta import padic
from qzeta.characters import enumerate_characters, principal_character
from qzeta.exact import LogScalar, RationalFunction
from qzeta.padic import (MonomialTestFunction, PadicDomainError, PadicNumber,
                         PrecisionExhausted, _power_sums, closed_form_verify,
                         eval_log_scalar_padic, padic_exp,
                         padic_generalized_verify, padic_log, padic_pow,
                         q_bracket, q_volkenborn_sum, shift_identity_verify,
                         volkenborn_levels, volkenborn_sum, witt_verify)
from qzeta.qbernoulli import q_bernoulli_number

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


def _reference_series(t, K, log):
    """sum_{1<=k<=K} t^k / den_k in exact Fractions, den_k = (-1)^(k+1) k
    for log(1 + t) and k! for exp t - 1."""
    s, term, fact = F(0), F(1), 1
    for k in range(1, K + 1):
        term *= t
        fact *= k
        s += (term / k if k % 2 else -term / k) if log else term / fact
    return s


# q - 1 and t of valuation 1 and 2 (2 and 3 at p = 2), of either sign and
# with a denominator; at k = p^m the term valuations fall again, so a loop
# that stops at the first term of valuation a misses later terms
LOG_Q = {2: (F(5), F(9), F(-3), F(13, 9), F(1, 5)),
         3: (F(4), F(10), F(-2), F(7, 4), F(1, 4)),
         5: (F(6), F(26), F(-4), F(11, 6)),
         7: (F(8), F(50), F(-6), F(15, 8))}
EXP_T = {2: (F(4), F(8), F(-12), F(4, 3)),
         3: (F(3), F(9), F(-6), F(3, 2)),
         5: (F(5), F(25), F(-10), F(5, 3)),
         7: (F(7), F(49), F(-14))}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_padic_log_exp_match_long_reference_sums(p):
    # every claimed digit is right: the result, known mod p^a, equals a sum
    # of 3a + 30 terms, far past the last term of valuation below a; both
    # an input that remembers its rational and one that does not
    low = 2 if p == 2 else 1                # the least valuation in domain
    for xs in ([x - 1 for x in LOG_Q[p]], EXP_T[p]):
        vals = {padic._vp(x.numerator, p) for x in xs}
        assert {low, low + 1} <= vals
    for a in range(2, 41):
        K = 3 * a + 30
        for kind, xs in (("log", LOG_Q[p]), ("exp", EXP_T[p])):
            for x in xs:
                want = PadicNumber.from_int_mod(
                    p, _reference_series(x - 1, K, True) if kind == "log"
                    else 1 + _reference_series(x, K, False), a)
                z = PadicNumber.from_int_mod(p, x, a)
                args = [z] if z.is_zero() else \
                    [z, PadicNumber.from_fraction(p, x, a - z.val)]
                for arg in args:
                    got = padic_log(arg) if kind == "log" else padic_exp(arg)
                    assert (got.val, got.unit, got.prec) == \
                        (want.val, want.unit, want.prec), (kind, x, a)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_log_domain_test_in_integers_matches_q_minus_1(p):
    # _log_domain_ok(q) decides in integers what _exp_domain_ok(q - 1) does
    # on a p-adic difference, over valuations, zeros and precisions
    qs = [PadicNumber.zero(p), PadicNumber.zero(p, 3), PadicNumber.zero(p, 0),
          PadicNumber.zero(p, -2), PadicNumber(p, 0, 1, 5),
          PadicNumber(p, 0, 1, 9),
          PadicNumber(p, 0, 1 + p ** 9, 10)]
    for val, prec, unit in product((-2, -1, 0, 1, 3), (1, 2, 3, 6),
                                   range(1, 4 * p * p, 2 if p == 2 else 1)):
        if unit % p:
            qs.append(PadicNumber(p, val, unit % p ** prec, prec))
    for x in (*LOG_Q[p], *EXP_T[p], F(1), F(p - 1), F(1, p), F(p * p)):
        qs += [Q(p, x, a) for a in (1, 2, 5)]
    for q in qs:
        assert padic._log_domain_ok(q) == padic._exp_domain_ok(q - 1), repr(q)
    assert sum(map(padic._log_domain_ok, qs)) > 10


def test_padic_log_exp_last_digits():
    # stopping at the first term of valuation a gives 2122*3 + O(3^8) and
    # 845 + O(2^10)
    assert repr(padic_log(PadicNumber.from_fraction(3, F(4), 8))) == \
        "664*3^1 + O(3^8)"
    assert repr(padic_exp(PadicNumber.from_int_mod(2, 4, 10))) == \
        "333*2^0 + O(2^10)"


def test_padic_pow_integer_matches_repeated_product():
    q = Q(5, F(6), 20)
    acc = PadicNumber.from_fraction(5, 1, 20)
    for _ in range(7):
        acc = acc * q
    assert (padic_pow(q, 7) - acc).valuation() >= 18
    assert (padic_pow(q, -2) * padic_pow(q, 2) - 1).valuation() >= 18
    assert (padic_pow(q, 0) - 1).is_zero()


@pytest.mark.parametrize("p,qf", [(5, F(6)), (5, F(2)), (3, F(7, 5))])
def test_padic_pow_integer_fraction_takes_integer_path(p, qf):
    # q = 2 is a unit outside the log domain at p = 5, yet q^3 is defined
    q = Q(p, qf)
    for x in (-2, 0, 3, 11):
        want = padic_pow(q, x)
        got = padic_pow(q, F(x))
        assert (got.val, got.unit, got.prec) == (want.val, want.unit, want.prec)
    start = time.perf_counter()
    for _ in range(100):
        padic_pow(q, F(3))
    assert time.perf_counter() - start < 0.05


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


@pytest.mark.parametrize("value,abs_prec,val", [
    (F(3, 7), 6, 0), (F(50, 3), 6, 2), (F(3, 25), 6, -2), (F(-1, 125), 2, -3),
    (F(125, 7), 3, 3), (0, 4, 4), (-75, 5, 2),
])
def test_from_int_mod_takes_rationals(value, abs_prec, val):
    x = PadicNumber.from_int_mod(5, value, abs_prec)
    assert (x.valuation(), x.abs_prec) == (val, abs_prec)
    assert (x - Q(5, F(value), 40)).valuation() >= abs_prec


# the subprocesses import qzeta from this checkout's src, installed or not
_SUB_ENV = dict(os.environ,
                PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
_BAD_BASE = """
import json, sys, time
from fractions import Fraction
from qzeta.characters import principal_character
from qzeta.padic import (MonomialTestFunction, PadicNumber, closed_form_verify,
                         padic_generalized_verify, shift_identity_verify,
                         witt_verify)
start = time.perf_counter()
try:
    eval(sys.argv[1])
    err = None
except Exception as e:
    err = [type(e).__name__, str(e)]
print(json.dumps({"err": err, "s": time.perf_counter() - start}))
"""


@pytest.mark.parametrize("call,p", [
    ("PadicNumber.from_fraction(1, Fraction(2))", 1),
    ("PadicNumber.from_int_mod(1, 3, 5)", 1),
    ("PadicNumber.from_fraction(-1, Fraction(2))", -1),
    ("witt_verify(1, 2, PadicNumber.from_fraction(1, Fraction(2)), [3])", 1),
    ("PadicNumber.from_fraction(0, Fraction(2))", 0),
    ("PadicNumber.zero(1)", 1),
])
def test_base_below_2_raises_fast(call, p):
    # the p-adic valuation loops forever at p = 1 or -1; a subprocess, so
    # that a hang fails the test instead of the run
    done = subprocess.run([sys.executable, "-c", _BAD_BASE, call],
                          capture_output=True, text=True, timeout=10,
                          env=_SUB_ENV)
    doc = json.loads(done.stdout)
    assert doc["err"] == ["ValueError", f"p = {p} must be a prime >= 2"]
    assert doc["s"] < 1


@pytest.mark.parametrize("p", [4, 9, 15])
@pytest.mark.parametrize("call", [
    "witt_verify(1, 2, {q}, [3, 4])",
    "shift_identity_verify(MonomialTestFunction(2, 1, {q}), 3, 4)",
    "closed_form_verify(1, PadicNumber.from_fraction({p}, {p}, 40), {q}, 4)",
    "padic_generalized_verify(principal_character(1), 1, 2, {q}, [3, 4])",
], ids=["witt", "shift", "closedform", "twisted"])
def test_composite_base_raises_fast(call, p):
    # the constructors take any p >= 2; each verifier names a composite p
    # before a unit mod p^w turns out to have no inverse
    q = f"PadicNumber.from_fraction({p}, {p + 1}, 40)"
    done = subprocess.run([sys.executable, "-c", _BAD_BASE,
                           call.format(p=p, q=q)],
                          capture_output=True, text=True, timeout=10,
                          env=_SUB_ENV)
    doc = json.loads(done.stdout)
    assert doc["err"] == ["ValueError", f"p = {p} is not prime"]
    assert doc["s"] < 1


@pytest.mark.parametrize("p", [4, 9])
@pytest.mark.parametrize("call", [
    lambda p: padic_log(Q(p, F(p + 1), 20)),
    lambda p: padic_exp(Q(p, F(p * p), 20)),
    lambda p: volkenborn_levels(2, 1, Q(p, F(p + 1), 20), [3]),
    lambda p: volkenborn_sum(MonomialTestFunction(2, 1, Q(p, F(p + 1), 20)), 3),
    lambda p: q_volkenborn_sum(2, 1, 0, Q(p, F(p + 1), 20), 3),
], ids=["log", "exp", "levels", "volkenborn", "q_volkenborn"])
def test_composite_base_outside_the_verifiers_is_named(call, p):
    # each checks p with its other arguments, before a unit mod p^w turns
    # out to have no inverse ("base is not invertible for the given modulus")
    with pytest.raises(ValueError, match=rf"^p = {p} is not prime$"):
        call(p)


def test_eval_log_scalar_padic_is_exact_in_its_rational_parts():
    # B_8^(3) at q = 10, p = 3: the two parts have valuation -22 and -24
    # and their sum -1; the value is still known to the absolute precision
    # of q, so two precisions agree that far
    b = q_bernoulli_number(3, 8)
    lo = eval_log_scalar_padic(b, Q(3, F(10), 20))
    hi = eval_log_scalar_padic(b, Q(3, F(10), 40))
    assert (lo.abs_prec, hi.abs_prec) == (20, 40)
    assert (lo - hi).valuation() >= 20


def test_eval_log_scalar_padic_needs_an_exact_q():
    q = Q(5, F(6), 20) * 1        # a result of arithmetic forgets F(6)
    with pytest.raises(PrecisionExhausted):
        eval_log_scalar_padic(q_bernoulli_number(1, 2), q)


def test_eval_log_scalar_padic_log_free_needs_no_log_domain():
    # q = 2 is outside the log domain at p = 5, but 3/q^2 reads no log q
    a = LogScalar(RationalFunction.q_power(-2) * 3)
    got = eval_log_scalar_padic(a, Q(5, F(2), 20))
    assert (got - Q(5, F(3, 4), 40)).valuation() >= 20
    with pytest.raises(PadicDomainError):
        eval_log_scalar_padic(a + LogScalar.lam(), Q(5, F(2), 20))


def test_monomial_test_function_needs_n_nonnegative():
    with pytest.raises(ValueError, match="n must be >= 0"):
        MonomialTestFunction(-1, 1, Q(5, F(6)))


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
    with pytest.raises(PadicDomainError, match=r"^q\^h must be 1 mod p: "):
        shift_identity_verify(MonomialTestFunction(2, 1, q), 1, 3)
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
                    _power_sums(r, range(9), [N], p, w)
                continue
            want = _loop_power_sums(r, 8, p ** N, p, w)
            assert _power_sums(r, range(9), [N], p, w) == [want], \
                (make_q(p), N)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_power_sums_at_a_subset_of_k(p):
    # S_k for k in ks alone: the entries of the full result, and of the
    # loop, in the order of ks; rows below max(ks) still feed the ones read
    for make_q, h in product(ORACLE_Q, (-2, 1, 2)):
        w = 11
        r = _ratio_mod(p, make_q(p), h, w)
        if (r - 1) % p:
            continue
        levels = [1, 2, 3]
        full = _power_sums(r, range(9), levels, p, w)
        for ks in ([8], [0], [3], [0, 5], [2, 3, 7], [1, 8], []):
            got = _power_sums(r, ks, levels, p, w)
            assert got == [[row[k] for k in ks] for row in full], (ks, h)
            for N, sums in zip(levels, got):
                want = _loop_power_sums(r, max(ks, default=0), p ** N, p, w)
                assert sums == [want[k] for k in ks], (ks, h, N)


def test_witt_sums_only_its_own_power(monkeypatch):
    # witt asks the Mahler core for S_n alone; volkenborn_levels for the
    # whole family 0..n
    seen = []
    real = padic._power_sums

    def spy(r, ks, *rest):
        seen.append(list(ks))
        return real(r, ks, *rest)
    monkeypatch.setattr(padic, "_power_sums", spy)
    q = Q(5, F(6), 40)
    for n in range(7):
        seen.clear()
        witt_verify(1, n, q, [3, 4, 5], 12, 3)
        assert seen == [[n]]
    seen.clear()
    volkenborn_levels(4, 1, q, [3])
    assert seen == [[0, 1, 2, 3, 4]]


@pytest.fixture
def residues(monkeypatch):
    """The integers the verifiers reduce to p-adic numbers, in call order."""
    seen = []
    real = PadicNumber.from_int_mod

    def spy(cls, p, value, abs_prec):
        # the exact targets come in as Fractions, and padic_log reduces its
        # own integer series; the sums are the integers a verifier reduces,
        # itself or (witt and twisted) in the level sums' core, from a
        # comprehension there
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        name = frame.f_code.co_name
        if (isinstance(value, int)
                and (name.endswith("_verify") or name == "_level_sums")):
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
        # one residue: sum_{x<p^N} f(x+b) - f(x), from its b end terms
        assert residues == [(want_fb - want_f) % mod], n


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


def test_q_volkenborn_sum_has_a_work_bound():
    # (n + 2) N log2 p squarings mod p^w against MAX_SHIFT_TERMS: at these
    # arguments N = 1253 is the largest level accepted (about 0.3 s), and N =
    # 1254 and N = 30000 raise before anything of size p^w is built (30000
    # used to run for minutes)
    q = Q(5, F(6))
    start = time.perf_counter()
    with pytest.raises(PrecisionExhausted, match="MAX_SHIFT_TERMS"):
        q_volkenborn_sum(2, 1, 0, q, 30000, prec=10)
    with pytest.raises(PrecisionExhausted):
        q_volkenborn_sum(2, 1, 0, q, 1254, prec=10)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert q_volkenborn_sum(2, 1, 0, q, 1253, prec=10).prec >= 10
    assert time.perf_counter() - start < 2.0


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
    # q^3 - 1 = 27 * 37 at q = 10 and q - 1 = 5^20 put p in both parts'
    # denominators, and the parts cancel 21 digits (B_8^(3), B_7^(3)) and
    # 40 (B_2^(1)): the target keeps prec + N_max digits only when its
    # rational parts are exact
    (3, F(10), 3, 8, list(range(3, 10)), 16, [4, 6, 8, 11, 11, 12, 13]),
    (3, F(10), 3, 7, list(range(3, 10)), 16, [2, 3, 4, 5, 6, 7, 8]),
    (5, F(1 + 5 ** 20), 1, 2, [3, 4, 5, 6], 16, [3, 4, 5, 6]),
])
def test_witt_precision_does_not_fall_with_level(p, qf, h, n, levels, prec,
                                                 want):
    rep = witt_verify(h, n, Q(p, qf, 40), levels, prec=prec)
    assert rep.passed
    assert [v for _, v in rep.levels] == want


# (h, q, valuations at levels 3..9) of B_8^(h) at p = 3: the seven cases of
# the witt grid (p in 3, 5, 7; h in -2..3; n <= 8; four q) whose valuations
# do not increase
_DIPS = [(1, F(10), [4, 6, 11, 9, 10, 11, 12]),
         (-1, F(-2), [7, 5, 6, 7, 8, 9, 10]),
         (-1, F(4, 7), [6, 5, 6, 7, 8, 9, 10]),
         (-2, F(4), [6, 5, 6, 7, 8, 9, 10]),
         (1, F(4), [6, 5, 6, 7, 8, 9, 10]),
         (2, F(-2), [6, 5, 6, 7, 8, 9, 10]),
         (2, F(4, 7), [7, 5, 6, 7, 8, 9, 10])]


@pytest.mark.parametrize("prec", [16, 30])
def test_witt_true_valuations_need_not_increase(prec):
    # S_N can be closer to the target than S_(N+1), at every precision (at
    # q = 10, h = 1, S_5 beats S_6); each level still reaches its own bar
    # min(prec, N - slack), so the identity passes
    for h, q, want in _DIPS:
        rep = witt_verify(h, 8, Q(3, q, 40), list(range(3, 10)), prec=prec)
        assert [v for _, v in rep.levels] == want, (h, q)
        assert rep.passed, (h, q)


def test_witt_formula_p7():
    q = Q(7, F(8), 40)
    assert witt_verify(1, 2, q, [2, 3, 4], prec=10).passed


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_witt_is_twisted_at_the_character_mod_1(p):
    # B_{n,chi}^{(h)} at the one character mod 1 is B_n^{(h)}: the twisted
    # check there reads Witt's valuations and verdict
    chi = principal_character(1)
    for qf, h, n in product((F(5), F(13, 9)) if p == 2
                            else (F(1 + p), F(1 + p, 1 + 2 * p)),
                            range(-2, 4), range(7)):
        q = Q(p, qf, 40)
        witt = witt_verify(h, n, q, [3, 4, 5], prec=12)
        twisted = padic_generalized_verify(chi, h, n, q, [3, 4, 5], prec=12)
        assert (twisted.levels, twisted.passed) == \
            (witt.levels, witt.passed), (qf, h, n)


def test_witt_reads_the_level_sums_of_volkenborn_levels(monkeypatch):
    # witt sums its own n alone; each value it reads is S_N of the whole
    # family n' <= n, digit for digit
    seen = []
    monkeypatch.setattr(padic, "_target_verdict",
                        lambda *a: seen.append(a[-1]))
    levels = [3, 4, 6]
    for p in (2, 3, 5, 7):
        q = Q(p, F(5) if p == 2 else F(1 + p), 40)
        for h, n in product(range(-2, 4), range(9)):
            seen.clear()
            witt_verify(h, n, q, levels)
            (sums,) = seen
            want = volkenborn_levels(n, h, q, levels)
            for N in levels:
                got, ref = sums[N][-1], want[N][n]
                assert (got.val, got.unit, got.prec) == \
                    (ref.val, ref.unit, ref.prec), (p, h, n, N)


def test_witt_reduces_one_value_per_level(residues):
    # 3 levels, 3 residues: the family n' <= 6 would reduce 21
    q = PadicNumber.from_fraction(5, 6, 40)
    assert witt_verify(1, 6, q, [3, 4, 5], 12, 3).passed
    assert len(residues) == 3


def test_twisted_verdict_reads_every_level():
    # at slack 0 level 2 misses its bar min(4, 2) by one digit while level 7
    # clears min(4, 7): witt's every-level rule fails where a rule reading
    # the last level alone would pass, for the twisted check too
    q = Q(3, F(4), 40)
    chi = enumerate_characters(4)[0]
    for rep in (witt_verify(-2, 5, q, [2, 3, 7], 4, 0),
                padic_generalized_verify(chi, -2, 5, q, [2, 3, 7], 4, 0)):
        assert rep.levels == ((2, 1), (3, 2), (7, 6))
        assert not rep.passed


# sha256 of the reports below, as the witt and twisted checks and
# volkenborn_levels gave them before the two checks shared one core
_PINNED = {
    "witt": "34f8584254686dcc518680cd4e509a44818a8057ebca47a35950f0ebad19c5aa",
    "twisted": "ed07b15ab0ac4ec574bee2b4484d7cd27b86ed6a8afa42ce6bc1144cc2c42e7f",
    "levels": "7958f1a8087d5363ac04789f2d111c898c876d67a6ae013307d86c030c12a32a",
}
_PINNED_Q = ((2, F(5)), (3, F(4, 7)), (3, F(2)), (5, F(6)), (5, F(1)),
             (7, F(50)))


def _pinned_calls(kind):
    if kind == "witt":
        for (p, qf), h, n in product(_PINNED_Q, (-2, 1, 3), (0, 3, 6)):
            yield lambda: witt_verify(h, n, Q(p, qf, 40), range(3, 8), 12)
    elif kind == "twisted":
        for (p, qf), d in product(_PINNED_Q, (3, 4, 8)):
            for chi in enumerate_characters(d):
                if d % p and chi.is_real():
                    for h, n in ((-1, 1), (2, 4)):
                        yield lambda: padic_generalized_verify(
                            chi, h, n, Q(p, qf, 40), [3, 4, 5, 6], 10)
    else:
        for (p, qf), h in product(_PINNED_Q, (-1, 2)):
            yield lambda: volkenborn_levels(4, h, Q(p, qf, 40), [2, 5], 12)


@pytest.mark.parametrize("kind", sorted(_PINNED))
def test_witt_twisted_reports_are_pinned(kind):
    lines = []
    for call in _pinned_calls(kind):
        try:
            got = call()
        except (ArithmeticError, ValueError) as e:
            lines.append(f"{type(e).__name__}: {e}")
            continue
        lines.append(repr(got) if kind == "levels"
                     else json.dumps(got.to_dict(), sort_keys=True))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _PINNED[kind]


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


# (p, q, h, n, b, N, prec, valuation), as computed from both level sums in
# closed form; at N = 20 the residual is known to w - N = 20 digits
@pytest.mark.parametrize("p,qf,h,n,b,N,prec,v", [
    (5, F(6), 2, 3, 7, 6, 16, 6),
    (5, F(6), -3, 2, 300, 5, 16, 7),
    (3, F(4), 0, 4, 7, 20, 3, 20),
    (2, F(5), 2, 0, 7, 8, 16, 13),
    (7, F(8), -3, 0, 300, 4, 16, 6),
    (2, F(13, 9), 1, 5, 300, 20, 16, 20),
    (3, F(10), 2, 1, 7, 20, 16, 20),
])
def test_shift_reports_are_pinned(p, qf, h, n, b, N, prec, v):
    rep = shift_identity_verify(MonomialTestFunction(n, h, Q(p, qf, 40)), b,
                                N, prec=prec)
    assert rep.to_dict() == {
        "identity": "shift",
        "params": {"N": N, "b": b, "h": h, "n": n, "p": p, "slack": 3},
        "pass": True, "levels": [{"N": N, "valuation": v}],
        "witnesses": [{"case": f"N={N}", "discrepancy": v}]}


@pytest.mark.parametrize("call", [
    lambda q: witt_verify(1, 2, q, [2, 3]),
    lambda q: shift_identity_verify(MonomialTestFunction(2, 1, q), 1, 3),
], ids=["witt", "shift"])
def test_q_must_be_a_unit(call):
    with pytest.raises(PadicDomainError, match=r"^q must be a p-adic unit$"):
        call(Q(5, F(5), 40))


def test_shift_needs_b_at_least_1():
    with pytest.raises(ValueError, match=r"^b must be >= 1$"):
        shift_identity_verify(MonomialTestFunction(2, 1, Q(5, F(6), 40)), 0, 3)


def test_shift_reads_log_q_in_its_domain():
    # q = 2 has q^2 = 1 mod 3, but log_3 2 is not defined
    with pytest.raises(PadicDomainError,
                       match=r"need \|q-1\|_p < p\^\(-1/\(p-1\)\)"):
        shift_identity_verify(MonomialTestFunction(1, 2, Q(3, F(2), 40)), 3, 4)


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


_CHI4 = next(c for c in enumerate_characters(4) if not c.is_principal())


@pytest.mark.parametrize("N", [0, -1])
@pytest.mark.parametrize("call", [
    lambda q, N: witt_verify(1, 3, q, [N]),
    lambda q, N: padic_generalized_verify(_CHI4, 1, 2, q, [N]),
    lambda q, N: shift_identity_verify(MonomialTestFunction(1, 1, q), 1, N),
    lambda q, N: closed_form_verify(1, Q(5, F(5), 40), q, N),
    lambda q, N: volkenborn_levels(2, 1, q, [N]),
    lambda q, N: volkenborn_sum(MonomialTestFunction(2, 1, q), N),
    lambda q, N: q_volkenborn_sum(2, 1, 0, q, N),
], ids=["witt", "twisted", "shift", "closedform", "levels", "volkenborn",
        "q_volkenborn"])
def test_levels_below_1_are_refused(call, N):
    # at N <= 0 a verifier's bar min(prec, N - slack) is <= 0, so its verdict
    # would check nothing (a vacuous PASS at N = 0), and a level sum there is
    # no approximant (volkenborn_levels would give S_0 = [1, 0, 0] at N = 0)
    with pytest.raises(ValueError, match=rf"^levels \[{N}\] must be "
                                         r"non-empty, each N >= 1$"):
        call(Q(5, F(6), 40), N)


@pytest.mark.parametrize("call", [
    lambda q: witt_verify(1, 3, q, []),
    lambda q: padic_generalized_verify(_CHI4, 1, 2, q, []),
    lambda q: volkenborn_levels(2, 1, q, []),
], ids=["witt", "twisted", "levels"])
def test_empty_levels_are_refused(call):
    with pytest.raises(ValueError, match=r"^levels \[\] must be non-empty"):
        call(Q(5, F(6), 40))


def test_base_at_or_above_2_64_is_refused():
    # the twelve-base Miller-Rabin test is exact only below 2^64: this
    # product of two primes passes it, and witt_verify at q = 1 + p would
    # return PASS; the verifiers refuse such a p by the bound, as the CLI does
    p = 318665857834031151167461
    assert p == 399165290221 * 798330580441 and padic._is_prime(p)
    with pytest.raises(ValueError,
                       match=rf"^p = {p} is not below the bound 2\^64$"):
        witt_verify(1, 2, Q(p, F(1 + p), 40), [1, 2], prec=4)
    padic._check_prime(2 ** 64 - 59)      # the largest prime below 2^64
    with pytest.raises(ValueError, match=r"is not below the bound 2\^64$"):
        padic._check_prime(2 ** 64 + 13)


def test_closed_form():
    q = Q(5, F(6), 40)
    t = Q(5, F(5), 40)
    for N in (3, 4, 5):
        rep = closed_form_verify(1, t, q, N, prec=12)
        assert rep.passed, N


def test_closed_form_refuses_a_ratio_of_1():
    # h = 0, t = 0: q^h e^t = 1, and the geometric sum has no closed form
    with pytest.raises(PadicDomainError,
                       match=r"^q\^h e\^t = 1 to working precision$"):
        closed_form_verify(0, Q(5, F(0), 40), Q(5, F(6), 40), 3)


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


def test_generalized_padic_needs_a_quadratic_character():
    # 5 is prime to 3, but the target is exact only for values in {-1, 0, 1}
    chi5 = next(c for c in enumerate_characters(5) if not c.is_real())
    with pytest.raises(PadicDomainError,
                       match=r"^p-adic route needs a quadratic character$"):
        padic_generalized_verify(chi5, 1, 1, Q(3, F(4), 40), [3], prec=10)
