"""Complex-analytic layer: tail-bounded series and interpolation checks."""

import cmath
import math
import re
import sys

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qzeta import analytic
from qzeta.analytic import (DEFAULT_CONFIG, PoleAt1, SeriesDivergence,
                            SeriesEvalConfig, TruncationFailure, _char_sum,
                            _combine, _lerch, _ratio,
                            l_interpolation_verify, lerch_sum_with_bound,
                            q_hurwitz_zeta, q_hurwitz_zeta_with_bound,
                            q_lfunction,
                            q_lfunction_with_bound, q_zeta,
                            zeta_interpolation_verify)
from qzeta.characters import enumerate_characters, principal_character
from qzeta.exact import DomainError

CFG = SeriesEvalConfig(tol=1e-13)


def test_config_validation():
    with pytest.raises(ValueError):
        SeriesEvalConfig(tol=1e-16)
    with pytest.raises(ValueError):
        SeriesEvalConfig(max_terms=10 ** 9)
    with pytest.raises(ValueError):
        SeriesEvalConfig(tol=math.nan)
    with pytest.raises(ValueError):
        SeriesEvalConfig(max_terms=0)


@pytest.mark.parametrize("w,s,x", [
    (0.5, math.nan, 1.0), (0.5, complex(1, math.nan), 1.0),
    (0.5, math.inf, 1.0), (0.5, 2, math.nan), (0.5, 2, math.inf),
    # a NaN w fails every stopping test, so the loop would run max_terms
    (complex(math.nan, 0), 2, 1.0)],
    ids=["nan-1.0", "(1+nanj)-1.0", "inf-1.0", "2-nan", "2-inf", "nan_w"])
def test_lerch_rejects_non_finite_s_or_x(w, s, x):
    with pytest.raises(DomainError):
        lerch_sum_with_bound(w, s, x)
    with pytest.raises(DomainError):
        _lerch(w, s, x, 0.5j, CFG)


@pytest.mark.parametrize("w", [math.inf, complex(math.inf, math.nan)])
def test_lerch_infinite_w_diverges(w):
    with pytest.raises(SeriesDivergence):
        _lerch(w, 2, 1.0, 0.5j, CFG)


@pytest.mark.parametrize("w,s,x", [
    (0.3, 2.5, 1.0),
    (0.5 + 0.2j, 1.5 + 1.0j, 0.7),
    (-0.4, -1.5, 2.0),
    (0.7, -3.0, 0.25),
])
def test_lerch_sum_against_mpmath(w, s, x):
    got = lerch_sum_with_bound(w, s, x, CFG)[0]
    ref = complex(mp.lerchphi(w, s, x))
    assert abs(got - ref) < 1e-11


def test_lerch_tail_bound_is_honest():
    val, bound = lerch_sum_with_bound(0.6, 1.3, 0.5, CFG)
    ref = complex(mp.lerchphi(0.6, 1.3, 0.5))
    assert abs(val - ref) <= bound + 1e-13


def test_lerch_sum_at_a_late_peak_against_direct_summation():
    # at s = -60 the terms w^k (k + x)^60 grow until k = 2 before they fall,
    # so a stop on the tail bound alone, without the ratio test, ends at
    # k = 1 with the sum 0 (x^60 = 1e-360 underflows).  The reference is
    # not mp.lerchphi: at this point it returns 2.09e17 at 50 dps and 1.03e5
    # at 100 dps.  It is the direct sum of the first 60 terms at 60 dps,
    # plus a bound on the rest: past k = 60 the ratio of successive terms is
    # at most r = w ((K + 1 + x)/(K + x))^60 < 1, so the rest is at most
    # term_K / (1 - r)
    w, s, x, K = 1e-13, -60, 1e-6, 60
    val, bound = lerch_sum_with_bound(w, s, x)
    with mp.workdps(60):
        mw, mx = mp.mpf(w), mp.mpf(x)
        ref = mp.fsum(mw ** k * (k + mx) ** -s for k in range(K))
        r = mw * ((K + 1 + mx) / (K + mx)) ** -s
        rest = mw ** K * (K + mx) ** -s / (1 - r)
        assert rest < mp.mpf(10) ** -600
        err = abs(mp.mpf(val.real) - ref)
    assert val.imag == 0
    assert bound < 1e-13
    # the tail bound, plus float rounding of the few summed terms
    assert err <= bound + 1e-15 * abs(val)
    assert float(ref) == pytest.approx(1.1572053073e-8, rel=1e-10)


def test_lerch_domain_errors():
    with pytest.raises(SeriesDivergence):
        lerch_sum_with_bound(1.2, 2.0, 1.0, CFG)
    with pytest.raises(DomainError):
        lerch_sum_with_bound(0.5, 2.0, -1.0, CFG)


def test_zeta_is_hurwitz_at_one():
    for h, qv, s in [(1, 0.4, 2.3), (2, 0.6 + 0.1j, 1.5 - 0.5j)]:
        assert q_zeta(h, qv, s, CFG) == q_hurwitz_zeta(h, qv, s, 1.0, CFG)


def test_zeta_pole_and_domain():
    with pytest.raises(PoleAt1):
        q_zeta(1, 0.5, 1.0, CFG)
    with pytest.raises(DomainError):
        q_zeta(1, 1.5, 2.0, CFG)
    with pytest.raises(DomainError):
        q_zeta(1, 0.0, 2.0, CFG)


def test_zeta_next_to_the_pole_is_refused():
    # at s - 1 = 1e-310j, h log q/(s - 1) is infinite: a DomainError before
    # any term, not a series whose bound never falls to tol
    with pytest.raises(DomainError, match="is not finite"):
        q_zeta(1, 0.5, 1 + 1e-310j, CFG)


def test_zeta_brute_force_oracle():
    # definition: sum q^{(n-1)h}/n^s - (h log q/(s-1)) sum q^{(n-1)h}/n^{s-1}
    h, qv, s = 2, 0.35, 2.7
    a = sum(qv ** ((n - 1) * h) / n ** s for n in range(1, 3000))
    b = sum(qv ** ((n - 1) * h) / n ** (s - 1) for n in range(1, 3000))
    want = a - h * cmath.log(qv) / (s - 1) * b
    assert abs(q_zeta(h, qv, s, CFG) - want) < 1e-11


def test_lfunction_brute_force_oracle():
    h, qv, s = 1, 0.3, 2.2
    for d in (3, 4, 5):
        for chi in enumerate_characters(d):
            a = sum(chi.value_complex(n) * qv ** (n * h) / n ** s
                    for n in range(1, 2000))
            b = sum(chi.value_complex(n) * qv ** (n * h) / n ** (s - 1)
                    for n in range(1, 2000))
            want = a - h * cmath.log(qv) / (s - 1) * b
            got = q_lfunction(h, qv, s, chi, CFG)
            assert abs(got - want) < 1e-10, (d, chi.exponents)


@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("x", [1.0, 0.5, 2.7])
def test_zeta_interpolation(h, x):
    for n in (1, 2, 3, 5):
        rep = zeta_interpolation_verify(h, 0.4, n, x, CFG)
        assert rep.passed, (h, n, x)


def test_zeta_interpolation_needs_n_at_least_1():
    # s = 1 - n = 1 is the pole, and there is no B_0 / 0
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        zeta_interpolation_verify(1, 0.5, 0, 1.0)


def test_l_interpolation_nontrivial_moduli():
    for d in (3, 4):
        for chi in enumerate_characters(d):
            for n in (1, 2, 3):
                rep = l_interpolation_verify(1, 0.4, n, chi, CFG)
                assert rep.passed, (d, chi.exponents, n)


def test_l_interpolation_mod1_matches_plain_bernoulli_for_n_ge_2():
    chi = principal_character(1)
    for n in (2, 3, 4):
        assert l_interpolation_verify(1, 0.4, n, chi, CFG).passed


@pytest.mark.xfail(strict=True, reason="residual is exactly 1 at modulus 1, "
                   "n = 1: L(0) interpolates -B_1(1) = 1/2 - B_1")
def test_l_interpolation_mod1_n1():
    chi = principal_character(1)
    assert l_interpolation_verify(1, 0.4, 1, chi, CFG).passed


def test_l_interpolation_mod1_n1_residual_is_one():
    chi = principal_character(1)
    rep = l_interpolation_verify(1, 0.4, 1, chi, CFG)
    assert not rep.passed
    assert abs(abs(rep.witnesses[0][1]) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# the one series of a zeta or L value, sum w^k (k+x)^(-s) (1 - fac (k+x))
# ---------------------------------------------------------------------------

_U = 2.0 ** -53                 # unit roundoff


def _stop(w, s, x, fac, tol):
    """(K, sum_{k<K} |w|^k (k+x)^(-Re s) (1 + |fac| (k+x))): the k at which
    `_lerch`'s series stops, by its own float stopping test, and the size
    of the K terms it sums."""
    aw, rs, afac = abs(w), s.real, abs(fac)
    r, r1 = _ratio(aw, rs), _ratio(aw, rs - 1)
    rt, rr = (rs - 1, r1) if afac else (rs, r)
    k, wk, tot = 0, 1 + 0j, 0.0
    while True:
        tot += abs(wk) * (k + x) ** -rs * (1 + afac * (k + x))
        k += 1
        wk *= w
        kx = k + x
        bound = abs(wk) * kx ** -rs / (1 - r)
        if afac:
            bound += afac * (abs(wk) * kx ** (1 - rs) / (1 - r1))
        if bound <= tol and (rt >= 0 or aw * ((k + 1 + x) / kx) ** -rt <= rr):
            return k, tot


# The rounding of sum_{k<K} w^k (k+x)^(-s) (1 - fac (k+x)), as `_lerch`
# sums it, per term and to first order in u:
#   - w^k, k complex products: sqrt(5) k u (Brent, Percival and
#     Zimmermann, Math. Comp. 76 (2007)); at a real w, k u;
#   - k + x rounds once, which moves (k+x)^(-s) by |s| u and fac (k+x) by
#     u |fac| (k+x);
#   - the power: pow(k+x, -Re s) within 1 ulp, 2 u; at a complex s its
#     phase -Im s log(k+x) takes the ulp of log and a product's rounding,
#     3 u |Im s| L, with L = max(log(K+x), |log x|) the largest |log(k+x)|,
#     and cos, sin and the two products by the modulus add 3 u;
#   - w^k times the power, sqrt(5) u;
#   - fac (k+x), sqrt(5) u |fac| (k+x), and 1 minus it, u |1 - fac (k+x)|;
#   - the product of the two factors, sqrt(5) u;
#   - the K - 1 sums, each part rounded once: sqrt(2) (K - 1) u sum |term|.
# With |1 - fac (k+x)| <= 1 + |fac| (k+x), the value is within (c1 K + c2
# |Im s| L + c3) u sum_{k<K} |w|^k (k+x)^(-Re s) (1 + |fac| (k+x)) of the
# exact sum of its first K terms, with c1 = 4 > sqrt(5) + sqrt(2), c2 = 3
# and c3 = |s| + 14 > |s| + 2 + 3 + 3 sqrt(5) + 2 + 1.  The factor 1.01
# takes the higher orders, while K u and |s| L u stay below 1e-3.
def _rounding_bound(s, x, K, tot):
    L = max(math.log(K + x), -math.log(x))
    return 1.01 * (4 * K + 3 * abs(s.imag) * L + abs(s) + 14) * _U * tot


def _mp_lerch(w, s, x, fac, dps):
    """sum_k w^k (k+x)^(-s) (1 - fac (k+x)) as a direct mp.fsum at `dps`
    digits, as (value, tail, size): it runs to an N, a multiple of 16, from
    which on the bounds |w|^k (k+x)^(-Re s) (1 + |fac| (k+x)) of the terms
    fall by a ratio r < 1, and where the tail bound_N/(1 - r) is at most
    1e-20 of the size sum_{k<N} |term|.  The fsum of N terms at dps digits
    is within N 10^(1 - dps) of the size."""
    real = w.imag == 0 and s.imag == 0 and fac.imag == 0
    num = mp.mpf if real else mp.mpc
    with mp.workdps(dps):
        mw, ms, mf = (num(v.real if real else v) for v in (w, s, fac))
        mx = mp.mpf(x)
        aw, afac, e = abs(w), abs(fac), max(-s.real, 0) + 1
        terms, size = [], mp.mpf(0)
        wk, k = num(1), 0
        while True:
            kx = k + mx
            term = wk * mp.exp(-ms * mp.log(kx)) * (1 - mf * kx)
            terms.append(term)
            size += abs(term)
            k += 1
            wk *= mw
            if aw == 0:
                lt = -math.inf
                break
            if k % 16:
                continue
            # in logs, so that no size underflows; the bound's ratio is at
            # most |w| ((k+1+x)/(k+x))^(max(-Re s, 0) + 1)
            r = aw * ((k + 1 + x) / (k + x)) ** e
            lt = (k * math.log(aw) - s.real * math.log(k + x)
                  + math.log(1 + afac * (k + x)) - math.log(1 - r)
                  if r < 1 else math.inf)
            if size and lt <= float(mp.log(size * 1e-20)):
                break
        return complex(mp.fsum(terms)), math.exp(lt), float(size)


# |w| from U(0, 0.99) and 1 - 10^U(-2, 0), real (w < 0 too) or complex
_ABS_W_ORACLE = st.one_of(st.floats(0, 0.99),
                          st.floats(-2, 0).map(lambda e: 1 - 10 ** e))
_W_ORACLE = st.one_of(_ABS_W_ORACLE, _ABS_W_ORACLE.map(lambda a: -a),
                      st.builds(cmath.rect, _ABS_W_ORACLE,
                                st.floats(-math.pi, math.pi)))
_S_ORACLE = st.builds(complex, st.one_of(st.floats(-12, 6), st.integers(-12, 6)),
                      st.one_of(st.just(0.0), st.floats(-6, 6)))
# fac = 0, real or complex, |fac| from 10^U(-6, 1)
_ABS_FAC = st.floats(-6, 1).map(lambda e: 10 ** e)
_FAC = st.one_of(st.just(0.0), _ABS_FAC, _ABS_FAC.map(lambda a: -a),
                 st.builds(cmath.rect, _ABS_FAC, st.floats(-math.pi, math.pi)))


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(_W_ORACLE, _S_ORACLE, st.floats(0, 3, exclude_min=True), _FAC,
       st.sampled_from([1e-12, 1e-14]))
@example(0.99, complex(-12), 0.5, 0.0, 1e-14)   # the most terms: about 10^4
@example(0.99, complex(-12), 0.5, 0.3 - 0.1j, 1e-14)
@example(cmath.rect(0.95, 1.0), complex(-12, 6), 3.0, 2.0, 1e-12)
@example(-0.9, complex(6), 1e-300, 0.0, 1e-12)  # x^-6 overflows
def test_lerch_pair_within_its_bounds_of_a_direct_fsum(w, s, x, fac, tol):
    # the value within its tail bound + `_rounding_bound` of direct
    # mp.fsums of the same series at 40 and 60 dps, which agree; these, not
    # the bits of a former loop, guard the kernel's values
    cfg = SeriesEvalConfig(tol)
    fac = complex(fac)
    try:
        got, bound = _lerch(w, s, x, fac, cfg)
    except OverflowError:
        # only the first power can leave the float range
        assert -s.real * math.log(x) > math.log(sys.float_info.max)
        return
    lo, (ref, tail, size) = (_mp_lerch(w, s, x, fac, dps) for dps in (40, 60))
    assert abs(lo[0] - ref) <= 1e-30 * size
    K, summed = _stop(w, s, x, fac, tol)
    slack = bound + _rounding_bound(s, x, K, summed) + tail + 1e-30 * size
    assert abs(got - ref) <= slack, (got, ref, slack)


def _zeta_fac(w, s):
    """fac = log w/(s - 1), that of zeta_w^{(1)}(s, x)."""
    return cmath.log(w) / (complex(s) - 1)


def test_tail_ratio_rounding_to_1_raises_before_summing():
    # |w| = 1 - 2^-53, the largest float below 1: for Re s < 0 the tail
    # ratio (1 + |w|)/2 rounds to 1 and no tail bound exists.  At s = 0.5
    # only the part at s - 1 lacks one, and at fac = 0 there is none: the
    # sum at s goes on and truncates
    w = 1 - 2.0 ** -53
    msg = ("|w| = 0.9999999999999999: the tail ratio (1 + |w|)/2 rounds to "
           "1, so no tail bound holds")
    assert _failure(lerch_sum_with_bound, w, -1, 1.0) == msg
    assert _failure(_lerch, w, 0.5, 1.0, 0.25, CFG) == msg
    cfg = SeriesEvalConfig(1e-12, 50)
    assert (_failure(lerch_sum_with_bound, w, 0.5, 1.0, cfg)
            == "tail bound 1261260172928567.2 still above tol after 50 terms")


def _failure(fn, *args):
    with pytest.raises(TruncationFailure) as info:
        fn(*args)
    return str(info.value)


# repr of lerch_sum_with_bound (`single`, its values and stopping k byte
# for byte as the loop that took each Lerch series alone gave them) and of
# `_lerch` at fac (`pair`, the series at s and s - 1 as one) at tol 1e-13.
# The bounds' last digits are those of the bound read off term k (within
# `_bound_slack` of the former formula's).  fac is `_zeta_fac`, that
# of zeta_w^{(1)}(s, x), and 0.5 at w = 0.  Each `pair` value was checked
# once to lie within its tail bound plus `_rounding_bound` of the mp.fsum
# oracle of `test_lerch_pair_within_its_bounds_of_a_direct_fsum`.  With
# max_terms = 183 the series at s alone stops and the one at fac runs out;
# with 150 both are still running.
PARENT_BITS = [
    (0.3, 2.5, 1.0, None,
     "((1.0598298982610106+0j), 9.281770170859383e-14)",
     "((1.9649795836780881+0j), 3.43885021104056e-14)"),
    (-0.45 + 0.6j, 0.5 + 3j, 0.5, None,
     "((-0.5892978087911414+2.0390072168088875j), 9.550246313654464e-14)",
     "((-0.2371785444481254+0.5789385680045298j), 8.756531415684858e-14)"),
    (cmath.rect(0.99, 1.0), -4.5, 2.7, None,
     "((43.68906937608213-11.452703693853097j), 9.985372097179665e-14)",
     "((-8.719540519646785+7.584977772302018j), 9.973985394983314e-14)"),
    (-0.8 + 0.3j, -3 + 1j, 2.7, None,
     "((5.352517082227314-1.989220571176636j), 9.744756145908653e-14)",
     "((4.785498767241213+5.112108647185735j), 9.704650597513875e-14)"),
    (0.9, 2.5, 0.5, None,
     "((6.1361943338798115+0j), 9.274469042765988e-14)",
     "((6.4093978324341245+0j), 9.486767104250574e-14)"),
    (0, -2.5, 0.1, None,
     "((0.00316227766016838+0j), 0.0)",
     "((0.0030041637771599607+0j), 0.0)"),
    (0.9, 2.5, 0.5, 183,
     "((6.1361943338798115+0j), 9.274469042765988e-14)",
     "TruncationFailure: tail bound 1.2881405656710002e-12 still above tol "
     "after 183 terms"),
    (0.9, 2.5, 0.5, 150,
     "TruncationFailure: tail bound 4.926462327178514e-12 still above tol "
     "after 150 terms",
     "TruncationFailure: tail bound 5.7004941646936955e-11 still above tol "
     "after 150 terms"),
]


def _repr_or_failure(fn, *args):
    try:
        return repr(fn(*args))
    except TruncationFailure as e:
        return f"TruncationFailure: {e}"


@pytest.mark.parametrize("w,s,x,max_terms,single,pair", PARENT_BITS, ids=[
    "w0.3", "s0.5+3j", "w-near-1", "s-3+1j", "w0.9", "w0", "s1-runs-out",
    "both-run-out"])
def test_lerch_keeps_parent_bits(w, s, x, max_terms, single, pair):
    cfg = CFG if max_terms is None else SeriesEvalConfig(1e-13, max_terms)
    fac = _zeta_fac(w, s) if w else 0.5
    assert _repr_or_failure(lerch_sum_with_bound, w, s, x, cfg) == single
    assert _repr_or_failure(_lerch, w, s, x, fac, cfg) == pair


# ---------------------------------------------------------------------------
# the stopping test: `_lerch` against a loop with the former bound formula
# ---------------------------------------------------------------------------

def _step_lerch(w: complex, s: complex, x: float, fac: complex,
                cfg: SeriesEvalConfig) -> tuple[complex, float, int]:
    """`_lerch` as it was before it read its bound off term k, as the
    oracle of its bits: sum_{k>=0} w^k (k+x)^(-s) (1 - fac (k+x)), term k
    as w^k (k+x)**(-s) times (1 - fac (k+x)), stopped at the first k where
    |w^k| (k+x)**(-Re s)/(1 - r) + |fac| |w^k| (k+x)**(1 - Re s)/(1 - r1)
    <= tol and the ratio test of the series at s - 1 passes (at fac = 0, of
    that at s).  Returns (value, bound, k).  Every product, power and sum
    is in complex arithmetic, but for the exponent of the power, a float at
    a real s."""
    w = complex(w)
    s = complex(s)
    fac = complex(fac)
    if not cmath.isfinite(s):
        raise DomainError(f"s = {s} is not finite")
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"x = {x} must be positive and finite")
    if not cmath.isfinite(fac):
        raise DomainError(f"h log q/(s - 1) = {fac} is not finite")
    aw = abs(w)
    if aw >= 1:
        raise SeriesDivergence(f"|w| = {aw} >= 1: series diverges")
    rs, rs1 = s.real, s.real - 1
    nrs, nrs1 = -rs, -rs1
    ns = nrs if s.imag == 0 else -s
    r, r1 = _ratio(aw, rs), _ratio(aw, rs1)
    den, den1 = 1 - r, 1 - r1
    afac = abs(fac)
    rt, nrt, rr = (rs1, nrs1, r1) if afac else (rs, nrs, r)
    tol, max_terms = cfg.tol, cfg.max_terms
    acc = 0j
    k = 0
    kx = k + x
    wk = 1 + 0j
    # a float power past the float range raises OverflowError with no
    # context; say which sum and which term
    try:
        if w == 0:
            return complex(x ** ns * (1 - fac * x)), 0.0, 0
        while True:
            acc += wk * kx ** ns * (1 - fac * kx)
            k += 1
            wk *= w
            awk = abs(wk)
            kx = k + x
            bound = awk * kx ** nrs / den
            if afac:
                bound += afac * (awk * kx ** nrs1 / den1)
            if bound <= tol and (
                    rt >= 0 or aw * ((k + 1 + x) / kx) ** nrt <= rr):
                return acc, bound, k
            if k >= max_terms:
                raise TruncationFailure(f"tail bound {bound} still above tol "
                                        f"after {k} terms")
    except OverflowError as e:
        raise OverflowError(f"float overflow in the Lerch sum at s = {s}, "
                            f"term k = {k}") from e


# `_lerch`'s bound and `_step_lerch`'s at the same k are two roundings of
# E = |w^k| (k+x)^(-Re s) (1/(1 - r) + |fac| (k+x)/(1 - r1)) from the same
# floats w^k, k + x, 1 - r, 1 - r1 and |fac|.  With u = 2^-53 and L =
# log(k+x) >= 0 (k >= 1, x > 0), each within, to first order:
#   - `_step_lerch`: abs(w^k) and each float power within 1 ulp, 2 u each;
#     the part at s takes a product and a quotient (6 u in all), the part
#     at s - 1 a product, a quotient and the product by |fac| (7 u), and
#     the sum of the two parts u.  Its exponent 1 - Re s rounds once, which
#     moves (k+x)^(1 - Re s) by |1 - Re s| L u: (8 + |1 - Re s| L) u;
#   - `_lerch`: |term k| = abs(w^k (k+x)**(-s)), the power within 5 u (pow
#     2 u; at a complex s, cos and sin of its phase and the products by the
#     modulus 3 u), the product by w^k sqrt(5) u and abs 2 u: below 10 u;
#     1/(1 - r), |fac|/(1 - r1) times k + x and their sum 3 u, and the
#     product u: 14 u.
# So they differ by at most 1.01 (22 + |1 - Re s| L) u E, the factor 1.01
# taking the higher orders; at fac = 0 the term in L goes.  Where |w^k| or
# |term k| is subnormal, its abs is within 2^-1074, not 2 u of it: that
# adds 2^-1074 ((k+x)^(-Re s) + 1) (1/(1 - r) + |fac| (k+x)/(1 - r1)) to
# each.
def _bound_slack(w, s, x, fac, k, bound):
    aw, rs, kx = abs(w), s.real, k + x
    f = 1 / (1 - _ratio(aw, rs))
    rel = 22
    if fac:
        f += abs(fac) * kx / (1 - _ratio(aw, rs - 1))
        rel += abs(1 - rs) * math.log(kx)
    return 1.01 * rel * _U * bound + 2.0 ** -1073 * (kx ** -rs + 1) * f


def _outcome(fn, *args):
    """The result, or the class and text of the error, with the digits of
    a tail bound masked."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as e:
        return type(e).__name__, re.sub(r"tail bound \S+", "tail bound #",
                                        str(e))


def _same_outcomes(w, s, x, fac, cfg):
    """`_lerch` and `_step_lerch` agree at fac = 0 and at fac: the same
    value bits and stopping k, bounds within `_bound_slack`, and the same
    error class and text once a bound's digits are masked.  At fac != 0
    `_step_lerch`'s bound takes (k+x)**(1 - Re s), which leaves the float
    range before term k's (k+x)**(-s) does: where it raises OverflowError,
    `_lerch` may run on, to a later term's overflow or to a stop."""
    for f in (0, fac):
        want = _outcome(_step_lerch, w, s, x, f, cfg)
        got = _outcome(_lerch, w, s, x, f, cfg)
        if want[0] == "OverflowError" and f:
            if got[0] == "OverflowError":
                last = [int(o[1].rsplit(" ", 1)[1]) for o in (want, got)]
                assert last[0] <= last[1], (f, got, want)
            else:
                assert isinstance(got[1], float), (f, got, want)
            continue
        if isinstance(want[0], str):
            assert got == want, f
            continue
        value, bound, k = want
        assert repr(got[0]) == repr(value), f
        assert abs(got[1] - bound) <= _bound_slack(w, s, x, f, k, bound), f
        # the same stopping k: it runs out at max_terms k - 1 and stops at k
        if k > 1:
            short = SeriesEvalConfig(cfg.tol, k - 1)
            assert _outcome(_lerch, w, s, x, f, short)[0] == "TruncationFailure"
        if k:
            exact = SeriesEvalConfig(cfg.tol, k)
            assert _outcome(_lerch, w, s, x, f, exact) == got, f


# |w| from U(0, 1), 1 - 10^U(-3, 0) and 10^U(-15, 0), real or complex
_ABS_W = st.one_of(st.floats(0, 1, exclude_max=True),
                   st.floats(-3, 0).map(lambda e: 1 - 10 ** e),
                   st.floats(-15, 0).map(lambda e: 10 ** e))
_W = st.one_of(_ABS_W, st.builds(cmath.rect, _ABS_W,
                                 st.floats(-math.pi, math.pi)))
_S = st.builds(complex,
               st.one_of(st.floats(-40, 8), st.integers(-130, 0)),
               st.one_of(st.just(0.0), st.floats(-20, 20)))
_X = st.floats(1e-9, 5)
_TOL = st.sampled_from([1e-12, 1e-13, 1e-14])
# |fac| from 10^U(-15, 2): from far below the part at s, where the terms at
# s - 1 may grow past tol after the part at s falls below it, to far above
_SMALL_FAC = st.floats(-15, 2).map(lambda e: 10 ** e)
_STEP = settings(derandomize=True, database=None, max_examples=150,
                 deadline=None)


@_STEP
@given(_W, _S, _X, st.builds(cmath.rect, _SMALL_FAC,
                             st.floats(-math.pi, math.pi)), _TOL,
       st.one_of(st.just(DEFAULT_CONFIG.max_terms), st.integers(1, 400)))
@example(1e-13, -60, 1e-6, 0.5j, 1e-13, DEFAULT_CONFIG.max_terms)  # late peak
@example(0.5, -120, 1.0, 1 + 1j, 1e-12, DEFAULT_CONFIG.max_terms)  # overflow
@example(0.478, -100, 1.0, 0.1j, 1e-12, DEFAULT_CONFIG.max_terms)  # subnormal
@example(0.999, -40, 0.5, 1e-3j, 1e-14, DEFAULT_CONFIG.max_terms)
# the routes of a real s; at x = 1, log(k + x) = 0 at k = 0
@example(0.5, -3.5, 1.0, -0.1j, 1e-12, DEFAULT_CONFIG.max_terms)
@example(-0.6, 2.5, 0.5, 0.3j, 1e-12, DEFAULT_CONFIG.max_terms)    # w < 0
@example(complex(0.5, -0.0), -4.5, 0.3, 1j, 1e-13,
         DEFAULT_CONFIG.max_terms)
@example(0.8, 0.0, 2.0, 1e-6j, 1e-12, DEFAULT_CONFIG.max_terms)    # s = 0
@example(0.7, complex(-2, 3), 1.5, 2 - 1j, 1e-12, DEFAULT_CONFIG.max_terms)
@example(cmath.rect(0.9, 2.0), -7.0, 0.25, 0.01j, 1e-12,
         DEFAULT_CONFIG.max_terms)
@example(0.9, 1 - 6, 1.0, 1j, 1e-12, DEFAULT_CONFIG.max_terms)     # s = 1 - n
# the powers (k + 1)^120 at k = 366..369 (and (k + 1)^119 at k = 348..351)
# lie within a factor 4 of the float range's end; (k + 1)^120 overflows at
# k = 370 (`test_lerch_overflows_at_the_term_past_the_float_range`), and
# `_step_lerch`'s (k + 1)^121 at fac != 0 at 352
@example(0.7209, -120, 1.0, 1j, 1e-12, DEFAULT_CONFIG.max_terms)
# a power past the float range at k = 0, 0.1^-1.7e308: OverflowError
@example(0.5, 1.7e308, 0.1, 1j, 1e-12, DEFAULT_CONFIG.max_terms)
# no stop where neither part of the bound is above tol (see
# `test_lerch_does_not_stop_where_the_terms_at_s_1_grow`)
@example(0.99, complex(-1), 1.0, 0.007, 7000.0, DEFAULT_CONFIG.max_terms)
def test_lerch_pair_matches_the_step_by_step_loop(w, s, x, fac, tol,
                                                  max_terms):
    _same_outcomes(w, s, x, fac, SeriesEvalConfig(tol, max_terms))


@_STEP
@given(st.one_of(_ABS_W, _ABS_W.map(lambda a: -a)),
       st.one_of(st.floats(-40, 8), st.integers(-130, 0)), _X,
       st.one_of(_SMALL_FAC, _SMALL_FAC.map(lambda a: -a)), _TOL,
       st.one_of(st.just(DEFAULT_CONFIG.max_terms), st.integers(1, 400)))
def test_lerch_pair_at_a_real_w_and_s_matches_the_step_by_step_loop(
        w, s, x, fac, tol, max_terms):
    # the float route: at a real fac too, w^k, the powers and the sum in
    # floats
    _same_outcomes(w, s, x, fac, SeriesEvalConfig(tol, max_terms))


def test_lerch_does_not_stop_where_the_terms_at_s_1_grow():
    # w = 0.99, s = -1, x = 1, fac = 0.007 and tol = 7,000: the part of the
    # bound at s is above tol at k = 70..135, the part at s - 1 at k =
    # 148..259, and neither at k = 136..147.  There the terms at s - 1
    # still grow, so their ratio test fails (it does up to k = 395), and
    # the sum runs on to k = 396
    w, s, x, fac, tol = 0.99, complex(-1), 1.0, 0.007, 7000.0
    den, den1 = 1 - _ratio(w, s.real), 1 - _ratio(w, s.real - 1)
    parts = [(w ** j * (j + x) / den, fac * w ** j * (j + x) ** 2 / den1)
             for j in range(70, 260)]
    assert [j for j, (a, b) in enumerate(parts, 70)
            if a <= tol and b <= tol] == list(range(136, 148))
    cfg = SeriesEvalConfig(tol)
    assert _step_lerch(w, s, x, fac, cfg)[2] == 396
    _same_outcomes(w, s, x, fac, cfg)


@pytest.mark.parametrize("fac", [0, 1j])
def test_lerch_overflows_at_the_term_past_the_float_range(fac):
    # w = 0.7209, s = -120, x = 1: the terms still grow at k = 370, where
    # (k + 1)^120 leaves the float range, at both fac.  The bound is read
    # off that term, so at fac != 0 no (k + 1)^121 overflows first, as it
    # did at k = 352
    with pytest.raises(OverflowError, match=r"term k = 370$"):
        _lerch(0.7209, -120, 1.0, fac, DEFAULT_CONFIG)


# ---------------------------------------------------------------------------
# the residue route: Lerch's transformation at Re s < 0
# ---------------------------------------------------------------------------

def _load_routes():
    """`_Routes` of tools/op_kinds.py, which counts the route of each value
    by wrapping `_residue_sum` and `_lerch`."""
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "op_kinds", Path(__file__).resolve().parent.parent / "tools"
        / "op_kinds.py")
    op_kinds = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(op_kinds)
    return op_kinds._Routes


_Routes = _load_routes()


def _value(h, qv, s, x=None, chi=None, cfg=DEFAULT_CONFIG):
    if chi is None:
        return q_hurwitz_zeta_with_bound(h, qv, s, x, cfg)
    return q_lfunction_with_bound(h, qv, s, chi, cfg)


def _direct_fsum(h, qv, s, x, chi, extra):
    """zeta_q^{(h)}(s, x) (chi None) or L_q^{(h)}(s, chi) as a direct mp.fsum
    of w^n (n + x)^-s (1 - f (n + x)), f = h log q/(s - 1) (x = 0 for L,
    weighted by chi(n), n >= 1), to the N where, past the peak, the rest is
    below 1e-26: each term is at most (1 + |f|) |w|^n (n + x)^(1 - Re s)
    and the ratio of those bounds falls below r < 1.  It runs at `extra`
    digits beyond the size of the largest term, which the cancellation
    down to the value may cost."""
    aw, rs, x0 = abs(complex(qv) ** h), s.real, x or 0
    lf = math.log(1 + abs(h * cmath.log(qv) / (s - 1)))
    top = max(1, (1 - rs) / -math.log(aw) - x0)       # where the terms peak
    peak = max((1 - rs) * math.log(top + x0) + top * math.log(aw) + lf, 0)
    N = 16
    while True:
        N += N // 8
        r = aw * ((N + 1 + x0) / (N + x0)) ** (1 - rs)
        lterm = N * math.log(aw) + (1 - rs) * math.log(N + x0) + lf
        if r < 1 and lterm - math.log(1 - r) < math.log(1e-26):
            break
    real = complex(qv).imag == 0 and complex(qv).real > 0 and s.imag == 0
    num = mp.mpf if real else mp.mpc
    with mp.workdps(extra + int(peak / math.log(10)) + 1):
        mq = num(complex(qv).real if real else qv)
        w = mq ** h
        ms = num(s.real if real else s)
        fac = h * mp.log(mq) / (ms - 1)
        if chi is None:
            mx, start, weight = mp.mpf(x), 0, lambda n: 1
        else:
            d = chi.modulus
            vals = [chi.value_complex(r) for r in range(d)]
            vals = [v.real if real and v.imag == 0 else mp.mpc(v)
                    for v in vals]
            mx, start, weight = mp.mpf(0), 1, lambda n: vals[n % d]
        terms, wn = [], w ** start
        for n in range(start, N):
            nx = n + mx
            c = weight(n)
            if c:
                terms.append(c * wn * mp.exp(-ms * mp.log(nx))
                             * (1 - fac * nx))
            wn *= w
        return complex(mp.fsum(terms))


def _check_residue_value(h, qv, s, x, chi):
    with _Routes(analytic) as routes:
        value, bound = _value(h, qv, s, x, chi)
    if routes.route() != "residue":
        return False
    assert bound <= DEFAULT_CONFIG.tol * max(1, abs(value))
    lo, hi = (_direct_fsum(h, qv, s, x, chi, extra) for extra in (25, 35))
    assert abs(lo - hi) <= 1e-20 * max(1, abs(hi))
    assert abs(value - hi) <= bound, (value, hi, bound)
    return True


_CHARS = {d: enumerate_characters(d) for d in (1, 3, 4, 5)}


@pytest.mark.parametrize("h,qv,s,x", [
    # `zeta --h 1 --q 0.3 --s 2 --x 0.5`, whose bound was 1.27e-12 when each
    # of two Lerch series stopped on its own tail at tol
    (1, 0.3, 2.0, 0.5),
    # the benchmark pool's point 1451, where that bound was largest, 1.95e-11
    (2, -0.726336 - 0.667523j, 0.7452, 0.5961),
], ids=["q0.3-s2", "pool-1451"])
def test_direct_zeta_bound_is_at_most_tol(h, qv, s, x):
    # the bound of a direct value is the tail bound of its one series,
    # stopped at tol, and the value lies within it, plus `_rounding_bound`,
    # of a direct mp.fsum
    s = complex(s)
    with _Routes(analytic) as routes:
        value, bound = q_hurwitz_zeta_with_bound(h, qv, s, x)
    assert routes.route() == "direct"
    assert bound <= DEFAULT_CONFIG.tol
    w, fac = complex(qv) ** h, h * cmath.log(qv) / (s - 1)
    K, size = _stop(w, s, x, fac, DEFAULT_CONFIG.tol)
    ref = _direct_fsum(h, qv, s, x, None, 25)
    assert abs(value - ref) <= bound + _rounding_bound(s, x, K, size)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.floats(0.01, 0.99),    # |q^h|
       st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)),
       st.floats(0, 8), st.one_of(st.just(0.0), st.floats(-8, 8)),
       st.floats(0.05, 3), _TOL)
def test_direct_zeta_bound_is_at_most_tol_at_re_s_0_and_above(h, aw, arg, rs,
                                                               ts, x, tol):
    s = complex(rs, ts)
    assume(s != 1)
    cfg = SeriesEvalConfig(tol)
    value, bound = q_hurwitz_zeta_with_bound(
        h, cmath.rect(aw ** (1 / h), arg), s, x, cfg)
    assert bound <= tol


def _class_rounding(h, qv, s, chi, tol):
    """A bound on the rounding of `_char_sum`'s value: per unit class r,
    |scale| `_rounding_bound` of its series, plus the rounding of the scale
    chi(r) w^r d^-s (w^r by repeated squaring, d^-s by exp, two products)
    and of the class sum, at most (|s| log d + 8 d + 12) u |scale| times
    the size of the class's terms."""
    d = chi.modulus
    w = complex(qv) ** h
    fac = h * cmath.log(qv) / (s - 1)
    slack = 0.0
    for r in range(1, d + 1):
        cr = chi.value_complex(r)
        if cr:
            scale = abs(w ** r * cmath.exp(-s * math.log(d)))
            K, size = _stop(w ** d, s, r / d, fac * d, tol)
            slack += scale * (_rounding_bound(s, r / d, K, size)
                              + (abs(s) * math.log(d) + 8 * d + 12) * _U
                              * size)
    return slack


@pytest.mark.parametrize("d", [1, 3, 4, 5])
def test_lfunction_direct_route_within_its_bound_of_a_direct_fsum(d):
    # the direct route, called explicitly (at s = -4.5 and -8 + 2j
    # q_lfunction_with_bound may take the residue route instead): the sum
    # over the unit classes, each one `_lerch` at ratio w^d, x = r/d and fac
    # d, lies within its bound plus rounding of a direct mp.fsum of
    # chi(n) w^n n^-s (1 - fac n)
    for chi in _CHARS[d][:2]:
        for h, qv in ((1, 0.5), (2, -0.6 + 0.7j)):
            for s in (2.5, 0.5 + 3j, -4.5, -8 + 2j):
                s = complex(s)
                value, bound = _combine(h, qv, s, "q-L", lambda w, t, f:
                                        _char_sum(chi, w, t, f, CFG),
                                        _no_residue)
                ref = _direct_fsum(h, qv, s, None, chi, 25)
                slack = bound + _class_rounding(h, qv, s, chi, CFG.tol)
                assert abs(value - ref) <= slack, (d, chi.exponents, h, qv,
                                                   s, value, ref, slack)


@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(st.sampled_from([1, 2, 3]),
       st.floats(math.log10(0.03), math.log10(0.8)),   # log10(1 - |q^h|)
       st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)),
       st.floats(-10, -0.5), st.one_of(st.just(0.0), st.floats(-6, 6)),
       st.one_of(st.floats(0.05, 3),
                 st.tuples(st.sampled_from([1, 3, 4, 5]), st.integers(0, 3))))
def test_residue_route_within_its_bound_of_a_direct_sum(h, l1w, arg, rs, ts,
                                                        xd):
    # wherever the residue route serves a value, it lies within its stated
    # bound (tail + rounding) of a direct mpmath sum at two precisions that
    # agree; inputs that take the direct sums are not counted as examples.
    # |q^h| runs from 0.2 to 0.97, where one reference costs under 0.3 s;
    # the next test takes 0.98, and the pool test below 0.99
    qv = cmath.rect((1 - 10 ** l1w) ** (1 / h), arg)
    if isinstance(xd, tuple):
        x, chi = None, _CHARS[xd[0]][xd[1] % len(_CHARS[xd[0]])]
    else:
        x, chi = xd, None
    assume(_check_residue_value(h, qv, complex(rs, ts), x, chi))


@pytest.mark.parametrize("h,qv,s,x,d,idx", [
    # a complex q with d arg q^h > pi: lam_d = d h log q, not h log q^d
    (1, cmath.rect(0.98, 0.9), -9.0, None, 4, 1),
    # x in (1, 3]: the shift down to (0, 1]
    (1, 0.98, -9.0, 2.5, None, None),
], ids=["lam_d-branch", "shift"])
def test_residue_route_serves_the_branch_and_the_shift(h, qv, s, x, d, idx):
    chi = None if d is None else _CHARS[d][idx]
    assert _check_residue_value(h, qv, complex(s), x, chi)


# Pool points whose stored reference in perfbench/lerch_refs.json is wrong:
# the direct mp.fsum above at 40 and at 60 dps (N from its tail bound, the
# second with 30 % more terms) agree with each other, and with the residue
# value, to 1e-14 or better, and the stored value is 4e-8 to 2.4e-5 away.
# 472, 590, 694, 1361 and 3403 were known; the others showed up on the
# residue route.
_POOL_REFS = {
    240: 0.3476825272871815 - 0.14357903903747432j,
    472: -0.11189696594803557 - 0.0718728689800041j,
    502: -5.205813222889456 - 2.404052587528179j,
    694: 0.09822572056997189 + 1.745717732657018j,
    794: -0.29231030010576087,
    1361: -0.1693816940145185 + 0.01702550993256694j,
    2389: -0.002877693842694869,
    3403: -1.3136227222483343,
    3436: 0.000789964614461699 + 0.028488310817500393j,
}


def test_pool_points_on_the_residue_route_match_the_references(monkeypatch):
    # every point of the benchmark's pool that the residue route serves is
    # within 1e-8 max(1, |ref|) of its reference, as the benchmark judges;
    # 590, with a wrong stored reference, takes the direct route
    import json
    from pathlib import Path

    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    from ops import lerch_pool

    refs = json.loads((bench / "lerch_refs.json").read_text())["refs"]
    served = []
    for i, pt in enumerate(lerch_pool()):
        if pt[3].real >= 0 or i == 590:
            continue
        with _Routes(analytic) as routes:
            if pt[0] == "zeta":
                value, _ = _value(*pt[1:])
            else:
                _, h, qv, s, d, idx = pt
                value, _ = _value(h, qv, s, chi=_CHARS[d][idx])
        if routes.route() == "residue":
            served.append(i)
            ref = _POOL_REFS.get(i, complex(*refs[i][:2]))
            assert abs(value - ref) <= 1e-8 * max(1, abs(ref)), (i, pt)
    assert len(served) > 700
    assert set(_POOL_REFS) <= set(served)


def _no_residue(qv, s):
    return None


def test_residue_route_falls_back_to_the_direct_bits():
    # L near a pole of one residue term: d arg q^h near a multiple of 2 pi,
    # the sum cancels and its rounding bound fails tol; the value is then the
    # direct one, bit for bit.  At Re s >= 0 the residue sum is not asked.
    h, qv, s, chi = 1, 0.305426 - 0.871219j, -9.989 + 5.3484j, _CHARS[4][0]
    with _Routes(analytic) as routes:
        got = q_lfunction_with_bound(h, qv, s, chi)
    assert routes.route() == "fallback"
    assert got == _combine(h, qv, s, "q-L", lambda w, t, f: _char_sum(
        chi, w, t, f, DEFAULT_CONFIG), _no_residue)
    for s in (0.0, 2.5, -0.0 + 3j, 1e-300):
        with _Routes(analytic) as routes:
            got = q_hurwitz_zeta_with_bound(1, 0.99, s, 0.7)
        assert "_residue_sum" not in routes.seen
        assert got == _combine(1, 0.99, s, "q-zeta", lambda w, t, f: _lerch(
            w, t, 0.7, f, DEFAULT_CONFIG), _no_residue)


@pytest.mark.parametrize("h,qv,s,x,d,tol", [
    # a tol so loose that the direct sums' stop, tol (1 - |q^h|)/2, is 1 or
    # more: the estimate of their term count is 0, not a log of k < 0
    (1, 0.5, -3.0, 1.0, None, 10.0),
    (1, 0.5, -3.0, None, 3, 10.0),
    # a tiny |q| at a very negative s: a fixed-point step of that estimate
    # would go below k = 0
    (1, 1e-30, -100.0, 0.05, None, 1e-12),
    (1, 1e-30, -100.0, None, 4, 1e-12),
])
def test_residue_route_keeps_the_direct_bits_where_it_cannot_save(h, qv, s,
                                                                 x, d, tol):
    cfg = SeriesEvalConfig(tol=tol)
    if d is None:
        got = q_hurwitz_zeta_with_bound(h, qv, s, x, cfg)
        direct = lambda w, t, f: _lerch(w, t, x, f, cfg)
    else:
        chi = _CHARS[d][1]
        got = q_lfunction_with_bound(h, qv, s, chi, cfg)
        direct = lambda w, t, f: _char_sum(chi, w, t, f, cfg)
    assert got == _combine(h, qv, complex(s), "q", direct, _no_residue)


@settings(derandomize=True, database=None)
@given(st.floats(0, 1, exclude_min=True, exclude_max=True),
       st.floats(-1e300, 0, exclude_max=True), st.floats(1e-300, 1e300),
       st.floats(1e-14, math.inf))
def test_direct_term_estimate_is_a_count(aw, rs, x, tol):
    # never negative, never NaN, and never a math domain error
    assert analytic._direct_terms(aw, rs, x, tol) >= 0


@pytest.mark.parametrize("s,x,msg", [
    (-3, -1.0, "x = -1.0 must"), (-3, 0.0, "x = 0.0 must"),
    (-3, math.nan, "x = nan must"), (-3, math.inf, "x = inf must"),
    (-math.inf, 1.0, "s = (-inf+0j) is"),
    (complex(-1, math.nan), 1.0, "s = (-1+nanj) is")])
def test_residue_route_leaves_bad_input_to_the_direct_checks(s, x, msg):
    # at Re s < 0 a bad x or s still raises the direct route's DomainError
    with pytest.raises(DomainError, match=re.escape(msg)):
        q_hurwitz_zeta(1, 0.95, s, x)


def test_residue_sum_declines_before_any_term(monkeypatch):
    # a budget below the K its tail bound asks for, or a Gamma(1 - s) past
    # the float range, gives None before any power is taken (and before an
    # L sum builds its Gauss sums)
    lam = complex(math.log(0.95))
    powers, gauss = [], analytic._gauss_sums
    monkeypatch.setattr(analytic, "_gauss_sums",
                        lambda chi: powers.append(chi) or gauss(chi))
    assert analytic._residue_sum(lam, -10 + 0j, 0.5, None, 1, 0.0, 1e-12,
                                 5) is None
    assert analytic._residue_sum(lam, -300 + 0j, 0.5, None, 1, 0.0, 1e-12,
                                 1e6) is None
    assert analytic._residue_sum(lam * 4, -9 + 0j, 0.0, _CHARS[4][1], 2, 0.0,
                                 1e-12, 5) is None
    assert powers == []
    # with the budget it asks for, the same L sum runs
    assert analytic._residue_sum(lam * 4, -9 + 0j, 0.0, _CHARS[4][1], 2, 0.0,
                                 1e-12, 1e6) is not None
    assert powers == [_CHARS[4][1]]


@pytest.mark.parametrize("z", [1.5, 11.0, 121.0, 1.5 + 6j, 11 - 0.5j,
                               3.25 + 20j, 40 + 1j])
def test_gamma_within_its_stated_error(z):
    value, rel = analytic._gamma(complex(z))
    with mp.workdps(40):
        ref = mp.gamma(mp.mpc(z))
        assert abs(mp.mpc(value) - ref) <= rel * abs(ref)
    assert rel < 1e-12


def _raise(*a, **k):
    raise _Swapped()


class _Swapped(Exception):
    pass


def test_interpolation_sides_share_no_kernel(monkeypatch):
    # the series side of an interpolation check takes the residue sum where
    # that is cheaper, and the B side the float closed form: with either
    # swapped for one that raises, the other side still evaluates, as the
    # verifier calls it
    from qzeta import exact, qbernoulli

    chi3 = _CHARS[3][1]
    cells = [  # (series side, B side), both served by their own kernel
        (lambda: q_hurwitz_zeta(1, 0.95, -10.0, 1.0),
         lambda: qbernoulli.q_bernoulli_polynomial(1, 11).eval_complex(
             1 + 0j, 0.95 + 0j)),
        (lambda: q_lfunction(1, 0.7, -10.0, chi3),
         lambda: qbernoulli.generalized_q_bernoulli(chi3, 1, 11, 0.7))]
    for series, b_side in cells:
        with monkeypatch.context() as m:
            m.setattr(analytic, "_residue_sum", _raise)
            with pytest.raises(_Swapped):
                series()
            b_side()
        with monkeypatch.context() as m:
            for mod in (exact, qbernoulli):
                m.setattr(mod, "eval_log_scalar_complex", _raise)
            with pytest.raises(_Swapped):
                b_side()
            series()
    # the modulus-1, n = 1 cell is at s = 0, off the residue route: it still
    # FAILs with residual 1
    with monkeypatch.context() as m:
        m.setattr(analytic, "_residue_sum", _raise)
        rep = l_interpolation_verify(1, 0.4, 1, principal_character(1), CFG)
    assert not rep.passed
    assert abs(abs(rep.witnesses[0][1]) - 1.0) < 1e-10
