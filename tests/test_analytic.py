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
                            _combine, _horizon, _lerch_pair, _level, _ratio,
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
        _lerch_pair(w, s, x, CFG)


@pytest.mark.parametrize("w", [math.inf, complex(math.inf, math.nan)])
def test_lerch_infinite_w_diverges(w):
    with pytest.raises(SeriesDivergence):
        _lerch_pair(w, 2, 1.0, CFG)


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
# the one-pass pair of series at s and s - 1
# ---------------------------------------------------------------------------

PAIR_W = [0.3, -0.45 + 0.6j, cmath.rect(0.99, 1.0)]
# Re s > 0 and Re s < 0, and s = 0.5 + 3j, where the series at s and at
# s - 1 take different tail ratios
PAIR_S = [2.5, 0.5 + 3j, -0.7 + 1j, -4.5, -8 + 2j]


_U = 2.0 ** -53                 # unit roundoff


def _stop(w, t, x, tol):
    """(K, sum_{k<K} |w|^k (k+x)^(-Re t)): the k at which the Lerch loop's
    series at t stops, by its own float stopping test, and the size of the
    K terms it sums."""
    aw, rt = abs(w), t.real
    r = _ratio(aw, rt)
    den = 1 - r
    k, wk, tot = 0, 1 + 0j, 0.0
    while True:
        tot += abs(wk) * (k + x) ** -rt
        k += 1
        wk *= w
        kx = k + x
        if (abs(wk) * kx ** -rt / den <= tol
                and (rt >= 0 or aw * ((k + 1 + x) / kx) ** -rt <= r)):
            return k, tot


# The rounding of one Lerch series sum_{k<K} w^k (k+x)^(-t), as `_lerch_pair`
# sums it, per term and to first order in u:
#   - w^k, k complex products: sqrt(5) k u (Brent, Percival and
#     Zimmermann, Math. Comp. 76 (2007)); at a real w, k u;
#   - k + x rounds once, which moves (k+x)^(-t) by |t| u;
#   - the power: pow(k+x, -Re t) within 1 ulp, 2 u; at a complex t its
#     phase -Im t log(k+x) takes the ulp of log and a product's rounding,
#     3 u |Im t| L, with L = max(log(K+x), |log x|) the largest |log(k+x)|,
#     and cos, sin and the two products by the modulus add 3 u;
#   - w^k times the power, sqrt(5) u, and for the pair's series at s - 1
#     (t = s - 1) the factor k + x, u;
#   - the K - 1 sums, each part rounded once: sqrt(2) (K - 1) u sum |term|.
# So the value is within (c1 K + c2 |Im t| L + c3) u sum_{k<K} |term| of the
# exact sum of its first K terms, with c1 = 4 > sqrt(5) + sqrt(2), c2 = 3
# and c3 = |t| + 10 > |t| + 2 + 3 + sqrt(5) + 1.  The factor 1.01 takes the
# higher orders, while K u and |t| L u stay below 1e-3.
def _rounding_bound(t, x, K, tot):
    L = max(math.log(K + x), -math.log(x))
    return 1.01 * (4 * K + 3 * abs(t.imag) * L + abs(t) + 10) * _U * tot


def _mp_lerch_pair(w, s, x, dps):
    """sum_k w^k (k+x)^(-s) and sum_k w^k (k+x)^(1-s) as direct mp.fsums at
    `dps` digits, each as (value, tail, size): both run to an N, a multiple
    of 16, where from then on the terms of each fall by a ratio r < 1 and
    the tail term_N/(1 - r) is at most 1e-20 of the size sum_{k<N} |term|.
    The fsum of N terms at dps digits is within N 10^(1 - dps) of the
    size."""
    real = w.imag == 0 and s.imag == 0
    num = mp.mpf if real else mp.mpc
    with mp.workdps(dps):
        mw, ms, mx = (num(w.real if real else w), num(s.real if real else s),
                      mp.mpf(x))
        aw, es = abs(w), (-s.real, 1 - s.real)    # |term k| = |w|^k (k+x)^e
        terms, sizes = ([], []), [mp.mpf(0), mp.mpf(0)]
        wk, k = num(1), 0
        while True:
            kx = k + mx
            term = wk * mp.exp(-ms * mp.log(kx))
            size = abs(term)
            terms[0].append(term)
            terms[1].append(term * kx)
            sizes[0] += size
            sizes[1] += size * kx
            k += 1
            wk *= mw
            if aw == 0:
                ltails = [-math.inf] * 2
                break
            if k % 16:
                continue
            # in logs, so that no size underflows
            ltails = []
            for e, size in zip(es, sizes):
                r = aw * ((k + 1 + x) / (k + x)) ** max(e, 0)
                lt = (k * math.log(aw) + e * math.log(k + x)
                      - math.log(1 - r)) if r < 1 else math.inf
                ok = size and lt <= float(mp.log(size * 1e-20))
                ltails.append(lt if ok else None)
            if None not in ltails:
                break
        return [(complex(mp.fsum(t)), math.exp(lt), float(size))
                for t, lt, size in zip(terms, ltails, sizes)]


# |w| from U(0, 0.99) and 1 - 10^U(-2, 0), real (w < 0 too) or complex
_ABS_W_ORACLE = st.one_of(st.floats(0, 0.99),
                          st.floats(-2, 0).map(lambda e: 1 - 10 ** e))
_W_ORACLE = st.one_of(_ABS_W_ORACLE, _ABS_W_ORACLE.map(lambda a: -a),
                      st.builds(cmath.rect, _ABS_W_ORACLE,
                                st.floats(-math.pi, math.pi)))
_S_ORACLE = st.builds(complex, st.one_of(st.floats(-12, 6), st.integers(-12, 6)),
                      st.one_of(st.just(0.0), st.floats(-6, 6)))


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(_W_ORACLE, _S_ORACLE, st.floats(0, 3, exclude_min=True),
       st.sampled_from([1e-12, 1e-14]))
@example(0.99, complex(-12), 0.5, 1e-14)        # the most terms: about 10^4
@example(cmath.rect(0.95, 1.0), complex(-12, 6), 3.0, 1e-12)
@example(-0.9, complex(6), 1e-300, 1e-12)       # x^-6 overflows
def test_lerch_pair_within_its_bounds_of_a_direct_fsum(w, s, x, tol):
    # both values within tail bound + `_rounding_bound` of direct mp.fsums
    # at 40 and 60 dps, which agree; these, not the bits of a former loop,
    # guard the kernel's values
    cfg = SeriesEvalConfig(tol)
    try:
        a, ba, b, bb = _lerch_pair(w, s, x, cfg)
    except OverflowError:
        # only the first power of the series at s can leave the float range
        assert -s.real * math.log(x) > math.log(sys.float_info.max)
        return
    for t, got, bound, lo, hi in zip((s, s - 1), (a, b), (ba, bb),
                                     _mp_lerch_pair(w, s, x, 40),
                                     _mp_lerch_pair(w, s, x, 60)):
        ref, tail, size = hi
        assert abs(lo[0] - ref) <= 1e-30 * size
        K, summed = _stop(w, t, x, tol)
        slack = bound + _rounding_bound(t, x, K, summed) + tail + 1e-30 * size
        assert abs(got - ref) <= slack, (t, got, ref, slack)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.7])
def test_lerch_pair_is_bit_identical_to_two_sums(x):
    # the series at s, both bounds and so both stopping k are those of two
    # separate sums, bit for bit.  The pair's series at s - 1 sums w^k
    # (k+x)^(-s) (k+x), the separate one w^k (k+x)^(1-s): each is within
    # `_rounding_bound` of the exact sum of their K terms, so of each other
    # within twice that
    for w in PAIR_W:
        for s in PAIR_S:
            s = complex(s)
            a, ba, b, bb = _lerch_pair(w, s, x, CFG)
            assert (a, ba) == lerch_sum_with_bound(w, s, x, CFG), (w, s)
            b1, bb1 = lerch_sum_with_bound(w, s - 1, x, CFG)
            assert bb == bb1, (w, s)
            K, size = _stop(w, s - 1, x, CFG.tol)
            assert abs(b - b1) <= 2 * _rounding_bound(s - 1, x, K, size), (w, s)


def _lfunction_from_two_passes(h, qv, s, chi, cfg):
    """_char_sum(chi, q^h, s) as two passes of per-residue Lerch sums, (a,
    ba, b, bb), and how far `_char_sum`'s b may lie from this b: per class,
    |scale| times twice `_rounding_bound` of its sum at s - 1, plus the
    rounding of the scaled sums, which differ there, in both passes:
    sqrt(5) u a product and sqrt(2) (d - 1) u of the class sum each, at
    most (3 d + 2) u |scale sum|."""
    s = complex(s)
    w = complex(qv) ** h
    d = chi.modulus
    sums = []
    slack = 0.0
    for t in (s, s - 1):
        acc, bound = 0j, 0.0
        for r in range(1, d + 1):
            cr = chi.value_complex(r)
            if cr == 0:
                continue
            sub, sb = lerch_sum_with_bound(w ** d, t, r / d, cfg)
            scale = cr * w ** r * cmath.exp(-t * math.log(d))
            acc += scale * sub
            bound += abs(scale) * sb
            if t != s:
                K, size = _stop(w ** d, t, r / d, cfg.tol)
                slack += abs(scale) * (2 * _rounding_bound(t, r / d, K, size)
                                       + (3 * d + 2) * _U * abs(sub))
        sums.append((acc, bound))
    (a, ba), (b, bb) = sums
    return (a, ba, b, bb), slack


@pytest.mark.parametrize("d", [1, 3, 4, 5])
def test_lfunction_is_bit_identical_to_two_passes(d):
    # the direct route, called explicitly: at s = -4.5 and -8 + 2j
    # q_lfunction_with_bound may take the residue route instead.  The sum at
    # s and both bounds are the two passes' bits; the sum at s - 1 lies
    # within rounding of theirs (see `_lfunction_from_two_passes`), and
    # `_combine` takes a - (h log q/(s - 1)) b of the pair's own sums
    for chi in enumerate_characters(d):
        for h, qv in ((1, 0.5), (2, -0.6 + 0.7j), (1, cmath.rect(0.99, 2.0))):
            for s in (2.5, 0.5 + 3j, -4.5, -8 + 2j):
                where = (d, chi.exponents, h, qv, s)
                w = complex(qv) ** h
                (wa, wba, wb, wbb), slack = _lfunction_from_two_passes(
                    h, qv, s, chi, CFG)
                a, ba, b, bb = _char_sum(chi, w, complex(s), CFG)
                assert (a, ba, bb) == (wa, wba, wbb), where
                assert abs(b - wb) <= slack, where
                got = _combine(h, qv, s, "q-L",
                               lambda w, t: _char_sum(chi, w, t, CFG))
                fac = h * cmath.log(qv) / (complex(s) - 1)
                assert got == (a - fac * b, ba + abs(fac) * bb), where


def _terms_needed(w, s, x):
    """The least max_terms at which lerch_sum_with_bound(w, s, x) succeeds."""
    lo, hi = 1, 2 ** 16
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            lerch_sum_with_bound(w, s, x, SeriesEvalConfig(1e-13, mid))
            hi = mid
        except TruncationFailure:
            lo = mid + 1
    return lo


def _failure(fn, *args):
    with pytest.raises(TruncationFailure) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("w,s,x", [(0.9, 2.5, 0.5), (-0.8 + 0.3j, -3 + 1j, 2.7)])
def test_lerch_pair_truncation_in_both_phases(w, s, x):
    k_a, k_b = _terms_needed(w, s, x), _terms_needed(w, s - 1, x)
    assert k_a < k_b
    # both series still running: the one at s fails first, as alone
    cfg = SeriesEvalConfig(1e-13, k_a - 1)
    assert (_failure(_lerch_pair, w, s, x, cfg)
            == _failure(lerch_sum_with_bound, w, s, x, cfg))
    # the series at s has stopped, the one at s - 1 runs out alone
    cfg = SeriesEvalConfig(1e-13, k_a)
    lerch_sum_with_bound(w, s, x, cfg)
    assert (_failure(_lerch_pair, w, s, x, cfg)
            == _failure(lerch_sum_with_bound, w, s - 1, x, cfg))


def test_tail_ratio_rounding_to_1_raises_before_summing():
    # |w| = 1 - 2^-53, the largest float below 1: for Re s < 0 the tail
    # ratio (1 + |w|)/2 rounds to 1 and no tail bound exists.  At s = 0.5
    # only the series at s - 1 lacks one, and `alone` never runs it: the
    # sum at s goes on and truncates
    w = 1 - 2.0 ** -53
    msg = ("|w| = 0.9999999999999999: the tail ratio (1 + |w|)/2 rounds to "
           "1, so no tail bound holds")
    assert _failure(lerch_sum_with_bound, w, -1, 1.0) == msg
    assert _failure(_lerch_pair, w, 0.5, 1.0, CFG) == msg
    cfg = SeriesEvalConfig(1e-12, 50)
    assert (_failure(lerch_sum_with_bound, w, 0.5, 1.0, cfg)
            == "tail bound 1261260172928567.2 still above tol after 50 terms")


# repr of (lerch_sum_with_bound, _lerch_pair) at tol 1e-13, as the loop
# with one power a term gives them; the bounds, stopping k and messages are
# those of the two-loop implementation it replaced, and each value lies
# within its tail bound plus `_rounding_bound` of the mp.fsum oracle of
# `test_lerch_pair_within_its_bounds_of_a_direct_fsum`.  In each pair the
# series at s stops first and the one at s - 1 runs on alone; with
# max_terms = 183 that one runs out, and with 150 both are still running.
PARENT_BITS = [
    (0.3, 2.5, 1.0, None,
     "((1.0598298982610106+0j), 9.281770170859383e-14)",
     "((1.0598298982610106+0j), 9.281770170859383e-14, "
     "(1.1277036518159813+0j), 4.064225625379359e-14)"),
    (-0.45 + 0.6j, 0.5 + 3j, 0.5, None,
     "((-0.5892978087911414+2.0390072168088875j), 9.550246313654466e-14)",
     "((-0.5892978087911414+2.0390072168088875j), 9.550246313654466e-14, "
     "(-0.550785258611081+1.97019482965523j), 8.931720360162203e-14)"),
    (cmath.rect(0.99, 1.0), -4.5, 2.7, None,
     "((43.68906937608213-11.452703693853097j), 9.985372097179665e-14)",
     "((43.68906937608213-11.452703693853097j), 9.985372097179665e-14, "
     "(107.58080294943476+287.15951411570177j), 9.919455604860237e-14)"),
    (-0.8 + 0.3j, -3 + 1j, 2.7, None,
     "((5.352517082227314-1.989220571176636j), 9.744756145908652e-14)",
     "((5.352517082227314-1.989220571176636j), 9.744756145908652e-14, "
     "(10.280057015484399-2.3181066547722744j), 9.220660262162952e-14)"),
    (0.9, 2.5, 0.5, None,
     "((6.1361943338798115+0j), 9.274469042765988e-14)",
     "((6.1361943338798115+0j), 9.274469042765988e-14, "
     "(3.8895524122374305+0j), 9.557859162584822e-14)"),
    (0, -2.5, 0.1, None,
     "((0.00316227766016838+0j), 0.0)",
     "((0.00316227766016838+0j), 0.0, (0.000316227766016838+0j), 0.0)"),
    (0.9, 2.5, 0.5, 183,
     "((6.1361943338798115+0j), 9.274469042765988e-14)",
     "TruncationFailure: tail bound 1.701865069347559e-11 still above tol "
     "after 183 terms"),
    (0.9, 2.5, 0.5, 150,
     "TruncationFailure: tail bound 4.926462327178514e-12 still above tol "
     "after 150 terms",
     "TruncationFailure: tail bound 4.926462327178514e-12 still above tol "
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
    assert _repr_or_failure(lerch_sum_with_bound, w, s, x, cfg) == single
    assert _repr_or_failure(_lerch_pair, w, s, x, cfg) == pair


# ---------------------------------------------------------------------------
# the horizon: stretches of the Lerch loop summed with no stopping test
# ---------------------------------------------------------------------------

def _parent_lerch_pair(w: complex, s: complex, x: float, cfg: SeriesEvalConfig,
                alone: bool = False) -> tuple[complex, float, complex, float]:
    """The step-by-step loop that `_lerch_pair` replaced, with its term
    w^k (k+x)**(-s) and that term times (k+x) at s - 1, as the oracle of
    its bits: every product, power and sum in complex arithmetic, but for
    the exponent of the power, a float at a real s.

    sum_{k>=0} w^k (k+x)^(-t) at t = s and t = s - 1, each with its
    geometric tail bound, in one pass over k: (value at s, its bound, value
    at s - 1, its bound).  Each series keeps its own bound and stopping
    test, and once it stops it stays frozen while the other goes on.  With
    `alone` the series at s - 1 starts out stopped and (0j, 0.0) stands in
    for it."""
    w = complex(w)
    s = complex(s)
    s1 = s - 1
    if not cmath.isfinite(s):
        raise DomainError(f"s = {s} is not finite")
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"x = {x} must be positive and finite")
    aw = abs(w)
    if aw >= 1:
        raise SeriesDivergence(f"|w| = {aw} >= 1: series diverges")
    rs, rs1 = s.real, s1.real
    nrs, nrs1 = -rs, -rs1
    ns = nrs if s.imag == 0 else -s
    r, r1 = _ratio(aw, rs), _ratio(aw, rs1)
    den, den1 = 1 - r, 1 - r1
    tol, max_terms = cfg.tol, cfg.max_terms
    a = b = 0j
    ba = bb = 0.0
    done_a, done_b = False, alone
    k = 0
    kx = k + x
    wk = 1 + 0j
    # a float power past the float range raises OverflowError with no
    # context; say which sum and which term
    try:
        if w == 0:
            t = complex(x ** ns)
            return t, 0.0, b if alone else t * x, 0.0
        while True:
            t = wk * kx ** ns
            if not done_a:
                a += t
            if not done_b:
                b += t * kx
            k += 1
            wk *= w
            awk = abs(wk)
            kx = k + x
            if not done_a:
                ba = awk * kx ** nrs / den
                done_a = ba <= tol and (
                    rs >= 0 or aw * ((k + 1 + x) / kx) ** nrs <= r)
            if not done_b:
                bb = awk * kx ** nrs1 / den1
                done_b = bb <= tol and (
                    rs1 >= 0 or aw * ((k + 1 + x) / kx) ** nrs1 <= r1)
            if done_a and done_b:
                return a, ba, b, bb
            if k >= max_terms:
                raise TruncationFailure(f"tail bound {bb if done_a else ba} "
                                        f"still above tol after {k} terms")
    except OverflowError as e:
        raise OverflowError(f"float overflow in the Lerch sum at s = {s}, "
                            f"term k = {k}") from e


def _outcome(fn, *args):
    """repr of the result, or the class and text of the error."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError) as e:
        return f"{type(e).__name__}: {e}"


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
_HORIZON = settings(derandomize=True, database=None, max_examples=150,
                    deadline=None)


@_HORIZON
@given(_W, _S, _X, _TOL, st.one_of(st.just(DEFAULT_CONFIG.max_terms),
                                  st.integers(1, 400)))
@example(1e-13, -60, 1e-6, 1e-13, DEFAULT_CONFIG.max_terms)   # a late peak
@example(0.5, -120, 1.0, 1e-12, DEFAULT_CONFIG.max_terms)     # overflow
@example(0.478, -100, 1.0, 1e-12, DEFAULT_CONFIG.max_terms)   # subnormal w^k
@example(0.999, -40, 0.5, 1e-14, DEFAULT_CONFIG.max_terms)
# the routes of a real s; at x = 1, log(k + x) = 0 at k = 0
@example(0.5, -3.5, 1.0, 1e-12, DEFAULT_CONFIG.max_terms)
@example(-0.6, 2.5, 0.5, 1e-12, DEFAULT_CONFIG.max_terms)      # w < 0
@example(complex(0.5, -0.0), -4.5, 0.3, 1e-13, DEFAULT_CONFIG.max_terms)
@example(0.8, 0.0, 2.0, 1e-12, DEFAULT_CONFIG.max_terms)       # s = 0
@example(0.7, complex(-2, 3), 1.5, 1e-12, DEFAULT_CONFIG.max_terms)
@example(cmath.rect(0.9, 2.0), -7.0, 0.25, 1e-12, DEFAULT_CONFIG.max_terms)
@example(0.9, 1 - 6, 1.0, 1e-12, DEFAULT_CONFIG.max_terms)     # s = 1 - n
# the powers (k + 1)^120 at k = 366..369 (and (k + 1)^119 at k = 348..351)
# lie within a factor 4 of the float range's end; the pair's bound (k +
# 1)^121 overflows at k = 352, the series at s alone at 370
@example(0.7209, -120, 1.0, 1e-12, DEFAULT_CONFIG.max_terms)
# a power past the float range at k = 0, 0.1^-1.7e308: OverflowError
@example(0.5, 1.7e308, 0.1, 1e-12, DEFAULT_CONFIG.max_terms)
def test_lerch_pair_matches_the_step_by_step_loop(w, s, x, tol, max_terms):
    cfg = SeriesEvalConfig(tol, max_terms)
    for alone in (False, True):
        assert (_outcome(_lerch_pair, w, s, x, cfg, alone)
                == _outcome(_parent_lerch_pair, w, s, x, cfg, alone))


@_HORIZON
@given(st.one_of(_ABS_W, _ABS_W.map(lambda a: -a)),
       st.one_of(st.floats(-40, 8), st.integers(-130, 0)), _X, _TOL,
       st.one_of(st.just(DEFAULT_CONFIG.max_terms), st.integers(1, 400)))
def test_lerch_pair_at_a_real_w_and_s_matches_the_step_by_step_loop(
        w, s, x, tol, max_terms):
    # the float route: w^k, the powers and both sums in floats
    cfg = SeriesEvalConfig(tol, max_terms)
    for alone in (False, True):
        assert (_outcome(_lerch_pair, w, s, x, cfg, alone)
                == _outcome(_parent_lerch_pair, w, s, x, cfg, alone))


def _certified(w, nrs, den, tol, x, j):
    """At check index j, the loop's float bound |w^j| (j+x)^nrs / den is
    above tol for every rounding within the standard error bounds: the j
    complex products of w^j (sqrt(5) u each), abs, the power, a product and
    a quotient; and w^j, (j+x)^nrs and their product are normal floats."""
    with mp.workdps(40):
        lw = j * mp.log(abs(mp.mpc(w)))
        lp = nrs * mp.log(mp.mpf(j + x))
        slack = (mp.sqrt(5) * j + 6) * 1.01 * _U
        tiny, huge = mp.log(2.0 ** -1022), mp.log(sys.float_info.max)
        return (lw > tiny and tiny < lp < huge and lw + lp > tiny
                and lw + lp - mp.log(den) - slack > mp.log(tol))


def _check_horizon(w, s, x, tol, k, replay):
    """_horizon from check index k, for the series at s as _lerch_pair sets
    it up: every skipped check is certified at the ends of the stretch (g
    is concave or decreasing in between), and, if `replay`, the loop's own
    float bound is above tol, with no overflow, at every one of them.
    Returns K."""
    aw = abs(w)
    nrs, r = -s.real, _ratio(aw, s.real)
    den = 1 - r
    K = _horizon(k, x, math.log(aw), nrs, _level(tol, den), 10 ** 7)
    assert k + 1 <= K <= 10 ** 7
    if K > k + 1:
        assert _certified(w, nrs, den, tol, x, k + 1)
        assert _certified(w, nrs, den, tol, x, K - 1)
    if replay:
        wk = 1 + 0j
        for j in range(1, K):
            wk *= w
            if j > k:
                assert abs(wk) * (j + x) ** nrs / den > tol, j
    return K


@_HORIZON
@given(_W, _S, _X, _TOL, st.floats(0, 1))
def test_horizon_skips_only_checks_that_cannot_pass(w, s, x, tol, where):
    assume(0 < abs(w) < 1)
    for t in (s, s - 1):
        K = _check_horizon(w, t, x, tol, 0, False)
        _check_horizon(w, t, x, tol, int(where * K), K <= 20_000)


@pytest.mark.parametrize("w,s,x,tol,k,end", [
    # the terms peak at k = 2 and the first check may pass: nothing skipped
    (1e-13, -60, 1e-6, 1e-12, 0, 1),
    # (k + 1)^121 overflows at k = 352: the stretch ends before
    (0.5, -121, 1.0, 1e-12, 0, 325),
    # |w^k| is subnormal from k = 960 and the loop stops at 983: the stretch
    # ends where k log|w| reaches -700
    (0.478, -101, 1.0, 1e-12, 0, 949),
])
def test_horizon_at_its_edges(w, s, x, tol, k, end):
    assert _check_horizon(w, complex(s), x, tol, k, True) == end


def test_horizon_skips_nothing_at_a_nan():
    assert _horizon(0, 1.0, math.nan, 2.0, _level(1e-12, 0.5), 10 ** 7) == 1
    assert _level(1e-12, math.nan) == math.inf
    assert _horizon(0, 1.0, -0.5, 2.0, math.inf, 10 ** 7) == 1


def test_horizon_keeps_its_rounding_margin_at_a_flat_peak():
    # w = 1 - 2^-17, s = -40, x = 0.5: g(j) = j log w + 40 log(j + x) peaks
    # near j = 5.2e6, where the rounding of w^j alone may reach 1.3e-9 in
    # log space, more than the absolute 1e-9.  With tol set so that the
    # peak is 1.15e-9 above log(tol den), no check near it may be skipped.
    w, s, x = 1 - 2.0 ** -17, complex(-40), 0.5
    den = 1 - _ratio(w, s.real)
    with mp.workdps(40):
        la, top = mp.log(w), None
        j0 = int(40 / -la - x)
        for j in range(j0 - 2, j0 + 3):
            g = j * la + 40 * mp.log(mp.mpf(j + x))
            if top is None or g > top[1]:
                top = (j, g)
        tol = float(mp.exp(top[1] - mp.mpf("1.15e-9")) / den)
    for k in range(top[0] - 40, top[0] + 1, 8):
        _check_horizon(w, s, x, tol, k, False)


# ---------------------------------------------------------------------------
# the residue route: Lerch's transformation at Re s < 0
# ---------------------------------------------------------------------------

def _load_routes():
    """`_Routes` of tools/op_kinds.py, which counts the route of each value
    by wrapping `_residue_sum` and `_lerch_pair`."""
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


def test_residue_route_falls_back_to_the_direct_bits():
    # L near a pole of one residue term: d arg q^h near a multiple of 2 pi,
    # the sum cancels and its rounding bound fails tol; the value is then the
    # direct one, bit for bit.  At Re s >= 0 the residue sum is not asked.
    h, qv, s, chi = 1, 0.305426 - 0.871219j, -9.989 + 5.3484j, _CHARS[4][0]
    with _Routes(analytic) as routes:
        got = q_lfunction_with_bound(h, qv, s, chi)
    assert routes.route() == "fallback"
    assert got == _combine(h, qv, s, "q-L",
                           lambda w, t: _char_sum(chi, w, t, DEFAULT_CONFIG))
    for s in (0.0, 2.5, -0.0 + 3j, 1e-300):
        with _Routes(analytic) as routes:
            got = q_hurwitz_zeta_with_bound(1, 0.99, s, 0.7)
        assert "_residue_sum" not in routes.seen
        assert got == _combine(1, 0.99, s, "q-zeta", lambda w, t: _lerch_pair(
            w, t, 0.7, DEFAULT_CONFIG))


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
        pair = lambda w, t: _lerch_pair(w, t, x, cfg)
    else:
        chi = _CHARS[d][1]
        got = q_lfunction_with_bound(h, qv, s, chi, cfg)
        pair = lambda w, t: _char_sum(chi, w, t, cfg)
    assert got == _combine(h, qv, complex(s), "q", pair)


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
