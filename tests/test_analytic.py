"""Complex-analytic layer: tail-bounded series and interpolation checks."""

import cmath
import math

import mpmath as mp
import pytest

from qzeta.analytic import (PoleAt1, SeriesDivergence, SeriesEvalConfig,
                            TruncationFailure, _lerch_pair,
                            l_interpolation_verify, lerch_sum_with_bound,
                            q_hurwitz_zeta, q_lfunction,
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


@pytest.mark.parametrize("s,x", [(math.nan, 1.0), (complex(1, math.nan), 1.0),
                                 (math.inf, 1.0), (2, math.nan), (2, math.inf)])
def test_lerch_rejects_non_finite_s_or_x(s, x):
    with pytest.raises(DomainError):
        lerch_sum_with_bound(0.5, s, x)
    with pytest.raises(DomainError):
        _lerch_pair(0.5, s, x, CFG)


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


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.7])
def test_lerch_pair_is_bit_identical_to_two_sums(x):
    for w in PAIR_W:
        for s in PAIR_S:
            want = (lerch_sum_with_bound(w, s, x, CFG)
                    + lerch_sum_with_bound(w, s - 1, x, CFG))
            assert _lerch_pair(w, s, x, CFG) == want, (w, s)


def _lfunction_from_two_passes(h, qv, s, chi, cfg):
    """q_lfunction_with_bound as two passes of per-residue Lerch sums."""
    s = complex(s)
    w = complex(qv) ** h
    d = chi.modulus
    sums = []
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
        sums.append((acc, bound))
    (a, ba), (b, bb) = sums
    fac = h * cmath.log(qv) / (s - 1)
    return a - fac * b, ba + abs(fac) * bb


@pytest.mark.parametrize("d", [1, 3, 4, 5])
def test_lfunction_is_bit_identical_to_two_passes(d):
    for chi in enumerate_characters(d):
        for h, qv in ((1, 0.5), (2, -0.6 + 0.7j), (1, cmath.rect(0.99, 2.0))):
            for s in (2.5, 0.5 + 3j, -4.5, -8 + 2j):
                want = _lfunction_from_two_passes(h, qv, s, chi, CFG)
                got = q_lfunction_with_bound(h, qv, s, chi, CFG)
                assert got == want, (d, chi.exponents, h, qv, s)


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


# repr of (lerch_sum_with_bound, _lerch_pair) at tol 1e-13, taken from the
# two-loop implementation this one loop replaced.  In each pair the series
# at s stops first and the one at s - 1 runs on alone; with max_terms = 183
# that one runs out, and with 150 both are still running.
PARENT_BITS = [
    (0.3, 2.5, 1.0, None,
     "((1.0598298982610106+0j), 9.281770170859383e-14)",
     "((1.0598298982610106+0j), 9.281770170859383e-14, "
     "(1.1277036518159813+0j), 4.064225625379359e-14)"),
    (-0.45 + 0.6j, 0.5 + 3j, 0.5, None,
     "((-0.5892978087911412+2.0390072168088875j), 9.550246313654466e-14)",
     "((-0.5892978087911412+2.0390072168088875j), 9.550246313654466e-14, "
     "(-0.5507852586110812+1.97019482965523j), 8.931720360162203e-14)"),
    (cmath.rect(0.99, 1.0), -4.5, 2.7, None,
     "((43.68908159318743-11.452800040197841j), 9.985372097179665e-14)",
     "((43.68908159318743-11.452800040197841j), 9.985372097179665e-14, "
     "(107.4205438970504+286.96515207219176j), 9.919455604860237e-14)"),
    (-0.8 + 0.3j, -3 + 1j, 2.7, None,
     "((5.352517082227266-1.9892205711773978j), 9.744756145908652e-14)",
     "((5.352517082227266-1.9892205711773978j), 9.744756145908652e-14, "
     "(10.2800570154784-2.31810665479738j), 9.220660262162952e-14)"),
    (0.9, 2.5, 0.5, None,
     "((6.1361943338798115+0j), 9.274469042765988e-14)",
     "((6.1361943338798115+0j), 9.274469042765988e-14, "
     "(3.8895524122374305+0j), 9.557859162584822e-14)"),
    (0, -2.5, 0.1, None,
     "((0.003162277660168382+0j), 0.0)",
     "((0.003162277660168382+0j), 0.0, (0.0003162277660168384+0j), 0.0)"),
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
