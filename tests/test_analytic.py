"""Complex-analytic layer: tail-bounded series and interpolation checks."""

import cmath
import math
import sys

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qzeta.analytic import (DEFAULT_CONFIG, PoleAt1, SeriesDivergence,
                            SeriesEvalConfig, TruncationFailure, _horizon,
                            _lerch_pair, _level, _ratio,
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


# ---------------------------------------------------------------------------
# the horizon: stretches of the Lerch loop summed with no stopping test
# ---------------------------------------------------------------------------

def _parent_lerch_pair(w: complex, s: complex, x: float, cfg: SeriesEvalConfig,
                alone: bool = False) -> tuple[complex, float, complex, float]:
    """The step-by-step loop that `_lerch_pair` replaced, kept verbatim (but
    for its name and the DomainError import) as the oracle of its bits.

    sum_{k>=0} w^k (k+x)^(-t) at t = s and t = s - 1, each with its
    geometric tail bound, in one pass over k: (value at s, its bound, value
    at s - 1, its bound).  The two series share w^k and log(k+x); each keeps
    its own terms, bound and stopping test, and once it stops it stays
    frozen while the other goes on, so it stops at the same k, with the same
    bits, as it does alone.  With `alone` the series at s - 1 starts out
    stopped and (0j, 0.0) stands in for it."""
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
    log, exp = math.log, cmath.exp
    ns, ns1 = -s, -s1
    rs, rs1 = s.real, s1.real
    nrs, nrs1 = -rs, -rs1
    r, r1 = _ratio(aw, rs), _ratio(aw, rs1)
    den, den1 = 1 - r, 1 - r1
    tol, max_terms = cfg.tol, cfg.max_terms
    a = b = 0j
    ba = bb = 0.0
    done_a, done_b = False, alone
    k = 0
    kx = k + x
    wk = 1 + 0j
    # a float power or exp past the float range raises OverflowError with
    # no context; say which sum and which term
    try:
        if w == 0:
            lg = log(x)
            return exp(ns * lg), 0.0, b if alone else exp(ns1 * lg), 0.0
        while True:
            lg = log(kx)
            if not done_a:
                a += wk * exp(ns * lg)
            if not done_b:
                b += wk * exp(ns1 * lg)
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
@example(complex(math.nan, 0), 2, 1.0, 1e-12, 50)              # NaN w
@example(0.999, -40, 0.5, 1e-14, DEFAULT_CONFIG.max_terms)
def test_lerch_pair_matches_the_step_by_step_loop(w, s, x, tol, max_terms):
    cfg = SeriesEvalConfig(tol, max_terms)
    for alone in (False, True):
        assert (_outcome(_lerch_pair, w, s, x, cfg, alone)
                == _outcome(_parent_lerch_pair, w, s, x, cfg, alone))


_U = 2.0 ** -53


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
