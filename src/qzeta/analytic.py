"""Complex-arithmetic q-zeta, q-Hurwitz zeta and q-L functions, by direct
tail-bounded series summation or, at Re s < 0, by Lerch's transformation,
plus the interpolation checks at negative integer arguments.

The direct sums need about 1/(1 - |q^h|) terms.  At Re s < 0 the residue
sum of Lerch's transformation (`_residue_sum`) has terms that fall like
|k|^(Re s - 1) whatever |q^h| is; `_combine` takes it where its term
count, read from its tail bound before any term, costs less than the
direct sums would, and where its tail and rounding bounds certify tol.
Every other value is the direct one below, bit for bit.

zeta_q^{(h)}(s, x) is one series, sum w^k (k+x)^(-s) (1 - fac (k+x)),
w = q^h and fac = h log q/(s-1), and L_q^{(h)} one such series per unit
residue class mod d; `_combine` serves both.  One kernel, `_lerch`, sums
every series here, the Lerch series of `lerch_sum_with_bound` too (fac =
0), in one loop: a term costs one power, w^k (k+x)**(-s), times (1 - fac
(k+x)).  At each term it tests the tail bound of the whole series, that of
the Lerch series at s plus |fac| times that at s - 1, read off that term's
own power, and stops at the first that certifies tol, so a direct zeta
value's bound is at most tol; the rounding of the sum is not bounded.
The interpolation checks import qbernoulli and report when they run, and a
domain check imports exact only to raise DomainError, so the direct values
load no exact arithmetic."""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from ._base import _Frozen, euler_phi

if TYPE_CHECKING:
    from .characters import DirichletCharacter
    from .report import VerificationReport


class SeriesDivergence(ArithmeticError):
    pass


class PoleAt1(ArithmeticError, ValueError):
    """s = 1 hits the simple pole of the h*log q/(s-1) term."""


class TruncationFailure(ArithmeticError):
    pass


class SeriesEvalConfig(_Frozen):
    __slots__ = ("tol", "max_terms")

    def __init__(self, tol: float = 1e-12, max_terms: int = 10 ** 7):
        if not tol >= 1e-14:          # NaN too
            raise ValueError("tol must be >= 1e-14")
        if not 1 <= max_terms <= 10 ** 8:
            raise ValueError("max_terms must be in 1..1e8")
        self._set(tol, max_terms)


DEFAULT_CONFIG = SeriesEvalConfig()


def _ratio(aw: float, rs: float) -> float:
    """Effective geometric ratio: for Re s >= 0 the magnitudes decay at least
    like |w|; for Re s < 0 the sum runs past the index where the term ratio
    falls below (1+|w|)/2, then that ratio bounds the tail."""
    return aw if rs >= 0 else (1 + aw) / 2


def _lerch(w: complex, s: complex, x: float, fac: complex,
           cfg: SeriesEvalConfig) -> tuple[complex, float]:
    """sum_{k>=0} w^k (k+x)^(-s) (1 - fac (k+x)) with a certified tail
    bound: the Lerch series at s for fac = 0, and the series of a zeta or
    L value (`_combine`) otherwise.  Term k is w^k (k+x)**(-s), one power,
    times (1 - fac (k+x)).

    Past k the terms' sizes are at most those of the Lerch series at s
    plus |fac| times those at s - 1, so the tail is at most |w^k|
    (k+x)^(-Re s) / (1 - r) + |fac| |w^k| (k+x)^(1 - Re s) / (1 - r1),
    r and r1 their `_ratio`s, once the terms at s - 1 fall by r1 from k
    on.  That is |t| (1/(1 - r) + |fac| (k+x)/(1 - r1)), t = w^k
    (k+x)**(-s), the same formula evaluated from term k's own power.  So
    after term 0, each k = 1 .. max_terms takes t, returns the sum of the
    terms before it when that bound is at most tol and the ratio test of
    the series at s - 1 passes, and else adds t (1 - fac (k+x)).  That test
    implies the one at s, whose terms are those at s - 1 over k + x.  At
    fac = 0 only the series at s is tested, with its bits, stopping k and
    bound alone.  A tail ratio that rounds to 1 raises TruncationFailure
    before any term.  The bound is the tail's alone: the rounding of the
    terms and of their sum is not bounded.

    At a real s the power is `float ** float`, within about 1 ulp; at a
    complex s it is `float ** complex`, pow(k+x, -Re s) times the unit
    phase of -Im s log(k+x).  At a real w and fac too, w^k and the sum are
    floats, returned as complex.  A NaN w, like a non-finite s, x or fac,
    raises DomainError, and an infinite w SeriesDivergence."""
    w = complex(w)
    s = complex(s)
    fac = complex(fac)
    if not cmath.isfinite(s):
        from .exact import DomainError
        raise DomainError(f"s = {s} is not finite")
    if not (math.isfinite(x) and x > 0):
        from .exact import DomainError
        raise DomainError(f"x = {x} must be positive and finite")
    if not cmath.isfinite(fac):
        from .exact import DomainError
        raise DomainError(f"h log q/(s - 1) = {fac} is not finite")
    aw = abs(w)
    if math.isnan(aw):      # abs is NaN only at a NaN part and no inf one
        from .exact import DomainError
        raise DomainError(f"w = {w} is not a number")
    if aw >= 1:
        raise SeriesDivergence(f"|w| = {aw} >= 1: series diverges")
    rs = s.real
    rs1 = rs - 1
    nrs, nrs1 = -rs, -rs1
    r, r1 = _ratio(aw, rs), _ratio(aw, rs1)
    den, den1 = 1 - r, 1 - r1
    afac = abs(fac)
    if den == 0 or den1 == 0 and afac:
        raise TruncationFailure(f"|w| = {aw}: the tail ratio (1 + |w|)/2 "
                                "rounds to 1, so no tail bound holds")
    # the ratio test: of the series at s - 1, or at fac = 0 of that at s
    rt, nrt, rr = (rs1, nrs1, r1) if afac else (rs, nrs, r)
    tol, max_terms = cfg.tol, cfg.max_terms
    acc = 0j
    k = 0
    wk = 1 + 0j
    # the power's exponent: a float at a real s, and at a real w and fac,
    # a float sum too
    ns = -s
    if s.imag == 0:
        ns = nrs
        if w.imag == 0 and fac.imag == 0:
            w, wk, acc, fac = w.real, 1.0, 0.0, fac.real
    # a float power past the float range raises OverflowError with no
    # context; say which sum and which term
    try:
        if w == 0:
            return complex(x ** ns * (1 - fac * x)), 0.0
        acc += wk * x ** ns * (1 - fac * x)
        c, c1 = 1 / den, afac / den1 if afac else 0.0
        for k in range(1, max_terms + 1):
            wk *= w
            kx = k + x
            t = wk * kx ** ns
            bound = abs(t) * (c + c1 * kx)
            if bound <= tol and (
                    rt >= 0 or aw * ((k + 1 + x) / kx) ** nrt <= rr):
                return complex(acc), bound
            acc += t * (1 - fac * kx)
        raise TruncationFailure(f"tail bound {bound} still above tol "
                                f"after {k} terms")
    except OverflowError as e:
        raise OverflowError(f"float overflow in the Lerch sum at s = {s}, "
                            f"term k = {k}") from e


def lerch_sum_with_bound(w: complex, s: complex, x: float,
                         cfg: SeriesEvalConfig = DEFAULT_CONFIG) -> tuple[complex, float]:
    """sum_{k>=0} w^k (k+x)^(-s) with a certified geometric tail bound.

    Requires |w| < 1 and x > 0.  (k+x)^(-s) uses the real log of the
    positive base, so there is no branch ambiguity in the summands.
    """
    return _lerch(w, s, x, 0, cfg)


# ---------------------------------------------------------------------------
# the residue route: Lerch's transformation at Re s < 0
# ---------------------------------------------------------------------------

_U = 2.0 ** -53                 # unit roundoff
_TWO_PI = 2 * math.pi
_log = math.log
# CPython's math.gamma (a Lanczos sum) is stated accurate to within 10 ulps
# over the float range (Modules/mathmodule.c); taken twice over
_GAMMA_ULPS = 20
# Stirling's series for log Gamma: B_2j / (2j (2j - 1)), j = 1..7, summed at
# Re z >= 10, and |B_16| / (16 * 15), the factor of the first omitted term
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156)
_STIRLING_REST = 3617 / 510 / 240
_HALF_LOG_2PI = 0.5 * _log(_TWO_PI)
# Costs in direct terms, `_direct_terms`' unit: one complex power of the
# residue sum (with its share of the loop and the bound sums), and the
# setup (Gamma, prefactor, bounds).  Chosen by the least total time on the
# 2,947 Re s < 0 points of the benchmark's pool when a direct term took two
# exps: 0.586 s, against 1.29 s for the direct sums alone and 0.572 s for
# the faster route at every point.  With one power a term, the medians over
# the pool's points of 50 to 2e5 estimated terms (best of 3, one core,
# CPython 3.11.7) are 0.38 us a direct term of zeta (0.46 us of L), down
# from 0.51 us (0.60 us), and 0.95 us a power.  By time alone both
# constants would now shift points to the direct route; they keep their
# values because the residue value those points would give up is
# certified, tail + rounding <= tol, where the direct value's rounding is
# not bounded.
_RESIDUE_TERM_COST = 1.5
_RESIDUE_SETUP_COST = 10


def _gamma(z: complex) -> tuple[complex, float]:
    """Gamma(z) for Re z >= 1 and a bound on its relative error.  At a real
    z, `math.gamma`; otherwise Stirling's series at z + n, Re(z + n) >= 10,
    divided by z (z + 1) ... (z + n - 1).  The omitted tail is at most
    |B_16| sec^16(arg(z+n)/2) / (240 |z+n|^15) (Whittaker and Watson,
    12.33), and the float sums add at most about 4 |z+n| (log|z+n| + pi +
    1) + 12 + 4n rounding units.  Past the float range it raises
    OverflowError."""
    if z.imag == 0:
        return complex(math.gamma(z.real)), _GAMMA_ULPS * _U
    n = max(0, math.ceil(10 - z.real))
    zn = z + n
    r = 1 / zn
    r2 = r * r
    ser = 0j
    for c in reversed(_STIRLING):
        ser = ser * r2 + c
    prod = 1
    for i in range(n):
        prod *= z + i
    az = abs(zn)
    rest = _STIRLING_REST * (2 * az / (az + zn.real)) ** 8 / az ** 15
    err = rest + _U * (4 * az * (abs(_log(az)) + math.pi + 1) + 12 + 4 * n)
    lg = (zn - 0.5) * cmath.log(zn) - zn + _HALF_LOG_2PI + ser * r
    return cmath.exp(lg) / prod, err


def _gauss_sums(chi: DirichletCharacter) -> list[complex]:
    """G(k) = sum_{r=1}^{d} chi(r) e^(2 pi i k r/d) for k = 0 .. d - 1; each
    within 40 d u of its value."""
    d = chi.modulus
    vals = [chi.value_complex(r) for r in range(1, d + 1)]
    roots = [cmath.exp(complex(0, _TWO_PI * j / d)) for j in range(d)]
    return [sum(v * roots[k * r % d] for r, v in enumerate(vals, 1))
            for k in range(d)]


def _residue_sum(lam: complex, s: complex, x: float,
                 chi: DirichletCharacter | None, units: int, dlam: float,
                 tail_tol: float, budget: float
                 ) -> tuple[complex, float, float] | None:
    """Lerch's transformation at Re s < 0 and Re lam < 0 (Erdelyi et al.,
    Higher Transcendental Functions I, 1.11(6)), in the one form that
    serves zeta and L, with P = Gamma(1 - s) e^(-lam x) d^(-s):

      P sum_{k != 0} 2 pi i k c_k (2 pi i k - lam)^(s - 2)   (principal power),

    c_k = e^(2 pi i k x) for zeta_q^{(h)}(s, x), 0 < x <= 1 (chi None, d =
    1, lam = h log q), and c_k = G(k mod d), the Gauss sums of chi, for L
    mod d (x = 0, lam = d h log q).  `units`, phi(d), bounds |c_k|, and
    `dlam` bounds the error of lam.
    Returns (value, tail bound, rounding bound), or None before any term
    when the K below costs more than `budget` direct terms or a term could
    leave the float range, and None after the sum when the value or a
    bound is not finite.

    K, the largest |k| summed, is read from the tail bound: with s = sigma
    + it, lam = a + ib and beta = |b|/(2 pi) < K, every |k| > K has
    |2 pi i k - lam| >= 2 pi (|k| - beta) and |arg| < pi/2, so the terms
    past K sum to at most 2 |P| G e^(pi|t|/2) (2 pi)^(sigma - 1)
    [(K - beta)^sigma/(-sigma) + beta (K - beta)^(sigma - 1)/(1 - sigma)],
    G = phi(d); K makes that at most tail_tol.  The Gauss sums are
    built only then.  At a real lam and s the terms at -k are the
    conjugates of those at k, so one power serves both.

    The rounding bound is that of the prefactor (`_gamma`'s bound and the
    exponential) on the value, plus that of each term on G sum |term|.  A
    term's is that of its power z_k^e, e = s - 2: at an integral e = -n, n
    <= 100, CPython multiplies (c_powi: (n - 1) sqrt 5 u, then 1/x), else
    c_pow (hypot, pow, atan2, cos and sin of the phase, each within 1 ulp)
    keeps (7 + 8 |Re e| + |Im e| (6 + 4 max |log|z_k||)) u; plus |e| times
    the relative error of z_k = 2 pi i k - lam, 10 u for the products that
    follow, K u for the sum, 17 u per step of the phase recursion of c_k,
    and `_gauss_sums`' 40 d u."""
    d = 1 if chi is None else chi.modulus
    rs, ts = s.real, s.imag
    e = s - 2
    nr, lb = -lam.real, lam.imag
    beta = abs(lb) / _TWO_PI
    paired = lb == 0 and ts == 0
    if not (budget > 0 and tail_tol > 0):
        return None
    try:
        gam, dgam = _gamma(1 - s)
        ex = -lam * x - s * _log(d)
        pre = gam * cmath.exp(ex)
    except OverflowError:
        return None
    ap = abs(pre)
    if not 1e-300 < ap < math.inf:
        return None
    # log of 2 |P| G e^(pi |t|/2) (2 pi)^(sigma - 1), and of tail_tol
    la = (_log(2 * units * ap) + math.pi / 2 * abs(ts)
          + (rs - 1) * _log(_TWO_PI))
    lt = _log(tail_tol)
    ly = (la - _log(-rs) - lt + _log(2)) / -rs
    if beta:
        ly = max(ly, (la + _log(2 * beta) - _log(1 - rs) - lt) / (1 - rs))
    if not ly < _log(budget):
        return None
    K = max(math.floor(beta) + 1, math.ceil(beta + math.exp(ly)))
    if K * _RESIDUE_TERM_COST * (1 if paired else 2) > budget:
        return None
    # the nearest pole and the farthest term: no power may leave the range
    k0 = round(lb / _TWO_PI)
    zmin = min(abs(complex(nr, _TWO_PI * k - lb))
               for k in (k0 - 1, k0, k0 + 1) if k)
    lzmax = _log(_TWO_PI * K + abs(lam))
    if not ((rs - 2) * lzmax - math.pi / 2 * abs(ts) > -700
            and (rs - 2) * _log(zmin) + math.pi / 2 * abs(ts) < 700):
        return None
    ly = _log(K - beta)
    tail = math.exp(la + rs * ly) / -rs
    if beta:
        tail += math.exp(la + _log(beta) + (rs - 1) * ly) / (1 - rs)
    gauss = [1] if chi is None else _gauss_sums(chi)
    c1 = cmath.exp(complex(0, _TWO_PI * x))
    ck = 1 + 0j
    acc = 0j
    tot = totk = 0.0
    for k in range(1, K + 1):
        y = _TWO_PI * k
        ck *= c1
        tp = complex(nr, y - lb) ** e
        if paired:
            tm = tp.conjugate()
            a = 2 * y * abs(tp)
        else:
            tm = complex(nr, -y - lb) ** e
            a = y * (abs(tp) + abs(tm))
        acc += y * (tp * gauss[k % d] * ck
                    - tm * gauss[-k % d] * ck.conjugate())
        tot += a
        totk += k * a
    value = pre * 1j * acc
    lz = max(abs(_log(zmin)), lzmax)
    dz = 2.5 * _U + (1.5 * _U * abs(lb) + 2 * dlam) / zmin
    if ts == 0 and rs == int(rs) and rs >= -98:
        power = 2.3 * (2 - rs) + 5
    else:
        power = 7 + 8 * abs(rs - 2) + abs(ts) * (6 + 4 * lz)
    rho = _U * (10 + K + power) + abs(e) * dz
    phase = 17 * _U if x else 0.0
    gerr = 40 * d * _U if chi is not None else 0.0
    rsum = 1.01 * (units * (rho * tot + phase * totk) + gerr * tot)
    dpre = (dgam + dlam * x
            + _U * (2 * abs(lam) * x + 3 * abs(s) * _log(d) + abs(ex) + 5))
    rnd = ap * rsum + abs(value) * (dpre + 3 * _U)
    if not (cmath.isfinite(value) and rnd < math.inf):
        return None
    return value, tail, rnd


def _direct_terms(aw: float, rs: float, x: float, tol: float) -> float:
    """About the number of terms `_lerch` runs at |w| = aw and Re s = rs <
    0: the k where the Lerch series at s - 1, whose terms |w|^k (k +
    x)^(1 - rs) fall last, reaches its stop tol (1 - aw)/2, by three
    fixed-point steps from the k where |w|^k alone does, none below 0.
    0 where that stop is 1 or more, so that so loose a tol keeps the
    direct sums.  It leaves out the |fac| that weighs that series in
    `_lerch`'s stop, as it did when each series stopped on its own: so
    every point keeps the route that `_RESIDUE_TERM_COST` and
    `_RESIDUE_SETUP_COST` were chosen for, and each residue value its
    bits."""
    if not 0 < aw < 1:
        return 0.0
    la, lev = _log(aw), _log(tol * (1 - aw) / 2)
    if lev >= 0:
        return 0.0
    k = lev / la
    for _ in range(3):
        k = max((lev - (1 - rs) * _log(k + x)) / la, 0.0)
    return k


def _certified(value: complex, bound: float, tol: float
               ) -> tuple[complex, float] | None:
    """(value, bound) when bound <= tol max(1, |value|), else None."""
    return (value, bound) if bound <= tol * max(1.0, abs(value)) else None


def _dlam(h: int, qv: complex, lam: complex) -> float:
    """A bound on the error of lam = h cmath.log(q): CPython takes log|q|
    by log1p((a - 1)(a + 1) + b^2)/2 near |q| = 1 (a >= b the parts'
    sizes), which keeps a few units of |log q| for a real q and adds at most
    about 4 u b for a complex one, and by log(hypot) elsewhere, |log|q|| >
    1/3."""
    return _U * (5 * abs(lam) + 4 * h * abs(qv.imag))


def _zeta_residue(h: int, qv: complex, s: complex, x: float,
                  cfg: SeriesEvalConfig) -> tuple[complex, float] | None:
    """zeta_q^{(h)}(s, x) at Re s < 0 by `_residue_sum`, when that costs
    fewer direct terms than `_lerch` would run (at most max_terms) and
    certifies cfg.tol; else None.  x > 1 comes down to y = x - m in (0, 1]
    by the shift zeta(s, x) = w^-1 [zeta(s, x - 1) - (x - 1)^-s + (lam/(s -
    1)) (x - 1)^(1 - s)], w = q^h, which divides every error by |w|^m: the
    tail is asked for at tol |w|^m / 2 and the m steps carry their own
    rounding."""
    if not 0 < x < math.inf:        # NaN too: the direct route says why
        return None
    w = qv ** h
    aw = abs(w)
    cost = min(_direct_terms(aw, s.real, x, cfg.tol), cfg.max_terms)
    if not cost > _RESIDUE_SETUP_COST:
        return None
    m = max(math.ceil(x) - 1, 0)
    y = x - m
    scale = aw ** m
    lam = h * cmath.log(qv)
    dlam = _dlam(h, qv, lam)
    got = _residue_sum(lam, s, y, None, 1, dlam, cfg.tol * scale / 2,
                       cost - _RESIDUE_SETUP_COST - 2 * m * _RESIDUE_TERM_COST)
    if got is None:
        return None
    v, tail, err = got
    if m:
        fac = lam / (s - 1)
        dfac = (4 * _U * abs(fac) + dlam / abs(s - 1))
        dw = (4 + 2 * h) * _U
        for j in range(m):
            yj = y + j
            p = yj ** -s
            dp = _U * (4 + 4 * abs(s) * (abs(_log(yj)) + 1))
            corr = p - fac * yj * p
            dcorr = (abs(p) * (1 + abs(fac) * yj) * (dp + 8 * _U)
                     + abs(p) * yj * dfac)
            v = (v - corr) / w
            err = ((err + _U * (abs(v * w) + abs(corr)) + dcorr) / aw
                   + abs(v) * (dw + 4 * _U))
        tail /= scale
        if not cmath.isfinite(v):
            return None
    return _certified(v, tail + 1.05 * err, cfg.tol)


def _combine(h: int, qv: complex, s: complex, name: str, direct,
             residue) -> tuple[complex, float]:
    """The step shared by the q-zeta and q-L definitions (`name` names it in
    the pole message): each is one series in w = q^h and fac = h log
    q/(s-1), which direct(w, s, fac) sums, with its bound.  At Re s < 0 it
    first asks residue(q, s) for a certified (value, bound), and sums the
    direct series only when that gives None."""
    qv = complex(qv)
    if not 0 < abs(qv) < 1:
        from .exact import DomainError
        raise DomainError("need 0 < |q| < 1")
    if abs(qv ** h) >= 1:
        raise SeriesDivergence(
            f"|q^h| = {abs(qv ** h)} >= 1: defining series diverges "
            f"(h = {h}: h <= 0 is not analytically continued)")
    s = complex(s)
    if s == 1:
        raise PoleAt1(f"s = 1 is the simple pole of the {name} definition")
    if s.real < 0 and cmath.isfinite(s):
        got = residue(qv, s)
        if got is not None:
            return got
    return direct(qv ** h, s, h * cmath.log(qv) / (s - 1))


def q_hurwitz_zeta_with_bound(h: int, qv: complex, s: complex, x: float,
                              cfg: SeriesEvalConfig = DEFAULT_CONFIG
                              ) -> tuple[complex, float]:
    """zeta_q^{(h)}(s, x) = sum_{n>=0} q^{nh}/(n+x)^s
                            - (h log q/(s-1)) sum_{n>=0} q^{nh}/(n+x)^{s-1}.

    Two routes.  At Re s < 0, where Lerch's transformation needs fewer
    terms than the direct sum (`_zeta_residue`), the residue sum; its
    bound is tail + rounding, at most tol max(1, |value|).  Everywhere
    else, and wherever that value is not finite or not certified, the
    direct sum of the one series sum q^{nh} (n+x)^-s (1 - (h log q/(s-1))
    (n+x)) (`_lerch`), whose bound is its tail's, at most tol; its
    rounding is not bounded."""
    return _combine(h, qv, s, "q-zeta",
                    lambda w, s, fac: _lerch(w, s, x, fac, cfg),
                    lambda qv, s: _zeta_residue(h, qv, s, x, cfg))


def q_hurwitz_zeta(h: int, qv: complex, s: complex, x: float,
                   cfg: SeriesEvalConfig = DEFAULT_CONFIG) -> complex:
    return q_hurwitz_zeta_with_bound(h, qv, s, x, cfg)[0]


def q_zeta(h: int, qv: complex, s: complex,
           cfg: SeriesEvalConfig = DEFAULT_CONFIG) -> complex:
    """zeta_q^{(h)}(s) = sum_{n>=1} q^{(n-1)h}/n^s - ... = zeta_q^{(h)}(s, 1)."""
    return q_hurwitz_zeta(h, qv, s, 1.0, cfg)


def _char_sum(chi: DirichletCharacter, w: complex, s: complex, fac: complex,
              cfg: SeriesEvalConfig) -> tuple[complex, float]:
    """sum_{n>=1} chi(n) w^n n^(-s) (1 - fac n) with its bound, over the
    residue classes n = r + d k: chi(r) w^r d^(-s) times `_lerch` at ratio
    w^d, x = r/d and fac d, since n^(-s) = d^(-s) (k + r/d)^(-s) and fac n =
    (fac d) (k + r/d).  The bound is the sum of |chi(r) w^r d^(-s)| times
    each class's tail bound."""
    d = chi.modulus
    wd = w ** d
    fd = fac * d
    value = 0j
    bound = 0.0
    ds = None
    for r in range(1, d + 1):
        cr = chi.value_complex(r)
        if cr == 0:
            continue
        sv, sb = _lerch(wd, s, r / d, fd, cfg)
        if ds is None:  # d^-s, once, after the first class: its overflow,
            # if any, is raised first, as when taken per r
            ds = cmath.exp(-s * math.log(d))
        scale = cr * w ** r * ds
        value += scale * sv
        bound += abs(scale) * sb
    return value, bound


def _lfunction_residue(h: int, chi: DirichletCharacter, qv: complex,
                       s: complex, cfg: SeriesEvalConfig
                       ) -> tuple[complex, float] | None:
    """L_q^{(h)}(s, chi) at Re s < 0 by `_residue_sum`, when that costs
    fewer direct terms than `_char_sum` would run and certifies cfg.tol;
    else None.  L = d^-s sum_r chi(r) q^{hr} zeta_{q^d}(s, r/d), and the
    zeta at base q^d takes lam_d = d h log q, not h log(q^d), which may
    differ by 2 pi i.  Then q^{hr} e^(-lam_d r/d) = 1, and the d residue
    classes collapse into one sum over the Gauss sums G(k) = sum_r chi(r)
    e^(2 pi i k r/d).  The direct route runs one `_lerch` at |w^d| per
    unit r mod d; the Gauss sums cost about d^2 of its terms."""
    d = chi.modulus
    units = euler_phi(d)
    one = _direct_terms(abs(qv ** h) ** d, s.real, 0.5, cfg.tol)
    cost = min(one * units, cfg.max_terms) - d * d
    if not cost > _RESIDUE_SETUP_COST:
        return None
    lam = h * cmath.log(qv)
    lam_d = d * lam
    got = _residue_sum(lam_d, s, 0.0, chi, units,
                       d * _dlam(h, qv, lam) + _U * abs(lam_d), cfg.tol / 2,
                       cost - _RESIDUE_SETUP_COST)
    if got is None:
        return None
    return _certified(got[0], got[1] + got[2], cfg.tol)


def q_lfunction_with_bound(h: int, qv: complex, s: complex,
                           chi: DirichletCharacter,
                           cfg: SeriesEvalConfig = DEFAULT_CONFIG
                           ) -> tuple[complex, float]:
    """L_q^{(h)}(s, chi) = sum_{n>=1} q^{nh} chi(n)/n^s
                           - (h log q/(s-1)) sum_{n>=1} q^{nh} chi(n)/n^{s-1},
    exactly as defined (note the q^{nh}, not q^{(n-1)h}).  Routed as
    `q_hurwitz_zeta_with_bound` is: the residue sum (`_lfunction_residue`,
    bound tail + rounding <= tol max(1, |value|)) at Re s < 0 where it is
    cheaper and certifies, else the direct sums over the unit residue
    classes (`_char_sum`), whose bound is sum_r |chi(r) q^{hr} d^-s| times
    each class's tail bound, itself at most tol; their rounding is not
    bounded."""
    return _combine(h, qv, s, "q-L",
                    lambda w, s, fac: _char_sum(chi, w, s, fac, cfg),
                    lambda qv, s: _lfunction_residue(h, chi, qv, s, cfg))


def q_lfunction(h: int, qv: complex, s: complex, chi: DirichletCharacter,
                cfg: SeriesEvalConfig = DEFAULT_CONFIG) -> complex:
    return q_lfunction_with_bound(h, qv, s, chi, cfg)[0]


# ---------------------------------------------------------------------------
# interpolation checks
# ---------------------------------------------------------------------------

def _check_interp(n: int, tol: float) -> None:
    """An interpolation check needs n >= 1, and a tol that a verdict can
    meet: a NaN or negative tol would turn every identity into a FAIL."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not tol >= 0:                  # NaN too
        raise ValueError(f"tol {tol} must be >= 0")


def _interp_report(identity: str, params: dict, diff: complex, tol: float):
    """The one witness at s = 1 - n of lhs = -B/n: |diff|, diff = lhs + B/n."""
    from .report import VerificationReport

    err = abs(diff)
    return VerificationReport(identity, {**params, "tol": tol},
                              ((f"s=1-{params['n']}", err),), err <= tol)


def zeta_interpolation_verify(h: int, qv: complex, n: int, x: float,
                              cfg: SeriesEvalConfig = DEFAULT_CONFIG,
                              tol: float = 1e-8) -> VerificationReport:
    """zeta_q^{(h)}(1-n, x) = -B_n^{(h)}(x)/n."""
    _check_interp(n, tol)
    from .qbernoulli import q_bernoulli_polynomial

    lhs = q_hurwitz_zeta(h, qv, complex(1 - n), x, cfg)
    bval = q_bernoulli_polynomial(h, n).eval_complex(complex(x), complex(qv))
    return _interp_report("zeta-interpolation", {"h": h, "q": complex(qv),
                          "n": n, "x": x}, lhs + bval / n, tol)


def l_interpolation_verify(h: int, qv: complex, n: int,
                           chi: DirichletCharacter,
                           cfg: SeriesEvalConfig = DEFAULT_CONFIG,
                           tol: float = 1e-8) -> VerificationReport:
    """L_q^{(h)}(1-n, chi) = -B_{n,chi}^{(h)}/n."""
    _check_interp(n, tol)
    from .qbernoulli import generalized_q_bernoulli

    lhs = q_lfunction(h, qv, complex(1 - n), chi, cfg)
    bval = generalized_q_bernoulli(chi, h, n, qv)
    return _interp_report("l-interpolation",
                          {"h": h, "q": complex(qv), "n": n, "d": chi.modulus,
                           "exponents": list(chi.exponents)},
                          lhs + bval / n, tol)
