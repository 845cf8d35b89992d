"""Complex-arithmetic q-zeta, q-Hurwitz zeta and q-L functions, by direct
tail-bounded series summation, plus the interpolation checks at negative
integer arguments.

zeta_q^{(h)} and L_q^{(h)} are each one combination of two Lerch series,
sum w^k (k+x)^(-s) - (h log q/(s-1)) sum w^k (k+x)^(1-s), which `_combine`
takes, with its bound, for both.  One loop,
`_lerch_pair`, sums every Lerch series here: both at once in a single pass
over k, sharing w^k and log(k+x), or, for `lerch_sum_with_bound`, the one
at s alone.  Each series keeps its own stopping test and stays frozen once
it passes, so value and tail bound are bit-identical to two separate
`lerch_sum_with_bound` calls.  L_q runs one pair per residue class mod d.
The interpolation checks import qbernoulli and report when they run, and a
domain check imports exact only to raise DomainError, so the direct values
load no exact arithmetic."""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from .characters import DirichletCharacter, _Frozen

if TYPE_CHECKING:
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


def _lerch_pair(w: complex, s: complex, x: float, cfg: SeriesEvalConfig,
                alone: bool = False) -> tuple[complex, float, complex, float]:
    """sum_{k>=0} w^k (k+x)^(-t) at t = s and t = s - 1, each with its
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
        from .exact import DomainError
        raise DomainError(f"s = {s} is not finite")
    if not (math.isfinite(x) and x > 0):
        from .exact import DomainError
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


def lerch_sum_with_bound(w: complex, s: complex, x: float,
                         cfg: SeriesEvalConfig = DEFAULT_CONFIG) -> tuple[complex, float]:
    """sum_{k>=0} w^k (k+x)^(-s) with a certified geometric tail bound.

    Requires |w| < 1 and x > 0.  (k+x)^(-s) uses the real log of the
    positive base, so there is no branch ambiguity in the summands.
    """
    return _lerch_pair(w, s, x, cfg, alone=True)[:2]


def _combine(h: int, qv: complex, s: complex, name: str,
             pair) -> tuple[complex, float]:
    """The step shared by the q-zeta and q-L definitions (`name` names it in
    the pole message): a - (h log q/(s-1)) b and its bound, from the series
    at s and s - 1 and their bounds, (a, ba, b, bb) = pair(q^h, s)."""
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
    a, ba, b, bb = pair(qv ** h, s)
    fac = h * cmath.log(qv) / (s - 1)
    return a - fac * b, ba + abs(fac) * bb


def q_hurwitz_zeta_with_bound(h: int, qv: complex, s: complex, x: float,
                              cfg: SeriesEvalConfig = DEFAULT_CONFIG
                              ) -> tuple[complex, float]:
    """zeta_q^{(h)}(s, x) = sum_{n>=0} q^{nh}/(n+x)^s
                            - (h log q/(s-1)) sum_{n>=0} q^{nh}/(n+x)^{s-1}."""
    return _combine(h, qv, s, "q-zeta",
                    lambda w, s: _lerch_pair(w, s, x, cfg))


def q_hurwitz_zeta(h: int, qv: complex, s: complex, x: float,
                   cfg: SeriesEvalConfig = DEFAULT_CONFIG) -> complex:
    return q_hurwitz_zeta_with_bound(h, qv, s, x, cfg)[0]


def q_zeta(h: int, qv: complex, s: complex,
           cfg: SeriesEvalConfig = DEFAULT_CONFIG) -> complex:
    """zeta_q^{(h)}(s) = sum_{n>=1} q^{(n-1)h}/n^s - ... = zeta_q^{(h)}(s, 1)."""
    return q_hurwitz_zeta(h, qv, s, 1.0, cfg)


def _char_sum(chi: DirichletCharacter, w: complex, s: complex,
              cfg: SeriesEvalConfig) -> tuple[complex, float, complex, float]:
    """sum_{n>=1} chi(n) w^n n^(-t) at t = s and t = s - 1, each with its
    bound, over residue classes as Lerch pairs with ratio w^d."""
    d = chi.modulus
    wd = w ** d
    a = b = 0j
    ba = bb = 0.0
    for r in range(1, d + 1):
        cr = chi.value_complex(r)
        if cr == 0:
            continue
        sa, sba, sb, sbb = _lerch_pair(wd, s, r / d, cfg)
        cw = cr * w ** r
        scale = cw * cmath.exp(-s * math.log(d))
        scale1 = cw * cmath.exp(-(s - 1) * math.log(d))
        a += scale * sa
        ba += abs(scale) * sba
        b += scale1 * sb
        bb += abs(scale1) * sbb
    return a, ba, b, bb


def q_lfunction_with_bound(h: int, qv: complex, s: complex,
                           chi: DirichletCharacter,
                           cfg: SeriesEvalConfig = DEFAULT_CONFIG
                           ) -> tuple[complex, float]:
    """L_q^{(h)}(s, chi) = sum_{n>=1} q^{nh} chi(n)/n^s
                           - (h log q/(s-1)) sum_{n>=1} q^{nh} chi(n)/n^{s-1},
    exactly as defined (note the q^{nh}, not q^{(n-1)h})."""
    return _combine(h, qv, s, "q-L", lambda w, s: _char_sum(chi, w, s, cfg))


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
