"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
"""

import time
from fractions import Fraction

import mpmath as mp
import pytest

import qzeta
from qzeta import (PadicNumber, SeriesEvalConfig, classical_bernoulli,
                   closed_form_verify, distribution_check, enumerate_characters,
                   gen_function_identity_check, generalized_q_bernoulli,
                   l_interpolation_verify, padic_generalized_verify,
                   shift_identity_verify, witt_verify, zeta_interpolation_verify)
from qzeta.padic import MonomialTestFunction
from qzeta.qbernoulli import classical_limit_errors

CFG = SeriesEvalConfig(tol=1e-12)
QV_GRID = (0.2, 0.5, 0.3 + 0.4j)


def report(name: str, ok: bool, elapsed: float):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.1f}s)")
    assert ok


def test_criterion_01_generating_function_identity():
    t0 = time.time()
    ok = all(gen_function_identity_check(h, 12).passed
             for h in (-3, -2, -1, 1, 2, 3))
    el = time.time() - t0
    report("criterion 1: generating-function identity through t^12", ok, el)
    assert el < 5


def test_criterion_02_distribution_relation():
    t0 = time.time()
    ok = all(distribution_check(h, n, m).passed
             for h in (-2, -1, 0, 1, 2, 3)
             for n in range(11)
             for m in (1, 2, 3, 5))
    el = time.time() - t0
    report("criterion 2: distribution relation, exact equality", ok, el)
    assert el < 30


def test_criterion_03_witt_formula():
    t0 = time.time()
    ok = True
    for p in (5, 7):
        q = PadicNumber.from_fraction(p, Fraction(1 + p), 40)
        for h in (1, 2):
            for n in range(7):
                rep = witt_verify(h, n, q, [3, 4, 5, 6, 7], prec=12, slack=3)
                vals = [v for _, v in rep.levels]
                ok = ok and rep.passed and vals == sorted(vals)
    el = time.time() - t0
    report("criterion 3: Witt-type p-adic limit, valuations nondecreasing",
           ok, el)
    assert el < 60


def test_criterion_04_shift_identities():
    t0 = time.time()
    ok = True
    q = PadicNumber.from_fraction(5, Fraction(6), 40)
    for h in (0, 1):
        for n in range(5):
            f = MonomialTestFunction(n, h, q)
            for b in (1, 2, 3):
                for N in (3, 4, 5, 6):
                    rep = shift_identity_verify(f, b, N, prec=12, slack=3)
                    ok = ok and rep.passed
    report("criterion 4: integral shift identities", ok, time.time() - t0)


def test_criterion_05_closed_form():
    t0 = time.time()
    ok = True
    for p in (5, 7):
        q = PadicNumber.from_fraction(p, Fraction(1 + p), 40)
        t = PadicNumber.from_fraction(p, Fraction(p), 40)
        for h in (0, 1, 2):
            for N in (3, 4, 5, 6):
                ok = ok and closed_form_verify(h, t, q, N, prec=12,
                                               slack=3).passed
    report("criterion 5: closed-form integral evaluation", ok,
           time.time() - t0)


def test_criterion_06_generalized_padic_integral():
    t0 = time.time()
    ok = True
    q = PadicNumber.from_fraction(5, Fraction(6), 40)
    for d in (3, 4):
        chi = next(c for c in enumerate_characters(d) if not c.is_principal())
        for n in range(4):
            rep = padic_generalized_verify(chi, 1, n, q, [3, 4, 5],
                                           prec=12, slack=3)
            ok = ok and rep.passed
    report("criterion 6: twisted p-adic sums vs finite-sum values", ok,
           time.time() - t0)


def test_criterion_07_zeta_interpolation():
    t0 = time.time()
    ok = all(zeta_interpolation_verify(h, qv, n, x, CFG, tol=1e-8).passed
             for h in (1, 2, 3)
             for qv in QV_GRID
             for x in (1.0, 0.5, 2.7)
             for n in range(1, 9))
    el = time.time() - t0
    report("criterion 7: Hurwitz-type interpolation at s = 1-n", ok, el)
    assert el < 10


def test_criterion_08_l_interpolation():
    # all cells except modulus 1, n = 1 (see the companion xfail below)
    t0 = time.time()
    ok = True
    for h in (1, 2, 3):
        for qv in QV_GRID:
            for d in (1, 3, 4, 5):
                for chi in enumerate_characters(d):
                    for n in range(1, 7):
                        if d == 1 and n == 1:
                            continue
                        rep = l_interpolation_verify(h, qv, n, chi, CFG,
                                                     tol=1e-8)
                        ok = ok and rep.passed
    el = time.time() - t0
    report("criterion 8: L-function interpolation at s = 1-n "
           "(excluding modulus 1, n = 1)", ok, el)
    assert el < 30


@pytest.mark.xfail(strict=True, reason="the stated identity fails at modulus "
                   "1, n = 1: the series interpolates the value at x = 1, and "
                   "B_1(1) = B_1 + 1, so the residual is exactly 1 for every "
                   "q and h")
def test_criterion_08_l_interpolation_modulus1_n1():
    chi = enumerate_characters(1)[0]
    ok = all(l_interpolation_verify(h, qv, 1, chi, CFG, tol=1e-8).passed
             for h in (1, 2, 3) for qv in QV_GRID)
    report("criterion 8 (modulus 1, n = 1 cell)", ok, 0.0)


def test_criterion_08_modulus1_n1_residual_is_exactly_one():
    # the honest record of the defect: the discrepancy equals 1
    chi = enumerate_characters(1)[0]
    ok = True
    for h in (1, 2, 3):
        for qv in QV_GRID:
            rep = l_interpolation_verify(h, qv, 1, chi, CFG, tol=1e-8)
            ok = ok and not rep.passed
            ok = ok and abs(abs(rep.witnesses[0][1]) - 1.0) < 1e-7
    report("criterion 8 addendum: modulus-1 n=1 residual equals 1", ok, 0.0)


def _twisted_series_reference(chi, h, qv, n_max):
    """n! [t^n] of sum_i chi(i) q^{hi} (t + h log q) e^{it} / (q^{hd} e^{dt}
    - 1) for n <= n_max, by `mpmath.taylor` at 30 digits: the twisted values
    from their generating function, with no sum over residues of B_n(x)."""
    d = chi.modulus
    with mp.workdps(30):
        q = mp.mpc(qv)
        lam, qhd = h * mp.log(q), q ** (h * d)
        vals = [0 if e.is_zero() else mp.expjpi(2 * mp.mpf(
            e.exponent.numerator) / e.exponent.denominator)
            for e in map(chi, range(d))]

        def gen(t):
            num = sum(vals[i] * q ** (h * i) * (t + lam) * mp.exp(i * t)
                      for i in range(d))
            return num / (qhd * mp.exp(d * t) - 1)
        c = mp.taylor(gen, 0, n_max)
        return [complex(c[n] * mp.factorial(n)) for n in range(n_max + 1)]


def test_criterion_09_cross_path_generalized_values():
    t0 = time.time()
    ok = True
    for h in (-2, 1, 2, 3):
        for qv in QV_GRID + (0.3 + 0.2j,):
            for d in (1, 3, 4, 5):
                for chi in enumerate_characters(d):
                    ref = _twisted_series_reference(chi, h, qv, 6)
                    for n in range(7):
                        direct = generalized_q_bernoulli(chi, h, n, qv)
                        ok = ok and abs(direct - ref[n]) < 1e-10
    report("criterion 9: finite sum vs generating-function coefficients "
           "agree", ok, time.time() - t0)


def test_criterion_10_classical_limit():
    t0 = time.time()
    ok = True
    for h in (1, 2):
        for n in range(9):
            errs = classical_limit_errors(h, n)
            ok = ok and errs[0] >= errs[1] >= errs[2]
            ok = ok and errs[-1] <= 1e-3
    report("criterion 10: q -> 1 recovers the classical numbers", ok,
           time.time() - t0)


def test_criterion_11_character_algebra():
    from math import gcd

    from qzeta.characters import euler_phi
    t0 = time.time()
    ok = True
    for d in range(1, 25):
        chars = enumerate_characters(d)
        ok = ok and len(chars) == euler_phi(d)
        for chi in chars:
            for a in range(d):
                ok = ok and chi(a) == chi(a + d)
                if d > 1 and gcd(a, d) > 1:
                    ok = ok and chi(a).is_zero()
                for b in range(d):
                    ok = ok and chi(a * b) == chi(a) * chi(b)
            s = sum(chi(a).to_complex() for a in range(d))
            want = euler_phi(d) if chi.is_principal() else 0
            ok = ok and abs(s - want) < 1e-10
    report("criterion 11: character algebra exhaustive to modulus 24", ok,
           time.time() - t0)
