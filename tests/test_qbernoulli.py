"""The (h,q)-Bernoulli numbers and polynomials, exact layer."""

import cmath
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb, factorial
from pathlib import Path

import pytest

from qzeta import exact, qbernoulli
from qzeta.characters import enumerate_characters, principal_character
from qzeta.exact import (DomainError, LogScalar, RationalFunction,
                         XPolynomial, eval_log_scalar_complex)
from qzeta.qbernoulli import (classical_bernoulli, classical_limit_errors,
                              distribution_check, gen_function_identity_check,
                              generalized_q_bernoulli,
                              generalized_q_bernoulli_exact,
                              q_bernoulli_number, q_bernoulli_polynomial,
                              q_bernoulli_table)
from qzeta.series import TruncatedSeries

F = Fraction


def test_classical_bernoulli_known_values():
    b = classical_bernoulli(12)
    assert b[0] == 1
    assert b[1] == F(-1, 2)
    assert b[2] == F(1, 6)
    assert b[3] == 0
    assert b[4] == F(-1, 30)
    assert b[10] == F(5, 66)
    assert b[12] == F(-691, 2730)


def test_classical_recursion():
    # sum_{k<=n} C(n+1,k) B_k = 0 for n >= 1
    b = classical_bernoulli(10)
    for n in range(1, 10):
        assert sum(comb(n + 1, k) * b[k] for k in range(n + 1)) == 0


def test_h_zero_table_is_classical():
    table = q_bernoulli_table(0, 8)
    b = classical_bernoulli(8)
    for n in range(9):
        v = table.values[n]
        assert v.log.is_zero()
        assert v.rat == RationalFunction(b[n])


def test_b0_closed_form():
    # B_0^{(h)} = h*log q / (q^h - 1)
    for h in (1, 2, 3):
        v = q_bernoulli_number(h, 0)
        assert v.rat.is_zero()
        assert v.log == h / (RationalFunction.q_power(h) - 1)


def test_b1_closed_form():
    # from the recursion: B_1^{(h)} = (h log q)/(q^h-1)^2 * (q^h(1-h log q .. ))
    # checked instead against the generating function directly:
    rep = gen_function_identity_check(1, 4)
    assert rep.passed


@pytest.mark.parametrize("h,order", [
    pytest.param(h, 8, id=str(h)) for h in (-3, -2, -1, 1, 2, 3)
] + [pytest.param(3, 20, id="3-order20")])
def test_generating_function_identity(h, order):
    # the identity fixes B_0..B_order uniquely, so it is the oracle for the
    # closed form the table is built from
    rep = gen_function_identity_check(h, order)
    assert rep.passed
    assert all(w[1] == "0" for w in rep.witnesses)


def test_generating_function_identity_rejects_h0():
    with pytest.raises(DomainError):
        gen_function_identity_check(0, 4)


_CHI4 = enumerate_characters(4)[1]
_CHI5_COMPLEX = next(c for c in enumerate_characters(5) if not c.is_real())


@pytest.mark.parametrize("call,cls,match", [
    (lambda: classical_bernoulli(-1), ValueError, r"^n_max must be >= 0$"),
    (lambda: q_bernoulli_number(1, -1), ValueError, r"^n must be >= 0$"),
    (lambda: distribution_check(1, 3, 0), ValueError, r"^m must be >= 1$"),
    (lambda: generalized_q_bernoulli_exact(_CHI5_COMPLEX, 1, 2), DomainError,
     r"^exact generalized values need a quadratic character$"),
    (lambda: generalized_q_bernoulli(_CHI4, 0, 2, 0.5), DomainError,
     r"^h = 0 is degenerate for the twisted family$"),
], ids=["classical", "number", "distribution", "exact-complex-chi",
        "numeric-h0"])
def test_arguments_outside_the_domain_are_refused(call, cls, match):
    with pytest.raises(cls, match=match):
        call()


def test_polynomial_constant_term_is_number():
    for h in (0, 1, 2):
        for n in range(6):
            poly = q_bernoulli_polynomial(h, n)
            assert poly.coeff(0) == q_bernoulli_number(h, n)
            # leading coefficient is B_0^{(h)}
            assert poly.coeff(n) == q_bernoulli_number(h, 0)


@pytest.mark.parametrize("h,n,m", [(1, 1, 2), (1, 3, 2), (2, 4, 3),
                                   (0, 5, 2), (-1, 2, 3), (3, 6, 5)])
def test_distribution_relation(h, n, m):
    rep = distribution_check(h, n, m)
    assert rep.passed


def test_distribution_m1_trivial():
    assert distribution_check(2, 5, 1).passed


@pytest.mark.parametrize("h", [-2, 0, 3])
def test_distribution_pass_reduces_nothing(h, monkeypatch):
    # a PASS is a zero test on numerators: no cancellation to lowest terms
    q_bernoulli_polynomial(h, 6)

    def no_lowest(*_):
        raise AssertionError("lowered to lowest terms on a PASS")
    monkeypatch.setattr(exact, "_lower", no_lowest)
    monkeypatch.setattr(qbernoulli, "_lower", no_lowest)
    assert distribution_check(h, 6, 3).passed


def _compose_affine(poly, a, b):
    """P(a x + b), each (a x + b)^k expanded; the distribution check's former
    route, kept as its oracle."""
    out = [LogScalar.zero()] * len(poly.coeffs)
    for k, c in enumerate(poly.coeffs):
        for j in range(k + 1):
            out[j] = out[j] + c * (comb(k, j) * F(a) ** j * F(b) ** (k - j))
    return XPolynomial(out)


def _distribution_oracle(poly, h, n, m):
    """lhs - rhs of the distribution relation for the polynomial `poly`,
    per power of x, from m shifted compositions."""
    base = poly.subst_q_power(m)
    rhs = [LogScalar.zero()] * len(poly.coeffs)
    for i in range(m):
        w = LogScalar(RationalFunction.q_power(h * i)) * F(m) ** (n - 1)
        for j, c in enumerate(_compose_affine(base, F(1, m), F(i, m)).coeffs):
            rhs[j] = rhs[j] + c * w
    return [poly.coeff(j) - r for j, r in enumerate(rhs)]


def test_compose_affine_oracle():
    # P(x) = x^2 + 3x + 2: P(2x + 1) = 4x^2 + 10x + 6
    assert _compose_affine(XPolynomial([2, 3, 1]), 2, 1) == \
        XPolynomial([6, 10, 4])
    assert not any(_distribution_oracle(q_bernoulli_polynomial(2, 3), 2, 3, 3))


# q/(q^2 - 1) in the rational part, log q / (3 q^2) in the log part: a new
# cyclotomic factor, and a power of q, in the denominators
_BUMPS = {"rat": LogScalar(RationalFunction([0, 1], [-1, 0, 1])),
          "log": LogScalar(0, RationalFunction([F(1, 3)], [0, 0, 1]))}


@pytest.mark.parametrize("part", ["rat", "log"])
@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("h", [-2, 0, 3])
def test_distribution_witnesses_of_a_perturbed_polynomial(h, m, part,
                                                          monkeypatch):
    n = 4
    good = q_bernoulli_polynomial(h, n)
    coeffs = list(good.coeffs)
    coeffs[1] = coeffs[1] + _BUMPS[part]
    bad = XPolynomial(coeffs)
    monkeypatch.setattr(qbernoulli, "q_bernoulli_polynomial",
                        lambda *_: bad)
    rep = distribution_check(h, n, m)
    want = _distribution_oracle(bad, h, n, m)
    assert rep.witnesses == tuple((f"x^{j}", w if w else "0")
                                  for j, w in enumerate(want))
    # at m = 1 the relation holds for every polynomial
    assert rep.passed is (m == 1)
    # a nonzero witness is rendered as the LogScalar's JSON
    assert rep.to_dict()["witnesses"] == [
        {"case": f"x^{j}", "discrepancy": w.to_json_dict() if w else "0"}
        for j, w in enumerate(want)]


def _gen_function_oracle(values, h, order):
    """lhs - rhs of the generating-function identity per power of t, from
    the Cauchy product of truncated series; the check's former route, kept
    as its oracle."""
    f = TruncatedSeries([values[n] / factorial(n) for n in range(order + 1)],
                        order)
    qh = RationalFunction.q_power(h)
    den = [LogScalar(qh * F(1, factorial(k))) for k in range(order + 1)]
    den[0] = den[0] - 1
    prod = TruncatedSeries(den, order) * f
    expected = [LogScalar.lam(h), LogScalar(1)] + [LogScalar.zero()] * order
    return [c - e for c, e in zip(prod.coeffs, expected)]


# q/Phi_5 in the rational part brings a new cyclotomic factor, log q/(3 q^2)
# a power of q; "both" adds the two
_TABLE_BUMPS = {
    "rat": LogScalar(RationalFunction([0, 1], [1, 1, 1, 1, 1])),
    "log": _BUMPS["log"],
    "both": LogScalar(RationalFunction([0, 1], [1, 1, 1, 1, 1]))
    + _BUMPS["log"]}


@pytest.mark.parametrize("part", ["rat", "log", "both"])
@pytest.mark.parametrize("order", [1, 4, 9])
@pytest.mark.parametrize("h", [-3, -1, 2])
def test_generating_function_witnesses_of_a_perturbed_table(h, order, part,
                                                            monkeypatch):
    values = list(q_bernoulli_table(h, order).values)
    values[order // 2] = values[order // 2] + _TABLE_BUMPS[part]
    bad = qbernoulli.QBernoulliTable(h, order, tuple(values))
    monkeypatch.setattr(qbernoulli, "q_bernoulli_table", lambda *_: bad)
    rep = gen_function_identity_check(h, order)
    want = _gen_function_oracle(values, h, order)
    assert rep.witnesses == tuple((f"t^{n}", w if w else "0")
                                  for n, w in enumerate(want))
    assert not rep.passed


def test_distribution_products_on_a_warm_cache(monkeypatch):
    # each term is lifted once, and the right side is built by Taylor shifts
    # of integer lists: the products left are those of the lifts
    # (the former route made 428 here)
    distribution_check(3, 12, 5)
    products = []
    mul = exact.QPolynomial.__mul__

    def spy(a, b):
        if isinstance(b, exact.QPolynomial):
            products.append(b)
        return mul(a, b)
    monkeypatch.setattr(exact.QPolynomial, "__mul__", spy)
    assert distribution_check(3, 12, 5).passed
    assert 0 < len(products) <= 160


def test_generalized_mod1_reduces_to_plain():
    # the paper's B_{n,chi}^{(h)} at the one character mod 1 is B_n^{(h)}
    chi = principal_character(1)
    for h in range(-3, 4):
        for n in range(9):
            assert generalized_q_bernoulli_exact(chi, h, n) == \
                q_bernoulli_number(h, n)


def test_generalized_exact_matches_numeric():
    qv = 0.37
    for d in (3, 4):
        chi = next(c for c in enumerate_characters(d) if not c.is_principal())
        for n in range(4):
            exact = eval_log_scalar_complex(
                generalized_q_bernoulli_exact(chi, 1, n), qv)
            numeric = generalized_q_bernoulli(chi, 1, n, qv)
            assert abs(exact - numeric) < 1e-12


def _twisted_gen_function_oracle(chi, h, n_max, qv, order=None):
    """B_0..B_n_max as n! [t^n] of sum_i chi(i) q^{hi} (t + h log q) e^{it}
    / (q^{hd} e^{dt} - 1), from the truncated series of numerator and
    denominator in complex floats; the former numeric route, kept as the
    finite sum's oracle."""
    d = chi.modulus
    order = n_max if order is None else order
    logq = cmath.log(qv)
    # coefficient k of (t + h log q) e^{it} is (k i^(k-1) + h log q i^k) / k!
    num = [0j] * (order + 1)
    for i in range(d):
        w = chi.value_complex(i) * qv ** (h * i)
        for k in range(order + 1):
            lead = k * i ** (k - 1) if k else 0
            num[k] += w * (lead + h * logq * i ** k) / factorial(k)
    den = [qv ** (h * d) * d ** k / factorial(k) for k in range(order + 1)]
    den[0] -= 1
    f = TruncatedSeries(num, order) * TruncatedSeries(den, order).invert()
    return [f.coeffs[n] * factorial(n) for n in range(n_max + 1)]


@pytest.mark.parametrize("h", [-2, 1, 2, 3])
def test_generalized_two_routes_agree(h):
    qv = 0.3 + 0.2j
    for d in (1, 3, 4, 5):
        for chi in enumerate_characters(d):
            gen = _twisted_gen_function_oracle(chi, h, 4, qv)
            for n in range(5):
                a = generalized_q_bernoulli(chi, h, n, qv)
                assert abs(a - gen[n]) < 1e-10, (d, chi.exponents, n)
    # a series order past n_max gives the same B_0..B_n_max
    chi = enumerate_characters(5)[2]
    longer = _twisted_gen_function_oracle(chi, h, 4, qv, order=7)
    assert len(longer) == 5
    for n in range(5):
        a = generalized_q_bernoulli(chi, h, n, qv)
        assert abs(a - longer[n]) < 1e-10, n


def test_classical_limit_errors_decrease():
    for h in (1, 2):
        for n in range(1, 6):
            errs = classical_limit_errors(h, n)
            assert errs[0] > errs[1] > errs[2]
            assert errs[-1] <= 1e-3


_B600 = """
import hashlib, json, sys
from qzeta.qbernoulli import q_bernoulli_number
for n in range(int(sys.argv[1]), 601):
    value = q_bernoulli_number(1, n)
print(hashlib.sha256(json.dumps(value.to_json_dict()).encode()).hexdigest())
"""


def test_high_order_number_from_cold_cache():
    # the Eulerian rows are built in a loop, so n = 600 from a cold cache
    # does not recurse 600 deep; a fresh interpreter keeps the caches cold
    src = str(Path(__file__).resolve().parent.parent / "src")

    def digest(start):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})"
             + _B600, str(start)], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    assert digest(600) == digest(0)    # cold, and warmed from n = 0 up


def _horner_twisted_terms(d, h, n):
    """q^{h i} B_{n, q^d}^{(h)}(i/d) for i < d by Horner's rule in LogScalar
    arithmetic at each residue: the reference for `_twisted_terms_mod`."""
    poly = q_bernoulli_polynomial(h, n).subst_q_power(d)
    out = []
    for i in range(d):
        acc = LogScalar()
        for c in reversed(poly.coeffs):
            acc = acc * F(i, d) + c
        out.append(acc * LogScalar(RationalFunction.q_power(h * i)))
    return tuple(out)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 12])
def test_twisted_terms_match_horner_per_residue(d):
    # the terms come from one lift of the coefficients per component; each
    # equals Horner's value in lowest terms: value, JSON and exponents
    for h, n in product((-3, -2, -1, 1, 2, 3), range(13)):
        got = qbernoulli._twisted_terms_mod(d, h, n)
        want = _horner_twisted_terms(d, h, n)
        assert got == want, (d, h, n)
        for g, w in zip(got, want):
            assert g.to_json_dict() == w.to_json_dict(), (d, h, n)
            assert (g.rat.exps, g.log.exps) == (w.rat.exps, w.log.exps)
