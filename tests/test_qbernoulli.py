"""The (h,q)-Bernoulli numbers and polynomials, exact layer."""

from fractions import Fraction

import pytest

from qzeta.characters import enumerate_characters, principal_character
from qzeta.exact import LogScalar, RationalFunction, eval_log_scalar_complex
from qzeta.qbernoulli import (classical_bernoulli, classical_limit_errors,
                              distribution_check, gen_function_identity_check,
                              generalized_q_bernoulli,
                              generalized_q_bernoulli_exact,
                              generalized_via_generating_function,
                              q_bernoulli_number, q_bernoulli_polynomial,
                              q_bernoulli_table)

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
    from math import comb
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
    from qzeta.exact import DomainError
    with pytest.raises(DomainError):
        gen_function_identity_check(0, 4)


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


def test_generalized_mod1_reduces_to_plain():
    chi = principal_character(1)
    for h in (1, 2):
        for n in range(5):
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


@pytest.mark.parametrize("h", [-2, 1, 2, 3])
def test_generalized_two_routes_agree(h):
    qv = 0.3 + 0.2j
    for d in (1, 3, 4, 5):
        for chi in enumerate_characters(d):
            gen = generalized_via_generating_function(chi, h, 4, qv)
            for n in range(5):
                a = generalized_q_bernoulli(chi, h, n, qv)
                assert abs(a - gen[n]) < 1e-10, (d, chi.exponents, n)
    # an order past n_max gives the same B_0..B_n_max
    chi = enumerate_characters(5)[2]
    longer = generalized_via_generating_function(chi, h, 4, qv, order=7)
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
