"""Truncated power series: no `qzeta` module calls them, but the benchmark's
tracer wraps their product and inverse, and the generating-function oracle
in `test_qbernoulli.py` multiplies with them."""

from fractions import Fraction

import pytest

from qzeta.series import TruncatedSeries


def test_padding_and_truncation():
    s = TruncatedSeries([Fraction(1)], order=3)
    assert s.coeffs == (1, 0, 0, 0)
    t = TruncatedSeries([1, 2, 3, 4], order=2)
    assert t.coeffs == (1, 2, 3)


def test_coeff_beyond_order_raises():
    # no coefficient past the order is stored, so reading one cannot
    # return a silent zero
    s = TruncatedSeries([1, 2], order=1)
    with pytest.raises(IndexError):
        s.coeffs[2]


def test_arithmetic_truncates_to_common_order():
    a = TruncatedSeries([1, 1, 1, 1], order=3)
    b = TruncatedSeries([1, -1], order=1)
    assert (a * b).order == 1
    assert (a * b).coeffs == (1, 0)


def test_geometric_series_inverse():
    # 1/(1 - t) = 1 + t + t^2 + ...
    s = TruncatedSeries([Fraction(1), Fraction(-1)], order=5)
    inv = s.invert()
    assert inv.coeffs == tuple(Fraction(1) for _ in range(6))
    prod = s * inv
    assert prod.coeffs == (1, 0, 0, 0, 0, 0)


def test_non_invertible_constant_term():
    s = TruncatedSeries([Fraction(0), Fraction(1)], order=2)
    with pytest.raises(ZeroDivisionError):
        s.invert()
