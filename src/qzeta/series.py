"""Truncated formal power series in t over a pluggable coefficient ring.

The ring is whatever the coefficients are: LogScalar, RationalFunction, or
plain complex numbers.  Elements only need +, -, *, and (for inversion of
the constant term) either an ``inverse()`` method or ``1/c``.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from typing import Sequence

from .exact import LogScalar, RationalFunction


class RingMismatch(TypeError):
    pass


class NonInvertibleConstantTerm(ArithmeticError):
    pass


def _ring_tag(c):
    if isinstance(c, LogScalar):
        return "log"
    if isinstance(c, RationalFunction):
        return "rf"
    if isinstance(c, numbers.Number):
        return "num"
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def _inv(c):
    if hasattr(c, "inverse"):
        return c.inverse()
    if c == 0:
        raise ZeroDivisionError("zero constant term")
    return 1 / c


class TruncatedSeries:
    """Coefficients c0..cT of a series truncated at order T."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence, order: int | None = None):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least the constant coefficient")
        zero = coeffs[0] * 0
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) < order + 1:
            coeffs += [zero] * (order + 1 - len(coeffs))
        else:
            coeffs = coeffs[:order + 1]
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, *a):
        raise AttributeError("TruncatedSeries is immutable")

    def _check(self, other: "TruncatedSeries"):
        if _ring_tag(self.coeffs[0]) != _ring_tag(other.coeffs[0]):
            raise RingMismatch("series over different coefficient rings")

    def coeff(self, n: int):
        if n > self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.order == other.order and list(self.coeffs) == list(other.coeffs)
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        t = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(t + 1)], t)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        t = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[i] - other.coeffs[i] for i in range(t + 1)], t)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        t = min(self.order, other.order)
        zero = self.coeffs[0] * 0
        out = [zero] * (t + 1)
        for i in range(t + 1):
            a = self.coeffs[i]
            if isinstance(a, (LogScalar, RationalFunction)) and a.is_zero():
                continue
            for j in range(t + 1 - i):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return TruncatedSeries(out, t)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse mod t^(T+1); needs an invertible c0."""
        c = self.coeffs
        try:
            b0 = _inv(c[0])
        except (ZeroDivisionError, ArithmeticError) as e:
            raise NonInvertibleConstantTerm(str(e)) from e
        out = [b0]
        for n in range(1, self.order + 1):
            s = c[1] * out[n - 1]
            for k in range(2, n + 1):
                s = s + c[k] * out[n - k]
            out.append(-(b0 * s))
        return TruncatedSeries(out, self.order)

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r})"


def exp_series(a, order: int) -> TruncatedSeries:
    """e^{a t} truncated at `order`: coefficient n is a^n / n!."""
    one = a * 0 + 1
    out = [one]
    c = one
    for n in range(1, order + 1):
        c = c * a / n
        out.append(c)
    return TruncatedSeries(out, order)


def scalar_series(a, order: int) -> TruncatedSeries:
    """The constant series a."""
    return TruncatedSeries([a], order)


def t_series(one, order: int) -> TruncatedSeries:
    """The series t (needs the ring's one)."""
    return TruncatedSeries([one * 0, one], order)
