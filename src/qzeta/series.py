"""Truncated formal power series in t.  No `qzeta` module calls it: it stays
because code outside the package wraps its `invert` and `*` by name, and as
the Cauchy product of the generating-function test oracle in
`tests/test_qbernoulli.py`.  `invert` takes 1 / c0, so it needs int,
Fraction or float coefficients: the exact types have no `/`, and a
`LogScalar` c0 raises TypeError."""

from __future__ import annotations

from typing import Sequence


class TruncatedSeries:
    """Coefficients c0..cT of a series truncated at order T; shorter input
    is padded with zeros, longer input cut."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence, order: int):
        coeffs = list(coeffs[:order + 1])
        self.coeffs = tuple(coeffs + [coeffs[0] * 0] * (order + 1 - len(coeffs)))
        self.order = order

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        t = min(self.order, other.order)
        out = [self.coeffs[0] * 0] * (t + 1)
        for i in range(t + 1):
            for j in range(t + 1 - i):
                out[i + j] = out[i + j] + self.coeffs[i] * other.coeffs[j]
        return TruncatedSeries(out, t)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse mod t^(T+1); needs a nonzero int, Fraction
        or float c0."""
        c = self.coeffs
        b0 = 1 / c[0]
        out = [b0]
        for n in range(1, self.order + 1):
            s = c[1] * out[n - 1]
            for k in range(2, n + 1):
                s = s + c[k] * out[n - k]
            out.append(-(b0 * s))
        return TruncatedSeries(out, self.order)
