"""Structured pass/fail evidence emitted by every identity checker."""

from __future__ import annotations

from typing import Any

from .characters import _Frozen


class VerificationReport(_Frozen):
    __slots__ = ("identity", "params", "witnesses", "passed", "levels")

    def __init__(self, identity: str, params: dict[str, Any],
                 witnesses: tuple[tuple[str, Any], ...], passed: bool,
                 levels: tuple[tuple[int, int], ...] | None = None):
        # levels: (N, valuation) pairs; hash() raises TypeError, params
        # being a dict
        self._set(identity, params, witnesses, passed, levels)

    def to_dict(self) -> dict:
        d: dict[str, Any] = {
            "identity": self.identity,
            "params": {k: _render(v) for k, v in sorted(self.params.items())},
            "pass": self.passed,
        }
        if self.levels is not None:
            d["levels"] = [{"N": n, "valuation": v} for n, v in self.levels]
        d["witnesses"] = [{"case": c, "discrepancy": _render(w)}
                          for c, w in self.witnesses]
        return d


def _render(v):
    from fractions import Fraction

    from .exact import LogScalar

    if isinstance(v, LogScalar):
        return v.to_json_dict()
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return v
