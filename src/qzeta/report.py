"""Structured pass/fail evidence emitted by every identity checker."""

from __future__ import annotations

import json
from typing import Any


class VerificationReport:
    __slots__ = ("identity", "params", "witnesses", "passed", "levels")

    def __init__(self, identity: str, params: dict[str, Any],
                 witnesses: tuple[tuple[str, Any], ...], passed: bool,
                 levels: tuple[tuple[int, int], ...] | None = None):
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "levels", levels)  # (N, valuation) pairs

    def __setattr__(self, *a):
        raise AttributeError("VerificationReport is immutable")

    def _fields(self) -> tuple:
        return (self.identity, self.params, self.witnesses, self.passed,
                self.levels)

    def __eq__(self, other):
        if isinstance(other, VerificationReport):
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())   # TypeError: params is a dict

    def __repr__(self):
        return "VerificationReport(%s)" % ", ".join(
            f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields()))

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


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
