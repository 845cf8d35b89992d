"""Dirichlet characters mod d.

The unit group (Z/dZ)* is decomposed into cyclic factors via CRT; a
character is an exponent vector on the factor generators.  Values are exact
roots of unity e^{2*pi*i*exponent} with a rational exponent.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from operator import mul


class _Frozen:
    """An immutable value: its fields are its `__slots__`, stored once by
    `_set` in slot order; assignment raises AttributeError.  `==`, `hash`
    and the repr `Class(field=value, ...)` read the public fields, those
    not starting with "_" (a private slot holds a cache or a provenance)."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the slots' own setters cost about what direct object.__setattr__
        # stores do; arithmetic builds PadicNumber and LogScalar in loops
        cls._stores = tuple(getattr(cls, n).__set__ for n in cls.__slots__)
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))

    def _set(self, *values):
        for store, value in zip(self._stores, values):
            store(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{n}={getattr(self, n)!r}" for n in self._fields))


def euler_phi(n: int) -> int:
    for p, _ in _factorize(n):
        n -= n // p
    return n


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _order_mod(a: int, m: int, group_order: int) -> int:
    """Multiplicative order of a mod m, a unit."""
    o = group_order
    for p, _ in _factorize(group_order):
        while o % p == 0 and pow(a, o // p, m) == 1:
            o //= p
    return o


def _primitive_root(pk: int, phi: int) -> int:
    for g in range(2, pk):
        if gcd(g, pk) == 1 and _order_mod(g, pk, phi) == phi:
            return g
    raise ArithmeticError(f"no primitive root mod {pk}")  # unreachable for odd p^k


def _crt_lift(r: int, m: int, d: int) -> int:
    """x mod d with x = r mod m and x = 1 mod d//m."""
    n = d // m
    if n == 1:
        return r % d
    # x = r + m*t with r + m*t = 1 mod n
    t = ((1 - r) * pow(m, -1, n)) % n
    return (r + m * t) % d


@lru_cache(maxsize=None)
def unit_group_generators(d: int) -> tuple[tuple[int, int], ...]:
    """Generators of (Z/dZ)* as ((g, order), ...), CRT-lifted to mod d.

    Odd p^k contributes one generator of order phi(p^k); the factor 2
    contributes none, 4 one generator of order 2, and 2^k (k >= 3) two
    generators of orders 2 and 2^(k-2).
    """
    if d < 1:
        raise ValueError("modulus must be positive")
    gens: list[tuple[int, int]] = []
    for p, k in _factorize(d):
        pk = p ** k
        if p == 2:
            if k == 1:
                continue
            if k == 2:
                gens.append((_crt_lift(3, 4, d), 2))
            else:
                gens.append((_crt_lift(pk - 1, pk, d), 2))
                gens.append((_crt_lift(5, pk, d), 2 ** (k - 2)))
        else:
            phi = pk - pk // p
            g = _primitive_root(pk, phi)
            gens.append((_crt_lift(g, pk, d), phi))
    return tuple(gens)


@lru_cache(maxsize=None)
def _dlog_table(d: int) -> dict[int, tuple[int, ...]]:
    """unit a -> exponent vector over unit_group_generators(d)."""
    if d == 1:
        return {0: ()}
    gens = unit_group_generators(d)
    table: dict[int, tuple[int, ...]] = {}
    for exps in product(*(range(e) for _, e in gens)):
        a = 1
        for (g, _), k in zip(gens, exps):
            a = a * pow(g, k, d) % d
        table[a] = exps
    return table


class UnityRoot(_Frozen):
    """e^{2*pi*i*exponent} for a reduced rational exponent in [0,1), or the
    distinguished zero (exponent None); any other exponent is reduced mod 1."""

    __slots__ = ("exponent",)

    def __init__(self, exponent: Fraction | None):
        if exponent and not 0 < exponent.numerator < exponent.denominator:
            exponent = Fraction(exponent) % 1
        self._set(exponent)

    @classmethod
    def zero(cls) -> "UnityRoot":
        return cls(None)

    @classmethod
    def from_exponent(cls, e: Fraction) -> "UnityRoot":
        return cls(Fraction(e))

    def is_zero(self) -> bool:
        return self.exponent is None

    def __mul__(self, other: "UnityRoot") -> "UnityRoot":
        if self.exponent is None or other.exponent is None:
            return UnityRoot(None)
        return UnityRoot(self.exponent + other.exponent)

    def as_rational(self) -> Fraction:
        """Exact value when it is real: 0, 1 or -1."""
        if self.exponent is None:
            return Fraction(0)
        if self.exponent == 0:
            return Fraction(1)
        if self.exponent == Fraction(1, 2):
            return Fraction(-1)
        raise ValueError(f"root of unity e^(2 pi i {self.exponent}) is not real")

    def to_complex(self) -> complex:
        if self.exponent is None:
            return 0j
        p, r = self.exponent.numerator, self.exponent.denominator
        if 4 % r == 0:      # exact values on the axes: 0, 1/4, 1/2, 3/4
            return (1 + 0j, 1j, -1 + 0j, -1j)[4 // r * p]
        th = 2 * cmath.pi * (p / r)     # float(exponent)
        return complex(cmath.cos(th), cmath.sin(th))


class DirichletCharacter(_Frozen):
    """Character mod d given by exponents k_j on the unit-group generators:
    chi(g_j) = e^{2 pi i k_j / e_j}."""

    __slots__ = ("modulus", "generators", "exponents", "_values")

    def __init__(self, modulus: int, exponents: tuple[int, ...]):
        gens = unit_group_generators(modulus)
        if len(exponents) != len(gens):
            raise ValueError("exponent vector length must match generator count")
        exponents = tuple(k % e for k, (_, e) in zip(exponents, gens))
        self._set(modulus, gens, exponents, None)

    def is_principal(self) -> bool:
        return all(k == 0 for k in self.exponents)

    @property
    def order(self) -> int:
        o = 1
        for k, (_, e) in zip(self.exponents, self.generators):
            o = lcm(o, e // gcd(k, e))
        return o

    def _value_table(self) -> dict[int, UnityRoot]:
        """chi(a) for a < d: 0 off the units, and at a unit with discrete
        logs t_j the exponent sum_j k_j t_j / e_j, taken in integers as
        (sum_j k_j t_j L / e_j mod L) / L, L the lcm of the e_j.  Mod 1, 0
        is the one unit, so chi(0) = 1."""
        if self._values is None:
            d = self.modulus
            orders = [e for _, e in self.generators]
            big = lcm(*orders)
            weights = [k * (big // e) for k, e in zip(self.exponents, orders)]
            dlogs = _dlog_table(d)
            zero = UnityRoot.zero()
            table = {a: UnityRoot(Fraction(sum(map(mul, weights, dlogs[a]))
                                           % big, big))
                     if gcd(a, d) == 1 else zero for a in range(d)}
            object.__setattr__(self, "_values", table)
        return self._values

    def __call__(self, a: int) -> UnityRoot:
        return self._value_table()[a % self.modulus]

    def value_complex(self, a: int) -> complex:
        return self(a).to_complex()

    def value_rational(self, a: int) -> Fraction:
        """Exact value for quadratic (real-valued) characters."""
        return self(a).as_rational()

    def is_real(self) -> bool:
        return all(2 * k % e == 0 for k, (_, e) in
                   zip(self.exponents, self.generators))

    def conductor(self) -> int:
        # the least divisor d0 of d with chi(a) = 1 whenever a = 1 mod d0;
        # d0 = d always qualifies
        d = self.modulus
        return next(d0 for d0 in range(1, d + 1) if d % d0 == 0 and all(
            self(a).exponent == 0 for a in range(1, d + 1)
            if a % d0 == 1 % d0 and gcd(a, d) == 1))

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus}, exponents {self.exponents})"


def enumerate_characters(d: int) -> list[DirichletCharacter]:
    """All phi(d) characters mod d, ordered by exponent vector."""
    gens = unit_group_generators(d)
    return [DirichletCharacter(d, exps)
            for exps in sorted(product(*(range(e) for _, e in gens)))]


def principal_character(d: int) -> DirichletCharacter:
    return DirichletCharacter(d, (0,) * len(unit_group_generators(d)))
