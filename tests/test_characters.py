"""Dirichlet characters: unit group structure, values, conductors."""

import cmath
from fractions import Fraction
from math import gcd

import pytest

from qzeta._base import euler_phi
from qzeta.characters import (DirichletCharacter, UnityRoot, _dlog_table,
                              enumerate_characters, principal_character,
                              unit_group_generators)


def test_euler_phi_small_values():
    known = {1: 1, 2: 1, 3: 2, 4: 2, 8: 4, 9: 6, 12: 4, 24: 8, 30: 8}
    for n, v in known.items():
        assert euler_phi(n) == v


@pytest.mark.parametrize("d", list(range(1, 25)))
def test_unit_group_generators_span(d):
    gens = unit_group_generators(d)
    prod = 1
    for _, order in gens:
        prod *= order
    assert prod == euler_phi(d)
    # the generators actually generate: enumerate all products
    seen = {1 % d}
    for g, order in gens:
        new = set()
        for s in seen:
            acc = s
            for _ in range(order - 1):
                acc = acc * g % d
                new.add(acc)
        seen |= new
    assert len(seen) == euler_phi(d)


def test_unity_root_arithmetic():
    i = UnityRoot.from_exponent(Fraction(1, 4))
    assert (i * i).as_rational() == -1
    assert abs(i.to_complex() - 1j) == 0
    minus = UnityRoot.from_exponent(Fraction(1, 2))
    assert minus.to_complex() == -1
    assert UnityRoot.zero().is_zero()
    with pytest.raises(ValueError, match=r"^root of unity e\^\(2 pi i 1/4\) "
                                         r"is not real$"):
        i.as_rational()


def test_unity_root_on_the_axes_past_one_turn():
    # the constructor takes any exponent; whole quarter turns stay exact
    assert UnityRoot(Fraction(5, 4)).to_complex() == 1j
    assert UnityRoot(Fraction(1)).to_complex() == 1
    assert UnityRoot(Fraction(-1, 2)).to_complex() == -1


@pytest.mark.parametrize("outside,inside", [
    (Fraction(5, 4), Fraction(1, 4)), (Fraction(3, 2), Fraction(1, 2)),
    (Fraction(1), Fraction(0)), (Fraction(-1, 3), Fraction(2, 3)),
    (Fraction(-7, 2), Fraction(1, 2)), (Fraction(-2), Fraction(0))])
def test_unity_root_reduces_its_exponent_mod_1(outside, inside):
    # the constructor keeps one exponent per root, in [0, 1): equality,
    # hash and as_rational read it
    z, w = UnityRoot(outside), UnityRoot(inside)
    assert z.exponent == inside
    assert z == w and hash(z) == hash(w)
    if inside in (0, Fraction(1, 2)):
        assert z.as_rational() == w.as_rational() == (1 if inside == 0 else -1)
    else:
        with pytest.raises(ValueError, match=rf"^root of unity e\^\(2 pi i "
                                             rf"{inside}\) is not real$"):
            z.as_rational()
    assert UnityRoot.from_exponent(outside) == w
    assert UnityRoot(Fraction(1, 8)) * UnityRoot(outside - Fraction(1, 8)) == w


def test_bad_modulus_or_exponents_are_refused():
    with pytest.raises(ValueError, match=r"^modulus must be positive$"):
        unit_group_generators(0)
    # (Z/5)^* is cyclic: one generator, so one exponent
    with pytest.raises(ValueError, match=r"^exponent vector length must match "
                                         r"generator count$"):
        DirichletCharacter(5, (1, 2))


@pytest.mark.parametrize("d", list(range(1, 25)))
def test_character_count_and_multiplicativity(d):
    chars = enumerate_characters(d)
    assert len(chars) == euler_phi(d)
    for chi in chars:
        for a in range(d):
            for b in range(d):
                lhs = chi(a * b)
                rhs = chi(a) * chi(b)
                assert lhs == rhs, (d, chi.exponents, a, b)


@pytest.mark.parametrize("d", [3, 4, 5, 8, 12])
def test_character_periodicity_and_vanishing(d):
    for chi in enumerate_characters(d):
        for a in range(2 * d):
            assert chi(a) == chi(a + d)
            if gcd(a, d) > 1:
                assert chi(a).is_zero()
            else:
                assert abs(abs(chi(a).to_complex()) - 1) < 1e-15


@pytest.mark.parametrize("d", [1, 3, 4, 5, 7, 8, 12])
def test_orthogonality(d):
    for chi in enumerate_characters(d):
        s = sum(chi(a).to_complex() for a in range(d))
        want = euler_phi(d) if chi.is_principal() else 0
        assert abs(s - want) < 1e-12


def test_principal_character_mod_1():
    chi = principal_character(1)
    # the empty-product convention: constant one, including at 0
    assert all(chi(a).to_complex() == 1 for a in range(5))
    assert chi.conductor() == 1


def test_conductors():
    # mod 8: principal -> 1; the character trivial on 3 -> conductor 4 or 8
    cond = sorted(chi.conductor() for chi in enumerate_characters(8))
    assert cond == [1, 4, 8, 8]
    assert principal_character(12).conductor() == 1
    # the quadratic character mod 3 is primitive
    chi3 = next(c for c in enumerate_characters(3) if not c.is_principal())
    assert chi3.conductor() == 3


def test_quadratic_character_rational_values():
    chi4 = next(c for c in enumerate_characters(4) if not c.is_principal())
    assert chi4.is_real()
    vals = [chi4.value_rational(a) for a in range(4)]
    assert vals == [0, 1, 0, -1]


def test_character_orders():
    orders = sorted(chi.order for chi in enumerate_characters(5))
    assert orders == [1, 2, 4, 4]


def test_value_table_is_the_fraction_sum_over_the_discrete_logs():
    # chi(a) = e^{2 pi i sum_j k_j t_j / e_j}, t = the discrete logs of a;
    # the table takes that sum in integers over the lcm of the e_j
    axes = {0: 1, Fraction(1, 4): 1j, Fraction(1, 2): -1, Fraction(3, 4): -1j}
    for d in range(1, 61):
        dlogs = _dlog_table(d)
        for chi in enumerate_characters(d):
            for a in range(d):
                if gcd(a, d) > 1:
                    assert chi(a).exponent is None
                    continue
                e = sum((Fraction(k * t, order) for k, t, (_, order) in
                         zip(chi.exponents, dlogs[a], chi.generators)),
                        Fraction(0)) % 1
                th = 2 * cmath.pi * float(e)
                want = complex(axes.get(e, complex(cmath.cos(th),
                                                   cmath.sin(th))))
                assert chi(a).exponent == e
                assert repr(chi.value_complex(a)) == repr(want)
