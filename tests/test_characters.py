import math
from math import gcd

import numpy as np
import pytest

from oracles import loop_psi_chi, primitive_character_count
from polysieve.arith import chebyshev_psi, euler_phi, factorize, von_mangoldt
from polysieve.characters import (DirichletCharacter, enumerate_characters,
                                  induce_character_values, psi_chi, unit_group)
from polysieve.errors import BudgetError


def test_modulus_one():
    chars = enumerate_characters(1)
    assert len(chars) == 1
    chi = chars[0]
    assert chi(0) == 1 and chi(7) == 1
    assert chi.conductor == 1 and chi.is_primitive


def test_modulus_four_hand_table():
    chars = enumerate_characters(4)
    assert len(chars) == 2
    non_principal = [c for c in chars if not c.is_principal]
    assert len(non_principal) == 1
    chi = non_principal[0]
    assert chi(1) == pytest.approx(1)
    assert chi(3) == pytest.approx(-1)
    assert chi(2) == 0
    assert chi.conductor == 4 and chi.is_primitive


def test_modulus_five():
    chars = enumerate_characters(5)
    assert len(chars) == 4
    assert sum(c.is_primitive for c in chars) == 3
    principal = [c for c in chars if c.is_principal]
    assert len(principal) == 1 and principal[0].conductor == 1


def test_enumeration_is_deterministic_and_first_is_principal():
    for m in (12, 35):
        chars = enumerate_characters(m)
        assert chars[0].is_principal
        assert [c.exponents for c in chars] == sorted(c.exponents for c in chars)


def test_counts_and_invariants():
    for m in range(1, 61):
        chars = enumerate_characters(m)
        assert len(chars) == euler_phi(m)
        for chi in chars:
            vals = chi.values()
            n = np.arange(m)
            units = np.gcd(n, m) == 1
            assert np.all(vals[~units] == 0)
            assert np.allclose(np.abs(vals[units]), 1.0, atol=1e-12)


def test_orthogonality():
    for m in range(2, 61):
        for chi in enumerate_characters(m):
            s = np.sum(chi.values())
            if chi.is_principal:
                assert s == pytest.approx(euler_phi(m), rel=1e-9)
            else:
                assert abs(s) < 1e-9


def test_complete_multiplicativity_exact_exponents():
    for m in (7, 9, 16, 24, 45):
        e = unit_group(m).exponent
        for chi in enumerate_characters(m):
            for a in range(1, m):
                for b in range(a, m):
                    if gcd(a, m) == 1 and gcd(b, m) == 1:
                        lhs = chi.value_exponent(a * b)
                        rhs = (chi.value_exponent(a) + chi.value_exponent(b)) % e
                        assert lhs == rhs


def test_primitive_count_matches_divisor_oracle():
    for m in range(1, 121):
        got = sum(c.is_primitive for c in enumerate_characters(m))
        assert got == primitive_character_count(m, euler_phi), m


def test_induced_characters_match_non_primitives():
    for m in (8, 12, 45):
        chars = enumerate_characters(m)
        tables = {c: c.values() for c in chars}
        seen = set()
        for d in factorize(m).divisors():
            if d == m:
                continue
            for chi_d in enumerate_characters(d):
                induced = induce_character_values(chi_d, m)
                matches = [c for c, t in tables.items()
                           if np.allclose(t, induced, atol=1e-10)]
                assert len(matches) == 1
                assert not matches[0].is_primitive or d == m
                if chi_d.is_primitive:
                    seen.add(matches[0])
        # every non-primitive character is induced by a primitive one below
        non_prims = {c for c in chars if not c.is_primitive}
        assert seen == non_prims


def test_psi_chi_examples():
    chi0_mod2 = enumerate_characters(2)[0]
    # odd prime powers up to 10 are 3, 5, 7, 9 with Lambda = log(3*5*7*3)
    assert psi_chi(10, chi0_mod2) == pytest.approx(math.log(315), rel=1e-12)
    chi4 = [c for c in enumerate_characters(4) if not c.is_principal][0]
    expected = von_mangoldt(5) + von_mangoldt(9) - von_mangoldt(3) - von_mangoldt(7)
    assert psi_chi(10, chi4).real == pytest.approx(expected, rel=1e-12)
    assert psi_chi(10, chi4).real == pytest.approx(math.log(5 / 7), rel=1e-12)
    assert abs(psi_chi(10, chi4).imag) < 1e-12
    assert psi_chi(1.9, chi4) == 0j


def test_psi_chi_principal_identity():
    # psi(y, chi0 mod m) = psi(y) - sum over p | m of log p contributions
    for m, y in ((6, 500), (10, 300), (45, 1000)):
        chi0 = enumerate_characters(m)[0]
        assert chi0.is_principal
        removed = sum(von_mangoldt(n) for n in range(2, int(y) + 1)
                      if gcd(n, m) > 1 and von_mangoldt(n) > 0)
        assert psi_chi(y, chi0).real == pytest.approx(
            chebyshev_psi(y) - removed, rel=1e-9)
        assert abs(psi_chi(y, chi0).imag) < 1e-9


@pytest.mark.parametrize("y", (1, 2, 10, 500, 4000))
def test_psi_chi_matches_loop_reference_exactly(y):
    for m in (*range(3, 41), 97):
        for chi in enumerate_characters(m):
            assert psi_chi(y, chi) == loop_psi_chi(y, chi)


def test_conductor_divides_modulus():
    for m in (24, 36, 60):
        for chi in enumerate_characters(m):
            assert m % chi.conductor == 0


def test_modulus_cap():
    with pytest.raises(BudgetError):
        enumerate_characters(200_001)


def test_group_structure_2_power():
    g = unit_group(32)
    assert sorted(c.order for c in g.components) == [2, 8]
    assert g.order == euler_phi(32) == 16


def test_character_equality_and_hash():
    a, b = enumerate_characters(5)[1], enumerate_characters(5)[1]
    assert a == b and hash(a) == hash(b)
    assert a != enumerate_characters(5)[2]
