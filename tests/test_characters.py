import math
from math import gcd

import numpy as np
import pytest
import sympy

from oracles import (character_value, character_values, enumerate_characters, is_principal,
                     loop_psi_chi, primitive_character_count, primitive_exponents,
                     scan_conductor, value_exponent, von_mangoldt, walk_dlog, walk_dlog_2e)
from polysieve.arith import euler_phi
from polysieve.characters import CHAR_MODULUS_CAP, DirichletCharacter, root_table, unit_group
from polysieve.errors import BudgetError


def test_modulus_one():
    chars = enumerate_characters(1)
    assert len(chars) == 1
    chi = chars[0]
    assert character_value(chi, 0) == 1 and character_value(chi, 7) == 1
    assert chi.conductor == 1 and chi.is_primitive


def test_modulus_four_hand_table():
    chars = enumerate_characters(4)
    assert len(chars) == 2
    non_principal = [c for c in chars if not is_principal(c)]
    assert len(non_principal) == 1
    chi = non_principal[0]
    assert character_value(chi, 1) == pytest.approx(1)
    assert character_value(chi, 3) == pytest.approx(-1)
    assert character_value(chi, 2) == 0
    assert chi.conductor == 4 and chi.is_primitive


def test_modulus_five():
    chars = enumerate_characters(5)
    assert len(chars) == 4
    assert sum(c.is_primitive for c in chars) == 3
    principal = [c for c in chars if is_principal(c)]
    assert len(principal) == 1 and principal[0].conductor == 1


def test_enumeration_is_deterministic_and_first_is_principal():
    for m in (12, 35):
        chars = enumerate_characters(m)
        assert is_principal(chars[0])
        assert [c.exponents for c in chars] == sorted(c.exponents for c in chars)


def test_counts_and_invariants():
    for m in range(1, 61):
        chars = enumerate_characters(m)
        assert len(chars) == euler_phi(m)
        for chi in chars:
            vals = character_values(chi)
            n = np.arange(m)
            units = np.gcd(n, m) == 1
            assert np.all(vals[~units] == 0)
            assert np.allclose(np.abs(vals[units]), 1.0, atol=1e-12)


def test_root_table_is_conjugate_symmetric():
    one = np.array([1 + 0j]).view(np.uint64).tolist()
    for e in (*range(1, 3000), 30030, 65536, 99990):
        roots = root_table(e)
        k = np.arange(e)
        bits = roots.view(np.uint64).reshape(e, 2)
        conj_bits = np.conj(roots).view(np.uint64).reshape(e, 2)
        pair = (k != 0) & (2 * k != e)   # roots[0] and roots[e/2] are their own conjugates
        assert np.array_equal(bits[(e - k) % e][pair], conj_bits[pair]), e
        assert bits[0].tolist() == one
        if e % 2 == 0:
            assert roots[e // 2].real == -1.0 and bits[e // 2, 1] == 0, e   # imaginary +0.0
        assert np.allclose(roots, np.exp(2j * np.pi * k / e), rtol=0, atol=1e-14), e


def test_orthogonality():
    for m in range(2, 61):
        for chi in enumerate_characters(m):
            s = np.sum(character_values(chi))
            if is_principal(chi):
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
                        lhs = value_exponent(chi, a * b)
                        rhs = (value_exponent(chi, a) + value_exponent(chi, b)) % e
                        assert lhs == rhs


def test_primitive_count_matches_divisor_oracle():
    for m in range(1, 121):
        got = sum(c.is_primitive for c in enumerate_characters(m))
        assert got == primitive_character_count(m, euler_phi), m


PRIMITIVE_RULE_MODULI = (*range(1, 301), *(2 ** e for e in range(9, 11)),
                         3 ** 5, 4 * 9 * 25, 8 * 3 * 5 * 7)


@pytest.mark.parametrize("m", PRIMITIVE_RULE_MODULI)
def test_primitive_exponents_are_the_primitive_characters(m):
    rows = primitive_exponents(unit_group(m))
    chars = enumerate_characters(m)
    got = [tuple(r) for r in rows.tolist()]
    assert got == [c.exponents for c in chars if c.is_primitive]
    assert len(got) == primitive_character_count(m, euler_phi)
    assert [c.is_primitive for c in chars] == [c.conductor == m for c in chars]


@pytest.mark.parametrize("m", PRIMITIVE_RULE_MODULI)
def test_primitive_pairs_and_their_conjugates_are_the_primitive_exponents(m):
    group = unit_group(m)
    rows, real = group.primitive_pairs
    orders = [comp.order for comp in group.components]
    pairs = [tuple(r) for r in rows.tolist()]
    conj = [tuple(-c % s for c, s in zip(r, orders)) for r in pairs]
    assert set(pairs) | set(conj) == {tuple(r) for r in primitive_exponents(group).tolist()}
    assert 2 * len(pairs) - real == len(primitive_exponents(group))
    # the self-conjugate rows come last, and each other row stands for a pair
    assert [r == c for r, c in zip(pairs, conj)] == [False] * (len(pairs) - real) + [True] * real
    # each part keeps the order of enumerate_characters
    every = {tuple(r): tuple(-c % s for c, s in zip(r, orders))
             for r in primitive_exponents(group).tolist()}
    assert pairs == [r for r, c in every.items() if r < c] + [r for r, c in every.items() if r == c]


def test_primitive_pairs_are_read_only_int32_cached_with_the_group():
    for m in (5, 8, 120, 99001, CHAR_MODULUS_CAP):
        rows, _ = unit_group(m).primitive_pairs
        assert rows.dtype == np.int32 and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0
        assert unit_group(m).primitive_pairs[0] is rows
    unit_group.cache_clear()
    assert unit_group(5).primitive_pairs[0] is not rows


def test_induced_characters_match_non_primitives():
    for m in (8, 12, 45):
        chars = enumerate_characters(m)
        tables = {c: character_values(c) for c in chars}
        n = np.arange(m)
        seen = set()
        for d in sympy.divisors(m):
            if d == m:
                continue
            for chi_d in enumerate_characters(d):
                # chi_d(n mod d) on the units mod m, 0 elsewhere
                induced = np.where(np.gcd(n, m) == 1, character_values(chi_d)[n % d], 0)
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
    assert loop_psi_chi(10, chi0_mod2) == pytest.approx(math.log(315), rel=1e-12)
    chi4 = [c for c in enumerate_characters(4) if not is_principal(c)][0]
    expected = von_mangoldt(5) + von_mangoldt(9) - von_mangoldt(3) - von_mangoldt(7)
    assert loop_psi_chi(10, chi4).real == pytest.approx(expected, rel=1e-12)
    assert loop_psi_chi(10, chi4).real == pytest.approx(math.log(5 / 7), rel=1e-12)
    assert abs(loop_psi_chi(10, chi4).imag) < 1e-12
    assert loop_psi_chi(1.9, chi4) == 0j


def test_conductor_divides_modulus():
    for m in (24, 36, 60):
        for chi in enumerate_characters(m):
            assert m % chi.conductor == 0


def test_conductor_matches_divisor_scan():
    for m in range(1, 301):
        for chi in enumerate_characters(m):
            assert chi.conductor == scan_conductor(chi)


def test_modulus_cap():
    with pytest.raises(BudgetError):
        enumerate_characters(200_001)


def test_unit_group_refuses_moduli_above_the_cap():
    with pytest.raises(BudgetError):
        unit_group(CHAR_MODULUS_CAP + 1)
    assert unit_group(CHAR_MODULUS_CAP).modulus == CHAR_MODULUS_CAP


@pytest.mark.parametrize("m", [*range(1, 300), 2 ** 16, 3 ** 10, 7 ** 5, 99991])
def test_dlog_tables_match_the_power_walk(m):
    for comp in unit_group(m).components:
        q = comp.modulus
        if q % 8 == 0:
            da, db = walk_dlog_2e(q)
            expected = da if comp.generator == q - 1 else db
        else:
            expected = walk_dlog(q, comp.generator, comp.order)
        assert comp.dlog.dtype == np.int64 and not comp.dlog.flags.writeable
        assert np.array_equal(comp.dlog, expected)


def test_group_structure_2_power():
    g = unit_group(32)
    assert sorted(c.order for c in g.components) == [2, 8]
    assert math.prod(c.order for c in g.components) == euler_phi(32) == 16


def test_character_equality_and_hash():
    a, b = enumerate_characters(5)[1], enumerate_characters(5)[1]
    assert a == b and hash(a) == hash(b)
    assert a != enumerate_characters(5)[2]
