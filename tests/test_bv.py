import math
import random
from dataclasses import astuple
from fractions import Fraction
from math import fsum

import pytest
import sympy

import polysieve.bv as bv
from oracles import loop_discrepancy, loop_sup_abs_psi_chi
from polysieve.arith import euler_phi
from polysieve.boxes import fold_moduli, value_counts
from polysieve.bv import (ExponentProfile, check_setting, default_eps_bad,
                          discrepancy_sum, exponent_profile,
                          max_progression_discrepancy,
                          max_progression_discrepancy_detail, mean_value_sum,
                          prime_value_weight)
from polysieve.characters import enumerate_characters, psi_chi
from polysieve.mvpoly import FactoredPoly, parse_poly

P_SUM_SQ = parse_poly("x1^2+x2^2")
STREAM_MODULI = (*range(3, 41), 97)
STREAM_X = (1, 2, 10, 500, 4000)


def test_profile_3_2_exact():
    p = exponent_profile(3, 2)
    assert p.r == 9
    assert p.rho == Fraction(36, 35)
    assert p.level_exponent == Fraction(24, 179)
    assert p.k * p.level_exponent == Fraction(72, 179)
    assert p.variable_condition_rhs == Fraction(37, 24)


def test_profile_2_1_exact():
    p = exponent_profile(2, 1)
    assert p.r == 2
    assert p.rho == Fraction(6, 5)
    assert p.level_exponent == Fraction(6, 29)


def test_profile_closed_form_and_orderings():
    for k in range(2, 11):
        for ell in range(1, 11):
            p = exponent_profile(k, ell)
            R = p.r * (k + 1)
            assert p.rho == Fraction(R, R - 1) > 1
            assert p.level_exponent == Fraction(2 * R, k * (5 * R - 1))
            assert p.level_exponent < p.conjectural_level_exponent == Fraction(1, 2 * k)
            assert k * p.level_exponent > Fraction(2, 5)


def test_check_setting_single_cubic_factor():
    rep = check_setting(FactoredPoly([parse_poly("x1^3+2*x2^3")]))
    fc = rep.factors[0]
    assert fc.profile.variable_condition_rhs == Fraction(37, 24)
    assert fc.variable_condition_ok  # 2 >= 37/24
    assert rep.top_coeffs_are_one
    assert rep.all_divisors_monotone
    assert rep.product_profile.level_exponent == Fraction(24, 179)


def test_check_setting_more_vars_than_degree():
    rep = check_setting(FactoredPoly([parse_poly("x1^2+x2^2+x3^2")]))
    assert rep.factors[0].variable_condition_ok  # ell > k >= rhs


def test_check_setting_rejects_shared_variables():
    with pytest.raises(ValueError):
        FactoredPoly([parse_poly("x1^2+x2^2"), parse_poly("x1^2+x3^2")])


def test_check_setting_divisor_monotonicity():
    F = FactoredPoly([parse_poly("x1^2+x2^2"), parse_poly("x3^2+x4^2")])
    rep = check_setting(F)
    assert len(rep.divisors) == 3
    assert rep.all_divisors_monotone
    full = rep.product_profile.level_exponent
    for d in rep.divisors:
        assert full <= d.level_exponent


def test_prime_value_weight_examples():
    F = FactoredPoly([parse_poly("x1^2+x2^2"), parse_poly("x3^2+x4^2")])
    w = prime_value_weight(F, (1, 1, 1, 2))
    assert w == pytest.approx(math.log(2) * math.log(5), rel=1e-12)
    assert prime_value_weight(F, (1, 1, 1, 1)) == 0.0  # P = 4 not squarefree
    line = FactoredPoly([parse_poly("x1")])
    assert prime_value_weight(line, (10,)) == 0.0  # 10 is no prime power
    assert prime_value_weight(line, (9,)) == 0.0   # mu^2(9) = 0
    assert prime_value_weight(line, (3,)) == pytest.approx(math.log(3))
    assert prime_value_weight(line, (-5,)) == 0.0  # negative factor value


def test_weight_forces_squarefree_product():
    # equal primes in two factors: P = p^2, weight must vanish
    F = FactoredPoly([parse_poly("x1"), parse_poly("x2")])
    assert prime_value_weight(F, (3, 3)) == 0.0
    assert prime_value_weight(F, (3, 5)) == pytest.approx(
        math.log(3) * math.log(5), rel=1e-12)


def test_discrepancy_hand_value():
    d = max_progression_discrepancy_detail(2, 10)
    assert d.value == pytest.approx(9 - math.log(105), rel=1e-12)
    assert d.y == 9.0 and d.left_limit and d.residue == 1
    assert max_progression_discrepancy(2, 2) == pytest.approx(2.0)


def test_discrepancy_validation():
    with pytest.raises(ValueError):
        max_progression_discrepancy(1, 10)
    with pytest.raises(ValueError):
        max_progression_discrepancy(4, 0.5)


def _discrepancy_oracle(m, x):
    """From-scratch sup via sympy: evaluate both one-sided limits at every
    prime power and the endpoint, per coprime class."""
    jumps = sorted(p ** e for p in sympy.primerange(2, int(x) + 1)
                   for e in range(1, 40) if p ** e <= x)
    phi = int(sympy.totient(m))
    best = 0.0
    for a in range(1, m + 1):
        if math.gcd(a, m) != 1:
            continue
        acc = 0.0
        for t in jumps:
            if t % m == a % m:
                best = max(best, abs(acc - t / phi))
                acc += math.log(min(sympy.factorint(t)))
                best = max(best, abs(acc - t / phi))
        best = max(best, abs(acc - x / phi))
    return best


def test_discrepancy_matches_independent_oracle():
    for m, x in ((2, 10), (3, 50), (97, 10), (10, 200)):
        assert max_progression_discrepancy(m, x) == pytest.approx(
            _discrepancy_oracle(m, x), rel=1e-9)


@pytest.mark.parametrize("x", STREAM_X)
def test_discrepancy_matches_loop_reference_exactly(x):
    for m in STREAM_MODULI:
        assert astuple(max_progression_discrepancy_detail(m, x)) == loop_discrepancy(m, x)


def test_discrepancy_grid_beats_random_probes():
    rng = random.Random(5)
    for m, x in ((6, 300), (11, 120)):
        sup = max_progression_discrepancy(m, x)
        phi = euler_phi(m)
        from polysieve.arith import psi_progression
        for _ in range(1000):
            y = rng.uniform(0.01, x)
            for a in (1, m - 1):
                assert abs(psi_progression(y, m, a) - y / phi) <= sup + 1e-9


def test_discrepancy_sum_hand_value():
    F = FactoredPoly([P_SUM_SQ])
    rep = discrepancy_sum(F, 1, 10)
    assert rep.value == pytest.approx(math.log(2) * (9 - math.log(105)), rel=1e-9)
    assert rep.box_size == 1 and rep.nonzero_weight_tuples == 1
    assert rep.comparator == pytest.approx(10 / math.log(10) ** 2, rel=1e-12)


def test_discrepancy_sum_zero_weights():
    # x1^2 * x2 type values: squares kill mu^2 for every tuple of this factor
    F = FactoredPoly([parse_poly("x1^2")])
    rep = discrepancy_sum(F, 2, 50)
    assert rep.value == 0.0 and rep.nonzero_weight_tuples == 0


def test_discrepancy_sum_matches_independent_recomputation():
    F = FactoredPoly([P_SUM_SQ])
    x = 1000.0
    rep = discrepancy_sum(F, 2, x)
    expected = 0.0
    eps = default_eps_bad(2, 2, 2.0, 1)
    for q1 in (2, 3):
        for q2 in (2, 3):
            p = q1 * q1 + q2 * q2
            if p <= eps * 4:
                continue
            if sympy.factorint(p) and max(sympy.factorint(p).values()) > 1:
                continue  # not squarefree
            fact = sympy.factorint(p)
            if len(fact) != 1:
                continue  # Lambda vanishes
            weight = math.log(min(fact))
            expected += (weight * int(sympy.totient(p)) / 4
                         * _discrepancy_oracle(p, x))
    assert rep.value == pytest.approx(expected, rel=1e-9)


def test_discrepancy_sum_box_partition_additivity():
    # partitioning by leading coordinate and adding partial values in order
    # reproduces the total (up to the final fsum regrouping)
    import polysieve.bv as bvmod
    F = FactoredPoly([P_SUM_SQ])
    total = discrepancy_sum(F, 2, 200.0)
    parts = []
    for q1 in (2, 3):
        chunk = bvmod._discrepancy_chunk(
            (F, 2, 200.0,
             Fraction(total.eps_bad).numerator * 4,
             Fraction(total.eps_bad).denominator, 2, [q1]))
        parts.extend(chunk[0])
    assert math.fsum(parts) == pytest.approx(total.value, rel=1e-12)


def test_discrepancy_sum_negative_tuple_reporting():
    F = FactoredPoly([parse_poly("x1^2-3*x2^2")])  # negative on part of the box
    rep = discrepancy_sum(F, 2, 50.0, eps_bad=1e-9)
    assert rep.negative_factor_tuples >= 1
    assert rep.value >= 0.0


def test_mean_value_examples():
    assert mean_value_sum(P_SUM_SQ, 1, 10).value == 0.0  # no primitive chi mod 2
    assert mean_value_sum(P_SUM_SQ, 2, 1.9).value == 0.0
    got = mean_value_sum(P_SUM_SQ, 2, 10).value
    assert got > 0


def test_mean_value_moduli_are_the_box_fold():
    for P in (P_SUM_SQ, parse_poly("x1^2-x2^2")):
        rep = mean_value_sum(P, 2, 10)
        moduli, unit, _ = fold_moduli(value_counts(P, 2))
        assert rep.moduli == moduli
        assert rep.skipped_unit_moduli == unit


def test_mean_value_matches_character_table_recomputation():
    x = 10.0
    moduli = {8: 1, 13: 2, 18: 1}
    expected = 0.0
    for d, mult in moduli.items():
        per_mod = 0.0
        for chi in enumerate_characters(d):
            if not chi.is_primitive:
                continue
            sup = max(abs(psi_chi(y, chi)) for y in range(2, int(x) + 1))
            per_mod += sup
        expected += mult * d / euler_phi(d) * per_mod
    assert mean_value_sum(P_SUM_SQ, 2, x).value == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("x", STREAM_X)
def test_mean_value_matches_loop_reference_exactly(x):
    for d in STREAM_MODULI:
        P = parse_poly(f"x1+{d - 1}")   # Q = 1 boxes the single point q = 1
        sups = [loop_sup_abs_psi_chi(chi, x) for chi in enumerate_characters(d)
                if chi.is_primitive]
        expected = fsum([1 * d / euler_phi(d) * fsum(sups)] if sups else [])
        assert mean_value_sum(P, 1, x).value == expected


def test_default_eps_bad():
    assert default_eps_bad(1, 2, 2.0, 1) == pytest.approx(
        math.log(3) ** -8, rel=1e-12)
