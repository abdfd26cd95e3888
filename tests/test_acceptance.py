"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime and asserting the stated budget.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import math
import random
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import sympy

from oracles import (character_values, count_by_enumeration, count_by_residue_classes,
                     enumerate_characters, exp_sums_all_residues, farey_points, field_multiply,
                     is_principal, loop_discrepancy, norm_sq, quadratic_close_count_int64,
                     sieve_sum, sum_sq_over_points)
from polysieve.arith import euler_phi
from polysieve.boxes import box_values
from polysieve.bv import discrepancy_sum, exponent_profile, max_progression_discrepancy
from polysieve.congruence import CongruenceInstance, count_solutions
from polysieve.farey import build_farey, max_close_points, min_spacing
from polysieve.mvpoly import FactoredPoly, MvPoly, parse_poly
from polysieve.normform import NumberFieldSpec, norm_form, prime_divisor_search

P_SUM_SQ = parse_poly("x1^2+x2^2")
P_CUBIC = parse_poly("x1^3+2*x2^3")


class criterion:
    """Context manager asserting the runtime budget and printing a pass line."""

    def __init__(self, number, label, limit_s):
        self.number = number
        self.label = label
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"[acceptance] criterion {self.number:2d} PASS "
                  f"({elapsed:6.2f}s < {self.limit_s}s) {self.label}")
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.limit_s}s")
        else:
            print(f"[acceptance] criterion {self.number:2d} FAIL "
                  f"({elapsed:6.2f}s) {self.label}")
        return False


def test_criterion_01_parseval():
    with criterion(1, "Parseval identity on 100 random (sequence, modulus) pairs", 5):
        rng = np.random.default_rng(20260809)
        for _ in range(100):
            m = int(rng.integers(2, 513))
            N = int(rng.integers(1, m + 1))
            M = int(rng.integers(0, 64))
            coeffs = rng.normal(size=N) + 1j * rng.normal(size=N)
            total = float(np.sum(np.abs(exp_sums_all_residues(coeffs, M, m)) ** 2))
            assert abs(total - m * norm_sq(coeffs)) <= 1e-9 * m * norm_sq(coeffs)


def test_criterion_02_montgomery_vaughan():
    with criterion(2, "well-spaced inequality over distinct Farey points", 30):
        rng = np.random.default_rng(2)
        for Q in (1, 2, 3, 4):
            system = build_farey(P_SUM_SQ, Q)
            points = list(dict.fromkeys(farey_points(system)))
            # a single point is delta-spaced for every delta <= 1
            delta = min_spacing(system) if len(points) >= 2 else Fraction(1)
            inv_delta = 1 / float(delta)
            for _ in range(20):
                N = int(rng.integers(1, 501))
                seq = rng.normal(size=N) + 1j * rng.normal(size=N)
                lhs = sum_sq_over_points(seq, 0, points)
                rhs = (inv_delta + N) * norm_sq(seq)
                assert lhs <= rhs * (1 + 1e-9)


def _random_congruence_instance(rng):
    while True:
        ell = rng.randrange(1, 4)
        k = rng.randrange(2, 4)
        m = rng.randrange(2, 201)
        if m ** ell > 25_000:
            continue
        a = rng.randrange(1, m)
        if gcd(a, m) != 1:
            continue
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            exps = [0] * ell
            for _ in range(rng.randrange(0, k + 1)):
                exps[rng.randrange(ell)] += 1
            terms[tuple(exps)] = rng.randrange(-5, 6) or 2
        top = [0] * ell
        for _ in range(k):
            top[rng.randrange(ell)] += 1
        terms[tuple(top)] = rng.randrange(1, 4)
        return CongruenceInstance(
            P=MvPoly(ell, terms), a=a, m=m,
            K=tuple(rng.randrange(-50, 51) for _ in range(ell)),
            H=rng.randrange(1, 21), L=rng.randrange(-30, 31),
            R=rng.randrange(1, 301))


def test_criterion_03_congruence_strategies():
    with criterion(3, "congruence count matches both oracles on 50 instances", 10):
        rng = random.Random(3)
        for _ in range(50):
            inst = _random_congruence_instance(rng)
            got = count_solutions(inst)
            assert got == count_by_enumeration(inst) == count_by_residue_classes(inst)
        worked = CongruenceInstance(P=P_SUM_SQ, a=1, m=3, K=(0, 0), H=3, L=0, R=1)
        assert count_solutions(worked) == 4


def test_criterion_04_close_point_algorithms():
    with criterion(4, "sliding-window close-point maximum vs quadratic oracle", 30):
        for poly in (P_SUM_SQ, P_CUBIC):
            k = poly.total_degree()
            for Q in (1, 2, 3, 4):
                system = build_farey(poly, Q)
                for N in (Q ** k, 2 * Q ** k, Q ** (2 * k)):
                    fast = max_close_points(system, [N])[0]
                    slow = quadratic_close_count_int64(farey_points(system), N)
                    assert fast == slow, (poly.to_text(), Q, N)


def test_criterion_05_exponent_arithmetic():
    with criterion(5, "exact exponent profiles and global orderings", 1):
        p = exponent_profile(3, 2)
        assert (p.r, p.rho, p.level_exponent) == (9, Fraction(36, 35), Fraction(24, 179))
        assert p.k * p.level_exponent == Fraction(72, 179)
        for k in range(2, 11):
            for ell in range(1, 11):
                prof = exponent_profile(k, ell)
                assert k * prof.level_exponent > Fraction(2, 5)
                assert prof.level_exponent < Fraction(1, 2 * k)


def test_criterion_06_norm_multiplicativity():
    with criterion(6, "norm multiplicativity on 100 random pairs per field", 5):
        rng = random.Random(6)
        for text in ("t^2+1", "t^3-2", "t^4-t-1"):
            spec = NumberFieldSpec.from_text(text)
            n = spec.degree
            form = norm_form(spec)
            for _ in range(100):
                u = [rng.randint(-10, 10) for _ in range(n)]
                v = [rng.randint(-10, 10) for _ in range(n)]
                assert form.evaluate(field_multiply(spec, u, v)) \
                    == form.evaluate(u) * form.evaluate(v)
        trunc = norm_form(NumberFieldSpec.from_text("t^3-2", truncation=1))
        assert trunc.to_text(var_prefix="q") == "q1^3 + 2*q2^3"


def test_criterion_07_divisor_search():
    with criterion(7, "norm-form prime-divisor search at X = 10^5", 60):
        spec = NumberFieldSpec.from_text("t^2+1")
        form = norm_form(spec)
        theta = Fraction(2, 5)
        X = 10 ** 5
        rep = prime_divisor_search(spec, X, theta)
        ps = set(rep.primes)
        assert rep.count > 0
        assert 11 in ps and 13 not in ps
        # re-verify every reported witness from scratch
        for p, ds in zip(rep.primes, rep.divisors):
            for d in ds:
                assert (p - 1) % d == 0
                assert sympy.isprime(d)
                q = rep.representations[d]
                assert all(1 <= qi <= rep.q_range for qi in q)
                assert form.evaluate(q) == d
                assert d ** 5 >= p ** 2
        # independent full recomputation: for this field the prime norm
        # values with positive coordinates are exactly 2 and primes = 1 mod 4
        prime_set = set(sympy.primerange(2, X + 1))
        expected = {}
        for p in sorted(prime_set):
            hits = [d for d in sympy.divisors(p - 1)
                    if d in prime_set and (d == 2 or d % 4 == 1)
                    and d ** 5 >= p ** 2]
            if hits:
                expected[p] = hits
        assert dict(zip(rep.primes, rep.divisors)) == expected


def test_criterion_08_weighted_discrepancy_hand_value():
    with criterion(8, "weighted discrepancy sum at Q = 1, x = 10", 1):
        rep = discrepancy_sum(FactoredPoly([P_SUM_SQ]), 1, 10)
        expected = math.log(2) * (9 - math.log(105))
        assert abs(rep.value - expected) <= 1e-9
        assert loop_discrepancy(2, 10) == (max_progression_discrepancy(2, (2,), 10), 1, 9.0, True)


def test_criterion_09_character_suite():
    with criterion(9, "character enumeration, orthogonality, primitivity (m <= 200)", 30):
        prim_counts = {1: 1}
        for m in range(1, 201):
            chars = enumerate_characters(m)
            assert len(chars) == euler_phi(m)
            for chi in chars:
                if not is_principal(chi):
                    assert abs(np.sum(character_values(chi))) < 1e-9
            got_primitive = sum(c.is_primitive for c in chars)
            oracle = euler_phi(m) - sum(prim_counts[d]
                                        for d in range(1, m) if m % d == 0)
            prim_counts[m] = oracle
            assert got_primitive == oracle, m


def test_criterion_10_explicit_trivial_bound():
    with criterion(10, "explicit distinct-spacing bound on 20 random instances", 30):
        rng = np.random.default_rng(10)
        pool = [P_SUM_SQ, P_CUBIC, parse_poly("x1^2-x2^2"),
                parse_poly("2*x1^2+3*x2^2"), parse_poly("x1^2+x1*x2+x2^2"),
                parse_poly("x1^2")]
        done = 0
        while done < 20:
            P = pool[int(rng.integers(0, len(pool)))]
            Q = int(rng.integers(1, 5))
            retained = {abs(v): c for v, c in zip(*(a.tolist() for a in box_values(P, Q)))
                        if abs(v) > 1}
            if not retained:
                continue
            D = max(retained)
            r_star = max(retained.values())
            N = int(rng.integers(1, 201))
            seq = rng.normal(size=N) + 1j * rng.normal(size=N)
            lhs = sieve_sum(seq, 0, P, Q)
            rhs = r_star * (D ** 2 + N) * norm_sq(seq)
            assert lhs <= rhs * (1 + 1e-9)
            done += 1
