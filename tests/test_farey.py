import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (farey_points, loop_farey_points, loop_max_close_points,
                     pairwise_min_spacing, quadratic_close_count,
                     quadratic_close_count_int64)
from polysieve import farey
from polysieve.arith import euler_phi
from polysieve.errors import BudgetError
from polysieve.farey import (FareySystem, build_farey, close_points_comparator,
                             max_close_points, min_spacing)
from polysieve.mvpoly import MvPoly, parse_poly

P_SUM_SQ = parse_poly("x1^2+x2^2")


def make_system(pairs):
    """A system of the points a/d (reduced here), one per pair."""
    counts = Counter(Fraction(a, d) for a, d in pairs)
    vals = sorted(counts)
    return FareySystem(a=np.array([v.numerator for v in vals], dtype=np.int64),
                       d=np.array([v.denominator for v in vals], dtype=np.int64),
                       mult=np.array([counts[v] for v in vals], dtype=np.int64),
                       distinct_count=len(vals), total_count=len(pairs),
                       skipped_unit_moduli=0, skipped_filtered=0)


def distinct_points(system):
    return list(dict.fromkeys(farey_points(system)))


def test_build_farey_q1():
    system = build_farey(P_SUM_SQ, 1)
    assert farey_points(system) == [Fraction(1, 2)]
    assert system.total_count == 1


def test_build_farey_q2():
    system = build_farey(P_SUM_SQ, 2)
    assert system.total_count == euler_phi(8) + 2 * euler_phi(13) + euler_phi(18) == 34
    filtered = build_farey(P_SUM_SQ, 2, min_modulus=9)
    assert filtered.total_count == 30
    assert filtered.skipped_filtered == 1
    assert filtered.skipped_unit_moduli == 0


def test_unit_moduli_skipped():
    # x1^2 - x2^2 vanishes on the diagonal and hits 1 at no box point of Q=2;
    # zero values must be skipped and counted
    system = build_farey(parse_poly("x1^2-x2^2"), 2)
    assert system.skipped_unit_moduli == 2  # (2,2) and (3,3)
    assert system.total_count == euler_phi(5) * 2


def test_min_spacing_examples():
    assert min_spacing(make_system([(1, 2), (1, 3)])) == Fraction(1, 6)
    assert min_spacing(make_system([(1, 8), (7, 8)])) == Fraction(1, 4)


def test_min_spacing_requires_two_distinct():
    with pytest.raises(ValueError):
        min_spacing(make_system([(1, 2), (1, 2)]))


def test_min_spacing_q2_matches_pairwise_oracle():
    system = build_farey(P_SUM_SQ, 2)
    assert min_spacing(system) == pairwise_min_spacing(distinct_points(system))


def test_max_close_points_examples():
    assert max_close_points(make_system([(1, 2)]), [64])[0] == 1
    assert max_close_points(make_system([(1, 3), (2, 3)]), [1])[0] == 2


def test_max_close_points_compares_on_python_ints_past_2_63():
    # 1/2 alone: the bound 2N (1 + 2) 2 is in [2^63, 2^64) at N = 2^60 + 1,
    # and the point's next copy 3/2 is compared by 2N * 4 = 2^63 + 8, which
    # int64 wraps to a negative number, so 3/2 would be counted as close
    system = make_system([(1, 2), (1, 2), (1, 2)])
    for N in (2 ** 61 // 3 + 1, 2 ** 60 + 1):   # the first N past the edge, and a wrap
        assert 2 ** 63 <= 2 * N * 6 < 2 ** 64
        assert max_close_points(system, [N]) == [3] == [loop_max_close_points(
            farey_points(system), N)]


def test_max_close_points_strict_tie_exclusion():
    # distance exactly 1/2N is excluded
    system = make_system([(0, 1), (1, 4)])
    assert max_close_points(system, [2])[0] == 1
    assert max_close_points(system, [1])[0] == 2


def test_multiplicity_counted():
    system = make_system([(1, 2), (1, 2), (1, 2), (1, 3)])
    assert max_close_points(system, [100])[0] == 3


def test_sliding_window_matches_quadratic_oracle_on_systems():
    for poly, Q in ((P_SUM_SQ, 2), (P_SUM_SQ, 3), (parse_poly("x1^3+2*x2^3"), 2)):
        system = build_farey(poly, Q)
        k = poly.total_degree()
        for N in (Q ** k, 2 * Q ** k, Q ** (2 * k)):
            assert (max_close_points(system, [N])[0]
                    == quadratic_close_count(farey_points(system), N))


franc = st.fractions(min_value=0, max_value=Fraction(99, 100)).map(
    lambda f: f.limit_denominator(40))


@given(st.lists(franc, min_size=1, max_size=40), st.integers(1, 64))
@settings(max_examples=120)
def test_sliding_window_matches_quadratic_oracle_random(vals, N):
    pts = sorted(vals)
    system = make_system([(v.numerator, v.denominator) for v in pts])
    assert max_close_points(system, [N])[0] == quadratic_close_count(pts, N)


def test_wide_window_counts_max_multiplicity():
    system = build_farey(P_SUM_SQ, 2)
    delta = min_spacing(system)
    # once 1/(2N) <= min spacing, only copies of one value can be close
    N = int(1 / (2 * delta)) + 1
    assert Fraction(1, 2 * N) <= delta
    pts = farey_points(system)
    max_mult = max(sum(1 for p in pts if p == v) for v in distinct_points(system))
    assert max_close_points(system, [N])[0] == max_mult


def test_all_pairs_at_least_min_spacing():
    system = build_farey(P_SUM_SQ, 2)
    delta = min_spacing(system)
    vals = distinct_points(system)
    for i, x in enumerate(vals):
        for y in vals[i + 1:]:
            d = abs(x - y)
            assert min(d, 1 - d) >= delta


def test_comparator_value():
    # k=2, ell=2, r=5: Q^(2 + 2/15) * N^(-1/15)
    assert close_points_comparator(2, 2, 2, 64) == pytest.approx(
        2 ** (2 + 2 / 15) * 64 ** (-1 / 15), rel=1e-12)


def test_point_budget(monkeypatch):
    monkeypatch.setattr(farey, "DEFAULT_POINT_BUDGET", 1000)
    with pytest.raises(BudgetError):
        build_farey(P_SUM_SQ, 40)


def test_points_sorted_and_reduced():
    system = build_farey(P_SUM_SQ, 3)
    pts = farey_points(system)
    assert pts == sorted(pts)
    for p in pts:
        assert 0 < p < 1


def test_point_budget_boundary(monkeypatch):
    # the x1^2+x2^2 system at Q=2 has 34 points: at the budget it is built,
    # one below it is refused before any point is allocated
    monkeypatch.setattr(farey, "DEFAULT_POINT_BUDGET", 34)
    assert build_farey(P_SUM_SQ, 2).total_count == 34
    monkeypatch.setattr(farey, "DEFAULT_POINT_BUDGET", 33)
    with pytest.raises(BudgetError, match=r"^farey point set: requires 34, budget is 33$"):
        build_farey(P_SUM_SQ, 2)


def _quadratic_forms(max_ac, max_b):
    """Primitive positive definite a*x1^2 + b*x1*x2 + c*x2^2."""
    for a, c, b in product(range(1, max_ac + 1), range(1, max_ac + 1),
                           range(-max_b, max_b + 1)):
        if b * b < 4 * a * c and np.gcd.reduce([a, abs(b), c]) == 1:
            yield MvPoly(2, {e: v for e, v in (((2, 0), a), ((1, 1), b), ((0, 2), c)) if v})


def test_kernels_match_oracles_on_quadratic_forms():
    rng = random.Random(20261018)
    forms = rng.sample(list(_quadratic_forms(4, 3)), 2)
    for poly, Q in product(forms, (5, 6)):
        system = build_farey(poly, Q)
        pts = farey_points(system)
        vals = sorted(set(pts))
        assert pts == sorted(pts)
        assert (system.distinct_count, system.total_count) == (len(vals), len(pts))
        gaps = [y - x for x, y in zip(vals, vals[1:])] + [vals[0] + 1 - vals[-1]]
        assert min_spacing(system) == min(gaps)
        for N in (1, 2, 3, 16, 256, 4096, 10 ** 6, 10 ** 30):
            assert max_close_points(system, [N])[0] == loop_max_close_points(pts, N), (Q, N)
            if Q == 5 and N < 10 ** 30:
                assert max_close_points(system, [N])[0] == quadratic_close_count_int64(pts, N)


def test_point_budget_keeps_float_sort_keys_exact():
    # build_farey sorts on float keys a/d, exact while every d < 2^26, and every
    # d it keeps has phi(d) <= DEFAULT_POINT_BUDGET.  For n >= 3, n/phi(n) <
    # e^gamma log log n + 3/log log n (Rosser-Schoenfeld 1962), so phi(n) >
    # n / (that bound), which increases with n; at n = 2^26 it must pass the budget.
    loglog = np.log(np.log(2 ** 26))
    assert 2 ** 26 / (np.exp(np.euler_gamma) * loglog + 3 / loglog) > 1.08e7 \
        > farey.DEFAULT_POINT_BUDGET


pair = st.integers(1, 12).flatmap(lambda d: st.tuples(st.integers(0, d - 1), st.just(d)))


@given(st.lists(pair, min_size=1, max_size=12), st.lists(st.integers(0, 11), max_size=12),
       st.integers(1, 80))
@settings(max_examples=200)
def test_kernels_match_oracles_on_repeated_pairs(pairs, repeats, N):
    # denominators up to 12 make every gap a multiple of 1/144, so windows of
    # half-width 1/(2N), N <= 80, often end exactly on a point
    pairs = pairs + [pairs[r % len(pairs)] for r in repeats]
    system = make_system(pairs)
    pts = farey_points(system)
    assert max_close_points(system, [N])[0] == loop_max_close_points(pts, N) \
        == quadratic_close_count(pts, N)
    if system.distinct_count >= 2:
        assert min_spacing(system) == pairwise_min_spacing(distinct_points(system))


@given(st.lists(st.tuples(st.integers(0, 2 ** 40), st.integers(2 ** 40 - 64, 2 ** 40)),
                min_size=2, max_size=8),
       st.sampled_from([1, 2, 3, 2 ** 20, 2 ** 79, 10 ** 30]))
@settings(max_examples=60)
def test_kernels_exact_beyond_int64_guard(pairs, N):
    # products of these denominators overflow int64, so both kernels take the
    # object-int path at every N
    pairs = [(a % d, d) for a, d in pairs]
    system = make_system(pairs)
    pts = farey_points(system)
    assert max_close_points(system, [N])[0] == loop_max_close_points(pts, N) \
        == quadratic_close_count(pts, N)
    if system.distinct_count >= 2:
        assert min_spacing(system) == pairwise_min_spacing(distinct_points(system))


def test_kernels_exact_when_float_keys_collide():
    # Farey neighbours a/d < b/e (b d - a e = 1) near 1/2 with d, e ~ 2^30 and
    # three of their mediants lie about 2^-60 apart, below the float spacing
    # 2^-53 there, so the float keys collide and only the exact steps decide
    d, a = 2 ** 30 + 1, 2 ** 29 + 1
    e = -pow(a, -1, d) % d
    b = (1 + a * e) // d
    pts = [(a, d), (b, e), (a + b, d + e), (2 * a + b, 2 * d + e), (a + 2 * b, d + 2 * e)]
    system = make_system(pts + pts[:2])
    assert len(set((system.a / system.d).tolist())) < system.distinct_count
    fp = farey_points(system)
    for N in (1, d * e // 2, d * e // 2 + 1, d * e, 2 * d * e, 3 * d * e, 10 ** 30):
        assert max_close_points(system, [N])[0] == loop_max_close_points(fp, N) \
            == quadratic_close_count(fp, N), N
    assert min_spacing(system) == pairwise_min_spacing(distinct_points(system))


# -- the grid kernel: one call per grid, each N against the per-N oracles ------

GRID = [4096, 16, 16, 1, 10 ** 30]


def assert_grid_matches_oracles(system, grid, quadratic=True):
    pts = farey_points(system)
    got = max_close_points(system, grid)
    assert got == [loop_max_close_points(pts, N) for N in grid], grid
    if quadratic:
        assert got == [quadratic_close_count(pts, N) for N in grid], grid


def test_grid_kernel_on_unsorted_repeated_grids():
    # 10^30 takes the Python-int path, the other N the int64 one, in one call
    assert_grid_matches_oracles(build_farey(P_SUM_SQ, 2), GRID)
    assert_grid_matches_oracles(build_farey(P_SUM_SQ, 3), GRID, quadratic=False)
    rng = random.Random(20261019)
    for poly in rng.sample(list(_quadratic_forms(4, 3)), 2):
        system = build_farey(poly, 5)
        assert_grid_matches_oracles(system, GRID, quadratic=False)
        assert_grid_matches_oracles(system, GRID[::-1] + [2, 3, 256], quadratic=False)


def test_grid_kernel_reads_numpy_integers_as_python_ints():
    # at N = 10^17 the exact products need Python ints; an int64 N would wrap
    # in the bound 2N (a_max + d_max) d_max and pick the int64 path
    system = make_system([(1, 3), (2, 7), (1, 2), (1, 10 ** 6 + 3), (2, 10 ** 6 + 3)])
    grid = np.array([10 ** 6, 10 ** 12, 10 ** 17])
    assert max_close_points(system, grid) == max_close_points(system, grid.tolist()) \
        == [loop_max_close_points(farey_points(system), N) for N in grid.tolist()] == [1, 1, 1]


def test_grid_kernel_on_an_empty_grid():
    assert max_close_points(make_system([(1, 2)]), []) == []


def test_grid_kernel_on_exact_ties():
    # every k/d with d | 24: at each N of the grid, 2N is a multiple of some d,
    # so points lie exactly 1/(2N) from one another and fall outside
    system = make_system([(a, d) for d in (2, 3, 4, 6, 8, 12, 24) for a in range(d)] * 2)
    pts = farey_points(system)
    grid = [12, 6, 1, 4, 12, 2, 3]
    for N in grid:
        assert any(y - x == Fraction(1, 2 * N) for x in pts for y in pts)
    assert_grid_matches_oracles(system, grid)


def test_grid_kernel_counts_windows_across_zero():
    # at N = 8 only 1/100 sees four points (24/25, 97/100 and 1/25 besides
    # itself), and two of them lie across 0 in its left window
    system = make_system([(1, 100), (97, 100), (24, 25), (1, 25), (1, 2)])
    assert max_close_points(system, [8, 1, 100, 8]) == [4, 5, 1, 4]
    assert_grid_matches_oracles(system, [8, 10, 1, 100, 2, 3, 9])


def _tie_pairs(grid):
    dens = [d for d in range(1, 2 * max(grid) + 1) if any(2 * N % d == 0 for N in grid)]
    return st.lists(st.sampled_from(dens).flatmap(
        lambda d: st.tuples(st.integers(0, d - 1), st.just(d))), min_size=1, max_size=30)


@given(st.lists(st.integers(1, 30), min_size=1, max_size=5).flatmap(
    lambda grid: st.tuples(st.just(grid), _tie_pairs(grid))))
@settings(max_examples=100, deadline=None)
def test_grid_kernel_on_denominators_dividing_2n(case):
    grid, pairs = case
    assert_grid_matches_oracles(make_system(pairs), grid)


def test_grid_kernel_when_float_keys_collide():
    # the mediants of test_kernels_exact_when_float_keys_collide, all N in one grid
    d, a = 2 ** 30 + 1, 2 ** 29 + 1
    e = -pow(a, -1, d) % d
    b = (1 + a * e) // d
    pts = [(a, d), (b, e), (a + b, d + e), (2 * a + b, 2 * d + e), (a + 2 * b, d + 2 * e)]
    system = make_system(pts + pts[:2])
    assert len(set((system.a / system.d).tolist())) < system.distinct_count
    grid = [10 ** 30, d * e, 1, d * e // 2 + 1, d * e // 2, 3 * d * e, d * e, 2 * d * e]
    assert_grid_matches_oracles(system, grid)


@given(st.lists(st.tuples(st.integers(0, 2 ** 40), st.integers(2 ** 40 - 64, 2 ** 40)),
                min_size=2, max_size=8),
       st.lists(st.sampled_from([1, 2, 3, 2 ** 20, 2 ** 79, 10 ** 30]), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_grid_kernel_on_the_object_path(pairs, grid):
    # products of these denominators overflow int64 at every N
    assert_grid_matches_oracles(make_system([(a % d, d) for a, d in pairs]), grid)


@pytest.mark.parametrize("grid, bad", [([0], 0), ([16, 256, -3], -3), ([4096, 0, -1], 0)])
def test_grid_kernel_refuses_n_below_1_before_any_window(grid, bad):
    # neither system can build a window: the N check comes first
    unusable = FareySystem(a=None, d=None, mult=None, distinct_count=3, total_count=3,
                           skipped_unit_moduli=0, skipped_filtered=0)
    for system in (unusable, make_system([])):
        with pytest.raises(ValueError, match=rf"^N must be >= 1, got {bad}$"):
            max_close_points(system, grid)
    with pytest.raises(ValueError, match="^empty Farey system$"):
        max_close_points(make_system([]), [16])


def test_build_farey_matches_the_fraction_oracle():
    rng = random.Random(20261019)
    for poly, Q, min_modulus in product(rng.sample(list(_quadratic_forms(4, 3)), 3), (5, 6),
                                        (None, 40, 60.5)):
        system = build_farey(poly, Q, min_modulus=min_modulus)
        pts, skipped_unit, skipped_filtered = loop_farey_points(poly, Q, min_modulus)
        assert sorted(farey_points(system)) == pts
        assert (system.skipped_unit_moduli, system.skipped_filtered) \
            == (skipped_unit, skipped_filtered)
        if min_modulus is None:
            assert skipped_filtered == 0


def test_build_farey_matches_the_fraction_oracle_with_unit_skips():
    for poly, Q in ((parse_poly("x1^2-x2^2"), 2), (parse_poly("x1-x2"), 3), (P_SUM_SQ, 1)):
        system = build_farey(poly, Q)
        pts, skipped_unit, skipped_filtered = loop_farey_points(poly, Q)
        assert sorted(farey_points(system)) == pts
        assert (system.skipped_unit_moduli, system.skipped_filtered) == (skipped_unit, 0)


def test_farey_memory_at_q16_stays_below_the_two_search_kernel():
    # x1^2+x2^2 at Q = 16 (99,228 distinct points): build_farey and the per-N
    # kernel with two searches and two exact passes peaked at 13.73 MiB traced
    build_farey(P_SUM_SQ, 16)   # factorizations cached, as in a warm process
    tracemalloc.start()
    try:
        max_close_points(build_farey(P_SUM_SQ, 16), [16, 256, 4096])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 13.75 * 2 ** 20
