import itertools
import math
import random
import tracemalloc
import weakref
from fractions import Fraction
from math import fsum

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polysieve.arith as arith
import polysieve.boxes as boxes
import polysieve.bv as bv
import polysieve.cli as cli
from oracles import (character_value, character_values, clear_caches, enumerate_characters,
                     factor_values, loop_discrepancy, loop_discrepancy_sum, loop_psi_chi,
                     loop_sup_abs_psi_chi, prime_value_weight, primitive_character_count,
                     primitive_exponents, von_mangoldt)
from polysieve.arith import euler_phi, von_mangoldt_table
from polysieve.boxes import box_moduli
from polysieve.bv import (ExponentProfile, check_setting, default_eps_bad, discrepancy_sum,
                          exponent_profile, max_progression_discrepancy, mean_value_sum)
from polysieve.characters import CHAR_MODULUS_CAP, DirichletCharacter, unit_group
from polysieve.errors import BudgetError
from polysieve.mvpoly import FactoredPoly, MvPoly, parse_poly
from test_mvpoly import factored_polys

P_SUM_SQ = parse_poly("x1^2+x2^2")
CHAR_MODULI = (*range(3, 41), 97)   # a character table mod d holds d^2 values
STREAM_MODULI = (*CHAR_MODULI, 6683, 10007, 12139)
STREAM_X = (1, 2, 10, 500, 1234.5, 4000)


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
    w = prime_value_weight(factor_values(F, (1, 1, 1, 2)))
    assert w == pytest.approx(math.log(2) * math.log(5), rel=1e-12)
    assert prime_value_weight(factor_values(F, (1, 1, 1, 1))) == 0.0  # P = 4 not squarefree
    assert prime_value_weight((10,)) == 0.0  # 10 is no prime power
    assert prime_value_weight((9,)) == 0.0   # mu^2(9) = 0
    assert prime_value_weight((3,)) == pytest.approx(math.log(3))
    assert prime_value_weight((-5,)) == 0.0  # negative factor value


def test_weight_forces_squarefree_product():
    # equal primes in two factors: P = p^2, weight must vanish
    assert prime_value_weight((3, 3)) == 0.0
    assert prime_value_weight((3, 5)) == pytest.approx(
        math.log(3) * math.log(5), rel=1e-12)


def _disc(m, x):
    """The discrepancy kernel at m, given the primes of m."""
    return max_progression_discrepancy(m, tuple(p for p, _ in arith.factorize(m)), x)


def test_discrepancy_hand_value():
    value = _disc(2, 10)
    assert value == pytest.approx(9 - math.log(105), rel=1e-12)
    assert loop_discrepancy(2, 10) == (value, 1, 9.0, True)
    assert _disc(2, 2) == pytest.approx(2.0)


def test_discrepancy_validation():
    with pytest.raises(ValueError):
        _disc(1, 10)
    with pytest.raises(ValueError):
        _disc(4, 0.5)


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
        assert _disc(m, x) == pytest.approx(
            _discrepancy_oracle(m, x), rel=1e-9)


def _assert_matches_loop(m, x):
    value = _disc(m, x)
    assert type(value) is float   # oracles.assert_plain_json refuses numpy scalars
    assert value == loop_discrepancy(m, x)[0]


@pytest.mark.parametrize("x", STREAM_X)
def test_discrepancy_matches_loop_reference_exactly(x):
    for m in STREAM_MODULI:
        _assert_matches_loop(m, x)


def test_discrepancy_matches_loop_reference_at_a_million():
    m = 10 ** 6 + 3
    _assert_matches_loop(m, 5000)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3000), st.one_of(st.integers(1, 3000), st.floats(1, 3000)))
def test_discrepancy_matches_loop_reference_property(m, x):
    _assert_matches_loop(m, x)


def test_discrepancy_prefixes_are_correctly_rounded():
    # the sup mod 23 up to 500 is the left limit at 463 in class 3: the
    # correctly rounded prefix gives ...478, a compensated running sum ...548
    prefix = fsum(von_mangoldt(t) for t in range(3, 463, 23))
    assert abs(prefix - 463 / 22) == 11.856746473605478
    assert _disc(23, 500) == 11.856746473605478
    assert loop_discrepancy(23, 500) == (11.856746473605478, 3, 463.0, True)


def test_lambda_limit_keeps_the_exact_prefix_sums_in_int64():
    # each L * 2^53 is below 2^58 and the stream has fewer than 2^24 terms,
    # so the cumsums of the 29-bit halves stay below 2^53
    assert arith.LAMBDA_LIMIT < 2 ** 24
    assert math.log(arith.LAMBDA_LIMIT) < 32


@pytest.mark.parametrize("m", [10 ** 9 + 7, 2 ** 61 - 1])
def test_discrepancy_when_every_class_holds_one_term(m):
    # m is a prime above x, so each prime power t <= x is alone in its class:
    # the jump at t goes from t/phi to |log p - t/phi|, and the largest is at
    # the largest prime, 997; every end value at y = x is smaller
    phi = m - 1
    assert _disc(m, 1000) == abs(math.log(997) - 997 / phi)
    # no prime power up to x: only the empty classes at y = x remain
    assert _disc(m, 1.5) == 1.5 / phi


def test_discrepancy_tie_at_x_takes_the_smallest_residue():
    # mod 33 the classes 2 and 32 each hold one power of 2 up to 81, so they
    # tie at y = x; the oracle's scan over residues keeps the first
    value = abs(math.log(2) - 81 / 20)
    assert _disc(33, 81) == value
    assert loop_discrepancy(33, 81) == (value, 2, 81.0, False)


def test_discrepancy_grid_beats_random_probes():
    rng = random.Random(5)
    for m, x in ((6, 300), (11, 120)):
        sup = _disc(m, x)
        phi = euler_phi(m)
        for _ in range(1000):
            y = rng.uniform(0.01, x)
            for a in (1, m - 1):
                psi = fsum(von_mangoldt(n) for n in range(a, int(y) + 1, m))
                assert abs(psi - y / phi) <= sup + 1e-9


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


@pytest.mark.parametrize("x", [0.5, 0, -3])
@pytest.mark.parametrize("P", ["x1^2", "x1^2+x2^2"])
def test_discrepancy_sum_refuses_x_below_one_before_the_box_pass(P, x):
    # no tuple of x1^2 has nonzero weight, so its box never reaches the kernel
    with pytest.raises(ValueError, match=f"^need x >= 1, got {x}$"):
        discrepancy_sum(FactoredPoly([parse_poly(P)]), 2, x)


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


LOOP_SUM_CASES = (
    # (factor texts, Q values, eps_bad)
    (("x1^2+x2^2",), (1, 2, 3), None),
    (("x1^2+x2^2", "x3^2+x3*x4+3*x4^2"), (2,), None),
    (("x1^2-3*x2^2",), (1, 2, 3), 1e-9),   # negative factor values
    (("x1^2",), (1, 2, 3), None),           # no tuple has nonzero weight
    (("x1-x2",), (1, 2, 3), None),          # repeated zero, negative and prime values
    (("x1", "x2"), (1, 2, 3), None),        # equal primes on the diagonal
    (("x1^2", "x2"), (1, 2, 3), None),      # prime powers that are not primes
    (("x1^3", "x2"), (1, 2, 3), None),
    (("x1", "x3"), (1, 2, 3), None),        # x2 is in no factor
    (("x3^2+x4", "x1"), (1, 2, 3), None),   # factors in later variables first
    (("x2", "x1^2+x3"), (1, 2, 3), None),   # interleaved variables
    (("x1", "x2", "x4"), (1, 2, 3), None),
)


def test_discrepancy_sum_matches_loop_reference_exactly():
    # one discrepancy per distinct modulus, weighted by multiplicity, gives
    # the per-tuple loop's report bit for bit
    for texts, Qs, eps_bad in LOOP_SUM_CASES:
        F = FactoredPoly([parse_poly(t) for t in texts])
        for Q in Qs:
            for x in (10.0, 200.0, 2000.0):
                assert (discrepancy_sum(F, Q, x, eps_bad=eps_bad)
                        == loop_discrepancy_sum(F, Q, x, eps_bad=eps_bad))


@given(factored_polys(), st.data())
@settings(max_examples=60, deadline=None)
def test_discrepancy_sum_matches_loop_reference_on_factored_polys(F, data):
    # the product of the factors' boxes against the walk over the whole box
    Q = data.draw(st.integers(1, max(Q for Q in range(1, 28) if Q ** F.num_vars <= 729)))
    try:
        expected = loop_discrepancy_sum(F, Q, 200.0)
    except BudgetError:   # the oracle factors products of prime powers past 2^63
        assume(False)
    assert discrepancy_sum(F, Q, 200.0) == expected


def test_discrepancy_sum_evaluates_each_factor_on_its_own_box(monkeypatch):
    # sum_j Q^(l_j) points, not m * Q^l: x3 is in no factor
    sizes, grid = [], MvPoly.grid
    monkeypatch.setattr(MvPoly, "grid", lambda self, axes: sizes.append(
        math.prod(map(len, axes))) or grid(self, axes))
    F = FactoredPoly([P_SUM_SQ, parse_poly("x4^2+x4*x5+3*x5^2"), parse_poly("x6")])
    rep = discrepancy_sum(F, 3, 200.0)
    assert sizes == [9, 9, 3]
    assert rep.box_size == 3 ** 6
    assert rep == loop_discrepancy_sum(F, 3, 200.0)


def test_discrepancy_sum_calls_the_kernel_once_per_distinct_modulus(monkeypatch):
    # a pool bv-sum op: the per-modulus hooks of the benchmark tracer count
    # calls of bv.max_progression_discrepancy
    F = FactoredPoly([P_SUM_SQ, parse_poly("x3^2+x3*x4+3*x4^2")])
    calls = []
    kernel = bv.max_progression_discrepancy
    monkeypatch.setattr(bv, "max_progression_discrepancy",
                        lambda m, primes, x: calls.append(m) or kernel(m, primes, x))
    rep = discrepancy_sum(F, 4, 5000.0)
    moduli = set()
    for q in itertools.product(range(4, 8), repeat=4):
        vals = factor_values(F, q)
        if abs(math.prod(vals)) > Fraction(rep.eps_bad) * 4 ** 4 and prime_value_weight(vals):
            moduli.add(math.prod(vals))
    assert rep.nonzero_weight_tuples > len(moduli) > 1
    assert sorted(calls) == sorted(moduli)


def test_a_bv_sum_ops_kernel_runs_call_neither_factorize_nor_euler_phi(monkeypatch, capsys):
    # discrepancy_sum hands each distinct modulus the primes it multiplied
    inside, kernel, runs, seen = [], bv.max_progression_discrepancy, [], []

    def run(*args):
        inside.append(args)
        try:
            return kernel(*args)
        finally:
            runs.append(inside.pop())

    def spy(name, real):
        def call(n):
            if inside:
                seen.append((name, n))
            return real(n)
        return call

    clear_caches()
    for module in (arith, bv):
        for name in ("factorize", "euler_phi"):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    monkeypatch.setattr(bv, "max_progression_discrepancy", run)
    assert cli.main(["bv-sum", "--P", "x1", "--P", "x2+6", "--Q", "16", "--x", "2000"]) == 0
    capsys.readouterr()
    assert len(runs) == 14 and kernel.cache_info().misses == 14   # every kernel body ran
    assert all(m == math.prod(primes) for m, primes, _ in runs)
    assert seen == []


# at Q = 16 the factor values are 16..31 and 22..37: the 10 weighted moduli of
# F_PRIMES are products of two of 17, 19, 23, 29, 31, and F_SHIFTED shares 9 of them
F_PRIMES = FactoredPoly([parse_poly("x1"), parse_poly("x2")])
F_SHIFTED = FactoredPoly([parse_poly("x1"), parse_poly("x2+6")])


def _recorded_kernel(monkeypatch):
    calls, kernel = [], bv.max_progression_discrepancy
    monkeypatch.setattr(bv, "max_progression_discrepancy",
                        lambda m, primes, x: calls.append((m, x)) or kernel(m, primes, x))
    return calls, kernel


INTERLEAVED = [(F_PRIMES, 500.0), (F_SHIFTED, 2000.0), (F_PRIMES, 2000.0), (F_SHIFTED, 500.0),
               (F_SHIFTED, 4000.0), (F_PRIMES, 4000.0), (F_SHIFTED, 2000.0)]


@pytest.mark.parametrize("ops", [
    [(F_PRIMES, x) for x in (500.0, 1000.0, 2000.0, 4000.0)],   # up
    [(F_PRIMES, x) for x in (4000.0, 2000.0, 1000.0, 500.0)],   # down
    [(F_PRIMES, x) for x in (1000.0, 1000.0, 1234.5, 1234.5, 1000.0)],   # repeated
    INTERLEAVED,
    random.Random(7).sample(INTERLEAVED * 2, 14),   # shuffled
])
def test_discrepancy_sum_sweeps_are_bit_equal_to_cold_ops(monkeypatch, ops):
    expected = []
    for F, x in ops:
        clear_caches()
        expected.append(discrepancy_sum(F, 16, x))
    clear_caches()
    calls, kernel = _recorded_kernel(monkeypatch)
    assert [discrepancy_sum(F, 16, x) for F, x in ops] == expected
    # the body ran once per distinct (m, x): every repeat was a hit
    info = kernel.cache_info()
    assert (info.misses, info.hits) == (len(set(calls)), len(calls) - len(set(calls)))
    # and each factor box was built once: x2 over its own variable is x1, so
    # F_PRIMES reads the box of x1 twice per op and F_SHIFTED those of x1 and
    # x1 + 6, and the memo keeps both
    built = 1 if all(F is F_PRIMES for F, _ in ops) else 2
    assert boxes.box_values.cache_info()[:2] == (2 * len(ops) - built, built)   # (hits, misses)


def test_the_box_memo_is_keyed_on_the_factor_box_and_q(monkeypatch):
    clear_caches()
    memo = boxes.box_values
    # FACTOR_LIMIT is read at call time: the same call, refused at the
    # discrepancy work before any modulus was factorized, is refused at the
    # first weighted modulus past a lowered limit, 17 * 29, with no cache cleared
    monkeypatch.setattr(bv, "DISCREPANCY_BUDGET", 0)
    with pytest.raises(BudgetError, match="^discrepancy work"):
        discrepancy_sum(F_PRIMES, 16, 100.0)
    monkeypatch.setattr(arith, "FACTOR_LIMIT", 400)
    with pytest.raises(BudgetError) as err:
        discrepancy_sum(F_PRIMES, 16, 100.0)
    assert str(err.value) == "factorization argument: requires 493, budget is 400"
    assert memo.cache_info()[:2] == (3, 1)   # (hits, misses)
    monkeypatch.undo()
    # another x, another eps_bad or another threshold (0 at Q = 16 by
    # default and at 1e-9, 128 at 0.5) reads the kept box of x1
    for x, eps_bad in ((100.0, None), (200.0, None), (100.0, 1e-9), (100.0, 0.5)):
        discrepancy_sum(F_PRIMES, 16, x, eps_bad=eps_bad)
    assert memo.cache_info()[:2] == (11, 1)
    # so does a factor moved to other variables in the same order ...
    discrepancy_sum(FactoredPoly([parse_poly("x2"), parse_poly("x1")]), 16, 100.0)
    assert memo.cache_info()[:2] == (13, 1)
    # ... but another Q builds anew, and so does a factor whose variables
    # come in another order: x3^2 + 3*x2 is x2^2 + 3*x1 over its own
    # variables, while x4 reads the box of x1 at Q = 4 again
    discrepancy_sum(F_PRIMES, 8, 100.0)
    assert memo.cache_info()[:2] == (14, 2)
    for text in ("x1^2+3*x2", "x3^2+3*x2"):
        discrepancy_sum(FactoredPoly([parse_poly(text), parse_poly("x4")]), 4, 100.0)
    assert memo.cache_info()[:2] == (15, 5)


@pytest.mark.parametrize("op, built", [
    (lambda x: discrepancy_sum(FactoredPoly([parse_poly("x1"), parse_poly("x2+6")]), 16, x), 2),
    (lambda x: mean_value_sum(parse_poly("x1^2+x2^2"), 4, x), 1),
], ids=["bv-sum", "meanvalue-sum"])
def test_equal_polynomials_parsed_per_op_read_the_kept_boxes(op, built):
    # a CLI op parses its polynomial anew; MvPoly keys the memo by value
    clear_caches()
    reports = [op(x) for x in (100.0, 200.0, 100.0)]
    assert reports[0] == reports[2] != reports[1]
    assert boxes.box_values.cache_info()[:2] == (2 * built, built)   # (hits, misses)


def test_shifted_and_unshifted_primes_share_moduli(monkeypatch):
    calls, _ = _recorded_kernel(monkeypatch)
    discrepancy_sum(F_PRIMES, 16, 100.0)
    ours = set(calls)
    calls.clear()
    discrepancy_sum(F_SHIFTED, 16, 100.0)
    assert (len(ours), len(ours & set(calls))) == (10, 9)


def test_the_discrepancy_memo_keys_x_and_its_type():
    # 5000.0, 5000.5 and 5000 read the same stream; each is its own entry
    xs = (5000.0, 5000.5, 5000)
    expected = []
    for x in xs:
        clear_caches()
        expected.append(discrepancy_sum(F_PRIMES, 16, x))
    clear_caches()
    assert [discrepancy_sum(F_PRIMES, 16, x) for x in xs] == expected
    info = bv.max_progression_discrepancy.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 30, 30)


def test_the_discrepancy_memo_holds_at_most_its_maxsize():
    kernel = bv.max_progression_discrepancy
    assert kernel.cache_info().maxsize == 1 << 12
    kernel.cache_clear()
    for i in range(kernel.cache_info().maxsize + 100):
        kernel(3, (3,), 1 + i / 4)
    assert kernel.cache_info().currsize == kernel.cache_info().maxsize


def test_a_refused_call_reaches_the_kernel_every_time(monkeypatch):
    kernel = bv.max_progression_discrepancy
    clear_caches()
    monkeypatch.setattr(arith, "FACTOR_LIMIT", 400)
    arith.factorize.cache_clear()   # so 493 = 17 * 29 meets the limit
    # the kernel reads no factorization: past LAMBDA_LIMIT its stream refuses
    for i, (m, primes, x, error) in enumerate([(1003, (17, 59), 1e8, BudgetError)] * 2
                                              + [(97, (97,), 0.5, ValueError)] * 2):
        with pytest.raises(error):
            kernel(m, primes, x)
        assert (kernel.cache_info().misses, kernel.cache_info().currsize) == (i + 1, 0)
    # in tuple order (17, 19), (17, 23), then 17 * 29 is the first past the limit;
    # DISCREPANCY_BUDGET would refuse too, and is checked after it
    monkeypatch.setattr(bv, "DISCREPANCY_BUDGET", 0)
    for _ in range(2):
        with pytest.raises(BudgetError) as err:
            discrepancy_sum(F_PRIMES, 16, 100.0)
        assert str(err.value) == "factorization argument: requires 493, budget is 400"
    assert kernel.cache_info().currsize == 0


def test_discrepancy_work_is_distinct_weighted_moduli_times_stream_terms(monkeypatch):
    def refuse(*args):
        raise AssertionError("the discrepancy kernel ran")

    F_FORMS = FactoredPoly([P_SUM_SQ, parse_poly("x3^2+x3*x4+3*x4^2")])
    for F, Q, x in ((F_PRIMES, 16, 5000.0), (F_SHIFTED, 16, 100.5), (F_FORMS, 4, 5000.0)):
        clear_caches()
        calls, _ = _recorded_kernel(monkeypatch)
        expected = discrepancy_sum(F, Q, x)
        work = len(calls) * len(von_mangoldt_table(int(x))[0])
        monkeypatch.undo()
        errors = []
        for warm in (False, True):   # the memo holds every modulus of the op, or none
            if not warm:
                clear_caches()
            monkeypatch.setattr(bv, "DISCREPANCY_BUDGET", work)
            assert discrepancy_sum(F, Q, x) == expected   # admitted at the budget
            monkeypatch.setattr(bv, "DISCREPANCY_BUDGET", work - 1)
            monkeypatch.setattr(bv, "max_progression_discrepancy", refuse)
            with pytest.raises(BudgetError) as err:
                discrepancy_sum(F, Q, x)
            errors.append(str(err.value))
            monkeypatch.undo()
        assert errors == [f"discrepancy work: requires {work}, budget is {work - 1}"] * 2


@pytest.mark.parametrize("limit, first", [(28, "lambda"), (18, "factor")])
def test_lambda_limit_and_factor_limit_refuse_at_the_first_weighted_or_offending_tuple(
        monkeypatch, limit, first):
    # F_PRIMES at Q = 16 in tuple order: (17, 19) is the first weighted tuple;
    # under a FACTOR_LIMIT of 28, (17, 29) is the first offending one, after
    # it, and under 18, (17, 19) itself offends first, at its value 19
    monkeypatch.setattr(arith, "FACTOR_LIMIT", limit)
    monkeypatch.setattr(arith, "LAMBDA_LIMIT", 50)
    arith.factorize.cache_clear()
    factor_error = f"factorization argument: requires {limit + 1}, budget is {limit}"
    for warm in (False, True, True):
        if not warm:
            clear_caches()
        with pytest.raises(BudgetError) as err:
            discrepancy_sum(F_PRIMES, 16, 100.0)
        assert str(err.value) == (factor_error if first == "factor" else
                                  "von Mangoldt table limit: requires 100, budget is 50")
        with pytest.raises(BudgetError) as err:   # within LAMBDA_LIMIT
            discrepancy_sum(F_PRIMES, 16, 40.0)
        assert str(err.value) == factor_error
    arith.factorize.cache_clear()


def test_discrepancy_sum_matches_loop_reference_past_int64():
    # factor values near 2^40, products and thresholds near 2^80: the counts
    # run on Python ints; no weighted modulus reaches the kernel, which
    # would refuse it; 4.47750303574005e22 * 3^3 lies between the 5th and 6th product
    F = FactoredPoly([parse_poly("x1+1099511627774"), parse_poly("2*x2^2+1099511627774")])
    for eps_bad in (1e-9, 2.0 ** 65, 4.47750303574005e22, 1e30):
        rep = discrepancy_sum(F, 3, 200.0, eps_bad=eps_bad)
        assert rep == loop_discrepancy_sum(F, 3, 200.0, eps_bad=eps_bad)
    assert discrepancy_sum(F, 3, 200.0, eps_bad=4.47750303574005e22).excluded_small == 5


def test_discrepancy_work_without_a_weighted_tuple_is_zero(monkeypatch):
    # no value of x1^2 is prime, so neither the stream nor the budget is read
    monkeypatch.setattr(bv, "DISCREPANCY_BUDGET", 0)
    rep = discrepancy_sum(FactoredPoly([parse_poly("x1^2"), parse_poly("x2")]), 4, 1e12)
    assert (rep.value, rep.nonzero_weight_tuples) == (0.0, 0)


def test_a_weighted_modulus_past_2_63_is_refused_before_the_discrepancy_work(monkeypatch):
    monkeypatch.setattr(bv, "DISCREPANCY_BUDGET", 0)
    F = FactoredPoly([parse_poly("x1+1099511627776"), parse_poly("x2+1099511628000")])
    with pytest.raises(BudgetError) as err:
        discrepancy_sum(F, 64, 100.0)
    assert str(err.value) == ("factorization argument: requires 1208925820054433825845967, "
                              f"budget is {arith.FACTOR_LIMIT}")


def test_a_threshold_between_2_63_and_2_64_is_counted_on_python_ints():
    # floor(10^19 * 1^2) = 10^19 is past int64, so _at_most's bounds are Python ints
    rep = discrepancy_sum(F_PRIMES, 1, 10, eps_bad=1e19)
    assert rep == loop_discrepancy_sum(F_PRIMES, 1, 10, eps_bad=1e19)
    assert rep.excluded_small == 1


def test_discrepancy_sum_threshold_boundary():
    # values of x1^2+x2^2 on {2, 3}^2 are 8, 13, 13, 18; eps_bad * Q^2 = 13
    # excludes the 13s, and so does the next float up; the next float down
    # keeps them
    F = FactoredPoly([P_SUM_SQ])
    for eps_bad, excluded in ((3.25, 3), (math.nextafter(3.25, math.inf), 3),
                              (math.nextafter(3.25, 0), 1)):
        rep = discrepancy_sum(F, 2, 200.0, eps_bad=eps_bad)
        assert rep.excluded_small == excluded
        assert rep == loop_discrepancy_sum(F, 2, 200.0, eps_bad=eps_bad)


def test_discrepancy_sum_negative_tuple_reporting():
    F = FactoredPoly([parse_poly("x1^2-3*x2^2")])  # negative on part of the box
    rep = discrepancy_sum(F, 2, 50.0, eps_bad=1e-9)
    assert rep.negative_factor_tuples >= 1
    assert rep.value >= 0.0


def test_at_most_counts_repeated_values_as_the_brute_force_does():
    # discrepancy_sum passes each factor's nonzero |values| sorted, not merged,
    # so a value may repeat with a count each time
    rng = random.Random(3)
    for _ in range(3000):
        sets = []
        for _ in range(rng.randint(1, 3)):
            values = sorted(rng.randint(1, 12) for _ in range(rng.randint(0, 5)))
            counts = [rng.randint(1, 4) for _ in values]
            sets.append((np.array(values, np.int64), np.array(counts, np.int64)))
        bound = rng.randint(0, 300)
        expected = 0
        for t in itertools.product(*(zip(v.tolist(), c.tolist()) for v, c in sets)):
            if math.prod(n for n, _ in t) <= bound:
                expected += math.prod(c for _, c in t)
        assert bv._at_most(sets, bound) == expected


def test_mean_value_examples():
    assert mean_value_sum(P_SUM_SQ, 1, 10).value == 0.0  # no primitive chi mod 2
    for x in (1.9, 0.5, -3):   # any x below 2 sums no prime power
        assert mean_value_sum(P_SUM_SQ, 2, x).value == 0.0
    got = mean_value_sum(P_SUM_SQ, 2, 10).value
    assert got > 0


def test_mean_value_moduli_are_the_box_fold():
    for P in (P_SUM_SQ, parse_poly("x1^2-x2^2")):
        rep = mean_value_sum(P, 2, 10)
        moduli, unit, _, _ = box_moduli(P, 2)
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
            sup = max(abs(loop_psi_chi(y, chi)) for y in range(2, int(x) + 1))
            per_mod += sup
        expected += mult * d / euler_phi(d) * per_mod
    assert mean_value_sum(P_SUM_SQ, 2, x).value == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("x", STREAM_X)
def test_mean_value_matches_loop_reference_exactly(x):
    for d in (*CHAR_MODULI, 64, 128, 120, 194, 243, 343):
        P = parse_poly(f"x1+{d - 1}")   # Q = 1 boxes the single point q = 1
        sups = [loop_sup_abs_psi_chi(chi, x) for chi in enumerate_characters(d)
                if chi.is_primitive]
        expected = fsum([1 * d / euler_phi(d) * fsum(sups)] if sups else [])
        assert mean_value_sum(P, 1, x).value == expected


def _multiplicities(d):
    # one stream term n = 1 with weight 1: each sup is 1, times its multiplicity
    return bv._primitive_sups(d, np.array([1]), np.array([1.0]))[0]


def test_mean_value_reference_moduli_span_several_blocks():
    # mod 343 at x = 4000, checked above, runs its 126 conjugate representatives
    # in several character blocks
    T, _ = von_mangoldt_table(4000)
    terms = int(np.sum(T % 7 != 0))
    reps = len(_multiplicities(343))
    assert reps == 126 and reps * terms > 3 * bv._SUP_BLOCK


def _conjugate(chi):
    return DirichletCharacter(chi.group, tuple(
        -c % comp.order for c, comp in zip(chi.exponents, chi.group.components)))


def test_conjugate_characters_have_bit_equal_loop_sups():
    for d in (*CHAR_MODULI, 64, 128, 243):
        for chi in enumerate_characters(d):
            if chi.is_primitive and chi.exponents < _conjugate(chi).exponents:
                assert loop_sup_abs_psi_chi(chi, 4000) == \
                    loop_sup_abs_psi_chi(_conjugate(chi), 4000)


def test_conjugate_pairs_count_twice_and_real_characters_once():
    for d in (*CHAR_MODULI, 64, 128, 243, 343):
        mult = _multiplicities(d)
        real = [chi for chi in enumerate_characters(d)
                if chi.is_primitive and _conjugate(chi) == chi]
        assert set(mult) <= {1.0, 2.0}
        assert sum(mult) == len(primitive_exponents(unit_group(d)))
        assert mult.count(1.0) == len(real)
    assert _multiplicities(8).count(1.0) == 2
    assert all(_multiplicities(p).count(1.0) == 1 for p in (3, 5, 7, 11, 13, 97))


# Weights on the stream 1, 2, 3, 4 mod 5 whose prefixes 2 and 4 under the
# complex primitive character chi(2) = i have s = re^2 + im^2 equal or 1 ulp
# apart, with the larger hypot at the other prefix than the larger s.
NEAR_TIED_WEIGHTS = ([5.476804259388571, 5.763809441770934, 1.234690400788101, 12.011631333559034],
                     [1.0019952973926836, 5.342838598015057, 2.094389177004455, 5.360606913443423])


@pytest.mark.parametrize("weights", NEAR_TIED_WEIGHTS)
def test_sup_is_the_largest_hypot_among_near_tied_prefixes(weights):
    T, L = np.arange(1, 5), np.array(weights)
    rows, real = unit_group(5).primitive_pairs
    assert rows.tolist() == [[1], [2]] and real == 1   # chi(2) = i, then the real chi
    c = np.cumsum(character_values(DirichletCharacter(unit_group(5), (1,)))[T] * L)[None, :]
    s = c.real * c.real + c.imag * c.imag
    h = np.hypot(c.real, c.imag)
    assert abs(s[0, 1] - s[0, 3]) <= np.spacing(s.max()) and s.max() in (s[0, 1], s[0, 3])
    assert np.argmax(s) != np.argmax(h)
    assert bv._primitive_sups(5, T, L)[0][0] == 2 * h.max(axis=1)[0]


def test_mean_value_work_is_primitive_characters_times_stream_terms(monkeypatch):
    def refuse(*args):
        raise AssertionError("the character kernel ran")

    T, _ = von_mangoldt_table(500)
    cases = [(parse_poly(f"x1+{d - 1}"), 1) for d in (2, 4, 8, 32, 27, 120, 194, 343, 6683)]
    for P, Q in (*cases, (P_SUM_SQ, 4)):   # the box of x1^2+x2^2 holds 10 moduli
        moduli, _, _, _ = box_moduli(P, Q)
        work = len(T) * sum(primitive_character_count(d, euler_phi) for d in moduli)
        monkeypatch.setattr(bv, "MEAN_VALUE_BUDGET", work)
        mean_value_sum(P, Q, 500)   # admitted at the budget
        monkeypatch.setattr(bv, "MEAN_VALUE_BUDGET", work - 1)
        monkeypatch.setattr(bv, "_primitive_sups", refuse)
        with pytest.raises(BudgetError) as err:
            mean_value_sum(P, Q, 500)
        assert str(err.value) == f"mean value work: requires {work}, budget is {work - 1}"
        monkeypatch.undo()


def test_mean_value_names_the_smallest_modulus_above_the_cap_before_the_work(monkeypatch):
    # moduli 99996..100011: the cap comes first, at 100001, before any kernel call
    monkeypatch.setattr(bv, "MEAN_VALUE_BUDGET", 0)
    monkeypatch.setattr(bv, "_primitive_sups", None)
    with pytest.raises(BudgetError) as err:
        mean_value_sum(parse_poly(f"x1+{CHAR_MODULUS_CAP - 20}"), 16, 10)
    assert str(err.value) == f"character modulus: requires 100001, budget is {CHAR_MODULUS_CAP}"


def _cold(P, Q, x):
    clear_caches()   # no group, so no carry and no total, survives
    return mean_value_sum(P, Q, x).value


P_MOD_97 = parse_poly("x1+96")   # Q = 1 boxes the single modulus 97


@pytest.mark.parametrize("xs", [
    (500, 1000, 2000, 4000),     # up
    (4000, 2000, 1000, 500),     # down: each op starts cold
    (1000, 1000, 1234.5, 1234.5, 1000),   # repeated and same-stream x
    (10, 4000, 2, 700, 1, 3000),
])
def test_mean_value_sweep_is_bit_equal_to_cold_ops(xs):
    expected = [_cold(P_SUM_SQ, 4, x) for x in xs]
    clear_caches()
    assert [mean_value_sum(P_SUM_SQ, 4, x).value for x in xs] == expected


def test_mean_value_sweeps_interleaved_over_shared_moduli_are_bit_equal_to_cold_ops():
    # x1+x2 at Q = 16 (moduli 32..62) and x1^2+x2^2 at Q = 4 share 32, 41, 50, 52 and 61
    X1_X2 = parse_poly("x1+x2")
    assert set(box_moduli(X1_X2, 16)[0]) & set(box_moduli(P_SUM_SQ, 4)[0]) == {32, 41, 50, 52, 61}
    ops = [(P_SUM_SQ, 4, 500), (X1_X2, 16, 2000), (P_SUM_SQ, 4, 1000), (X1_X2, 16, 700),
           (P_SUM_SQ, 4, 4000), (X1_X2, 16, 4000), (P_SUM_SQ, 4, 2000)]
    expected = [_cold(*op) for op in ops]
    clear_caches()
    assert [mean_value_sum(*op).value for op in ops] == expected


def test_resumed_kernel_sups_are_bit_equal_to_cold_sups():
    # a carry past the stream, as 4000's at 500, starts empty
    for d in (5, 8, 97, 120, 243, 343, 6683):
        for xs in ((500, 1000, 4000), (4000, 500, 4000)):
            expected = [bv._primitive_sups(d, *von_mangoldt_table(x))[0] for x in xs]
            got, carry = [], None
            for x in xs:
                sups, carry = bv._primitive_sups(d, *von_mangoldt_table(x), carry)
                got.append(sups)
            assert got == expected


def test_a_resumed_op_reads_the_carry_and_sums_only_new_terms():
    expected = _cold(P_MOD_97, 1, 2000)
    clear_caches()
    mean_value_sum(P_MOD_97, 1, 500)
    k, psi, sups = unit_group(97).sup_carry
    T, _ = von_mangoldt_table(500)
    assert k == np.count_nonzero(T % 97) and k > 0
    unit_group(97).sup_carry = k, np.zeros_like(psi), sups   # psi after k terms forgotten
    bv._mean_value_total.cache_clear()   # so the op runs the kernel on the edited carry
    assert mean_value_sum(P_MOD_97, 1, 2000).value != expected
    unit_group(97).sup_carry = k, psi, sups
    bv._mean_value_total.cache_clear()
    assert mean_value_sum(P_MOD_97, 1, 2000).value == expected


def test_mean_value_carry_resumes_across_a_lambda_table_rebuild(monkeypatch):
    expected = [_cold(P_SUM_SQ, 4, x) for x in (500, 3000)]
    clear_caches()
    monkeypatch.setattr(arith, "_lambda_stream", None)
    assert mean_value_sum(P_SUM_SQ, 4, 500).value == expected[0]
    stream = arith._lambda_stream
    assert stream[0] == 500 and unit_group(41).sup_carry[0] > 0   # 41 = 4^2 + 5^2
    assert mean_value_sum(P_SUM_SQ, 4, 3000).value == expected[1]
    assert arith._lambda_stream[0] == 3000 and arith._lambda_stream[1] is not stream[1]


def test_mean_value_carry_holds_24_bytes_per_pair_row_and_goes_with_its_group():
    expected = _cold(P_MOD_97, 1, 2000)
    clear_caches()
    mean_value_sum(P_MOD_97, 1, 500)
    group = weakref.ref(unit_group(97))
    k, psi, sups = group().sup_carry
    assert (psi.dtype, sups.dtype) == (np.complex128, np.float64)
    assert psi.nbytes + sups.nbytes == 24 * len(group().primitive_pairs[0])
    del k, psi, sups
    for m in range(200, 200 + unit_group.cache_info().maxsize):   # evicts mod 97
        unit_group(m)
    assert group() is None   # and its carry with it
    assert mean_value_sum(P_MOD_97, 1, 2000).value == expected   # starts cold


@pytest.mark.parametrize("x", [4, 7, 2000])   # 3, 4 and 329 coprime terms carried
def test_a_foreign_stream_neither_reads_nor_writes_the_carry(x):
    # the 4-term stream mod 5 of test_sup_is_the_largest_hypot_among_near_tied_prefixes,
    # between two sweep ops over the modulus 5
    P = parse_poly("x1+4")
    T, L = np.arange(1, 5), np.array(NEAR_TIED_WEIGHTS[0])
    foreign, expected = bv._primitive_sups(5, T, L), _cold(P, 1, 4000)
    clear_caches()
    mean_value_sum(P, 1, x)
    carry = unit_group(5).sup_carry
    before = [a.tobytes() for a in carry[1:]]
    assert bv._primitive_sups(5, T, L)[0] == foreign[0]   # no carry passed
    assert unit_group(5).sup_carry is carry and [a.tobytes() for a in carry[1:]] == before
    assert mean_value_sum(P, 1, 4000).value == expected


def test_a_kernel_call_that_raises_leaves_the_carry_valid(monkeypatch):
    expected = _cold(P_MOD_97, 1, 4000)
    clear_caches()
    mean_value_sum(P_MOD_97, 1, 500)
    carry = unit_group(97).sup_carry
    before = [a.tobytes() for a in carry[1:]]
    hypot, calls = np.hypot, []

    def fail_at_the_third_block(*args):
        calls.append(args)
        if len(calls) == 3:
            raise MemoryError
        return hypot(*args)

    monkeypatch.setattr(bv, "_SUP_BLOCK", 2 ** 10)   # 2 rows a block for the 475 new terms
    monkeypatch.setattr(np, "hypot", fail_at_the_third_block)
    with pytest.raises(MemoryError):
        mean_value_sum(P_MOD_97, 1, 4000)
    monkeypatch.undo()
    assert unit_group(97).sup_carry is carry
    assert [a.tobytes() for a in carry[1:]] == before
    assert bv._mean_value_total.cache_info().currsize == 1   # only x = 500's total
    assert mean_value_sum(P_MOD_97, 1, 4000).value == expected


def test_unit_group_budget_is_the_sum_of_the_distinct_moduli(monkeypatch):
    def refuse(*args):
        raise AssertionError("a unit group was built")

    for P, Q in ((P_MOD_97, 1), (P_SUM_SQ, 4), (parse_poly("x1+3000"), 8)):
        size = sum(box_moduli(P, Q)[0])
        monkeypatch.setattr(bv, "UNIT_GROUP_BUDGET", size)
        mean_value_sum(P, Q, 500)   # admitted at the budget
        monkeypatch.setattr(bv, "UNIT_GROUP_BUDGET", size - 1)
        monkeypatch.setattr(bv, "unit_group", refuse)
        with pytest.raises(BudgetError) as err:
            mean_value_sum(P, Q, 500)
        assert str(err.value) == f"sum of unit group moduli: requires {size}, budget is {size - 1}"
        monkeypatch.setattr(bv, "MEAN_VALUE_BUDGET", 0)   # checked first
        with pytest.raises(BudgetError) as err:
            mean_value_sum(P, Q, 500)
        assert str(err.value).startswith("mean value work: requires ")
        monkeypatch.undo()


def test_mean_value_refusals_do_not_depend_on_cached_groups_or_carries(monkeypatch):
    size = sum(box_moduli(P_SUM_SQ, 4)[0])
    errors = []
    for warm in (False, True):
        clear_caches()
        if warm:
            for x in (500, 1000, 2000):
                mean_value_sum(P_SUM_SQ, 4, x)
        for name, budget in (("UNIT_GROUP_BUDGET", size - 1), ("MEAN_VALUE_BUDGET", 1)):
            monkeypatch.setattr(bv, name, budget)
            with pytest.raises(BudgetError) as err:
                mean_value_sum(P_SUM_SQ, 4, 2000)
            errors.append((warm, str(err.value)))
        monkeypatch.undo()
    assert [e for w, e in errors if w] == [e for w, e in errors if not w]


X1_X2 = parse_poly("x1+x2")   # at Q = 16 the moduli 32..62, 5 of them shared with P_SUM_SQ


def _recorded_sups(monkeypatch):
    calls, kernel = [], bv._primitive_sups
    monkeypatch.setattr(bv, "_primitive_sups", lambda d, T, L, carry=None: calls.append(
        (d, len(T))) or kernel(d, T, L, carry))
    return calls


def test_mean_value_sweeps_run_the_kernel_once_per_modulus_and_stream_length(monkeypatch):
    ops = [(P_SUM_SQ, 4, 500), (X1_X2, 16, 2000), (P_SUM_SQ, 4, 1000), (X1_X2, 16, 500),
           (P_SUM_SQ, 4, 500.5), (X1_X2, 16, 4000), (P_SUM_SQ, 4, 2000), (X1_X2, 16, 1000),
           (P_SUM_SQ, 4, 4000), (X1_X2, 16, 2000)]
    expected = [_cold(*op) for op in ops]
    clear_caches()
    calls = _recorded_sups(monkeypatch)
    assert [mean_value_sum(*op).value for op in ops] == expected
    wanted = {(d, len(von_mangoldt_table(int(x))[0]))
              for P, Q, x in ops for d in box_moduli(P, Q)[0] if d % 4 != 2}
    assert sorted(calls) == sorted(wanted)   # no pair twice: the rest were hits
    # 34 = 2 (mod 4) has no primitive character: no kernel call and no memo entry
    assert 34 in box_moduli(X1_X2, 16)[0] and 34 not in {d for d, _ in calls}
    assert bv._mean_value_total.cache_info().currsize == len(wanted)


def test_mean_value_builds_no_group_kernel_or_total_for_moduli_2_mod_4(monkeypatch):
    x = 100
    moduli = box_moduli(P_SUM_SQ, 2)[0]
    assert moduli == {8: 1, 13: 2, 18: 1}   # 18 = 2 (mod 4)
    reference = fsum(mult * d / euler_phi(d) * fsum(
        loop_sup_abs_psi_chi(chi, x) for chi in enumerate_characters(d) if chi.is_primitive)
        for d, mult in moduli.items())
    cold = _cold(P_SUM_SQ, 2, x)
    terms = len(von_mangoldt_table(x)[0])
    clear_caches()
    groups, group = [], bv.unit_group
    monkeypatch.setattr(bv, "unit_group", lambda d: groups.append(d) or group(d))
    calls = _recorded_sups(monkeypatch)
    assert mean_value_sum(P_SUM_SQ, 2, x).value == cold == reference
    assert set(groups) == {8, 13} and unit_group.cache_info().currsize == 2
    assert sorted(calls) == [(8, terms), (13, terms)]
    assert bv._mean_value_total.cache_info().currsize == 2


def test_the_totals_memo_holds_at_most_its_maxsize(monkeypatch):
    total = bv._mean_value_total
    assert total.cache_info().maxsize == 1 << 12
    clear_caches()
    for limit in range(total.cache_info().maxsize + 100):   # mod 3: one character
        total(3, limit)
    assert total.cache_info().currsize == total.cache_info().maxsize
    calls = _recorded_sups(monkeypatch)
    total(3, 0)   # dropped first, so the kernel runs again
    assert calls == [(3, 0)]


def test_unit_group_cache_clear_drops_the_carry_but_not_the_totals(monkeypatch):
    clear_caches()
    value = mean_value_sum(P_MOD_97, 1, 500).value
    group = weakref.ref(unit_group(97))
    assert group().sup_carry is not None
    unit_group.cache_clear()
    assert group() is None and unit_group(97).sup_carry is None
    calls = _recorded_sups(monkeypatch)
    assert mean_value_sum(P_MOD_97, 1, 500).value == value
    assert calls == []   # the total was kept: the op is not cold
    bv._mean_value_total.cache_clear()
    assert mean_value_sum(P_MOD_97, 1, 500).value == value
    assert calls == [(97, len(von_mangoldt_table(500)[0]))]


def test_chi_of_n_reads_the_value_table():
    for m in CHAR_MODULI:
        for chi in enumerate_characters(m):
            vals = character_values(chi)
            for n in range(-m, 2 * m):
                z = character_value(chi, n)
                assert type(z) is complex
                assert np.array([z]).view(np.uint64).tolist() == \
                    vals[[n % m]].view(np.uint64).tolist()   # bitwise, signed zeros too


def test_mean_value_refuses_moduli_above_the_character_cap():
    with pytest.raises(BudgetError):
        mean_value_sum(parse_poly(f"x1+{CHAR_MODULUS_CAP}"), 1, 10)   # d = 10^5 + 1
    assert mean_value_sum(parse_poly(f"x1+{CHAR_MODULUS_CAP - 1}"), 1, 10).value > 0


def test_mean_value_memory_does_not_grow_with_the_character_tables():
    P = parse_poly("x1+3000")   # d = 3001, prime: 2999 primitive characters
    tracemalloc.start()
    try:
        mean_value_sum(P, 1, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_mean_value_memory_at_large_moduli_stays_flat():
    # 16 moduli near 10^5 at x = 10: each cached group keeps its dlog tables,
    # its pair rows and the kernel's carry (24 bytes per pair row)
    clear_caches()
    tracemalloc.start()
    try:
        mean_value_sum(parse_poly("x1+99000"), 16, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_default_eps_bad():
    assert default_eps_bad(1, 2, 2.0, 1) == pytest.approx(
        math.log(3) ** -8, rel=1e-12)
