import random
import tracemalloc
from math import comb, gcd, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import count_by_enumeration, count_by_residue_classes
from polysieve import congruence
from polysieve.congruence import (R_PARAMETER_BITS, CongruenceInstance,
                                  congruence_count_bound, count_solutions, r_parameter)
from polysieve.errors import BudgetError
from polysieve.mvpoly import MvPoly, parse_poly

P_SUM_SQ = parse_poly("x1^2+x2^2")


def make_instance(**kw):
    defaults = dict(P=P_SUM_SQ, a=1, m=5, K=(0, 0), H=2, L=0, R=5)
    defaults.update(kw)
    return CongruenceInstance(**defaults)


def test_full_residue_window():
    # R = m: every x matches exactly one y
    assert count_solutions(make_instance()) == 4
    inst = make_instance(m=7, H=3, R=7, K=(5, -2), L=11)
    assert count_solutions(inst) == 3 ** 2


def test_worked_example():
    inst = make_instance(m=3, K=(0, 0), H=3, L=0, R=1)
    assert count_solutions(inst) == 4


def test_r_parameter():
    assert r_parameter(3, 2) == 9
    assert r_parameter(2, 1) == 2
    assert r_parameter(2, 2) == 5


@pytest.mark.parametrize("k, ell", [(0, 7), (1, 10 ** 400), (10 ** 23, 1), (3, 10 ** 23),
                                    (5000, 5000), (200, 9000), (26000, 1)])
def test_r_parameter_under_the_bit_cap(k, ell):
    r = r_parameter(k, ell)
    assert r == comb(k + ell, ell) - 1
    assert r.bit_length() <= R_PARAMETER_BITS


def test_r_parameter_bit_cap_is_printable():
    # Python refuses to print an int of more than 4300 digits
    assert R_PARAMETER_BITS < 4300 * log2(10)


@pytest.mark.parametrize("k, ell", [(10 ** 23, 10 ** 23), (10 ** 6, 10 ** 6), (40000, 40000),
                                    (10 ** 400, 10 ** 400), (20000, 10 ** 23)])
def test_r_parameter_refuses_past_the_bit_cap(k, ell):
    # C(k+ell, ell) has more than R_PARAMETER_BITS bits (C(80000, 40000) has
    # about 80000); a bound on its size refuses it before it is computed
    with pytest.raises(BudgetError):
        r_parameter(k, ell)


def test_validation():
    with pytest.raises(ValueError):
        make_instance(a=5, m=10)  # gcd > 1
    with pytest.raises(ValueError):
        make_instance(H=0)
    with pytest.raises(ValueError):
        make_instance(P=parse_poly("x1+x2"))  # degree < 2
    with pytest.raises(ValueError):
        make_instance(K=(1,))


def test_budget(monkeypatch):
    # the grid has min(m, H)^ell points: refused exactly above the budget
    for m, H in ((5003, 1000), (1000, 5003), (1000, 1000)):
        inst = make_instance(m=m, H=H, R=7)
        count = count_solutions(inst)
        monkeypatch.setattr(congruence, "DEFAULT_COUNT_BUDGET", 10 ** 6)
        assert count_solutions(inst) == count
        monkeypatch.setattr(congruence, "DEFAULT_COUNT_BUDGET", 10 ** 6 - 1)
        with pytest.raises(BudgetError):
            count_solutions(inst)
        monkeypatch.undo()
    with pytest.raises(BudgetError):
        count_solutions(make_instance(m=5003, H=5000))


def _random_poly(rng, ell, k):
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        exps = [0] * ell
        total = rng.randrange(0, k + 1)
        for _ in range(total):
            exps[rng.randrange(ell)] += 1
        terms[tuple(exps)] = rng.randrange(-6, 7) or 1
    top = [0] * ell
    for _ in range(k):
        top[rng.randrange(ell)] += 1
    terms[tuple(top)] = rng.randrange(1, 5)
    return MvPoly(ell, terms)


# Moduli across the int64 guards: below 2^31 the residues reduce in int64,
# from 2^31 on exact ints; in int64, (a mod m)(v mod m) wraps at 2^62 + 135
# and % m fails from 2^63 on.
BIG_MODULI = (2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, 2 ** 31 + 11, 2 ** 62 + 135,
              2 ** 63 + 29, 10 ** 30 + 57)


def _random_instance(rng, m, H, big_shifts):
    ell = rng.randrange(1, 4)
    while True:
        a = rng.randrange(1, m + 1) if rng.random() < 0.8 else rng.randrange(-10 ** 25, 10 ** 25)
        if gcd(a, m) == 1:
            break
    span = 10 ** 25 if big_shifts else 60
    return CongruenceInstance(
        P=_random_poly(rng, ell, rng.randrange(2, 5)), a=a, m=m,
        K=tuple(rng.randrange(-span, span + 1) for _ in range(ell)), H=H,
        L=rng.randrange(-span, span + 1),
        R=rng.randrange(1, 10 ** 25 if big_shifts else 3 * m + 2))


def test_count_solutions_matches_oracles():
    rng = random.Random(20260809)
    checked = 0
    for i in range(1200):
        m = rng.choice(BIG_MODULI) if i % 4 == 0 else rng.randrange(1, 401)
        inst = _random_instance(rng, m, rng.randrange(1, 9), big_shifts=i % 3 == 0)
        if inst.H ** inst.P.num_vars > 300:
            inst = CongruenceInstance(inst.P, inst.a, inst.m, inst.K, 3, inst.L, inst.R)
        got = count_solutions(inst)
        assert got == count_by_enumeration(inst), inst
        if m ** inst.P.num_vars <= 3000:
            assert got == count_by_residue_classes(inst), inst
            checked += 1
    assert checked > 300
    # corners just above 0 keep the residues, so the grid, in int64 at every m
    for m in BIG_MODULI:
        for P, K in ((parse_poly("x1^2+3*x1"), (2,)), (parse_poly("x1^2+x1*x2-5"), (2, 0))):
            for a in (1, m - 1, (m - 1) // 2):
                for L, R in ((7, 10 ** 20), (-10 ** 25, m - 1), (0, 2 * m + 3)):
                    if gcd(a, m) == 1:
                        inst = CongruenceInstance(P=P, a=a, m=m, K=K, H=5, L=L, R=R)
                        assert count_solutions(inst) == count_by_enumeration(inst), inst


@pytest.mark.parametrize("m", (3037000500, 3037000501))
def test_residue_products_stay_exact_either_side_of_the_int64_edge(m):
    # (m-1)^2 < 2^63 exactly for m <= 3037000500, where the residues stay on
    # int64; at x = m, a*P(x) reduces (m-1)*(m-1), which int64 wraps at m + 1
    assert ((m - 1) ** 2 < 2 ** 63) == (m == 3037000500)
    for L, R in ((0, 1), (0, m - 5), (-3, 10)):
        inst = CongruenceInstance(P=parse_poly("x1^2-1"), a=m - 1, m=m, K=(m - 1,), H=4, L=L, R=R)
        assert count_solutions(inst) == count_by_enumeration(inst), inst


@pytest.mark.parametrize("slab", (1, 5, 13))
def test_count_solutions_is_the_same_in_any_slab_size(monkeypatch, slab):
    monkeypatch.setattr(congruence, "_SLAB_POINTS", slab)
    rng = random.Random(slab)
    for i in range(150):
        m = rng.choice(BIG_MODULI) if i % 3 == 0 else rng.randrange(1, 60)
        inst = _random_instance(rng, m, rng.randrange(1, 7), big_shifts=i % 2 == 0)
        assert count_solutions(inst) == count_by_enumeration(inst), inst


def test_object_grid_memory_stays_flat():
    # 250000 residue tuples on exact ints: the whole grid and its temporaries
    # took 29 MiB; a slab of the leading axis at a time takes under 11 MiB
    inst = make_instance(m=2 ** 61 - 1, H=500, R=77)
    tracemalloc.start()
    try:
        count_solutions(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_count_solutions_box_much_wider_than_modulus():
    # H = 10^30 + 3 is far beyond enumeration; the residue oracle still runs
    rng = random.Random(7)
    for _ in range(100):
        m = rng.choice((1, 2, 3, 7, 12))
        inst = _random_instance(rng, m, 10 ** 30 + 3, big_shifts=True)
        assert count_solutions(inst) == count_by_residue_classes(inst), inst


@given(st.integers(1, 12), st.integers(1, 30), st.integers(-20, 20),
       st.integers(2, 30), st.integers(1, 29))
@settings(max_examples=50)
def test_additivity_in_R(H, R, L, m, split):
    a = next(x for x in range(1, m + 1) if gcd(x, m) == 1 and x > 1) if m > 2 else 1
    if split >= R:
        split = R - 1
    if split < 1:
        return
    base = dict(P=P_SUM_SQ, a=a, m=m, K=(3, -4), H=H)
    whole = count_solutions(CongruenceInstance(**base, L=L, R=R))
    first = count_solutions(CongruenceInstance(**base, L=L, R=split))
    second = count_solutions(CongruenceInstance(**base, L=L + split, R=R - split))
    assert whole == first + second


def test_translation_periodicity():
    inst = make_instance(m=7, K=(2, 3), H=4, L=0, R=3)
    shifted = make_instance(m=7, K=(2 + 7 * 3, 3 - 7 * 2), H=4, L=0, R=3)
    assert count_solutions(inst) == count_solutions(shifted)


def test_bound_report():
    # direct formula evaluation: H=10, R=10, m=101 and r = 5, k = 2
    inst = make_instance(m=101, H=10, R=10, K=(0, 0), L=0)
    rep = congruence_count_bound(inst)
    expected = 100 * ((10 / 101) ** (1 / 15) + (10 / 100) ** (1 / 15))
    assert rep.bound == pytest.approx(expected, rel=1e-12)
    assert rep.r == 5 and rep.k == 2 and rep.ell == 2
    assert rep.count == count_by_enumeration(inst)
    assert rep.ratio == pytest.approx(rep.count / expected, rel=1e-12)


def test_single_x_full_window():
    inst = make_instance(m=11, H=1, R=11, K=(4, 4), L=2)
    rep = congruence_count_bound(inst)
    assert rep.count == 1
    assert rep.bound >= 1
