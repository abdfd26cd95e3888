from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_value_counts, representation_count
from polysieve import boxes
from polysieve.boxes import box_moduli, box_values, count_bad_moduli
from polysieve.errors import BudgetError
from polysieve.mvpoly import MvPoly, parse_poly

P_SUM_SQ = parse_poly("x1^2+x2^2")
P_DIFF_SQ = parse_poly("x1^2-x2^2")


def test_box_iteration():
    P = parse_poly("10*x1+x2")
    vals = P.grid([range(3, 6)] * 2).tolist()
    assert vals == [10 * q1 + q2 for q1, q2 in product(range(3, 6), repeat=2)]
    assert vals[:2] == [33, 34]  # last coordinate fastest
    with pytest.raises(ValueError):
        P.grid([range(3, 6)])


def test_representation_counts():
    assert representation_count(P_SUM_SQ, 8, 2) == 1
    assert representation_count(P_SUM_SQ, 13, 2) == 2
    assert representation_count(P_SUM_SQ, 999, 2) == 0


def test_max_representation():
    assert box_values(P_SUM_SQ, 2)[1].max() == 2
    assert box_values(parse_poly("x1^2"), 5)[1].max() == 1
    assert box_values(parse_poly("x1^2*x2^2"), 2)[1].max() == 2


def test_box_values_total():
    for Q in (1, 2, 3, 5):
        values, counts = box_values(P_SUM_SQ, Q)
        assert counts.sum() == Q ** 2
        for m, c in zip(values.tolist(), counts.tolist()):
            assert representation_count(P_SUM_SQ, m, Q) == c


def test_rep_max_bounds():
    for Q in (1, 2, 4):
        r = box_values(P_DIFF_SQ, Q)[1].max()
        assert 1 <= r <= Q ** 2


def test_bad_moduli_examples():
    assert count_bad_moduli(P_SUM_SQ, 3, 1).count == 0
    assert count_bad_moduli(P_DIFF_SQ, 4, 0).count == 4
    rep = count_bad_moduli(P_DIFF_SQ, 8, Fraction(1, 2))
    assert rep.count == 22
    brute = sum(1 for q1 in range(8, 16) for q2 in range(8, 16)
                if abs(q1 * q1 - q2 * q2) * 2 <= 64)
    assert rep.count == brute
    assert rep.ratio == pytest.approx(22 / ((0.5) ** 0.5 * 64))


@pytest.mark.parametrize("text", ["x1^2-x2^2", "x1^3-3*x1*x2^2+x2^3-40",
                                  "4611686018427387904*x1-4611686018427387904*x2^2"])
@pytest.mark.parametrize("eps", [0, Fraction(1, 2), 5, 2 ** 60, 2 ** 61, 10 ** 40])
def test_bad_moduli_matches_loop(text, eps):
    # the last P is past the int64 guard; eps = 2^61 (quadratics at Q = 2) and
    # 2^60 (the cubic at Q = 2, the quadratics at Q = 3) put b in [2^63, 2^64),
    # past int64 but inside uint64; eps = 10^40 puts b above every |v|
    P = parse_poly(text)
    for Q in (1, 2, 3, 6):
        bound = eps * Q ** P.total_degree()
        brute = sum(c for v, c in loop_value_counts(P, Q).items() if abs(v) <= bound)
        assert count_bad_moduli(P, Q, eps).count == brute


def test_bad_moduli_reads_one_grid_with_no_sort(monkeypatch):
    grids, grid = [], MvPoly.grid
    monkeypatch.setattr(MvPoly, "grid", lambda self, axes: grids.append(axes) or grid(self, axes))

    def refuse(*args, **kwargs):
        raise AssertionError("the box was sorted")

    monkeypatch.setattr(boxes, "box_values", refuse)
    monkeypatch.setattr(np, "unique", refuse)
    assert count_bad_moduli(P_DIFF_SQ, 8, Fraction(1, 2)).count == 22
    assert len(grids) == 1


def test_bad_moduli_refuses_a_constant_before_the_box():
    # k = 0 leaves eps^(1/k) undefined; Q = 10^9 would be over the box budget
    for eps in (0, Fraction(1, 2)):
        with pytest.raises(ValueError, match="total degree >= 1"):
            count_bad_moduli(parse_poly("5"), 10 ** 9, eps)


def test_bad_moduli_zero_eps_ratio_is_none():
    assert count_bad_moduli(P_DIFF_SQ, 4, 0).ratio is None


@given(st.integers(1, 6), st.fractions(min_value=0, max_value=3),
       st.fractions(min_value=0, max_value=3))
def test_bad_moduli_monotone_in_eps(Q, e1, e2):
    lo, hi = sorted((e1, e2))
    assert (count_bad_moduli(P_DIFF_SQ, Q, lo).count
            <= count_bad_moduli(P_DIFF_SQ, Q, hi).count)


def test_budget_error(monkeypatch):
    monkeypatch.setattr(boxes, "DEFAULT_BOX_BUDGET", 10 ** 6)
    with pytest.raises(BudgetError):
        box_values(parse_poly("x1+x2+x3"), 1000)


def test_fold_moduli():
    assert box_moduli(P_DIFF_SQ, 2)[:3] == ({5: 2}, 2, 0)  # 5 and -5
    for Q in (2, 3, 4):
        values = [q1 * q1 - q2 * q2 for q1, q2 in product(range(Q, 2 * Q), repeat=2)]
        moduli, unit, filtered, _ = box_moduli(P_DIFF_SQ, Q, min_modulus=20)
        assert unit == values.count(0) == Q
        assert filtered == sum(1 for v in values if 1 < abs(v) < 20)
        assert moduli == {d: sum(1 for v in values if abs(v) == d)
                          for d in {abs(v) for v in values if abs(v) >= 20}}
    with pytest.raises(ValueError):
        box_moduli(P_DIFF_SQ, 2, min_modulus=float("nan"))


GRID_POLYS = [
    P_DIFF_SQ,                                    # zeros and negative values
    parse_poly("x1^3-3*x1*x2^2+x2^3-40"),
    parse_poly("x1*x2*x3-x2^2-7"),
]


def check_box_values(P, Q):
    """box_values against the per-point loop: strictly ascending values,
    counts summing to the box size, Python ints."""
    values, counts = box_values(P, Q)
    keys = values.tolist()
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert counts.sum() == Q ** P.num_vars
    assert all(type(v) is int for v in keys)
    assert Counter(dict(zip(keys, counts.tolist()))) == loop_value_counts(P, Q)
    return values


@pytest.mark.parametrize("P", GRID_POLYS, ids=repr)
@pytest.mark.parametrize("Q", [1, 2, 3, 7])
def test_box_values_matches_loop_reference(P, Q):
    check_box_values(P, Q)


# the sum of |coefficients| * (2Q - 1)^k is 2^63 - 1 (int64 holds every
# value) and 2^63 (the guard fails and the grid is exact Python ints; int64
# would wrap the value 2^63 to -2^63 without a warning).
# 2^63 - 1 = 7 * 1317624576693539401.
GUARD_CASES = [
    ("1317624576693539401*x1", 4, np.int64),
    ("4611686018427387904*x1+4611686018427387903*x2", 1, np.int64),
    ("4611686018427387904*x1+4611686018427387904*x2", 1, object),
    ("4611686018427387904*x1-4611686018427387904*x2^2", 1, object),
]


@pytest.mark.parametrize("text, Q, dtype", GUARD_CASES)
def test_grid_overflow_guard_boundary(text, Q, dtype):
    P = parse_poly(text)
    assert sum(abs(c) for c in P.terms.values()) * (2 * Q - 1) ** P.total_degree() in \
        (2 ** 63 - 1, 2 ** 63)
    assert P.grid([range(Q, 2 * Q)] * P.num_vars).dtype == dtype
    values = check_box_values(P, Q)
    assert max(abs(v) for v in values.tolist()) in (2 ** 63 - 1, 2 ** 63, 0)


COEFFS = st.one_of(st.integers(-40, 40), st.sampled_from([2 ** 62, -2 ** 62, 3 * 2 ** 61 + 1]))


@st.composite
def box_polys(draw):
    """An MvPoly in 1 to 3 variables, nonconstant in x1; huge coefficients
    take the grid past the int64 guard."""
    ell = draw(st.integers(1, 3))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * ell), COEFFS, max_size=4))
    terms[(1,) + (0,) * (ell - 1)] = draw(COEFFS.filter(bool))
    return MvPoly(ell, terms)


@given(st.one_of(box_polys(), st.sampled_from([parse_poly(t) for t, _, _ in GUARD_CASES])),
       st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_box_values_property(P, Q):
    check_box_values(P, Q)


@given(box_polys(), st.integers(1, 7), st.none() | st.floats(allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_fold_moduli_property(P, Q, min_modulus):
    moduli, unit, filtered = {}, 0, 0
    for v, c in loop_value_counts(P, Q).items():
        if abs(v) <= 1:
            unit += c
        elif min_modulus is not None and abs(v) < min_modulus:
            filtered += c
        else:
            moduli[abs(v)] = moduli.get(abs(v), 0) + c
    got = box_moduli(P, Q, min_modulus)[:3]
    assert got == (moduli, unit, filtered)
    assert list(got[0]) == sorted(moduli)
