from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import polysieve.boxes as boxes
from oracles import loop_value_counts, representation_count
from polysieve.boxes import count_bad_moduli, fold_moduli, value_counts
from polysieve.errors import BudgetError
from polysieve.mvpoly import FactoredPoly, parse_poly

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
    assert max(value_counts(P_SUM_SQ, 2).values()) == 2
    assert max(value_counts(parse_poly("x1^2"), 5).values()) == 1
    assert max(value_counts(parse_poly("x1^2*x2^2"), 2).values()) == 2


def test_value_counts_total():
    for Q in (1, 2, 3, 5):
        counts = value_counts(P_SUM_SQ, Q)
        assert sum(counts.values()) == Q ** 2
        for m, c in counts.items():
            assert representation_count(P_SUM_SQ, m, Q) == c


def test_rep_max_bounds():
    for Q in (1, 2, 4):
        r = max(value_counts(P_DIFF_SQ, Q).values())
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


def test_bad_moduli_zero_eps_ratio_is_none():
    assert count_bad_moduli(P_DIFF_SQ, 4, 0).ratio is None


@given(st.integers(1, 6), st.fractions(min_value=0, max_value=3),
       st.fractions(min_value=0, max_value=3))
def test_bad_moduli_monotone_in_eps(Q, e1, e2):
    lo, hi = sorted((e1, e2))
    assert (count_bad_moduli(P_DIFF_SQ, Q, lo).count
            <= count_bad_moduli(P_DIFF_SQ, Q, hi).count)


def test_budget_error():
    with pytest.raises(BudgetError):
        value_counts(parse_poly("x1+x2+x3"), 1000, budget=10 ** 6)


def test_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(boxes, "_PARALLEL_MIN", 1)
    for Q in (2, 5):
        assert value_counts(P_DIFF_SQ, Q, workers=2) == value_counts(P_DIFF_SQ, Q)


def test_fold_moduli():
    assert fold_moduli(value_counts(P_DIFF_SQ, 2)) == ({5: 2}, 2, 0)  # 5 and -5
    for Q in (2, 3, 4):
        values = [q1 * q1 - q2 * q2 for q1, q2 in product(range(Q, 2 * Q), repeat=2)]
        moduli, unit, filtered = fold_moduli(value_counts(P_DIFF_SQ, Q), min_modulus=20)
        assert unit == values.count(0) == Q
        assert filtered == sum(1 for v in values if 1 < abs(v) < 20)
        assert moduli == {d: sum(1 for v in values if abs(v) == d)
                          for d in {abs(v) for v in values if abs(v) >= 20}}
    with pytest.raises(ValueError):
        fold_moduli(value_counts(P_DIFF_SQ, 2), min_modulus=float("nan"))


def test_pool_is_capped(monkeypatch):
    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(boxes, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(boxes.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(boxes, "_PARALLEL_MIN", 1)
    assert value_counts(P_DIFF_SQ, 5, workers=64) == value_counts(P_DIFF_SQ, 5)
    assert sizes == [2]
    value_counts(P_DIFF_SQ, 1, workers=64)  # one leading range: no pool
    assert sizes == [2]


GRID_POLYS = [
    P_DIFF_SQ,                                    # zeros and negative values
    parse_poly("x1^3-3*x1*x2^2+x2^3-40"),
    parse_poly("x1*x2*x3-x2^2-7"),
    FactoredPoly([parse_poly("x1^2+x2^2"), parse_poly("x3-2*x4")]),
]


@pytest.mark.parametrize("P", GRID_POLYS, ids=repr)
@pytest.mark.parametrize("Q", [1, 2, 3, 7])
@pytest.mark.parametrize("workers", [1, 2])
def test_value_counts_matches_loop_reference(monkeypatch, P, Q, workers):
    monkeypatch.setattr(boxes, "_PARALLEL_MIN", 1)
    got = value_counts(P, Q, workers=workers)
    expected = loop_value_counts(P, Q)
    assert got == expected
    assert list(got.items()) == list(expected.items())   # first-seen key order
    keys = [k if isinstance(k, tuple) else (k,) for k in got]
    assert all(type(v) is int for k in keys for v in k)   # Python ints, not np.int64


# coefficient_abs_sum * (2Q - 1)^k is 2^63 - 1 (int64 holds every value) and
# 2^63 (the guard fails and the grid is exact Python ints; int64 would wrap
# the value 2^63 to -2^63 without a warning).  2^63 - 1 = 7 * 1317624576693539401.
@pytest.mark.parametrize("text, Q, dtype", [
    ("1317624576693539401*x1", 4, np.int64),
    ("4611686018427387904*x1+4611686018427387903*x2", 1, np.int64),
    ("4611686018427387904*x1+4611686018427387904*x2", 1, object),
    ("4611686018427387904*x1-4611686018427387904*x2^2", 1, object),
])
def test_grid_overflow_guard_boundary(text, Q, dtype):
    P = parse_poly(text)
    assert P.coefficient_abs_sum() * (2 * Q - 1) ** P.total_degree() in (2 ** 63 - 1, 2 ** 63)
    assert P.grid([range(Q, 2 * Q)] * P.num_vars).dtype == dtype
    assert value_counts(P, Q) == loop_value_counts(P, Q)
    assert max(abs(v) for v in value_counts(P, Q)) in (2 ** 63 - 1, 2 ** 63, 0)
