from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import polysieve.boxes as boxes
from oracles import representation_count
from polysieve.boxes import (DyadicBox, count_bad_moduli, fold_moduli,
                             max_representation_count, value_counts)
from polysieve.errors import BudgetError
from polysieve.mvpoly import parse_poly

P_SUM_SQ = parse_poly("x1^2+x2^2")
P_DIFF_SQ = parse_poly("x1^2-x2^2")


def test_box_iteration():
    box = DyadicBox(3, 2)
    tuples = list(box)
    assert len(tuples) == 9 == box.size
    assert all(3 <= c < 6 for t in tuples for c in t)
    assert tuples[0] == (3, 3) and tuples[1] == (3, 4)  # last coordinate fastest


def test_representation_counts():
    assert representation_count(P_SUM_SQ, 8, 2) == 1
    assert representation_count(P_SUM_SQ, 13, 2) == 2
    assert representation_count(P_SUM_SQ, 999, 2) == 0


def test_max_representation():
    assert max_representation_count(P_SUM_SQ, 2) == 2
    assert max_representation_count(parse_poly("x1^2"), 5) == 1
    assert max_representation_count(parse_poly("x1^2*x2^2"), 2) == 2


def test_value_counts_total():
    for Q in (1, 2, 3, 5):
        counts = value_counts(P_SUM_SQ, Q)
        assert sum(counts.values()) == Q ** 2
        for m, c in counts.items():
            assert representation_count(P_SUM_SQ, m, Q) == c


def test_rep_max_bounds():
    for Q in (1, 2, 4):
        r = max_representation_count(P_DIFF_SQ, Q)
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
        values = [q1 * q1 - q2 * q2 for q1, q2 in DyadicBox(Q, 2)]
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
