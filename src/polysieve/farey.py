"""Farey systems of fractions a/P(q) and exact circular spacing statistics.

Points are exact rationals in [0, 1); every comparison (minimum spacing,
close-point windows) is decided in exact rational arithmetic, so counts do
not depend on the platform's floating point.  Negative moduli are folded to
|P(q)|; tuples with |P(q)| <= 1 cannot produce a reduced fraction and are
skipped, with the skip count reported on the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .arith import euler_phi
from .boxes import fold_moduli, value_counts
from .congruence import r_parameter
from .errors import BudgetError
from .mvpoly import MvPoly

DEFAULT_POINT_BUDGET = 3_000_000


@dataclass(frozen=True)
class FareySystem:
    """Reduced fractions a/|P(q)| for q ~ Q, stored sorted with multiplicity.

    One entry per (a, q) pair: a modulus value attained by several q
    contributes each of its fractions that many times.  total_count is the
    sum of phi(|P(q)|) over retained q.
    """

    points: tuple[Fraction, ...]
    Q: int
    distinct_count: int
    total_count: int
    skipped_unit_moduli: int
    skipped_filtered: int
    modulus_counts: dict[int, int] = field(repr=False)

    def distinct_values(self) -> list[Fraction]:
        out = []
        prev = None
        for p in self.points:
            if p != prev:
                out.append(p)
                prev = p
        return out


def build_farey(P: MvPoly, Q: int, min_modulus=None, workers: int = 1,
                point_budget: int = DEFAULT_POINT_BUDGET) -> FareySystem:
    """Construct the Farey system for P over the dyadic box q ~ Q.

    min_modulus, when given, keeps only tuples with |P(q)| >= min_modulus
    (the count of dropped tuples is reported separately from the |P(q)| <= 1
    skips).
    """
    retained, skipped_unit, skipped_filtered = fold_moduli(
        value_counts(P, Q, workers=workers), min_modulus)
    total = 0
    for d, mult in retained.items():
        total += euler_phi(d) * mult
        if total > point_budget:
            raise BudgetError("farey point set", total, point_budget)
    points: list[Fraction] = []
    for d in sorted(retained):
        mult = retained[d]
        for a in range(1, d):
            if gcd(a, d) == 1:
                points.extend([Fraction(a, d)] * mult)
    points.sort()
    distinct = sum(1 for i, p in enumerate(points) if i == 0 or p != points[i - 1])
    return FareySystem(points=tuple(points), Q=Q, distinct_count=distinct,
                       total_count=len(points), skipped_unit_moduli=skipped_unit,
                       skipped_filtered=skipped_filtered, modulus_counts=retained)


def min_spacing(system: FareySystem) -> Fraction:
    """Smallest circular distance between distinct point values, exact."""
    vals = system.distinct_values()
    if len(vals) < 2:
        raise ValueError("minimum spacing needs at least 2 distinct points")
    best = vals[0] + 1 - vals[-1]
    for a, b in zip(vals, vals[1:]):
        gap = b - a
        if gap < best:
            best = gap
    return best


def max_close_points(system: FareySystem, N: int) -> int:
    """Largest number of points (with multiplicity, self included) within
    circular distance strictly less than 1/(2N) of a single point.

    One sorted pass with two monotone window pointers over the circle
    unrolled once; ties at exactly 1/(2N) are excluded by exact comparison.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    vals = list(system.points)
    n = len(vals)
    if n == 0:
        raise ValueError("empty Farey system")
    h = Fraction(1, 2 * N)
    ext = vals + [v + 1 for v in vals]
    best = 0
    right = 0
    left = 0
    for i in range(n):
        if i and vals[i] == vals[i - 1]:
            continue
        x = vals[i]
        if right < i:
            right = i
        hi = x + h
        while right < 2 * n and ext[right] < hi:
            right += 1
        lo = x + 1 - h
        while left < i + n and ext[left] <= lo:
            left += 1
        count = (right - i) + (i + n - left)
        if count > best:
            best = count
    return best


def close_points_comparator(k: int, ell: int, Q: int, N: int) -> float:
    """Q^(ell + k/(r(k+1))) * N^(-1/(r(k+1))) with the o(1) factor set to 1.

    A value out of float range, or a constant P (r = 0), raises ValueError.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    try:
        e = 1.0 / (r_parameter(k, ell) * (k + 1))
        return Q ** (ell + k * e) * N ** (-e)
    except (OverflowError, ZeroDivisionError):
        raise ValueError("the comparator Q^(ell+k e) N^(-e), e = 1/(r(k+1)), "
                         "is not a finite float") from None
