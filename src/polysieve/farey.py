"""Farey systems of fractions a/P(q) and exact circular spacing statistics.

A system is sorted integer arrays of its distinct points a/d with their
multiplicities.  Floats only choose where to look; every comparison is
decided by exact integer cross-multiplication.  Moduli are folded to |P(q)|,
and tuples with |P(q)| <= 1 are skipped and counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import euler_phi
from .boxes import box_moduli
from .congruence import r_parameter
from .errors import BudgetError
from .mvpoly import MvPoly

DEFAULT_POINT_BUDGET = 3_000_000


@dataclass(frozen=True, eq=False)
class FareySystem:
    """Reduced fractions a/|P(q)| for q ~ Q: the distinct points a[i]/d[i]
    in increasing order, mult[i] being the number of retained q with
    |P(q)| = d[i].  total_count is the sum of phi(|P(q)|) over retained q.
    """

    a: np.ndarray
    d: np.ndarray
    mult: np.ndarray
    distinct_count: int
    total_count: int
    skipped_unit_moduli: int
    skipped_filtered: int


def build_farey(P: MvPoly, Q: int, min_modulus=None) -> FareySystem:
    """Construct the Farey system for P over the dyadic box q ~ Q.

    min_modulus, when given, keeps only tuples with |P(q)| >= min_modulus
    (counted apart from the |P(q)| <= 1 skips).  The point count is checked
    against DEFAULT_POINT_BUDGET before any point is allocated.
    """
    retained, skipped_unit, skipped_filtered, _ = box_moduli(P, Q, min_modulus)
    total = 0
    for d, mult in retained.items():
        total += euler_phi(d) * mult
        if total > DEFAULT_POINT_BUDGET:
            raise BudgetError("farey point set", total, DEFAULT_POINT_BUDGET)
    nums = [np.flatnonzero(np.gcd(np.arange(d), d) == 1) for d in retained]
    sizes = [len(r) for r in nums]
    a = np.concatenate([np.zeros(0, dtype=np.int64)] + nums)
    d, mult = (np.repeat(np.array(list(x), dtype=np.int64), sizes)
               for x in (retained.keys(), retained.values()))
    # Float keys a/d sort exactly while max d < 2^26: distinct reduced fractions
    # differ by > 2^-52, twice their rounding error.  Each phi(d) is at most the
    # point budget, and phi(n) > 1.08*10^7 for n >= 2^26 by n/phi(n) < e^gamma
    # log log n + 3/log log n, n >= 3 (Rosser and Schoenfeld 1962).
    order = np.argsort(a / d, kind="stable")
    return FareySystem(a=a[order], d=d[order], mult=mult[order],
                       distinct_count=len(a), total_count=total,
                       skipped_unit_moduli=skipped_unit, skipped_filtered=skipped_filtered)


def _exact(system: FareySystem, bound: int):
    """(a, d) in int64 if the products formed are below bound < 2^63, else as Python ints."""
    if bound < 2 ** 63:
        return system.a, system.d
    return system.a.astype(object), system.d.astype(object)


def min_spacing(system: FareySystem) -> Fraction:
    """Smallest circular distance between distinct point values, exact:
    floats pick the cyclic gaps p/q within relative 2^-40 of the smallest."""
    if system.distinct_count < 2:
        raise ValueError("minimum spacing needs at least 2 distinct points")
    a, d = _exact(system, 2 * int(system.d.max()) ** 2)
    a1, d1 = np.roll(a, -1), np.roll(d, -1)
    a1[-1] += d1[-1]
    p, q = a1 * d - a * d1, d * d1
    g = p / q
    near = np.flatnonzero(g <= g.min() * (1 + 2.0 ** -40))
    return min(Fraction(x, y) for x, y in set(zip(p[near].tolist(), q[near].tolist())))


def max_close_points(system: FareySystem, N: int) -> int:
    """Largest number of points (with multiplicity, self included) within
    circular distance strictly less than 1/(2N) of a single point.

    On the circle unrolled once, a float searchsorted places the window
    ends, which then move until 2N(a_j d_i - a_i d_j) against d_i d_j puts
    them exactly on the boundary (ties at 1/(2N) fall outside).
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    n = system.distinct_count
    if n == 0:
        raise ValueError("empty Farey system")
    two_n, dmax = 2 * N, int(system.d.max())
    a, d = _exact(system, two_n * (int(system.a.max()) + dmax) * dmax)
    ea, ed = np.concatenate((a, a + d)), np.concatenate((d, d))
    keys = system.a / system.d
    ext = np.concatenate((keys, keys + 1))
    i, h = np.arange(n), 1 / two_n
    # ext[j] < x_i + 1/(2N), and ext[j] <= x_i + 1 - 1/(2N)
    right = _settle(np.searchsorted(ext, keys + h, "left"), i, n,
                    lambda j: two_n * (ea[j] * d - a * ed[j]) < d * ed[j])
    left = _settle(np.searchsorted(ext, keys + (1 - h), "right"), i, n,
                   lambda j: two_n * ((a + d) * ed[j] - ea[j] * d) >= d * ed[j])
    c = np.concatenate(([0], np.cumsum(np.concatenate((system.mult, system.mult)))))
    return int((c[right] - c[i] + c[i + n] - c[left]).max())


def _settle(pos, i, n, below):
    """Move each pos[i] to the first index j with below(j) false; it lies in
    [i + 1, i + n], as ext[i] = x_i is below and ext[i + n] = x_i + 1 is not."""
    pos = np.clip(pos, i + 1, i + n)
    while (step := below(pos).astype(np.int64) - ~below(pos - 1)).any():
        pos = pos + step
    return pos


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
