"""Farey systems of fractions a/P(q) and exact circular spacing statistics.

A system is sorted integer arrays of its distinct points a/d with their
multiplicities.  Floats only choose where to look: a/d, a/d + 1 and x + 1/(2N)
are each within 2^-50 of their float values, so floats more than 2^-40 apart
compare exactly, and closer ones by integer cross-multiplication.  Moduli are
folded to |P(q)|, and tuples with |P(q)| <= 1 are skipped and counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import euler_phi, exact_dtype, factorize
from .boxes import box_moduli
from .congruence import r_parameter
from .errors import charge
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
    total, sizes = 0, []
    for d, mult in retained.items():
        sizes.append(euler_phi(d))
        total += sizes[-1] * mult
        charge("farey point set", total, DEFAULT_POINT_BUDGET)
    mask, starts = np.ones(sum(retained), dtype=bool), np.cumsum([0, *retained])[:-1]
    for d, start in zip(retained, starts.tolist()):
        for p, _ in factorize(d):
            mask[start:start + d:p] = False
    a = np.flatnonzero(mask) - np.repeat(starts, sizes)
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


def min_spacing(system: FareySystem) -> Fraction:
    """Smallest circular distance between distinct point values, exact:
    floats pick the cyclic gaps p/q within relative 2^-40 of the smallest."""
    if system.distinct_count < 2:
        raise ValueError("minimum spacing needs at least 2 distinct points")
    # a1 d < 2 max d^2 bounds every product; p and q, below max d^2 as every gap
    # is below 1, would still come out exact mod 2^64 in int64 up to 2^64
    dtype = exact_dtype(2 * int(system.d.max()) ** 2)
    a, d = system.a.astype(dtype, copy=False), system.d.astype(dtype, copy=False)
    a1, d1 = np.roll(a, -1), np.roll(d, -1)
    a1[-1] += d1[-1]
    p, q = a1 * d - a * d1, d * d1
    g = p / q
    near = np.flatnonzero(g <= g.min() * (1 + 2.0 ** -40))
    return min(Fraction(x, y) for x, y in set(zip(p[near].tolist(), q[near].tolist())))


def max_close_points(system: FareySystem, grid: list[int]) -> list[int]:
    """Per N >= 1 of grid: the most points (with multiplicity, self included)
    within circular distance strictly less than 1/(2N) of one point.

    One float searchsorted places the right window ends R_i, the first j with
    x_j >= x_i + 1/(2N) on the circle unrolled once.  As each float is within
    2^-50 of its value, only ends whose needle is within 2^-40 of the key at R_i
    or R_i - 1 move, by exact 2N(a_j d_i - a_i d_j) against d_i d_j (ties fall
    outside).  j is left of i exactly when i is in j's right window, and R
    ascends: with c the cumulative multiplicities and K_t = #{j: R_j <= t},
    i's left count is c_i - c[K_i] + c_n - c[K_(i+n)]."""
    if bad := [N for N in grid if N < 1]:
        raise ValueError(f"N must be >= 1, got {bad[0]}")
    a, d, n = system.a, system.d, system.distinct_count
    if n == 0:
        raise ValueError("empty Farey system")
    ext = np.concatenate((a / d, a / d + 1))
    c = np.cumsum(np.concatenate(([0], system.mult, system.mult)))
    big, lo, counts = (int(a.max()) + int(d.max())) * int(d.max()), np.arange(1, n + 1), []
    for N in map(int, grid):  # numpy integers would wrap in 2N * big
        pos = np.maximum(np.searchsorted(ext, needle := ext[:n] + 1 / (2 * N), "left"), lo)
        i = np.flatnonzero(np.minimum(ext[pos] - needle, needle - ext[pos - 1]) <= 2.0 ** -40)
        # pos[i] stays in [i + 1, i + n]: x_i is below x_i + 1/(2N), x_i + 1 is not
        while (step := _below(pos[i] - [[1], [0]], i, a, d, N, big).sum(0) - 1).any():
            pos[i] += step
        k = np.cumsum(np.bincount(pos, minlength=2 * n))
        counts.append(int((c[pos] - c[k[:n]] - c[k[n:]]).max() + c[n]))
    return counts


def _below(j, i, a, d, N, big):
    """Whether x_j < x_i + 1/(2N) exactly, x_j read on the circle unrolled once."""
    wrap, j = np.divmod(j, len(a))
    dtype = exact_dtype(2 * N * big)
    ai, di, aj, dj = (x.astype(dtype, copy=False) for x in (a[i], d[i], a[j] + wrap * d[j], d[j]))
    return 2 * N * (aj * di - ai * dj) < di * dj


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
