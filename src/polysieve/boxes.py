"""Dyadic boxes q ~ Q: value multiplicities and representation-count statistics.

An MvPoly's box [Q, 2Q)^L is one numpy grid from box_grid, its one builder.
box_values groups it by one sort into distinct values, ascending, with their
multiplicities; box_moduli, the one modulus-grouping step, folds them onto the
moduli |P(q)|.  The small-value count reads the grid with no sort.  Everything
runs in the calling process; --workers is echoed in reports and starts no process.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import floor, isnan

import numpy as np

from .errors import charge
from .mvpoly import MvPoly

DEFAULT_BOX_BUDGET = 5_000_000


def check_box_budget(Q: int, ell: int) -> None:
    if Q < 1 or ell < 1:
        raise ValueError("Q and ell must be positive")
    charge("box enumeration", Q ** ell, DEFAULT_BOX_BUDGET)


def box_grid(P: MvPoly, Q: int) -> np.ndarray:
    """P's values over the box [Q, 2Q)^ell, as MvPoly.grid, after the budget check."""
    check_box_budget(Q, P.num_vars)
    return P.grid([range(Q, 2 * Q)] * P.num_vars)


def box_values(P: MvPoly, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, counts): the distinct values P(q) over the box in ascending
    order and their multiplicities, from one grid pass.  Past the int64
    guard the values are an object array of Python ints."""
    return np.unique(box_grid(P, Q), return_counts=True)


def box_moduli(P: MvPoly, Q: int, min_modulus=None) -> tuple[dict[int, int], int, int, int]:
    """The box's values grouped by modulus |P(q)| from one box_values pass:
    (moduli, skipped_unit, skipped_filtered, r_star), where |P(q)| <= 1 is a
    unit skip, |P(q)| < min_modulus (when given) a filtered one, and r_star
    the largest multiplicity of a single value P(q).  The moduli ascend."""
    values, counts = box_values(P, Q)
    if isinstance(min_modulus, float) and isnan(min_modulus):
        raise ValueError("min_modulus must not be NaN")
    d, where = np.unique(np.abs(values), return_inverse=True)
    mult = np.zeros(len(d), dtype=np.int64)
    np.add.at(mult, where, counts)
    d, mult = d.tolist(), mult.tolist()
    unit = bisect_left(d, 2)   # Python comparisons: exact against a float bound
    kept = unit if min_modulus is None else max(unit, bisect_left(d, min_modulus))
    return (dict(zip(d[kept:], mult[kept:])), sum(mult[:unit]), sum(mult[unit:kept]),
            int(counts.max()))


@dataclass(frozen=True)
class BadModuliReport:
    """Count of q ~ Q with |P(q)| <= eps * Q^k, plus the density comparator.

    comparator is eps^(1/k) * Q^ell; ratio = count / comparator (None when
    the comparator vanishes, i.e. eps = 0).
    """
    count: int
    box_size: int
    eps: float
    comparator: float
    ratio: float | None


def count_bad_moduli(P: MvPoly, Q: int, eps) -> BadModuliReport:
    """Exact count of small-value tuples on the grid: |v| <= threshold is
    |v| <= b with b = floor(threshold), since the values are integers."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    k = P.total_degree()
    if k < 1:
        raise ValueError("P must have total degree >= 1")
    ell = P.num_vars
    values = box_grid(P, Q)   # its value-bits guard also bounds Q^k
    count = int(np.count_nonzero(np.abs(values) <= floor(Fraction(eps) * Q ** k)))
    comparator = float(eps) ** (1.0 / k) * Q ** ell if eps > 0 else 0.0
    ratio = count / comparator if comparator > 0 else None
    return BadModuliReport(count=count, box_size=Q ** ell, eps=float(eps),
                           comparator=comparator, ratio=ratio)
