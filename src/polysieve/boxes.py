"""Dyadic boxes q ~ Q: value multiplicities and representation-count statistics.

The box is the product of [Q, 2Q) over each of the L coordinates, evaluated
as one numpy grid (MvPoly.grid) in lexicographic order with the last
coordinate fastest.  All aggregations here are counts, so the box may be
partitioned by leading coordinate across workers and merged by addition.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import floor, isnan

from .errors import BudgetError
from .mvpoly import FactoredPoly, MvPoly

DEFAULT_BOX_BUDGET = 5_000_000
_PARALLEL_MIN = 1_000_000


def check_box_budget(Q: int, ell: int, budget: int = DEFAULT_BOX_BUDGET) -> None:
    if Q < 1 or ell < 1:
        raise ValueError("Q and ell must be positive")
    size = Q ** ell
    if size > budget:
        raise BudgetError("box enumeration", size, budget)


def map_chunks(fn, items, args: tuple, workers: int, parallel: bool) -> list:
    """[fn(args + (chunk,)) for each of at most `workers` contiguous chunks
    of items], in order.

    A pool of at most min(workers, chunks, cpu count) processes runs them
    when `parallel` holds and there are 2 or more chunks.
    """
    items = list(items)
    step = -(-len(items) // max(workers, 1)) or 1
    chunks = [args + (items[i:i + step],) for i in range(0, len(items), step)]
    if len(chunks) < 2 or not parallel:
        return [fn(c) for c in chunks]
    with ProcessPoolExecutor(min(workers, len(chunks), os.cpu_count() or 1)) as ex:
        return list(ex.map(fn, chunks))


def _count_chunk(args) -> Counter:
    """Value multiplicities over the box slice whose leading coordinate runs
    through `leading`, keyed in first-seen order (a FactoredPoly's grid rows
    become factor-value tuples)."""
    poly, Q, ell, leading = args
    vals = poly.grid([leading] + [range(Q, 2 * Q)] * (ell - 1))
    return Counter(vals.tolist() if vals.ndim == 1 else map(tuple, vals.tolist()))


def value_counts(P: MvPoly | FactoredPoly, Q: int, workers: int = 1,
                 budget: int = DEFAULT_BOX_BUDGET) -> Counter:
    """Multiplicity of each value P(q) over the box, in one enumeration pass.

    A FactoredPoly's values are its tuples of factor values.  The leading
    coordinate is split across workers.
    """
    ell = P.num_vars
    check_box_budget(Q, ell, budget)
    total, *rest = map_chunks(_count_chunk, range(Q, 2 * Q), (P, Q, ell), workers,
                              Q ** ell >= _PARALLEL_MIN)
    for part in rest:
        total.update(part)
    return total


def fold_moduli(counts, min_modulus=None) -> tuple[dict[int, int], int, int]:
    """Fold value multiplicities onto moduli |v|: (moduli, skipped_unit,
    skipped_filtered), where |v| <= 1 is a unit skip and |v| < min_modulus
    (when given) a filtered one."""
    if isinstance(min_modulus, float) and isnan(min_modulus):
        raise ValueError("min_modulus must not be NaN")
    moduli: dict[int, int] = {}
    skipped_unit = skipped_filtered = 0
    for v, mult in counts.items():
        d = abs(v)
        if d <= 1:
            skipped_unit += mult
        elif min_modulus is not None and d < min_modulus:
            skipped_filtered += mult
        else:
            moduli[d] = moduli.get(d, 0) + mult
    return moduli, skipped_unit, skipped_filtered


@dataclass(frozen=True)
class BadModuliReport:
    """Count of q ~ Q with |P(q)| <= eps * Q^k, plus the density comparator.

    comparator is eps^(1/k) * Q^ell; ratio = count / comparator (None when
    the comparator vanishes, i.e. eps = 0).
    """
    count: int
    box_size: int
    eps: float
    threshold: Fraction
    comparator: float
    ratio: float | None


def count_bad_moduli(P: MvPoly, Q: int, eps, workers: int = 1,
                     budget: int = DEFAULT_BOX_BUDGET) -> BadModuliReport:
    """Exact count of small-value tuples: |v| <= threshold is -b <= v <= b
    with b = floor(threshold), since the values are integers."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    k = P.total_degree()
    ell = P.num_vars
    threshold = Fraction(eps) * Q ** k
    b = floor(threshold)
    counts = value_counts(P, Q, workers=workers, budget=budget)
    count = sum(mult for v, mult in counts.items() if -b <= v <= b)
    comparator = float(eps) ** (1.0 / k) * Q ** ell if eps > 0 else 0.0
    ratio = count / comparator if comparator > 0 else None
    return BadModuliReport(count=count, box_size=Q ** ell, eps=float(eps),
                           threshold=threshold, comparator=comparator, ratio=ratio)
