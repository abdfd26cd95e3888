"""Dyadic box iteration q ~ Q and representation-count statistics.

The box is the product of [Q, 2Q) over each of the L coordinates; iteration
order is lexicographic with the last coordinate fastest.  All aggregations
here are order-independent counts, so the box may be partitioned by leading
coordinate across workers and merged by addition.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isnan

from .errors import BudgetError
from .mvpoly import FactoredPoly, MvPoly

DEFAULT_BOX_BUDGET = 5_000_000
_PARALLEL_MIN = 4096


@dataclass(frozen=True)
class DyadicBox:
    Q: int
    ell: int

    def __post_init__(self):
        if self.Q < 1 or self.ell < 1:
            raise ValueError("Q and ell must be positive")

    @property
    def size(self) -> int:
        return self.Q ** self.ell

    def __iter__(self):
        return product(range(self.Q, 2 * self.Q), repeat=self.ell)


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
    poly, Q, ell, leading = args
    counts: Counter = Counter()
    for q1 in leading:
        for rest in product(range(Q, 2 * Q), repeat=ell - 1):
            counts[poly.evaluate((q1,) + rest)] += 1
    return counts


def value_counts(P: MvPoly | FactoredPoly, Q: int, workers: int = 1,
                 budget: int = DEFAULT_BOX_BUDGET) -> Counter:
    """Multiplicity of each value P(q) over the box, in one enumeration pass.

    A FactoredPoly's values are its tuples of factor values.  The leading
    coordinate is split across workers.
    """
    ell = P.num_vars
    check_box_budget(Q, ell, budget)
    total: Counter = Counter()
    for part in map_chunks(_count_chunk, range(Q, 2 * Q), (P, Q, ell), workers,
                           Q ** ell >= _PARALLEL_MIN):
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


def max_representation_count(P: MvPoly, Q: int, workers: int = 1,
                             budget: int = DEFAULT_BOX_BUDGET) -> int:
    """Largest multiplicity of a single value over the box (always >= 1)."""
    counts = value_counts(P, Q, workers=workers, budget=budget)
    return max(counts.values())


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
    """Exact count of small-value tuples; the threshold is compared exactly."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    k = P.total_degree()
    ell = P.num_vars
    threshold = Fraction(eps) * Q ** k
    counts = value_counts(P, Q, workers=workers, budget=budget)
    count = sum(mult for v, mult in counts.items() if abs(v) <= threshold)
    comparator = float(eps) ** (1.0 / k) * Q ** ell if eps > 0 else 0.0
    ratio = count / comparator if comparator > 0 else None
    return BadModuliReport(count=count, box_size=Q ** ell, eps=float(eps),
                           threshold=threshold, comparator=comparator, ratio=ratio)
