"""Exact counting of solutions to a*P(x) == y (mod m) in shifted boxes.

Only residues mod m matter, so one kernel counts every box.  Axis i of the
grid holds (K_i+1+j) mod m for j < side = min(m, H); the interval
[K_i+1, K_i+H] hits that residue w_j = H//m + [j < H mod m] times (every
w_j is 1 when m >= H).  A grid point with d = (a*P - L - 1) mod m has
R//m + [d < R mod m] partners y in [L+1, L+R], so the count is
(R//m) H^ell plus the sum of prod w_j over the points with d < R mod m.
That product depends only on how many coordinates have j < H mod m: one
bincount and a sum in Python ints give the count exactly.  The residues reduce
in int64 while (m-1)^2 < 2^63, else on exact object ints, a slab at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, e, gcd, inf, log2

import numpy as np

from .arith import exact_dtype
from .errors import charge
from .mvpoly import MvPoly

DEFAULT_COUNT_BUDGET = 5_000_000
# Residue tuples per slab of the grid: keeps the memory of object ints flat.
_SLAB_POINTS = 2 ** 16
# Largest size in bits of r = C(k+ell, ell) - 1 that r_parameter computes, and
# of the exponent fractions built from it; past it, BudgetError.  Python prints
# an int of at most 4300 digits (sys.get_int_max_str_digits), 14284 bits.
R_PARAMETER_BITS = 14_000


@dataclass(frozen=True)
class CongruenceInstance:
    """The congruence a*P(x) == y (mod m) on the box
    prod_i [K_i+1, K_i+H] x [L+1, L+R]."""

    P: MvPoly
    a: int
    m: int
    K: tuple[int, ...]
    H: int
    L: int
    R: int

    def __post_init__(self):
        object.__setattr__(self, "K", tuple(self.K))
        if self.m < 1:
            raise ValueError(f"modulus must be >= 1, got {self.m}")
        if gcd(self.a, self.m) != 1:
            raise ValueError(f"a={self.a} is not coprime to m={self.m}")
        if self.H < 1 or self.R < 1:
            raise ValueError("box sides H and R must be >= 1")
        if len(self.K) != self.P.num_vars:
            raise ValueError(
                f"K has {len(self.K)} corners, polynomial has {self.P.num_vars} variables")
        if self.P.is_zero() or self.P.total_degree() < 2:
            raise ValueError("P must have total degree >= 2")


def count_solutions(inst: CongruenceInstance) -> int:
    """Exact number of (x, y) in the box with a*P(x) == y (mod m), from
    MvPoly.grid passes over slabs of the leading axis of the residue grid."""
    m, H, ell = inst.m, inst.H, inst.P.num_vars
    side = min(m, H)
    charge("congruence residue grid", side ** ell, DEFAULT_COUNT_BUDGET)
    base, rem = divmod(H, m)
    j_small = np.zeros(side, dtype=bool)   # j < H mod m, for j < side
    j_small[:rem] = True
    step = max(1, _SLAB_POINTS // side ** (ell - 1))
    per_small = np.zeros(ell + 1, dtype=np.int64)
    for lo in range(0, side, step):
        cut = [slice(lo, lo + step)] + [slice(None)] * (ell - 1)
        vals = inst.P.grid([[(k + 1 + j) % m for j in range(side)[c]]
                            for k, c in zip(inst.K, cut)])
        if exact_dtype((m - 1) ** 2) is object:   # (m-1)^2 bounds a % m * (vals % m)
            vals = vals.astype(object)
        d = (inst.a % m * (vals % m) - (inst.L + 1) % m) % m
        small = sum(j_small[c].reshape([-1] + [1] * (ell - 1 - i)) for i, c in enumerate(cut))
        per_small += np.bincount(small.reshape(-1)[d < inst.R % m], minlength=ell + 1)
    return inst.R // m * H ** ell + sum(
        n * (base + 1) ** c * base ** (ell - c) for c, n in enumerate(per_small.tolist()))


def r_parameter(k: int, ell: int) -> int:
    """r = C(k+ell, ell) - 1, the exponent parameter of the box-count bound."""
    if k < 0 or ell < 1:
        raise ValueError("need k >= 0 and ell >= 1")
    m = max(min(k, ell), 1)   # 2^m <= C(k+ell, m) <= (e (k+ell) / m)^m
    bits = m if m > R_PARAMETER_BITS else int(m * (log2(k + ell) - log2(m) + log2(e)))
    charge("bits of r = C(k+ell, ell) - 1", bits, R_PARAMETER_BITS)
    return comb(k + ell, ell) - 1


@dataclass(frozen=True)
class CongruenceBoundReport:
    """The box-count comparator H^ell ((R/m)^(1/r(k+1)) + (R/H^k)^(1/r(k+1)))
    with all asymptotic factors set to 1, next to the exact count."""
    bound: float
    count: int
    ratio: float
    r: int
    k: int
    ell: int


def congruence_count_bound(inst: CongruenceInstance) -> CongruenceBoundReport:
    k = inst.P.total_degree()
    ell = inst.P.num_vars
    r = r_parameter(k, ell)
    expo = 1.0 / (r * (k + 1))
    try:
        bound = inst.H ** ell * ((inst.R / inst.m) ** expo + (inst.R / inst.H ** k) ** expo)
    except OverflowError:
        bound = inf
    if bound == inf:
        raise ValueError("the comparator H^ell ((R/m)^e + (R/H^k)^e) is out of float range")
    count = count_solutions(inst)
    try:
        ratio = count / bound
    except OverflowError:
        raise ValueError("the ratio count/bound is out of float range") from None
    return CongruenceBoundReport(bound=bound, count=count, ratio=ratio,
                                 r=r, k=k, ell=ell)
