"""Seeded op batches for the three benchmark workloads.

Every workload draws its ops from a fixed pool.  The pool is a handful of
slots (one subcommand at one size); each slot holds K candidates, where a
cost proxy exists those lying closest to the slot's median, so two seeds
give batches of nearly the same cost.  A batch is a number of rounds; a round takes one
candidate from every slot, in a seeded order, and a slot hands out its
candidates without replacement before it repeats one.  References are
recorded for the whole pool, so the outputs of every seed can be checked.
Every size stays far inside the library's budgets (box 5M tuples, Farey
points 3M, sieve work under 8M of 50M, character modulus under 800 of 1e5,
norm values 60k of 20M), and record.py stops on any op that exits nonzero.

This module imports nothing from polysieve: building a batch leaves the
library's caches as cold as a fresh process has them.  The proxies use the
module's own small arithmetic below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd

WORKLOADS = ("spacing", "primes", "boxes")

# The two subcommands of each workload, in the order of the cmd_a / cmd_b
# metrics.
COMMANDS = {
    "spacing": ("farey-stats", "sieve-scan"),
    "primes": ("bv-sum", "meanvalue-sum"),
    "boxes": ("bad-moduli", "corollary-search"),
}

# Wall time of one round at the commit that defined the benchmark, on a
# 2-core x86-64 host; the batch is ``seconds / ROUND_SECONDS`` rounds, so a run
# at that commit measures for about ``seconds``.  Fixed per workload: a faster
# program finishes the same batch sooner.
ROUND_SECONDS = {"spacing": 1.8, "primes": 2.2, "boxes": 1.0}

CANDIDATES_PER_SLOT = 12


@dataclass(frozen=True)
class Op:
    command: str
    argv: tuple[str, ...]   # everything passed to polysieve.cli.main
    slot: str

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# -- arithmetic for the cost proxies -------------------------------------------


@lru_cache(maxsize=None)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _phi(n: int) -> int:
    out = 1
    for p, e in _factor(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def _primitive_characters(n: int) -> int:
    """Number of primitive Dirichlet characters mod n."""
    out = 1
    for p, e in _factor(n):
        out *= p - 2 if e == 1 else p ** (e - 2) * (p - 1) ** 2
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and _factor(n) == ((n, 1),)


# -- polynomial families --------------------------------------------------------


def _poly_text(terms) -> str:
    """Render [(coef, monomial), ...] in the CLI polynomial grammar."""
    out = ""
    for coef, mono in terms:
        if coef == 0:
            continue
        sign = "-" if coef < 0 else ("+" if out else "")
        mag = abs(coef)
        out += sign + (mono if mag == 1 else f"{mag}*{mono}")
    return out


def _quadratic_forms(max_ac: int, max_b: int):
    """Primitive positive definite a*u^2 + b*u*v + c*v^2."""
    for a in range(1, max_ac + 1):
        for c in range(1, max_ac + 1):
            for b in range(-max_b, max_b + 1):
                if b * b < 4 * a * c and gcd(gcd(a, abs(b)), c) == 1:
                    yield a, b, c


def _form_text(form, u: str = "x1", v: str = "x2") -> str:
    a, b, c = form
    return _poly_text([(a, f"{u}^2"), (b, f"{u}*{v}"), (c, f"{v}^2")])


def _form_values(form, Q: int) -> list[int]:
    a, b, c = form
    r = range(Q, 2 * Q)
    return [a * u * u + b * u * v + c * v * v for u in r for v in r]


def _closest(cands, proxies, k: int):
    """The k candidates whose proxies are nearest the per-coordinate medians."""
    dims = len(proxies[0])
    med = [sorted(p[i] for p in proxies)[len(proxies) // 2] for i in range(dims)]
    dist = [max(abs(p[i] / med[i] - 1) for i in range(dims)) for p in proxies]
    order = sorted(range(len(cands)), key=lambda i: (dist[i], i))
    return [cands[i] for i in sorted(order[:k])]


def _geometric_grid(Q: int) -> str:
    """Four N from Q^2 to Q^4, evenly spaced in log N."""
    return ",".join(str(round(Q ** (2 + 2 * i / 3))) for i in range(4))


# -- pools ----------------------------------------------------------------------

W1 = ("--workers", "1")


def _spacing_pool() -> dict[str, list[list[Op]]]:
    forms = list(_quadratic_forms(4, 3))
    slots = {}
    # Two slots at Q=6: the farey-stats median then sits inside a cluster of
    # ops of one size rather than on the edge between two sizes.
    for Q, n_slots in ((5, 1), (6, 2)):
        proxies = []
        for f in forms:
            # Points with multiplicity plus distinct points: the Farey kernels
            # pay for both, at about the same rate.
            moduli = [abs(v) for v in _form_values(f, Q) if abs(v) > 1]
            proxies.append((sum(_phi(d) for d in moduli) + sum(_phi(d) for d in set(moduli)),))
        chosen = _closest(forms, proxies, CANDIDATES_PER_SLOT * n_slots)
        for j in range(n_slots):
            slot = f"farey-stats Q={Q}" + (f" #{j + 1}" if n_slots > 1 else "")
            slots[slot] = [[Op("farey-stats", ("farey-stats", "--P", _form_text(f), "--Q", str(Q),
                                               "--N", "16,256,4096") + W1, slot)]
                           for f in chosen[j::n_slots]]
    # Four slots at Q=12, so that both the sieve-scan median and the median
    # over all ops sit inside that cluster.
    for Q, n_slots in ((10, 1), (12, 4), (14, 1)):
        grid = _geometric_grid(Q)
        total_n = sum(int(n) for n in grid.split(","))
        proxies = []
        for f in forms:
            moduli = {abs(v) for v in _form_values(f, Q) if abs(v) > 1}
            proxies.append((len(moduli) * total_n + 4 * sum(moduli),))
        chosen = _closest(forms, proxies, CANDIDATES_PER_SLOT * n_slots)
        for j in range(n_slots):
            slot = f"sieve-scan Q={Q}" + (f" #{j + 1}" if n_slots > 1 else "")
            slots[slot] = [
                [Op("sieve-scan", ("sieve-scan", "--P", _form_text(f), "--Q", str(Q),
                                   "--N", grid, "--seed", str(i)) + W1, slot)]
                for i, f in enumerate(chosen[j::n_slots])]
    return slots


BV_Q = 4
BV_X = ("5000", "10000", "20000", "40000")
MV_X = ("500", "1000", "2000", "4000")


def _primes_pool() -> dict[str, list[list[Op]]]:
    forms = list(_quadratic_forms(3, 2))
    prime_values = {f: [v for v in _form_values(f, BV_Q) if _is_prime(v)] for f in forms}
    pairs, proxies = [], []
    for i, f1 in enumerate(forms):
        for f2 in forms[i:]:
            # bv-sum weights are nonzero exactly where both factor values
            # are primes and distinct; each such tuple costs one
            # discrepancy scan of size ~phi(P(q)) + x.
            hits = [v1 * v2 for v1 in prime_values[f1] for v2 in prime_values[f2]
                    if v1 != v2]
            if hits:
                pairs.append((f1, f2))
                proxies.append((len(hits), sum(_phi(m) for m in hits)))
    slots = {"bv-sum": [
        [Op("bv-sum", ("bv-sum", "--P", _form_text(f1), "--P", _form_text(f2, "x3", "x4"),
                       "--Q", str(BV_Q), "--x", x) + W1, "bv-sum")
         for x in BV_X]
        for f1, f2 in _closest(pairs, proxies, CANDIDATES_PER_SLOT)]}
    forms = list(_quadratic_forms(4, 3))
    for Q in (3, 4):
        proxies = []
        for f in forms:
            moduli = {abs(v) for v in _form_values(f, Q) if abs(v) > 1}
            proxies.append((sum(_phi(d) for d in moduli),
                            sum(_primitive_characters(d) for d in moduli)))
        slots[f"meanvalue-sum Q={Q}"] = [
            [Op("meanvalue-sum", ("meanvalue-sum", "--P", _form_text(f), "--Q", str(Q),
                                  "--x", x) + W1, f"meanvalue-sum Q={Q}")
             for x in MV_X]
            for f in _closest(forms, proxies, CANDIDATES_PER_SLOT)]
    return slots


def _boxes_pool() -> dict[str, list[list[Op]]]:
    # A positive leading coefficient keeps the text from starting with "-",
    # which argparse would take for an option.
    cubics = [c for c in product((-3, -2, -1, 1, 2, 3), repeat=4)
              if c[0] > 0 and gcd(gcd(c[0], abs(c[1])), gcd(abs(c[2]), abs(c[3]))) == 1]
    slots = {}
    # Two slots at Q=140, for the same reason as the two farey-stats slots
    # at Q=6.
    for s, (Q, tag) in enumerate(((100, ""), (140, " #1"), (140, " #2"), (180, ""))):
        # Box work is Q^2 evaluations of a 4-term cubic whatever the
        # coefficients, so the slot takes an even spread of the family.
        stride = len(cubics) // CANDIDATES_PER_SLOT
        chosen = cubics[s::stride][:CANDIDATES_PER_SLOT]
        slot = f"bad-moduli Q={Q}{tag}"
        slots[slot] = [
            [Op("bad-moduli", ("bad-moduli", "--P", _poly_text(
                [(c[0], "x1^3"), (c[1], "x1^2*x2"), (c[2], "x1*x2^2"), (c[3], "x2^3")]),
                "--Q", str(Q), "--eps-bad", "0.05") + W1, slot)]
            for c in chosen]
    # t^2 + b*t + c with b in {0, 1} and c >= 1 has negative discriminant,
    # so it is irreducible.  The cost grows with the field's share of norm
    # primes, which has no cheap proxy; a run draws nearly all twelve
    # fields of a slot, so seeds still differ little.
    fields = [f"t^2+{c}" if b == 0 else f"t^2+t+{c}" for c in range(1, 13) for b in (0, 1)]
    for s, (X, theta) in enumerate((("20000", "1/3"), ("40000", "2/5"), ("60000", "1/2"))):
        chosen = (fields[8 * s:] + fields[:8 * s])[:CANDIDATES_PER_SLOT]
        slots[f"corollary-search X={X}"] = [
            [Op("corollary-search", ("corollary-search", "--f", f, "--X", X,
                                     "--theta", theta) + W1, f"corollary-search X={X}")]
            for f in chosen]
    return slots


_POOLS = {"spacing": _spacing_pool, "primes": _primes_pool, "boxes": _boxes_pool}


@lru_cache(maxsize=None)
def pool(workload: str) -> dict[str, list[list[Op]]]:
    """Slot name -> candidate blocks; a block is a list of ops run in order."""
    if workload not in _POOLS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _POOLS[workload]()


def pool_ops(workload: str) -> list[Op]:
    return [op for blocks in pool(workload).values() for block in blocks for op in block]


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def batch(workload: str, seed: int, rounds: int) -> list[list[Op]]:
    """The ops of each round, in run order, for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    slots = pool(workload)
    queues = {name: [] for name in slots}
    out = []
    for _ in range(rounds):
        blocks = []
        for name, cands in slots.items():
            if not queues[name]:
                queues[name] = rng.sample(range(len(cands)), len(cands))
            blocks.append(cands[queues[name].pop()])
        rng.shuffle(blocks)
        out.append([op for block in blocks for op in block])
    return out
