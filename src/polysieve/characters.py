"""Dirichlet characters mod m: enumeration, conductor and primitivity.

The unit group (Z/m)* is decomposed into cyclic components via CRT over the
prime powers of m: odd p^e uses the least primitive root, 2^e for e >= 3
uses the generator pair {-1, 5}.  A character stores one exponent per
component; its value at n is a root of unity whose exponent (numerator over
the group exponent) is computed in exact integer arithmetic, so character
equality and triviality tests never touch floating point.  Complex value
tables are materialized on demand.  UnitGroup.primitive_exponents() gives
the primitive characters as one exponent matrix, with no object per character.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, lcm, pi, prod

import numpy as np

from .arith import factorize
from .errors import BudgetError

CHAR_MODULUS_CAP = 100_000


@dataclass(frozen=True)
class CyclicComponent:
    modulus: int      # the prime power q this component lives in
    order: int
    generator: int
    dlog: tuple[int, ...]  # index n mod q -> exponent of generator, -1 on non-units


def _least_primitive_root(q: int, s: int) -> int:
    """Smallest primitive root mod the odd prime power q, where s = phi(q)."""
    s_primes = [p for p, _ in factorize(s).prime_powers]
    g = 2
    while True:
        if gcd(g, q) == 1 and all(pow(g, s // f, q) != 1 for f in s_primes):
            return g
        g += 1


def _primitive_exponent(comp: CyclicComponent, c):
    """Whether exponent c (int or array) on comp fits a primitive character:
    any c on the -1 component of 2^e (e >= 3), else c coprime to the prime
    power; with m != 2 (mod 4), conductor == m by the local criterion."""
    if comp.modulus % 8 == 0 and comp.generator == comp.modulus - 1:
        return np.ones_like(c, dtype=bool)
    return np.gcd(c, comp.modulus) == 1


def _walk_dlog(q: int, g: int, s: int) -> list[int]:
    table = [-1] * q
    v = 1
    for t in range(s):
        table[v] = t
        v = v * g % q
    return table


class UnitGroup:
    """Cyclic decomposition of (Z/m)* with discrete-log tables per component."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"modulus must be >= 1, got {m}")
        self.modulus = m
        components: list[CyclicComponent] = []
        for p, e in factorize(m).prime_powers:
            q = p ** e
            if p == 2:
                if e == 1:
                    continue
                if e == 2:
                    components.append(CyclicComponent(4, 2, 3, tuple(_walk_dlog(4, 3, 2))))
                    continue
                # (Z/2^e)* = <-1> x <5>
                half = q // 4
                da = [-1] * q
                db = [-1] * q
                for aa in (0, 1):
                    v = q - 1 if aa else 1
                    for bb in range(half):
                        da[v] = aa
                        db[v] = bb
                        v = v * 5 % q
                components.append(CyclicComponent(q, 2, q - 1, tuple(da)))
                components.append(CyclicComponent(q, half, 5, tuple(db)))
            else:
                s = q // p * (p - 1)
                g = _least_primitive_root(q, s)
                components.append(CyclicComponent(q, s, g, tuple(_walk_dlog(q, g, s))))
        self.components = tuple(components)
        self.exponent = lcm(*(c.order for c in components)) if components else 1
        self.order = prod(c.order for c in components)

    @cached_property
    def dlog_grid(self) -> np.ndarray:
        """Array [i, n] = dlog of n in component i, for n = 0..m-1."""
        m = self.modulus
        n = np.arange(m, dtype=np.int64)
        rows = [np.asarray(c.dlog, dtype=np.int64)[n % c.modulus] for c in self.components]
        return np.vstack(rows) if rows else np.zeros((0, m), dtype=np.int64)

    def primitive_exponents(self) -> np.ndarray:
        """The exponent vectors of the primitive characters mod m, one row
        each in the order of enumerate_characters: the product of the sets
        _primitive_exponent allows per component, or no rows if m = 2 (mod 4)."""
        rows = np.zeros((int(self.modulus % 4 != 2), 0), dtype=np.int64)
        for comp in self.components:
            c = np.flatnonzero(_primitive_exponent(comp, np.arange(comp.order)))
            rows = np.column_stack([np.repeat(rows, len(c), axis=0), np.tile(c, len(rows))])
        return rows

    @cached_property
    def unit_mask(self) -> np.ndarray:
        return np.gcd(np.arange(self.modulus, dtype=np.int64), self.modulus) == 1


@lru_cache(maxsize=256)
def unit_group(m: int) -> UnitGroup:
    return UnitGroup(m)


class DirichletCharacter:
    """A character mod m given by one exponent per cyclic component.

    chi(g_i) = zeta^(c_i * e / s_i) where zeta = e(1/e_group); values on
    non-units are 0.  Exact root-of-unity exponents are the primary
    representation; value() materializes complex numbers.
    """

    __slots__ = ("group", "exponents")

    def __init__(self, group: UnitGroup, exponents: tuple[int, ...]):
        if len(exponents) != len(group.components):
            raise ValueError("one exponent per cyclic component required")
        for c, comp in zip(exponents, group.components):
            if not 0 <= c < comp.order:
                raise ValueError(f"exponent {c} out of range for order {comp.order}")
        self.group = group
        self.exponents = tuple(exponents)

    @property
    def modulus(self) -> int:
        return self.group.modulus

    @property
    def is_principal(self) -> bool:
        return all(c == 0 for c in self.exponents)

    def value_exponent(self, n: int):
        """Exponent t with chi(n) = e(t / group.exponent); None on non-units."""
        m = self.modulus
        n %= m
        if gcd(n, m) != 1:
            return None
        e = self.group.exponent
        t = 0
        for c, comp in zip(self.exponents, self.group.components):
            t += c * (e // comp.order) * comp.dlog[n % comp.modulus]
        return t % e

    def __call__(self, n: int) -> complex:
        t = self.value_exponent(n)
        if t is None:
            return 0j
        e = self.group.exponent
        ang = 2 * pi * t / e
        return complex(np.cos(ang), np.sin(ang))

    def values(self) -> np.ndarray:
        """chi(n) for n = 0..m-1 as a complex array."""
        e = self.group.exponent
        t = np.zeros(self.modulus, dtype=np.int64)
        for c, comp, row in zip(self.exponents, self.group.components, self.group.dlog_grid):
            t += c * (e // comp.order) * row
        vals = np.exp(2j * pi * (t % e) / e)
        vals[~self.group.unit_mask] = 0
        return vals

    @property
    def conductor(self) -> int:
        """Smallest d | m such that chi is trivial on units == 1 (mod d).

        By the local criterion (Montgomery-Vaughan, Multiplicative Number
        Theory I, 9.1) it is the lcm of the components' conductors.  A
        nonzero exponent c on the component of q = p^e has conductor
        q / p^v_p(c) = q / gcd(c, q), except on the -1 component of 2^e,
        whose conductor is 4.
        """
        return lcm(*(4 if comp.modulus % 2 == 0 and comp.generator == comp.modulus - 1
                     else comp.modulus // gcd(c, comp.modulus)
                     for c, comp in zip(self.exponents, self.group.components) if c))

    @property
    def is_primitive(self) -> bool:
        return self.modulus % 4 != 2 and all(
            _primitive_exponent(comp, c) for c, comp in zip(self.exponents, self.group.components))

    def __eq__(self, other):
        return (isinstance(other, DirichletCharacter)
                and self.modulus == other.modulus and self.exponents == other.exponents)

    def __hash__(self):
        return hash((self.modulus, self.exponents))

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus}, exponents={self.exponents})"


def enumerate_characters(m: int, cap: int = CHAR_MODULUS_CAP) -> list[DirichletCharacter]:
    """All phi(m) characters mod m, ordered lexicographically by exponent
    vector on the fixed component generators (principal character first)."""
    if m > cap:
        raise BudgetError("character enumeration modulus", m, cap)
    group = unit_group(m)
    return [DirichletCharacter(group, exps)
            for exps in product(*(range(c.order) for c in group.components))]
