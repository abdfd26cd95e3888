"""Dirichlet characters mod m: enumeration, conductor, primitivity, and the
character-twisted Chebyshev sum psi(y, chi).

The unit group (Z/m)* is decomposed into cyclic components via CRT over the
prime powers of m: odd p^e uses the least primitive root, 2^e for e >= 3
uses the generator pair {-1, 5}.  A character stores one exponent per
component; its value at n is a root of unity whose exponent (numerator over
the group exponent) is computed in exact integer arithmetic, so character
equality and triviality tests never touch floating point.  Complex value
tables are materialized on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import fsum, gcd, lcm, pi

import numpy as np

from .arith import factorize, von_mangoldt_table
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
        self.order = 1
        for c in components:
            self.order *= c.order
        self._dlog_grid: np.ndarray | None = None
        self._unit_mask: np.ndarray | None = None

    def dlog_grid(self) -> np.ndarray:
        """Array [i, n] = dlog of n in component i, for n = 0..m-1."""
        if self._dlog_grid is None:
            m = self.modulus
            n = np.arange(m, dtype=np.int64)
            rows = [np.asarray(c.dlog, dtype=np.int64)[n % c.modulus]
                    for c in self.components]
            self._dlog_grid = (np.vstack(rows) if rows
                               else np.zeros((0, m), dtype=np.int64))
        return self._dlog_grid

    def unit_mask(self) -> np.ndarray:
        if self._unit_mask is None:
            n = np.arange(self.modulus, dtype=np.int64)
            self._unit_mask = np.gcd(n, self.modulus) == 1
        return self._unit_mask


@lru_cache(maxsize=256)
def unit_group(m: int) -> UnitGroup:
    return UnitGroup(m)


class DirichletCharacter:
    """A character mod m given by one exponent per cyclic component.

    chi(g_i) = zeta^(c_i * e / s_i) where zeta = e(1/e_group); values on
    non-units are 0.  Exact root-of-unity exponents are the primary
    representation; value() materializes complex numbers.
    """

    __slots__ = ("group", "exponents", "_values", "_conductor")

    def __init__(self, group: UnitGroup, exponents: tuple[int, ...]):
        if len(exponents) != len(group.components):
            raise ValueError("one exponent per cyclic component required")
        for c, comp in zip(exponents, group.components):
            if not 0 <= c < comp.order:
                raise ValueError(f"exponent {c} out of range for order {comp.order}")
        self.group = group
        self.exponents = tuple(exponents)
        self._values = None
        self._conductor = None

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
        """chi(n) for n = 0..m-1 as a complex array (cached)."""
        if self._values is None:
            e = self.group.exponent
            grid = self.group.dlog_grid()
            t = np.zeros(self.modulus, dtype=np.int64)
            for c, comp, row in zip(self.exponents, self.group.components, grid):
                t += c * (e // comp.order) * row
            vals = np.exp(2j * pi * (t % e) / e)
            vals[~self.group.unit_mask()] = 0
            self._values = vals
        return self._values

    @property
    def conductor(self) -> int:
        """Smallest d | m such that chi is trivial on units == 1 (mod d)."""
        if self._conductor is None:
            m = self.modulus
            found = m
            for d in factorize(m).divisors():
                trivial = True
                for n in range(1, m + 1, d):
                    if gcd(n, m) == 1 and self.value_exponent(n) != 0:
                        trivial = False
                        break
                if trivial:
                    found = d
                    break
            self._conductor = found
        return self._conductor

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

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


def induce_character_values(chi: DirichletCharacter, modulus: int) -> np.ndarray:
    """Value table mod `modulus` of the character induced by chi.

    Requires chi.modulus | modulus; values are chi(n mod d) on units of the
    larger modulus and 0 elsewhere.
    """
    d = chi.modulus
    if modulus % d != 0:
        raise ValueError(f"{d} does not divide {modulus}")
    n = np.arange(modulus, dtype=np.int64)
    vals = chi.values()[n % d].copy()
    vals[np.gcd(n, modulus) != 1] = 0
    return vals


def psi_chi(y: float, chi: DirichletCharacter) -> complex:
    """psi(y, chi) = sum over n <= y of chi(n) * Lambda(n)."""
    if y < 0:
        raise ValueError(f"psi expects y >= 0, got {y}")
    T, L = von_mangoldt_table(int(y))
    z = chi.values()[T % chi.modulus]
    unit = z != 0
    L, z = L[unit], z[unit]
    return complex(fsum((L * z.real).tolist()), fsum((L * z.imag).tolist()))
