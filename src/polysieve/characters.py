"""Dirichlet characters mod m: unit groups, conductor and primitivity.

The unit group (Z/m)* is decomposed into cyclic components via CRT over the
prime powers of m: odd p^e uses the least primitive root, 2^e for e >= 3
uses the generator pair {-1, 5}.  Each component holds one read-only int64
discrete-log table over its prime power q, built from the powers of its
generator.  A character stores one exponent per component; its value at n is
a root of unity whose exponent (numerator over the group exponent) is
computed in exact integer arithmetic, so character equality and triviality
tests never touch floating point.  The bv kernel reads every complex value
from the conjugate-symmetric root_table(e).
UnitGroup.primitive_pairs keeps the primitive characters as one int32
exponent matrix, one row per conjugate pair and no object per character,
built one component at a time on the cached group for the bv kernel, and
UnitGroup.sup_carry that kernel's prefix sums over the rows (24 bytes a row),
so that both live exactly as long as unit_group's cache holds the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, pi

import numpy as np

from .arith import factorize
from .errors import charge

CHAR_MODULUS_CAP = 100_000


@dataclass(frozen=True, eq=False)
class CyclicComponent:
    modulus: int      # the prime power q this component lives in
    order: int
    generator: int
    dlog: np.ndarray  # read-only int64: n mod q -> exponent of generator, -1 on non-units


def _least_primitive_root(q: int, s: int) -> int:
    """Smallest primitive root mod q = 4 or an odd prime power, where s = phi(q)."""
    s_primes = [p for p, _ in factorize(s)]
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


def root_table(e: int) -> np.ndarray:
    """exp(2 pi i k / e) for k < e, computed for k <= e/2 only: the entry at
    e/2 is exactly -1 and roots[e - k] == conj(roots[k]) bit for bit."""
    r = np.exp(2j * pi * np.arange(e // 2 + 1) / e)
    if e % 2 == 0:
        r[e // 2] = -1.0
    return np.concatenate((r, np.conj(r[(e - 1) // 2:0:-1])))


def _powers(g: int, s: int, q: int) -> np.ndarray:
    """g^t mod q for t < s: giant steps g^(jB) times baby steps g^i, B ~ sqrt(s)."""
    B = isqrt(s) + 1
    baby = np.array([pow(g, i, q) for i in range(B)], dtype=np.int64)
    giant = np.array([pow(g, j, q) for j in range(0, s, B)], dtype=np.int64)
    return (giant[:, None] * baby % q).ravel()[:s]


def _component(q: int, order: int, g: int, n: np.ndarray, t) -> CyclicComponent:
    """The component mod q generated by g, whose dlog takes n[i] to t[i]."""
    dlog = np.full(q, -1, dtype=np.int64)
    dlog[n] = t
    dlog.flags.writeable = False
    return CyclicComponent(q, order, g, dlog)


class UnitGroup:
    """Cyclic decomposition of (Z/m)* with discrete-log tables per component.

    Moduli above CHAR_MODULUS_CAP are refused (BudgetError): the tables take O(q)
    memory per prime power q, and the product giant * baby in _powers is
    exact in int64 only while q^2 < 2^63.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"modulus must be >= 1, got {m}")
        charge("character modulus", m, CHAR_MODULUS_CAP)
        self.modulus = m
        components: list[CyclicComponent] = []
        for p, e in factorize(m):
            q = p ** e
            if p == 2 and e >= 3:   # (Z/2^e)* = <-1> x <5>: the units are +-5^b
                s = q // 4
                n = np.concatenate((g5 := _powers(5, s, q), q - g5))
                components += [_component(q, 2, q - 1, n, np.repeat([0, 1], s)),
                               _component(q, s, 5, n, np.tile(np.arange(s), 2))]
            elif q > 2:
                s = q // p * (p - 1)
                g = _least_primitive_root(q, s)
                components.append(_component(q, s, g, _powers(g, s, q), np.arange(s)))
        self.components = tuple(components)
        self.exponent = lcm(*(c.order for c in components)) if components else 1
        # the bv kernel's (k, psi, sups) after k coprime stream terms, replaced whole
        self.sup_carry: tuple[int, np.ndarray, np.ndarray] | None = None

    @cached_property
    def primitive_pairs(self) -> tuple[np.ndarray, int]:
        """One exponent row per conjugate pair of primitive characters mod m
        (the row lexicographically <= its conjugate), lexicographic by
        exponent vector with the self-conjugate rows put last, as read-only
        int32 (every order is below CHAR_MODULUS_CAP), and the number of
        self-conjugate rows.  No rows if m = 2 (mod 4).

        Built one component at a time over the exponents _primitive_exponent
        allows: each row carries the sign of (row - its conjugate) so far,
        and a row is dropped as soon as that sign is decided positive."""
        rows = np.zeros((int(self.modulus % 4 != 2), 0), dtype=np.int32)
        sign = np.zeros((len(rows), 1), dtype=np.int8)
        for comp in self.components:
            a = np.arange(comp.order, dtype=np.int32)
            c = a[_primitive_exponent(comp, a)]
            # a decided -1 stays; an undecided row takes the sign of c - conj(c)
            signs = np.where(sign < 0, sign, np.sign(c - -c % comp.order).astype(np.int8))
            keep = signs <= 0
            rows = np.column_stack((rows.repeat(keep.sum(1), axis=0), (c * keep)[keep]))
            sign = signs[keep][:, None]
        sign = sign.ravel()
        rows = np.concatenate((rows[sign < 0], rows[sign == 0]))
        rows.flags.writeable = False
        return rows, int(np.count_nonzero(sign == 0))


@lru_cache(maxsize=128)
def unit_group(m: int) -> UnitGroup:
    return UnitGroup(m)


class DirichletCharacter:
    """A character mod m given by one exponent per cyclic component.

    chi(g_i) = zeta^(c_i * e / s_i) where zeta = e(1/e_group); values on
    non-units are 0.  Exact root-of-unity exponents are the representation.
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
