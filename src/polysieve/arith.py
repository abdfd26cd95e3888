"""Elementary arithmetic functions: factorization, Lambda, mu, phi, tau,
deterministic primality, and Chebyshev psi sums over progressions.

Everything here is deterministic: primality uses a Miller-Rabin witness set
that is exact for all 64-bit inputs, and factorization uses trial division
followed by Brent's cycle variant of Pollard rho with a fixed parameter
sequence.  Floating-point psi accumulations go through math.fsum, which
returns the correctly rounded sum of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import fsum, gcd, isqrt, log

import numpy as np

from .errors import BudgetError

FACTOR_LIMIT = 2 ** 63

_TRIAL_LIMIT = 10 ** 6
_small_primes: list[int] | None = None


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit by a byte sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(sieve) if f]


def _trial_primes() -> list[int]:
    global _small_primes
    if _small_primes is None:
        _small_primes = primes_up_to(_TRIAL_LIMIT)
    return _small_primes


# Witnesses proving primality for every n < 3.3 * 10^24, hence for all
# inputs up to FACTOR_LIMIT.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality for 1 <= n <= 2^63."""
    if n < 1:
        raise ValueError(f"is_prime expects n >= 1, got {n}")
    if n > FACTOR_LIMIT:
        raise ValueError(f"n={n} exceeds the supported range 2^63")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite odd n, deterministic parameter walk."""
    for c in range(1, 100):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise RuntimeError(f"rho failed on {n}")  # not reachable for n <= 2^63


@dataclass(frozen=True)
class Factorization:
    n: int
    prime_powers: tuple[tuple[int, int], ...]

    def rebuild(self) -> int:
        out = 1
        for p, e in self.prime_powers:
            out *= p ** e
        return out

    def divisors(self) -> list[int]:
        divs = [1]
        for p, e in self.prime_powers:
            divs = [d * p ** j for d in divs for j in range(e + 1)]
        return sorted(divs)


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> Factorization:
    """Exact factorization of 1 <= n <= 2^63 (n=1 gives the empty product)."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    if n > FACTOR_LIMIT:
        raise ValueError(f"n={n} exceeds the supported range 2^63")
    m = n
    factors: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    # after trial division to 10^6, the cofactor has at most two prime factors
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            stack.append(d)
            stack.append(m // d)
    return Factorization(n, tuple(sorted(factors.items())))


def von_mangoldt(n: int) -> float:
    """log p when n is a prime power p^e, else 0."""
    if n < 1:
        raise ValueError(f"von_mangoldt expects n >= 1, got {n}")
    if n < 2:
        return 0.0
    pp = factorize(n).prime_powers
    if len(pp) == 1:
        return log(pp[0][0])
    return 0.0


def moebius(n: int) -> int:
    pp = factorize(n).prime_powers
    if any(e > 1 for _, e in pp):
        return 0
    return -1 if len(pp) % 2 else 1


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n).prime_powers:
        out *= p ** (e - 1) * (p - 1)
    return out


def tau(n: int) -> int:
    """Number of divisors."""
    out = 1
    for _, e in factorize(n).prime_powers:
        out *= e + 1
    return out


# -- Chebyshev psi ----------------------------------------------------------

_lambda_table: np.ndarray | None = None

# Largest limit von_mangoldt_table builds: the dense table takes 8 bytes per n.
LAMBDA_LIMIT = 10 ** 7


def von_mangoldt_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The prime-power stream up to limit: (T, L) with T the prime powers
    <= limit in increasing order and L = Lambda(T).

    Every Lambda-weighted sum reads this stream.  L holds math.log(p),
    bit-identical to the pointwise path.  The stream is cut from a grow-only
    dense module cache; limits above LAMBDA_LIMIT raise BudgetError before
    anything is allocated.
    """
    global _lambda_table
    if limit < 0:
        raise ValueError(f"von_mangoldt_table expects limit >= 0, got {limit}")
    if limit > LAMBDA_LIMIT:
        raise BudgetError("von Mangoldt table limit", limit, LAMBDA_LIMIT)
    if _lambda_table is None or len(_lambda_table) <= limit:
        table = np.zeros(limit + 1)
        for p in primes_up_to(limit):
            lp = log(p)
            pk = p
            while pk <= limit:
                table[pk] = lp
                pk *= p
        _lambda_table = table
    T = np.flatnonzero(_lambda_table[:limit + 1])
    return T, _lambda_table[T]


def psi_progression(y: float, m: int, a: int) -> float:
    """Sum of Lambda(n) over n <= y with n == a (mod m)."""
    if y < 0:
        raise ValueError(f"psi expects y >= 0, got {y}")
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    T, L = von_mangoldt_table(math.floor(y))
    return fsum(L[T % m == a % m].tolist())


def chebyshev_psi(y: float) -> float:
    """psi(y) = sum of Lambda(n) over n <= y."""
    return psi_progression(y, 1, 0)


class KahanSum:
    """Compensated running accumulator for long prefix-sum loops."""

    __slots__ = ("total", "_c")

    def __init__(self, value: float = 0.0):
        self.total = value
        self._c = 0.0

    def add(self, x: float) -> float:
        t = x - self._c
        s = self.total + t
        self._c = (s - self.total) - t
        self.total = s
        return s
