"""Elementary arithmetic functions: factorization into the plain tuple of
prime powers (p, e), phi, deterministic primality, the numpy prime sieve, and
the prime-power stream (T, Lambda(T)) that every Lambda-weighted sum reads.

Everything here is deterministic: primality uses a Miller-Rabin witness set
that is exact for all 64-bit inputs, and factorization trial-divides by one
fixed table of the 564 primes below 2^12, then hands any cofactor to Brent's
cycle variant of Pollard rho with a fixed parameter sequence.  The two dense
tables, the prime sieve and the Lambda table, are capped (PRIME_SIEVE_LIMIT,
LAMBDA_LIMIT) and refuse a larger limit with BudgetError before allocating.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, log

import numpy as np

from .errors import charge

FACTOR_LIMIT = 2 ** 63


def exact_dtype(bound: int) -> type:
    """int64 if bound, on every integer a kernel forms, is below 2^63, else object."""
    return np.int64 if bound < 2 ** 63 else object


# Largest limit prime_flags sieves: the table takes one byte per n.
PRIME_SIEVE_LIMIT = 10 ** 8


def prime_flags(limit: int) -> np.ndarray:
    """Boolean array f of length max(limit + 1, 0) with f[n] = n is prime,
    by a numpy sieve of Eratosthenes.  Limits above PRIME_SIEVE_LIMIT are
    refused (BudgetError) before anything is allocated."""
    charge("prime sieve limit", limit, PRIME_SIEVE_LIMIT)
    flags = np.ones(max(limit + 1, 0), dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(max(limit, 0)) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return flags


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, read from prime_flags."""
    return np.flatnonzero(prime_flags(limit)).tolist()


# factorize trial-divides by the primes below _TRIAL_LIMIT, a table built at
# import; Brent's rho takes any cofactor left over.
_TRIAL_LIMIT = 2 ** 12
_TRIAL_PRIMES = primes_up_to(_TRIAL_LIMIT)


# is_prime trial-divides by these primes, then takes them as the witnesses
# proving primality for every n < 3.3 * 10^24, hence up to FACTOR_LIMIT.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality for 1 <= n <= 2^63."""
    if n < 1:
        raise ValueError(f"is_prime expects n >= 1, got {n}")
    charge("primality test argument", n, FACTOR_LIMIT)
    if n < 2:
        return False
    for p in _MR_WITNESSES:
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


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The prime powers (p, e) of 1 <= n <= 2^63, p ascending; n = 1 gives ()."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    charge("factorization argument", n, FACTOR_LIMIT)
    m = n
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    # the cofactor's primes exceed 2^12 (trial division): at most five below 2^63
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            stack.append(d)
            stack.append(m // d)
    return tuple(sorted(factors.items()))


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


# -- the prime-power stream ------------------------------------------------

_lambda_stream: tuple[int, np.ndarray, np.ndarray] | None = None

# Largest limit von_mangoldt_table builds: its dense table takes 8 bytes per n.
# bv.max_progression_discrepancy sums exactly while it is < 2^24 and its log < 32.
LAMBDA_LIMIT = 10 ** 7


def von_mangoldt_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The prime-power stream up to limit: (T, L) with T the prime powers
    <= limit in increasing order and L = Lambda(T).

    Every Lambda-weighted sum reads this stream.  L holds math.log(p),
    bit-identical to the pointwise path.  Both arrays are read-only prefixes
    of a grow-only module stream, cut from a dense table when it grows;
    limits above LAMBDA_LIMIT are refused (BudgetError) before anything is
    allocated.
    """
    global _lambda_stream
    if limit < 0:
        raise ValueError(f"von_mangoldt_table expects limit >= 0, got {limit}")
    charge("von Mangoldt table limit", limit, LAMBDA_LIMIT)
    if _lambda_stream is None or _lambda_stream[0] < limit:
        table = np.zeros(limit + 1)
        for p in primes_up_to(limit):
            lp = log(p)
            pk = p
            while pk <= limit:
                table[pk] = lp
                pk *= p
        T = np.flatnonzero(table)
        L = table[T]
        T.flags.writeable = L.flags.writeable = False
        _lambda_stream = limit, T, L
    _, T, L = _lambda_stream
    k = np.searchsorted(T, limit, "right")
    return T[:k], L[:k]
