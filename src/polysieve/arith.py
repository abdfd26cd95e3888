"""Elementary arithmetic functions: factorization into the plain tuple of
prime powers (p, e), phi, deterministic primality, the numpy prime sieve, and
the prime-power stream (T, Lambda(T)) that every Lambda-weighted sum reads.

Everything here is deterministic: primality uses a Miller-Rabin witness set
that is exact for all 64-bit inputs, and factorization trial-divides by one
fixed table of the 564 primes below 2^12, then hands any cofactor to Brent's
cycle variant of Pollard rho with a fixed parameter sequence.  One sieve
flags a window of integers, and the Lambda stream is built from its primes;
both are capped (PRIME_SIEVE_LIMIT, LAMBDA_LIMIT) and refuse with BudgetError
before allocating.
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


# Longest window prime_flags sieves: the window takes one byte per integer.
PRIME_SIEVE_LIMIT = 10 ** 8


def prime_flags(limit: int, lo: int = 0) -> np.ndarray:
    """Boolean array f of length max(limit + 1 - lo, 0) with f[n - lo] = n is
    prime, for the window lo <= n <= limit: a numpy sieve of Eratosthenes by
    the base primes up to isqrt(limit), read from the window from 0.  A window
    with limit - lo above PRIME_SIEVE_LIMIT is refused (BudgetError) first."""
    charge("prime sieve limit", limit - lo, PRIME_SIEVE_LIMIT)
    flags = np.ones(max(limit + 1 - lo, 0), dtype=bool)
    flags[:max(2 - lo, 0)] = False
    for p in np.flatnonzero(prime_flags(isqrt(limit))).tolist() if limit > 3 else ():
        flags[max(p * p, -(-lo // p) * p) - lo::p] = False   # from p^2 or p's first in the window
    return flags


# factorize trial-divides by the primes below 2^12, a table built at import;
# Brent's rho takes any cofactor left over.
_TRIAL_PRIMES = np.flatnonzero(prime_flags(2 ** 12)).tolist()


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

# Largest limit von_mangoldt_table builds: its stream takes 16 bytes a term.
# bv.max_progression_discrepancy sums exactly while it is < 2^24 and its log < 32.
LAMBDA_LIMIT = 10 ** 7


def von_mangoldt_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The prime-power stream up to limit: (T, L) with T the prime powers
    <= limit in increasing order and L = Lambda(T).

    Every Lambda-weighted sum reads this stream.  L holds math.log(p) at each
    p^k, bit-identical to the pointwise path; one stable argsort orders the
    terms.  Both are read-only prefixes of a grow-only module stream; limits
    above LAMBDA_LIMIT are refused (BudgetError) before anything is allocated.
    """
    global _lambda_stream
    if limit < 0:
        raise ValueError(f"von_mangoldt_table expects limit >= 0, got {limit}")
    charge("von Mangoldt table limit", limit, LAMBDA_LIMIT)
    if _lambda_stream is None or _lambda_stream[0] < limit:
        primes = np.flatnonzero(prime_flags(limit))
        T, L = [primes], [np.fromiter(map(log, primes), float, len(primes))]
        while len(T[-1]):   # p^(k+1) <= limit holds for a prefix of the primes
            n = np.count_nonzero(T[-1] <= limit // primes[:len(T[-1])])
            T.append(T[-1][:n] * primes[:n])
            L.append(L[0][:n])
        order = np.argsort(T := np.concatenate(T), kind="stable")
        T, L = T[order], np.concatenate(L)[order]
        T.flags.writeable = L.flags.writeable = False
        _lambda_stream = limit, T, L
    _, T, L = _lambda_stream
    k = np.searchsorted(T, limit, "right")
    return T[:k], L[:k]
