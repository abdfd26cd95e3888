"""Independent oracles used across the test suite.

Everything here is deliberately written from scratch against definitions,
avoiding the library's own code paths, so an agreement test actually checks
two different routes to the same number.

The loop references at the end walk every n <= x and read Lambda pointwise
through ``von_mangoldt``.  They add the same terms in the same order as the
library's prime-power stream kernels, so the two must agree exactly.
"""

import cmath
from fractions import Fraction
from math import fsum, gcd

import numpy as np

from polysieve.arith import KahanSum, von_mangoldt


def trial_division_factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def horner_eval(terms: dict, num_vars: int, point) -> int:
    """Nested-Horner multivariate evaluation, one variable at a time;
    independent of the monomial-by-monomial path."""
    if num_vars == 0:
        return sum(terms.values())
    by_power: dict[int, dict] = {}
    for exps, coef in terms.items():
        sub = by_power.setdefault(exps[0], {})
        sub[exps[1:]] = sub.get(exps[1:], 0) + coef
    x = point[0]
    result = 0
    prev_power = None
    for power in sorted(by_power, reverse=True):
        if prev_power is not None:
            result *= x ** (prev_power - power)
        result += horner_eval(by_power[power], num_vars - 1, point[1:])
        prev_power = power
    if prev_power:
        result *= x ** prev_power
    return result


def pointwise_sieve_sum(coeffs, M: int, moduli) -> float:
    """Sum over moduli d (repeated by multiplicity) and reduced a/d of
    |S(a/d)|^2, where S(a/d) = sum of coeffs[i] e(a n / d) with n = M + 1 + i,
    evaluated term by term with the exact phase (a*n) % d."""
    parts = []
    for d in moduli:
        for a in range(1, d):
            if gcd(a, d) == 1:
                s = sum(complex(c) * cmath.exp(2j * cmath.pi * ((a * n) % d) / d)
                        for n, c in enumerate(coeffs, start=M + 1))
                parts.append(abs(s) ** 2)
    return fsum(parts)


def circular_lt(num_a: int, den_a: int, num_b: int, den_b: int, two_n: int) -> bool:
    """Exact test: circular distance of a/b_den and b/b_den is < 1/two_n."""
    p = abs(num_a * den_b - num_b * den_a)
    q = den_a * den_b
    return p * two_n < q or (q - p) * two_n < q


def quadratic_close_count(points: list[Fraction], N: int) -> int:
    """O(n^2) pairwise scan in exact rational arithmetic."""
    h = Fraction(1, 2 * N)
    best = 0
    for x in points:
        c = 0
        for y in points:
            d = abs(x - y)
            if min(d, 1 - d) < h:
                c += 1
        best = max(best, c)
    return best


def quadratic_close_count_int64(points: list[Fraction], N: int) -> int:
    """The same pairwise scan vectorized over exact int64 cross products.

    Valid when all cross products |a_i d_j - a_j d_i| * 2N and d_i d_j fit in
    int64; asserted before use.
    """
    num = np.array([p.numerator for p in points], dtype=np.int64)
    den = np.array([p.denominator for p in points], dtype=np.int64)
    dmax = int(den.max())
    two_n = 2 * N
    assert dmax * dmax * two_n < 2 ** 62, "would overflow the int64 oracle"
    best = 0
    chunk = max(1, 2 ** 22 // max(1, len(points)))
    for lo in range(0, len(points), chunk):
        hi = min(lo + chunk, len(points))
        p = np.abs(num[lo:hi, None] * den[None, :] - num[None, :] * den[lo:hi, None])
        q = den[lo:hi, None] * den[None, :]
        close = (p * two_n < q) | ((q - p) * two_n < q)
        best = max(best, int(close.sum(axis=1).max()))
    return best


def pairwise_min_spacing(values: list[Fraction]) -> Fraction:
    best = None
    for i, x in enumerate(values):
        for y in values[i + 1:]:
            d = abs(x - y)
            d = min(d, 1 - d)
            if best is None or d < best:
                best = d
    return best


def sylvester_resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) via the Sylvester matrix and fraction-free elimination.

    Coefficient lists are low-to-high; trailing zeros of g are trimmed so the
    actual degree is used.  Res(f, g) = lc(f)^deg(g) * prod g(alpha_i) over
    the roots of f, so for monic f this is the norm of g at a root.
    """
    f = list(f)
    g = list(g)
    while g and g[-1] == 0:
        g.pop()
    if not g:
        return 0
    df, dg = len(f) - 1, len(g) - 1
    if dg == 0:
        return g[0] ** df
    size = df + dg
    m = [[0] * size for _ in range(size)]
    frow = f[::-1]
    grow = g[::-1]
    for i in range(dg):
        for j, c in enumerate(frow):
            m[i][i + j] = c
    for i in range(df):
        for j, c in enumerate(grow):
            m[dg + i][i + j] = c
    # Bareiss fraction-free elimination
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


def primitive_character_count(m: int, phi) -> int:
    """Number of primitive characters mod m from the divisor-sum identity
    phi(m) = sum over d | m of (number of primitive characters mod d)."""
    def divisors(n):
        return [d for d in range(1, n + 1) if n % d == 0]

    memo = {1: 1}

    def rec(n):
        if n in memo:
            return memo[n]
        val = phi(n) - sum(rec(d) for d in divisors(n) if d < n)
        memo[n] = val
        return val

    return rec(m)


def loop_psi_chi(y: float, chi) -> complex:
    """psi(y, chi) by fsum over n <= y of Lambda(n) chi(n), split into real
    and imaginary parts."""
    vals = chi.values()
    m = chi.modulus
    re, im = [], []
    for n in range(2, int(y) + 1):
        ln = von_mangoldt(n)
        if ln:
            z = vals[n % m]
            if z:
                re.append(ln * z.real)
                im.append(ln * z.imag)
    return complex(fsum(re), fsum(im))


def loop_sup_abs_psi_chi(chi, x: float) -> float:
    """sup over y <= x of |psi(y, chi)| from the running prefix at jumps."""
    vals = chi.values()
    m = chi.modulus
    best = 0.0
    acc = 0j
    for t in range(2, int(x) + 1):
        ln = von_mangoldt(t)
        if not ln:
            continue
        z = vals[t % m]
        if z:
            acc += ln * z
            best = max(best, abs(acc))
    return best


def loop_discrepancy(m: int, x: float) -> tuple[float, int, float, bool]:
    """(value, residue, y, left_limit) of the sup over y <= x and coprime a of
    |psi(y; m, a) - y/phi(m)|, scanning both one-sided limits at each jump
    with one compensated accumulator per class."""
    phi = sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)
    acc = {a: KahanSum() for a in range(m) if gcd(a, m) == 1}
    best = (0.0, 1, 0.0, False)
    for t in range(2, int(x) + 1):
        ln = von_mangoldt(t)
        if not ln or t % m not in acc:
            continue
        a = t % m
        s = acc[a]
        drift = t / phi
        before = abs(s.total - drift)
        if before > best[0]:
            best = (before, a, float(t), True)
        after = abs(s.add(ln) - drift)
        if after > best[0]:
            best = (after, a, float(t), False)
    for a, s in acc.items():
        v = abs(s.total - x / phi)
        if v > best[0]:
            best = (v, a, float(x), False)
    return best
