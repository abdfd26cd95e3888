"""Independent oracles used across the test suite.

Everything here is deliberately written from scratch against definitions,
avoiding the library's own code paths, so an agreement test actually checks
two different routes to the same number.

A few routes here left the library because only tests called them:
``von_mangoldt``, ``moebius`` and the tuple weight ``prime_value_weight``
(Lambda times mu^2, on top of the library's ``factorize``), a
FactoredPoly's factor values at one point, the JSON round trip of an
MvPoly, ``poly_product``, the symbolic product of MvPolys, which no
library path expands, ``moduli_sieve_sum`` and ``sieve_sum``, which
compose the library's box and sieve steps, ``strided_sieve_sum``, the
Ramanujan expansion with one strided sum per divisor, which the library's
divisor-weight table replaced, ``laplace_norm_form``, the memoised
Laplace expansion of the norm form, which the library's dense level
expansion replaced, ``primitive_exponents``, the full exponent matrix
of the primitive characters, which the library's pair rows replaced, and
``enumerate_characters``, every character object mod m, which the
library's kernel never builds, with ``is_principal`` and the evaluators
``value_exponent``, ``character_value`` (chi(n)) and ``character_values``
(chi(n) for every n mod m), since the kernel reads root_table at its own
exponents.
``assert_plain_json`` checks the handler contract, which the report
writer's C encoder does not.  ``process_caches`` finds every cache a
polysieve module keeps between calls, and ``clear_caches`` empties them
all, the autocorrelation dict too, and drops the Lambda stream, so a cold
test starts cold.

The loop references at the end walk every n <= x and read Lambda pointwise
through ``von_mangoldt`` above.  They add the same terms in the same order
as the library's prime-power stream kernels, or sum them exactly and round
once where the kernel rounds correctly, so the two must agree exactly.
"""

import cmath
import importlib
import json
import pkgutil
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import fsum, gcd, log, prod

import numpy as np
import sympy

import polysieve
import polysieve.arith as arith
import polysieve.largesieve as largesieve
from polysieve.arith import euler_phi, factorize, is_prime, primes_up_to
from polysieve.bv import DiscrepancySumReport, default_eps_bad, max_progression_discrepancy
from polysieve.boxes import box_moduli
from polysieve.characters import (DirichletCharacter, _primitive_exponent, root_table,
                                  unit_group)
from polysieve.largesieve import autocorrelation, sieve_sums
from polysieve.mvpoly import MvPoly
from polysieve.normform import (DivisorSearchReport, PrimeValueReport, integer_nth_root,
                                norm_form)


def process_caches() -> dict[str, object]:
    """Every attribute with a cache_clear that a polysieve module defines
    (not one it imports), by `module.name`."""
    caches = {}
    for info in pkgutil.iter_modules(polysieve.__path__):
        module = importlib.import_module(f"polysieve.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == \
                    module.__name__:
                caches[f"{info.name}.{name}"] = value
    return caches


def clear_caches() -> None:
    """Empty every cache, the autocorrelation dict with them, and drop the
    Lambda stream: the two pieces of module state without a cache_clear."""
    for cache in process_caches().values():
        cache.cache_clear()
    largesieve._autocorrelations.clear()
    arith._lambda_stream = None


def von_mangoldt(n: int) -> float:
    """log p when n is a prime power p^e, else 0."""
    if n < 1:
        raise ValueError(f"von_mangoldt expects n >= 1, got {n}")
    if n < 2:
        return 0.0
    pp = factorize(n)
    if len(pp) == 1:
        return log(pp[0][0])
    return 0.0


def moebius(n: int) -> int:
    pp = factorize(n)
    if any(e > 1 for _, e in pp):
        return 0
    return -1 if len(pp) % 2 else 1


def prime_value_weight(vals) -> float:
    """mu^2(prod vals) times the product of Lambda(v) over the factor values
    vals = (H_1(q), ..., H_m(q)) of a tuple q.

    Nonzero only when every factor value is a prime power and the product is
    squarefree.  Defined as 0 whenever some factor value is < 1 (Lambda of a
    nonpositive integer has no meaning here).
    """
    if any(v < 1 for v in vals):
        return 0.0
    weight = 1.0
    for v in vals:
        lam = von_mangoldt(v)
        if lam == 0.0:
            return 0.0
        weight *= lam
    if moebius(prod(vals)) == 0:
        return 0.0
    return weight


def factor_values(F, x) -> tuple[int, ...]:
    """The tuple of factor values of a FactoredPoly at an integer point of
    F.num_vars coordinates; each factor reads its own leading ones."""
    return tuple(f.evaluate(x[:f.num_vars]) for f in F.factors)


def assert_plain_json(obj) -> None:
    """The handler contract, by exact type: dicts with str keys, lists, str,
    int, float, bool and None.  Anything else, tuples, int keys and numpy
    scalars included, raises TypeError.  The report writer's C encoder
    accepts tuples, int keys and np.float64, so the tests check it here."""
    kind = type(obj)
    if kind is dict:
        if not all(type(k) is str for k in obj):
            raise TypeError("JSON object keys must be str")
        for value in obj.values():
            assert_plain_json(value)
    elif kind is list:
        for value in obj:
            assert_plain_json(value)
    elif kind not in (str, int, float, bool, type(None)):
        raise TypeError(f"not a plain JSON value: {kind.__name__}")


def poly_to_json(P) -> str:
    return json.dumps(P.to_json_dict(), sort_keys=True)


def poly_from_json_dict(d: dict) -> MvPoly:
    return MvPoly(d["num_vars"], {tuple(t["exps"]): int(t["coef"]) for t in d["terms"]})


def poly_product(first, *rest) -> MvPoly:
    """The symbolic product of MvPolys in the same variables, every term of
    each against every term of the next."""
    terms = first.terms
    for P in rest:
        if P.num_vars != first.num_vars:
            raise ValueError(f"variable count mismatch: {first.num_vars} vs {P.num_vars}")
        out: dict = {}
        for e1, c1 in terms.items():
            for e2, c2 in P.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        terms = out
    return MvPoly(first.num_vars, terms)


def norm_sq(coeffs) -> float:
    """sum_n |a_n|^2, formed as autocorrelation forms it."""
    return float(np.sum(np.abs(coeffs) ** 2))


def moduli_sieve_sum(coeffs, M: int, moduli: dict) -> int | float:
    """The library's sieve_sums of coeffs on the window (M, M+N], N = len(coeffs)."""
    coeffs = np.asarray(coeffs)
    return sieve_sums(moduli, M, [len(coeffs)], lambda N: autocorrelation(coeffs))[0][1]


def sieve_sum(coeffs, M: int, P, Q: int, min_modulus=None) -> int | float:
    """The double sum over q ~ Q and reduced a/P(q) of |S(a/P(q))|^2, by the
    library's box_moduli and sieve_sums.  A min_modulus keeps only tuples
    with |P(q)| >= min_modulus; moduli |P(q)| <= 1 never enter."""
    return moduli_sieve_sum(coeffs, M, box_moduli(P, Q, min_modulus)[0])


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


def window(coeffs, M: int) -> np.ndarray:
    """The indices n of the window (M, M+N] of coeffs, N = len(coeffs)."""
    return np.arange(M + 1, M + len(coeffs) + 1, dtype=np.int64)


def exp_sums_all_residues(coeffs, M: int, m: int) -> np.ndarray:
    """S(a/m) for a = 0..m-1: fold n into residues mod m, then one DFT."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    folded = np.zeros(m, dtype=np.complex128)
    np.add.at(folded, window(coeffs, M) % m, coeffs)
    # entry a of m*ifft is sum_t folded[t] e(+a t / m)
    return m * np.fft.ifft(folded)


def coprime_residue_sum(coeffs, M: int, d: int) -> float:
    values = exp_sums_all_residues(coeffs, M, d)
    mask = np.gcd(np.arange(d), d) == 1
    mask[0] = False
    return float(np.sum(np.abs(values[mask]) ** 2))


def dft_sieve_sum(coeffs, M: int, moduli: dict) -> float:
    """The sieve sum over {d: mult} by one length-d DFT per modulus (the
    per-residue route), added in increasing d with an fsum."""
    return fsum(moduli[d] * coprime_residue_sum(coeffs, M, d) for d in sorted(moduli))


def exact_sieve_sum(int_coeffs, moduli: dict) -> int:
    """The sieve sum over {d: mult} of integer coefficients, exactly: R(h) as
    an O(N^2) integer correlation, and Ramanujan's sums from Hoelder's closed
    form c_d(h) = mu(d/g) phi(d) / phi(d/g), g = gcd(d, h)."""
    a = [int(c) for c in int_coeffs]
    N = len(a)
    R = [sum(a[n + h] * a[n] for n in range(N - h)) for h in range(N)]
    total = 0
    for d, mult in moduli.items():
        s = 0
        for h in range(-N + 1, N):
            g = gcd(d, h)
            s += R[abs(h)] * moebius(d // g) * (euler_phi(d) // euler_phi(d // g))
        total += mult * s
    return total


def strided_sieve_sum(coeffs, moduli: dict) -> int | float:
    """The sieve sum over {d: mult} by the Ramanujan-sum expansion, one divisor
    at a time: R(0) sum_d mult_d phi(d) + 2 sum_{e<N} e G(e) sum_{j>=1} R(je),
    with R(h) = Re sum_n a_{n+h} conj(a_n) by direct correlation and
    G(e) = sum_{e | d} mult_d mu(d/e) by trial division; the window offset
    drops out.  Exact in Python ints for real integer coefficients, else
    fsums of floats."""
    c = np.asarray(coeffs)
    N = len(c)
    if not c.imag.any() and np.array_equal(c.real, np.rint(c.real)):
        a = [int(x) for x in c.real]
        R = [sum(a[n + h] * a[n] for n in range(N - h)) for h in range(N)]
        add = sum
    else:
        R = [fsum((c[h:] * np.conj(c[:N - h])).real) for h in range(N)]
        add = fsum
    G, phi_total = Counter(), 0
    for d, mult in moduli.items():
        phi_total += mult * euler_phi(d)
        for e in range(1, min(d, N - 1) + 1):
            if d % e == 0:
                G[e] += mult * moebius(d // e)
    return add([R[0] * phi_total] + [2 * e * g * add(R[e::e]) for e, g in G.items()])


def exp_sum(coeffs, M: int, theta) -> complex:
    """S(theta) = sum a_n e(n theta) at an exact rational theta = a/m, term by
    term with the phase reduced through (a*n mod m)/m, accumulated with fsum."""
    theta = Fraction(theta)
    a, m = theta.numerator, theta.denominator
    re, im = [], []
    for n, coef in enumerate(coeffs, start=M + 1):
        z = complex(coef) * cmath.exp(2j * cmath.pi * ((a * n) % m) / m)
        re.append(z.real)
        im.append(z.imag)
    return complex(fsum(re), fsum(im))


def sum_sq_over_points(coeffs, M: int, points) -> float:
    """Sum of |S(x)|^2 over exact rationals x, one numpy pass per point."""
    n = window(coeffs, M)
    total = 0.0
    for theta in points:
        theta = Fraction(theta)
        ang = 2 * np.pi / theta.denominator * ((theta.numerator * n) % theta.denominator)
        total += abs(np.sum(coeffs * np.exp(1j * ang))) ** 2
    return total


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


def farey_points(system) -> list[Fraction]:
    """The points of a FareySystem as Fractions, each repeated by its
    multiplicity, in the order the system stores them."""
    return [Fraction(int(a), int(d)) for a, d, m in zip(system.a, system.d, system.mult)
            for _ in range(int(m))]


def loop_farey_points(P, Q: int, min_modulus=None) -> tuple[list[Fraction], int, int]:
    """(points, skipped_unit, skipped_filtered) over the box q ~ Q: for each q
    with m = |P(q)| > 1 (and m >= min_modulus when given), every a/m with
    0 <= a < m and gcd(a, m) = 1 as a Fraction; the points sorted."""
    points, skipped_unit, skipped_filtered = [], 0, 0
    for q in product(range(Q, 2 * Q), repeat=P.num_vars):
        m = abs(horner_eval(P.terms, P.num_vars, q))
        if m <= 1:
            skipped_unit += 1
        elif min_modulus is not None and m < min_modulus:
            skipped_filtered += 1
        else:
            points += [Fraction(a, m) for a in range(m) if gcd(a, m) == 1]
    return sorted(points), skipped_unit, skipped_filtered


def loop_max_close_points(points: list[Fraction], N: int) -> int:
    """Largest number of points within circular distance < 1/(2N) of one
    point: two monotone window pointers over the sorted points (with
    multiplicity) unrolled once, in exact rational arithmetic."""
    vals = list(points)
    n = len(vals)
    h = Fraction(1, 2 * N)
    ext = vals + [v + 1 for v in vals]
    best = 0
    right = 0
    left = 0
    for i in range(n):
        if i and vals[i] == vals[i - 1]:
            continue
        x = vals[i]
        if right < i:
            right = i
        hi = x + h
        while right < 2 * n and ext[right] < hi:
            right += 1
        lo = x + 1 - h
        while left < i + n and ext[left] <= lo:
            left += 1
        best = max(best, (right - i) + (i + n - left))
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


def loop_value_counts(P, Q: int) -> Counter:
    """Multiplicity of each value over the box, one evaluate call per point
    in box order."""
    counts: Counter = Counter()
    for q in product(range(Q, 2 * Q), repeat=P.num_vars):
        counts[P.evaluate(q)] += 1
    return counts


def loop_prime_value_sieve(spec, Q: int) -> PrimeValueReport:
    """prime_value_sieve by evaluating the norm form point by point and
    testing every value >= 2 for primality."""
    ell = spec.num_form_vars
    form = norm_form(spec)
    values: dict[int, list[list[int]]] = {}
    for q in product(range(Q, 2 * Q), repeat=ell):
        v = form.evaluate(q)
        if v >= 2 and is_prime(v):
            values.setdefault(v, []).append(list(q))
    count = sum(len(qs) for qs in values.values())
    return PrimeValueReport(
        values=values, count=count, distinct=len(values),
        max_multiplicity=max((len(qs) for qs in values.values()), default=0),
        density_ratio=count / (Q ** ell / log(Q)) if Q >= 2 else None,
        maynard_condition_ok=Fraction(ell) >= Fraction(3 * spec.degree, 4))


def loop_prime_divisor_search(spec, X: int, theta) -> DivisorSearchReport:
    """prime_divisor_search by testing every norm value below X for
    primality (a larger one cannot divide p - 1) and scanning the divisors of
    p - 1 for every prime p <= X; each d some p names keeps the first point
    in box order where its value is d."""
    theta = Fraction(theta)
    ell = spec.num_form_vars
    qmax = integer_nth_root(X, spec.degree)
    form = norm_form(spec)
    norm_primes: dict[int, tuple[int, ...]] = {}
    for q in product(range(1, qmax + 1), repeat=ell):
        v = form.evaluate(q)
        if 2 <= v < X and v not in norm_primes and is_prime(v):
            norm_primes[v] = q
    found, divisors, named = [], [], set()
    primes = primes_up_to(X)
    for p in primes:
        hits = [d for d in sympy.divisors(p - 1)
                if d in norm_primes and d ** theta.denominator >= p ** theta.numerator]
        if hits:
            found.append(p)
            divisors.append(hits)
            named.update(hits)
    return DivisorSearchReport(
        X=X, theta=theta, count=len(found), prime_count=len(primes),
        density=len(found) / len(primes) if primes else 0.0, q_range=qmax,
        primes=found, divisors=divisors,
        representations={d: list(norm_primes[d]) for d in sorted(named)})


def field_multiply(spec, u, v) -> tuple[int, ...]:
    """Power-basis coordinates of u*v in Z[t]/(f): the product polynomial,
    reduced from the top degree down with t^n = -(c_0 + ... + c_(n-1) t^(n-1))."""
    n = spec.degree
    if len(u) != n or len(v) != n:
        raise ValueError(f"coordinate vectors must have length {n}")
    out = [0] * (2 * n - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] += ui * vj
    for top in range(2 * n - 2, n - 1, -1):
        c, out[top] = out[top], 0
        for i in range(n):
            out[top - n + i] -= c * spec.coeffs[i]
    return tuple(out[:n])


def laplace_norm_form(spec) -> MvPoly:
    """The norm form as the determinant of multiplication by alpha =
    sum q_i w^(i-1), whose (row, col) entry is the sum over i of q_(i+1)
    times coordinate row of w^i w^col (field_multiply): a Laplace expansion
    along the first column left, memoised on the rows left, over dicts of
    exponent tuples."""
    n, ell = spec.degree, spec.num_form_vars
    unit = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    entry = {(col, i): field_multiply(spec, unit[i], unit[col]) for col in range(n)
             for i in range(ell)}

    @lru_cache(maxsize=None)
    def minor(rows: tuple[int, ...]) -> dict:
        if not rows:
            return {(0,) * ell: 1}
        col, total = n - len(rows), {}
        for pos, r in enumerate(rows):
            coeffs = [(-1) ** pos * entry[col, i][r] for i in range(ell)]
            if not any(coeffs):
                continue
            for e, v in minor(rows[:pos] + rows[pos + 1:]).items():
                for i, c in enumerate(coeffs):
                    key = e[:i] + (e[i] + 1,) + e[i + 1:]
                    total[key] = total.get(key, 0) + c * v
        return total

    return MvPoly(ell, minor(tuple(range(n))))


def _window_hits(v: int, m: int, L: int, R: int) -> int:
    """Number of y in [L+1, L+R] with y == v (mod m)."""
    first = L + 1 + (v - (L + 1)) % m
    if first > L + R:
        return 0
    return (L + R - first) // m + 1


def count_by_enumeration(inst) -> int:
    """count_solutions by looping over every x in the box and counting the
    matching y of each value by residue membership."""
    total = 0
    for x in product(*(range(k + 1, k + inst.H + 1) for k in inst.K)):
        v = (inst.a * inst.P.evaluate(x)) % inst.m
        total += _window_hits(v, inst.m, inst.L, inst.R)
    return total


def count_by_residue_classes(inst) -> int:
    """count_solutions by one evaluation per residue tuple in [0, m)^ell,
    weighted by how often each coordinate interval [K_i+1, K_i+H] meets the
    residue class (floor(H/m) or ceil(H/m) times)."""
    m, ell = inst.m, inst.P.num_vars
    base, rem = divmod(inst.H, m)
    mults = []
    for k in inst.K:
        row = [base] * m
        start = (k + 1) % m
        for j in range(rem):
            row[(start + j) % m] += 1
        mults.append(row)
    total = 0
    for t in product(range(m), repeat=ell):
        w = prod(row[ti] for row, ti in zip(mults, t))
        if w:
            v = (inst.a * inst.P.evaluate(t)) % m
            total += w * _window_hits(v, m, inst.L, inst.R)
    return total


def representation_count(P, m: int, Q: int) -> int:
    """Number of q ~ Q with P(q) = m, by exact enumeration of the box."""
    return sum(1 for q in product(range(Q, 2 * Q), repeat=P.num_vars)
               if P.evaluate(q) == m)


def walk_dlog(q: int, g: int, s: int) -> list[int]:
    """n mod q -> the t < s with g^t = n (mod q), -1 elsewhere, by walking
    the powers of g one multiplication at a time."""
    table = [-1] * q
    v = 1
    for t in range(s):
        table[v] = t
        v = v * g % q
    return table


def walk_dlog_2e(q: int) -> tuple[list[int], list[int]]:
    """The dlog tables (a, b) of the components <-1> and <5> of (Z/2^e)*,
    e >= 3, with n = (-1)^a 5^b (mod q), by walking 5^b and -5^b."""
    da = [-1] * q
    db = [-1] * q
    for aa in (0, 1):
        v = q - 1 if aa else 1
        for bb in range(q // 4):
            da[v] = aa
            db[v] = bb
            v = v * 5 % q
    return da, db


def enumerate_characters(m: int) -> list[DirichletCharacter]:
    """All phi(m) characters mod m, ordered lexicographically by exponent
    vector on the fixed component generators (principal character first)."""
    group = unit_group(m)
    return [DirichletCharacter(group, exps)
            for exps in product(*(range(c.order) for c in group.components))]


def is_principal(chi) -> bool:
    return all(c == 0 for c in chi.exponents)


def value_exponent(chi, n: int):
    """Exponent t with chi(n) = e(t / group.exponent); None on non-units."""
    m = chi.modulus
    n %= m
    if gcd(n, m) != 1:
        return None
    e = chi.group.exponent
    t = 0
    for c, comp in zip(chi.exponents, chi.group.components):
        t += c * (e // comp.order) * int(comp.dlog[n % comp.modulus])
    return t % e


def character_value(chi, n: int) -> complex:
    """chi(n), read from root_table at value_exponent(chi, n)."""
    t = value_exponent(chi, n)
    if t is None:
        return 0j
    return complex(root_table(chi.group.exponent)[t])


def character_values(chi) -> np.ndarray:
    """chi(n) for n = 0..m-1 as a complex array."""
    e = chi.group.exponent
    n = np.arange(chi.modulus, dtype=np.int64)
    t = np.zeros(chi.modulus, dtype=np.int64)
    for c, comp in zip(chi.exponents, chi.group.components):
        t += c * (e // comp.order) * comp.dlog[n % comp.modulus]
    vals = root_table(e)[t % e]
    vals[np.gcd(n, chi.modulus) != 1] = 0   # m = 2 * odd has no component for 2
    return vals


def primitive_exponents(group) -> np.ndarray:
    """The exponent vectors of the primitive characters mod m, one int64 row
    each in the order of enumerate_characters: the product of the sets
    _primitive_exponent allows per component, or no rows if m = 2 (mod 4)."""
    rows = np.zeros((int(group.modulus % 4 != 2), 0), dtype=np.int64)
    for comp in group.components:
        c = np.flatnonzero(_primitive_exponent(comp, np.arange(comp.order)))
        rows = np.column_stack([np.repeat(rows, len(c), axis=0), np.tile(c, len(rows))])
    return rows


def scan_conductor(chi) -> int:
    """Smallest d | m such that chi(n) = 1 for every unit n == 1 (mod d),
    by scanning each divisor's progression."""
    m = chi.modulus
    for d in sympy.divisors(m):
        if all(value_exponent(chi, n) == 0 for n in range(1, m + 1, d)
               if gcd(n, m) == 1):
            return d
    return m


def loop_psi_chi(y: float, chi) -> complex:
    """psi(y, chi) by fsum over n <= y of Lambda(n) chi(n), split into real
    and imaginary parts."""
    vals = character_values(chi)
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
    vals = character_values(chi)
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
    with one exact Fraction sum per class, rounded by float() at each step.

    The library kernel returns the value only, so this is the one place the
    witness is computed: the first maximum in the scan, which takes the
    smallest t, the left limit before the right, and at y = x the smallest
    residue."""
    phi = sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)
    acc = {a: Fraction(0) for a in range(m) if gcd(a, m) == 1}
    best = (0.0, 1, 0.0, False)
    for t in range(2, int(x) + 1):
        ln = von_mangoldt(t)
        if not ln or t % m not in acc:
            continue
        a = t % m
        drift = t / phi
        before = abs(float(acc[a]) - drift)
        if before > best[0]:
            best = (before, a, float(t), True)
        acc[a] += Fraction(ln)
        after = abs(float(acc[a]) - drift)
        if after > best[0]:
            best = (after, a, float(t), False)
    for a, s in acc.items():
        v = abs(float(s) - x / phi)
        if v > best[0]:
            best = (v, a, float(x), False)
    return best


def loop_discrepancy_sum(F, Q: int, x: float, eps_bad=None,
                         A: float = 2.0) -> DiscrepancySumReport:
    """discrepancy_sum by walking every tuple of the box and computing one
    discrepancy per tuple of nonzero weight.

    Each tuple is weighed by the definition, prime_value_weight above, and
    only the discrepancy kernel is the library's; what it checks is the
    library's distinct-primes weight and its grouping by distinct tuple and
    distinct modulus.  The degree k is read off the symbolic product of
    the factors, each padded to all ell variables, not summed from the
    factor degrees as the library does; each tuple of the whole box is
    evaluated factor by factor, not read off per-factor boxes."""
    ell = F.num_vars
    padded = [MvPoly(ell, {e + (0,) * (ell - f.num_vars): c for e, c in f.terms.items()})
              for f in F.factors]
    k = poly_product(*padded).total_degree()
    if eps_bad is None:
        eps_bad = default_eps_bad(Q, k, A, len(F.factors))
    threshold = Fraction(eps_bad) * Q ** k
    parts, weights = [], []
    excluded = negative = nonzero = 0
    for q in product(range(Q, 2 * Q), repeat=ell):
        vals = factor_values(F, q)
        m = prod(vals)
        if abs(m) <= threshold:
            excluded += 1
        elif any(v < 1 for v in vals):
            negative += 1
        elif w := prime_value_weight(vals):
            nonzero += 1
            weights.append(w)
            disc = max_progression_discrepancy(m, tuple(sorted(vals)), x)   # distinct primes
            parts.append(w * euler_phi(m) / Q ** ell * disc)
    return DiscrepancySumReport(
        value=fsum(parts), comparator=x / log(x) ** A if x > 1 else None,
        Q=Q, x=x, A=A, eps_bad=eps_bad, box_size=Q ** ell,
        excluded_small=excluded, negative_factor_tuples=negative,
        nonzero_weight_tuples=nonzero, weight_sum=fsum(weights))
