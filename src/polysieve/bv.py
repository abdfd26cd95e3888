"""Exponent arithmetic for polynomial moduli, maximal progression
discrepancies, and the two desk-scale average sums built from them: the
discrepancy sum over tuples of distinct prime factor values and the mean
value sum over primitive characters.

All exponent arithmetic is exact rational (fractions.Fraction).  With
R = r(k+1) and r = C(k+ell, ell) - 1, the admissible level exponent
1/(2k + k/(2 rho)) simplifies to 2R / (k(5R - 1)), which is the closed form
asserted by the tests.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor, fsum, inf, log, prod

import numpy as np

from . import arith
from .arith import euler_phi, factorize, von_mangoldt_table
from .boxes import box_moduli, box_values, check_box_budget
from .characters import CHAR_MODULUS_CAP, root_table, unit_group
from .congruence import R_PARAMETER_BITS, r_parameter
from .errors import charge
from .mvpoly import FactoredPoly, MvPoly

# Complex entries per block of the character sup kernel: keeps its memory flat.
_SUP_BLOCK = 2 ** 14
# Distinct weighted moduli times stream terms: the discrepancy scans of discrepancy_sum.
DISCREPANCY_BUDGET = 5 * 10 ** 7
# Primitive characters times stream terms, summed over the moduli of mean_value_sum.
MEAN_VALUE_BUDGET = 5 * 10 ** 8
# The distinct moduli of mean_value_sum, summed: the size of their unit groups'
# tables, which take about 90 ns per unit to build near CHAR_MODULUS_CAP.  It
# over-counts, as the moduli d = 2 (mod 4) build no group.
UNIT_GROUP_BUDGET = 8 * 10 ** 7
# Subset divisors 2^m - 1 that check_setting lists: 16 factors, about 18 MB of JSON.
SETTING_DIVISOR_BUDGET = 2 ** 16


@dataclass(frozen=True)
class ExponentProfile:
    """Exact exponent data attached to a degree/variable-count pair."""
    k: int
    ell: int
    r: int
    rho: Fraction
    level_exponent: Fraction
    variable_condition_rhs: Fraction       # (1 - 1/(2 rho)) * k
    conjectural_level_exponent: Fraction   # 1 / (2k)
    maynard_rhs: Fraction                  # 3k / 4


def exponent_profile(k: int, ell: int) -> ExponentProfile:
    if k < 1 or ell < 1:
        raise ValueError("need k >= 1 and ell >= 1")
    r = r_parameter(k, ell)
    R = r * (k + 1)
    # k(5R - 1) bounds every integer of the profile, so all of them can be printed
    charge("bits of the exponent fractions", (k * (5 * R - 1)).bit_length(), R_PARAMETER_BITS)
    rho = Fraction(R, R - 1)
    level = 1 / (2 * k + Fraction(k, 1) / (2 * rho))
    return ExponentProfile(
        k=k, ell=ell, r=r, rho=rho, level_exponent=level,
        variable_condition_rhs=(1 - 1 / (2 * rho)) * k,
        conjectural_level_exponent=Fraction(1, 2 * k),
        maynard_rhs=Fraction(3 * k, 4),
    )


@dataclass(frozen=True)
class FactorCheck:
    index: int
    degree: int
    num_vars_used: int
    used_variables: tuple[int, ...]
    min_top_coeff: int
    profile: ExponentProfile
    variable_condition_ok: bool   # ell_j >= (1 - 1/(2 rho_j)) k_j, exact


@dataclass(frozen=True)
class DivisorCheck:
    factor_indices: tuple[int, ...]
    degree: int
    num_vars_used: int
    level_exponent: Fraction
    monotone_ok: bool   # full-product level exponent <= divisor level exponent


@dataclass(frozen=True)
class SettingReport:
    factors: tuple[FactorCheck, ...]
    divisors: tuple[DivisorCheck, ...]
    product_degree: int
    product_num_vars_used: int
    product_min_top_coeff: int
    product_profile: ExponentProfile
    all_variable_conditions_ok: bool
    all_divisors_monotone: bool
    top_coeffs_are_one: bool


def check_setting(F: FactoredPoly) -> SettingReport:
    """Per-factor exponent data, the variable-count condition, and the
    divisor level-exponent monotonicity, all in exact arithmetic.

    The divisors are the 2^m - 1 subset products, by increasing bitmask
    (factor 1 = lowest bit).  The factors' variables are disjoint, so no terms
    merge: degrees and used-variable counts add, top coefficients multiply.
    More than SETTING_DIVISOR_BUDGET divisors are refused before any profile.
    """
    charge("setting divisors", (1 << len(F.factors)) - 1, SETTING_DIVISOR_BUDGET)
    checks = []
    for i, f in enumerate(F.factors):
        kj = f.total_degree()
        used = sorted(f.used_variables())
        lj = len(used)
        prof = exponent_profile(kj, lj)
        checks.append(FactorCheck(
            index=i + 1, degree=kj, num_vars_used=lj, used_variables=tuple(used),
            min_top_coeff=f.min_top_coeff(), profile=prof,
            variable_condition_ok=Fraction(lj) >= prof.variable_condition_rhs))
    k = sum(c.degree for c in checks)
    ell = sum(c.num_vars_used for c in checks)
    prof = exponent_profile(k, ell)
    divisors = []
    for mask in range(1, 1 << len(checks)):
        part = [c for c in checks if mask >> (c.index - 1) & 1]
        dk = sum(c.degree for c in part)
        dell = sum(c.num_vars_used for c in part)
        dlevel = exponent_profile(dk, dell).level_exponent
        divisors.append(DivisorCheck(
            factor_indices=tuple(c.index for c in part), degree=dk, num_vars_used=dell,
            level_exponent=dlevel, monotone_ok=prof.level_exponent <= dlevel))
    return SettingReport(
        factors=tuple(checks), divisors=tuple(divisors), product_degree=k,
        product_num_vars_used=ell, product_min_top_coeff=prod(c.min_top_coeff for c in checks),
        product_profile=prof,
        all_variable_conditions_ok=all(c.variable_condition_ok for c in checks),
        all_divisors_monotone=all(d.monotone_ok for d in divisors),
        top_coeffs_are_one=all(c.min_top_coeff == 1 for c in checks))


def _coprime_terms(m: int, T: np.ndarray, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The terms of the prime-power stream (T, L) coprime to m.  The stream
    holds every prime power up to its last term, and a term shares a prime
    with m iff it is a power of one of m's primes: one searchsorted finds them."""
    top = int(T[-1]) if len(T) else 0
    powers = []
    for p, _ in factorize(m):
        q = p
        while q <= top:
            powers.append(q)
            q *= p
    keep = np.ones(len(T), dtype=bool)
    keep[np.searchsorted(T, powers)] = False
    return T[keep], L[keep]


@lru_cache(maxsize=1 << 12, typed=True)
def max_progression_discrepancy(m: int, x: float) -> float:
    """sup over y <= x and coprime residues a of |psi(y; m, a) - y/phi(m)|.

    Between jump points the difference is linear in y, so the sup is at y = x
    or at a one-sided limit of a jump.  Each prefix psi(t; m, a) of the
    stably class-sorted stream is an exact int64 cumsum of L * 2^53 in two
    29-bit halves (below 2^53 under LAMBDA_LIMIT), rounded once, whatever m.
    A coprime class with no term deviates by x/phi at y = x.

    The stream is a prefix of the grow-only von_mangoldt_table, so the value
    depends on (m, x) alone and is memoized on them and on x's type (an int
    and a float x divide a phi past 2^53 differently).  A raise is not kept.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    phi = euler_phi(m)
    T, L = _coprime_terms(m, *von_mangoldt_table(int(x)))
    if not len(T):   # every coprime class is empty
        return x / phi
    R = T % m
    order = np.argsort(R.astype(np.min_scalar_type(m - 1)), kind="stable")   # radix if small
    T, L, R = T[order], L[order], R[order]
    start = np.flatnonzero(np.concatenate(([True], R[1:] != R[:-1])))
    stop = np.append(start[1:], len(T))
    K = np.ldexp(L, 53).astype(np.int64)   # exact: 2^52 <= K < 2^58
    hi, lo = [(s := np.cumsum(k)) - np.repeat(s[start] - k[start], stop - start)
              for k in (K >> 29, K & (2 ** 29 - 1))]   # each class restarts at 0
    after = np.ldexp(np.ldexp(hi.astype(float), 29) + lo, -53)
    before = np.concatenate(([0.0], after[:-1]))
    before[start] = 0.0
    return float(max(np.abs(before - T / phi).max(), np.abs(after - T / phi).max(),
                     np.abs(after[stop - 1] - x / phi).max(),
                     x / phi if len(start) < phi else 0.0))


def default_eps_bad(Q: int, k: int, A: float, m: int) -> float:
    """(log(Q+2))^(-k(A+m+1)); the +2 keeps Q = 1 meaningful."""
    return log(Q + 2) ** (-k * (A + m + 1))


@dataclass(frozen=True)
class DiscrepancySumReport:
    """The weighted average of maximal progression discrepancies over the box,
    with small moduli excluded, next to the x/(log x)^A comparator (None
    at x = 1, where log x is 0)."""
    value: float
    comparator: float | None
    Q: int
    x: float
    A: float
    eps_bad: float
    box_size: int
    excluded_small: int
    negative_factor_tuples: int
    nonzero_weight_tuples: int
    weight_sum: float


def _at_most(sets: list[tuple[np.ndarray, np.ndarray]], bound: int) -> int:
    """The tuples of the product of the sets (ascending values >= 1, which
    may repeat, with their counts), each counted by the product of its
    counts, whose product of values is <= bound: the bounds floor(bound /
    prefix product) left for the later sets, then one searchsorted in the last."""
    if prod(int(v[0]) if len(v) else bound + 1 for v, _ in sets) > bound:
        return 0
    dtype = np.int64 if bound < 2 ** 63 else object   # floor division never grows a bound
    bounds, weights = np.array([bound], dtype), np.ones(1, np.int64)
    for v, c in sets[:-1]:
        n = np.searchsorted(v, bound, "right")   # exact: no later value is below 1
        b = np.floor_divide.outer(bounds, v[:n].astype(dtype)).ravel()
        keep = b > 0
        bounds, weights = b[keep], np.multiply.outer(weights, c[:n]).ravel()[keep]
    v, c = sets[-1]
    cum = np.concatenate(([0], np.cumsum(c)))
    return int(weights @ cum[np.searchsorted(v, bounds, "right")])


def _first_refused(lists, starts, primes, bigs, threshold: int) -> tuple[int, int] | None:
    """(flat index, value) of the first tuple, in tuple order, that factorize
    refuses: m > threshold, every value >= 1, and at some place j a value
    above FACTOR_LIMIT (positions bigs[j] into lists[j]) after prime values
    (positions primes[t]); the values >= 1 of lists[t] start at starts[t].
    Per j, the first such tuple takes at each place the first value whose
    product with the largest completion exceeds the threshold; None if no
    tuple is refused."""
    first = None
    for j, big in enumerate(bigs):
        places = [*primes[:j], big, *(range(s, len(ns)) for ns, s in
                                      zip(lists[j + 1:], starts[j + 1:]))]
        if not all(places):
            continue
        cols = [[ns[i] for i in ix] for ns, ix in zip(lists, places)]
        tails = [prod(col[-1] for col in cols[t:]) for t in range(len(cols) + 1)]
        flat, made = 0, 1
        for t, (col, ix) in enumerate(zip(cols, places)):
            i = bisect_right(col, threshold // (made * tails[t + 1]))
            if i == len(col):   # only at t = 0: the largest completion passes after it
                break
            made *= col[i]
            flat = flat * len(lists[t]) + ix[i]
            if t == j:
                value = col[i]
        else:
            if first is None or flat < first[0]:
                first = flat, value
    return first


def discrepancy_sum(F: FactoredPoly, Q: int, x: float, eps_bad: float | None = None,
                    A: float = 2.0) -> DiscrepancySumReport:
    """Sum over q ~ Q with |P(q)| > eps_bad * Q^k of
    weight(q) * phi(P(q)) / Q^ell * discrepancy(P(q), x), where
    weight(q) = mu^2(P(q)) prod_j Lambda(H_j(q)).

    The variables are disjoint, so the tuples are the product of the
    factors' boxes over their own variables, one box_values each (kept for
    an --x sweep), in lexicographic order with the counts multiplied (and by
    Q per variable no factor uses).  Each factor's distinct values are
    tested once for sign, size against FACTOR_LIMIT (read at call time) and
    primality, a factor's only if every earlier factor has a prime value.
    |m| <= threshold and the sign classes are counted by _at_most on the
    nonzero |values| and on the values >= 1.  For values >= 1 the weight is
    nonzero exactly when the H_j(q) are pairwise distinct primes, and is
    then the left-to-right product of math.log H_j(q); those tuples with
    m > threshold are built one factor at a time, a prime being new iff it
    does not divide the earlier ones' product, and phi(m) is the product of
    the p - 1.  Only they cost a discrepancy evaluation.

    The refusals keep the per-tuple order: past a factor value above
    FACTOR_LIMIT in a tuple whose earlier values are all prime, the Lambda
    table is read if the first weighted tuple comes before it, then that
    value is refused; else the Lambda table is read if a tuple is weighted,
    then the first weighted modulus above FACTOR_LIMIT is refused, then
    distinct weighted moduli times stream terms above DISCREPANCY_BUDGET,
    counted cold whatever the kernel's memo holds.  The discrepancy is read
    once per distinct modulus, ascending, and each weighted tuple's part
    w * phi(m) / Q^ell * disc(m), repeated by its multiplicity, is summed by
    fsum, so the result does not depend on the order of the tuples.
    """
    ell = F.num_vars
    k = sum(f.total_degree() for f in F.factors)
    check_box_budget(Q, ell)
    if eps_bad is None:
        eps_bad = default_eps_bad(Q, k, A, len(F.factors))
    if eps_bad <= 0:
        raise ValueError("eps_bad must be positive")
    try:
        comparator = x / log(x) ** A if x > 1 else None
        if comparator == inf:   # a float quotient overflows without raising
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"x/(log x)^A is out of float range at x={x}, A={A}") from None
    threshold = floor(Fraction(eps_bad) * Q ** k)   # exact for the integer |m|
    if x < 1:   # the kernel's check, whether or not a tuple reaches the kernel
        raise ValueError(f"need x >= 1, got {x}")
    limit = arith.FACTOR_LIMIT
    values, counts, free = [], [], ell
    for f in F.factors:
        used = sorted(f.used_variables())
        v, c = box_values(MvPoly(len(used), {tuple(e[i - 1] for i in used): coef
                                             for e, coef in f.terms.items()}), Q)
        values.append(v)
        counts.append(c)
        free -= len(used)
    every, scale = Q ** (ell - free), Q ** free   # the variables no factor uses
    lists = [v.tolist() for v in values]
    starts = [bisect_left(ns, 1) for ns in lists]   # the values >= 1 are a suffix
    positive = [(v[s:], c[s:]) for v, c, s in zip(values, counts, starts)]
    nonzero_abs = []   # sorted, not merged: _at_most counts a repeated value as often
    for v, c in zip(values, counts):
        order = np.argsort(np.abs(v[v != 0]), kind="stable")
        nonzero_abs.append((np.abs(v[v != 0])[order], c[v != 0][order]))
    small = every - prod(int(c.sum()) for _, c in nonzero_abs) + _at_most(nonzero_abs, threshold)
    below_one = every - prod(int(c.sum()) for _, c in positive)
    negative = below_one - small + _at_most(positive, threshold)
    primes, bigs = [], []   # per factor, positions into its values; the big ones are a suffix
    for ns, s in zip(lists, starts):
        reached = all(primes)   # every earlier factor has a prime value
        cut = bisect_right(ns, limit)
        primes.append([i for i in range(s, cut) if ns[i] > 1
                       and factorize(ns[i]) == ((ns[i], 1),)] if reached else [])
        bigs.append(range(cut, len(ns)) if reached else range(0))
    refused = _first_refused(lists, starts, primes, bigs, threshold) if any(bigs) else None
    wide = prod(ns[p[-1]] if p else 0 for ns, p in zip(lists, primes)) >= 2 ** 63
    m = phi = np.ones(1, object if wide else np.int64)
    w, mult, ok = np.ones(1), np.array([scale]), np.ones(1, bool)
    for ns, c, p in zip(lists, counts, primes):   # the product of the primes, in tuple order
        pv = np.array([ns[i] for i in p], m.dtype)
        ok = (ok[:, None] & (m[:, None] % pv != 0)).ravel()   # p is new iff it does not divide m
        m, phi = np.multiply.outer(m, pv).ravel(), np.multiply.outer(phi, pv - 1).ravel()
        w = np.multiply.outer(w, [log(n) for n in pv.tolist()]).ravel()   # left to right
        mult = np.multiply.outer(mult, c[p]).ravel()
    keep = np.flatnonzero(ok & (m > threshold))
    if refused:   # the first weighted tuple against the first refused one
        if len(keep):
            at = np.unravel_index(keep[0], [len(p) for p in primes])
            if np.ravel_multi_index([p[i] for p, i in zip(primes, at)],
                                    [len(ns) for ns in lists]) < refused[0]:
                von_mangoldt_table(int(x))   # LAMBDA_LIMIT before the refused tuple
        factorize(refused[1])
    m, phi, w, mult = m[keep], phi[keep], w[keep], mult[keep]
    T = von_mangoldt_table(int(x))[0] if len(m) else ()   # LAMBDA_LIMIT first
    over = np.flatnonzero(m > limit)
    if len(over):
        factorize(int(m[over[0]]))   # the first weighted modulus past FACTOR_LIMIT
    moduli, where = np.unique(m.astype(np.int64), return_inverse=True)
    coef = w * phi.astype(float) / Q ** ell   # phi(m): m is squarefree
    weight_sum = fsum(np.repeat(w, mult).tolist())
    del m, phi, w, keep, ok   # before the kernel, which reads none of them
    charge("discrepancy work", len(moduli) * len(T), DISCREPANCY_BUDGET)
    disc = np.array([max_progression_discrepancy(n, x) for n in moduli.tolist()], dtype=float)
    parts = np.repeat(coef * disc[where], mult).tolist()
    return DiscrepancySumReport(
        value=fsum(parts), comparator=comparator, Q=Q, x=x, A=A,
        eps_bad=eps_bad, box_size=Q ** ell, excluded_small=small * scale,
        negative_factor_tuples=negative * scale, nonzero_weight_tuples=int(mult.sum()),
        weight_sum=weight_sum)


@dataclass(frozen=True)
class MeanValueReport:
    """The mean value sum, its moduli |P(q)| with their multiplicities in the
    box, and the count of tuples skipped because |P(q)| <= 1."""
    value: float
    moduli: dict[int, int]
    skipped_unit_moduli: int


def _primitive_sups(d: int, T: np.ndarray, L: np.ndarray,
                    carry=None) -> tuple[list[float], tuple]:
    """sup over y <= x of |psi(y, chi)| from the prime-power stream (T, L)
    up to x, for the rows of unit_group(d).primitive_pairs (one primitive
    character per conjugate pair, cached with the group), doubled unless chi
    is real: |psi(y, chi-bar)| = |psi(y, chi)| as Lambda is real, and 2s is
    exact, so the fsum, in any order, is the one over every primitive
    character.  Terms with gcd(T, d) > 1 only repeat a prefix sum, so they
    are dropped.  Per block of characters C, t = (C @ W) mod e with
    W_i = (e / s_i) dlog_i(T) is exact in int64 under CHAR_MODULUS_CAP: each
    of at most 7 components adds < e s_i <= 10^10.  roots[t] are the floats
    of chi.values()[T % d].  np.hypot rounds like the scalar abs of a complex
    and runs only where s = re^2 + im^2 >= (1 - 2^-40) max s of the row: s is
    within 2^-51 relative and hypot within 1 ulp, so the largest hypot's s is
    within about 2^-47 of the row's max s and is never dropped.

    Returns the sups and the carry after them: k coprime terms summed, psi
    after the k-th and the undoubled sup of every row.  Given the carry of a
    shorter prefix of the same stream, it sums only the terms past k, with
    the carried psi added into the first new column: a row's cumsum is a
    sequential accumulate, so every prefix is the cold one bit for bit, and
    the filter finds the new prefixes' largest hypot exactly, so its max with
    the carried sup is the cold sup.  No carry, or one past len(T), starts
    empty; the carry passed in is never written."""
    group = unit_group(d)
    chars, real = group.primitive_pairs
    T, L = _coprime_terms(d, T, L)
    if carry and carry[0] <= len(T):
        k, psi, sups = carry[0], carry[1].copy(), carry[2].copy()
    else:
        k, psi, sups = 0, np.zeros(len(chars), dtype=complex), np.zeros(len(chars))
    total, T, L = len(T), T[k:], L[k:]
    e = group.exponent
    W = np.array([e // comp.order * comp.dlog[T % comp.modulus] for comp in group.components])
    roots = root_table(e)
    step = max(1, _SUP_BLOCK // max(len(L), 1))
    for i in range(0, len(chars) if len(L) else 0, step):
        c = roots[chars[i:i + step] @ W % e] * L
        c[:, 0] += psi[i:i + step]
        np.cumsum(c, axis=1, out=c)
        psi[i:i + step] = c[:, -1]
        s = c.real * c.real + c.imag * c.imag
        row, col = np.nonzero(s >= s.max(axis=1)[:, None] * (1 - 2 ** -40))
        np.maximum.at(sups, i + row, np.hypot(c.real[row, col], c.imag[row, col]))
    doubled = np.repeat([2.0, 1.0], [len(chars) - real, real])
    return (sups * doubled).tolist(), (total, psi, sups)   # exact


@lru_cache(maxsize=1 << 12)
def _mean_value_total(d: int, limit: int) -> float:
    """fsum of the primitive sups mod d over von_mangoldt_table(limit).  The
    kernel resumes from unit_group(d).sup_carry and replaces it once its sums
    are done, so a raise leaves the carry as it was.  Keyed on the stream's
    last term, a sweep meets each (modulus, stream) once while the entry is
    kept."""
    group = unit_group(d)
    sups, group.sup_carry = _primitive_sups(d, *von_mangoldt_table(limit), group.sup_carry)
    return fsum(sups)


def mean_value_sum(P: MvPoly, Q: int, x: float) -> MeanValueReport:
    """Sum over q ~ Q of P(q)/phi(P(q)) times the sum over primitive
    characters mod P(q) of sup_{y <= x} |psi(y, chi)|.

    Moduli are |P(q)|; tuples with |P(q)| <= 1 contribute nothing (there is
    no primitive character to sum over by the convention adopted here), nor
    do moduli d = 2 (mod 4), which have none: no group, kernel or total is
    built for them.  Before any kernel call, the smallest modulus above
    CHAR_MODULUS_CAP is refused, then stream terms times primitive characters
    (phi(p^e) - phi(p^(e-1)) per prime power p^e || d), summed over every d,
    above MEAN_VALUE_BUDGET, then the sum of every modulus d above
    UNIT_GROUP_BUDGET.  Both estimates are the cold cost, whatever groups,
    carries and totals (_mean_value_total) are cached.
    """
    T, _ = von_mangoldt_table(max(int(x), 0))
    moduli, skipped, _, _ = box_moduli(P, Q)
    charge("character modulus", next((d for d in moduli if d > CHAR_MODULUS_CAP), 0),
           CHAR_MODULUS_CAP)
    charge("mean value work", len(T) * sum(
        prod(p ** (e - 2) * (p - 1) ** 2 if e > 1 else p - 2 for p, e in factorize(d))
        for d in moduli), MEAN_VALUE_BUDGET)
    charge("sum of unit group moduli", sum(moduli), UNIT_GROUP_BUDGET)
    top = int(T[-1]) if len(T) else 0   # the stream's last term: one key per stream
    parts = [mult * d / euler_phi(d) * _mean_value_total(d, top)
             for d, mult in moduli.items() if d % 4 != 2]
    return MeanValueReport(value=fsum(parts), moduli=moduli,
                           skipped_unit_moduli=skipped)
