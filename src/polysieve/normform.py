"""Incomplete norm forms of a monic irreducible integer polynomial and the
search for primes p whose p-1 has a large prime divisor of norm-form shape.

The norm of q1 + q2 w + ... + q_(n-k) w^(n-k-1) is computed as the exact
symbolic determinant of the multiplication matrix on the power basis
1, w, ..., w^(n-1), expanded along its columns in dense levels: each minor on
a row subset is one integer vector over the monomials of its degree
(division-free, so signs and integer coefficients are unambiguous).
Irreducibility of the defining polynomial is checked only by a cheap
necessary battery (no integer roots, squarefree); full irreducibility is a
user assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, log, log2, prod

import numpy as np

from . import arith
from .arith import exact_dtype, factorize, is_prime, prime_flags
from .boxes import box_grid, check_box_budget
from .errors import charge
from .mvpoly import MvPoly, parse_poly

# Largest size in bits of the exact power d^td that prime_divisor_search
# compares p^tn against.
THETA_POWER_BITS = 1 << 16
# Most norm values, (X^(1/n))^(n-truncation), that prime_divisor_search sieves.
NORM_VALUE_BUDGET = 20_000_000
# Most work n 2^(n-1) C(n+ell-1, ell-1) of norm_form's level expansion: its
# row subsets, times n rows, times the degree-n monomials in ell variables.
# At the cap, norm-form on a dense degree 10 in 10 variables takes about 3 s
# on a 2-core x86-64 host.
NORM_FORM_BUDGET = 500_000_000
# Most entries of prime_divisor_search's walk, the (d, p = 1 + j d) it
# checks: about 95 bytes each at their peak.
DIVISOR_WALK_BUDGET = 3_000_000
# Relative margin inside which a float d^(td/tn) leaves a walk end undecided.
WALK_END_MARGIN = 2.0 ** -40
# Most bytes of prime_value_sieve's window per distinct value: the window costs
# 4-13 ns a byte, is_prime 1.7-4.7 us a value (2-core x86-64), even near 400.
WINDOW_BYTES_PER_VALUE = 400


def integer_nth_root(x: int, n: int) -> int:
    """Largest r >= 0 with r^n <= x, by integer Newton iteration.

    Newton starts from a float estimate of x^(1/n) raised by 2^-32 relative,
    if its n-th power exceeds x (checked exactly), else from 2^ceil(bits(x)/n).
    A step from above the root lands at or above it (AM-GM) and strictly below
    the previous iterate, so the first step that does not decrease starts
    from the root.
    """
    if x < 0 or n < 1:
        raise ValueError("need x >= 0 and n >= 1")
    if x == 0:
        return 0
    r = 1 << -(-x.bit_length() // n)
    e = log2(x) / n
    shift = max(int(e) - 52, 0)
    guess = (int(2.0 ** (e - shift) * (1 + 2.0 ** -32)) + 1) << shift
    if guess < r and guess ** n > x:
        r = guess
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = a[:]
    while a and a[-1] == 0:
        a.pop()
    db = len(b) - 1
    while len(a) - 1 >= db:
        f = a[-1] / b[-1]
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _is_squarefree_poly(coeffs: tuple[int, ...]) -> bool:
    a = [Fraction(c) for c in coeffs]
    b = [i * c for i, c in enumerate(a)][1:]  # the derivative
    while b:
        a, b = b, _poly_mod(a, b)
    return len(a) == 1  # gcd is a nonzero constant


@dataclass(frozen=True)
class NumberFieldSpec:
    """A monic integer polynomial f of degree n >= 2 with a truncation level.

    coeffs is low-to-high, coeffs[-1] == 1.  The norm form built from this
    spec lives in n - truncation variables.
    """

    coeffs: tuple[int, ...]
    truncation: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        n = len(self.coeffs) - 1
        if n < 2:
            raise ValueError(f"degree must be >= 2, got {n}")
        if self.coeffs[-1] != 1:
            raise ValueError("polynomial must be monic")
        if not 0 <= self.truncation < n:
            raise ValueError(f"truncation must be in [0, {n - 1}]")
        if n * 2 ** (n - 1) > NORM_FORM_BUDGET:   # the estimate at ell = 1: no truncation passes
            check_norm_form_budget(self)   # before the battery, whose squarefree test can hang
        if self.coeffs[0] == 0:
            raise ValueError("t = 0 is a root: polynomial is reducible")
        for d in _divisors_with_sign(abs(self.coeffs[0])):
            if _eval_int_poly(self.coeffs, d) == 0:
                raise ValueError(f"t = {d} is a root: polynomial is reducible")
        if not _is_squarefree_poly(self.coeffs):
            raise ValueError("polynomial has a repeated factor")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def num_form_vars(self) -> int:
        return self.degree - self.truncation

    @classmethod
    def from_text(cls, text: str, truncation: int = 0) -> "NumberFieldSpec":
        """Parse a univariate polynomial in t (or x1), e.g. ``t^3 - 2``."""
        poly = parse_poly(text, num_vars=1)
        n = poly.total_degree()
        coeffs = [0] * (n + 1)
        for (e,), c in poly.terms.items():
            coeffs[e] = c
        return cls(tuple(coeffs), truncation)


def _divisors_with_sign(c0: int):
    divs = [1]
    for p, e in factorize(c0):
        divs = [d * p ** j for d in divs for j in range(e + 1)]
    return sorted(s * d for d in divs for s in (1, -1))


def _eval_int_poly(coeffs, x: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


def power_basis_table(spec: NumberFieldSpec) -> list[tuple[int, ...]]:
    """Coordinates of w^j on the basis 1..w^(n-1), for j = 0..2n-2."""
    n = spec.degree
    reduction = [-c for c in spec.coeffs[:n]]  # w^n = reduction . basis
    table = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    for _ in range(n - 1):  # w * (prev) shifts up one place and reduces w^n
        prev = table[-1]
        table.append(tuple((prev[i - 1] if i else 0) + prev[-1] * reduction[i]
                           for i in range(n)))
    return table


def check_norm_form_budget(spec: NumberFieldSpec) -> None:
    """Refuse a norm form whose determinant's work estimate exceeds NORM_FORM_BUDGET."""
    n, ell = spec.degree, spec.num_form_vars
    charge("norm form determinant", n * 2 ** (n - 1) * comb(n + ell - 1, ell - 1),
           NORM_FORM_BUDGET)


def norm_form(spec: NumberFieldSpec) -> MvPoly:
    """The incomplete norm form as an exact MvPoly, homogeneous of degree n;
    past NORM_FORM_BUDGET the work estimate is refused first.

    The determinant of the multiplication-by-alpha matrix, whose (row, col)
    entry is sum_i table[i + col][row] q_(i+1) with table =
    power_basis_table(spec), is Laplace-expanded along its columns in order
    and built from the last column back, one level of row subsets at a time.
    The minor on a row subset and the last columns is one integer vector over
    the monomials of its degree, and an entry times a minor is scattered up
    one degree through the index maps monomial -> monomial + e_i.  Only the
    row subsets that the full set reaches through nonzero entries are built,
    found top-down first.  The dtype is exact_dtype of the product over rows
    of each row's absolute coefficient sum: it bounds the permanent, and as
    every row sum is >= 1, every minor and partial sum.  For ell >= 2 every
    row sum is >= 2 and every value formed is at most half that bound, so
    int64 would stay exact for any bound below 2^64.
    """
    check_norm_form_budget(spec)
    n, ell = spec.degree, spec.num_form_vars
    table = power_basis_table(spec)
    entry = [[[table[i + col][row] for i in range(ell)] for row in range(n)] for col in range(n)]
    bound = prod(sum(abs(c) for column in entry for c in column[row]) for row in range(n))
    dtype = exact_dtype(bound)
    levels = [{(1 << n) - 1}]   # levels[col]: the row subsets expanded along column col
    for col in range(n - 1):
        levels.append({mask & ~(1 << r) for mask in levels[-1] for r in range(n)
                       if mask >> r & 1 and any(entry[col][r])})
    monomials, minors = [(0,) * ell], {0: np.ones(1, dtype=dtype)}
    for col in reversed(range(n)):
        index: dict[tuple[int, ...], int] = {}   # up[i][k]: the index of monomials[k] q_(i+1)
        up = [np.array([index.setdefault(m[:i] + (m[i] + 1,) + m[i + 1:], len(index))
                        for m in monomials]) for i in range(ell)]
        monomials, below, minors = list(index), minors, {}
        for mask in levels[col]:
            minor, sign = np.zeros(len(monomials), dtype=dtype), 1
            for r in range(n):
                if mask >> r & 1:
                    for i, c in enumerate(entry[col][r]):
                        if c:
                            minor[up[i]] += sign * c * below[mask & ~(1 << r)]
                    sign = -sign
            minors[mask] = minor
    return MvPoly(ell, dict(zip(monomials, minors[(1 << n) - 1].tolist())))


@dataclass(frozen=True)
class PrimeValueReport:
    """Prime values of the norm form on the dyadic box, grouped by value."""
    values: dict[int, list[list[int]]]
    count: int
    distinct: int
    max_multiplicity: int
    density_ratio: float | None       # count / (Q^ell / log Q); None at Q = 1
    maynard_condition_ok: bool        # ell >= 3 * degree / 4, exact


def prime_value_sieve(spec: NumberFieldSpec, Q: int) -> PrimeValueReport:
    """Prime values of the norm form over q ~ Q, each with its points in box
    order.  The first value >= 2 seen above FACTOR_LIMIT is refused; then the
    n distinct values >= 2, lo to hi, are read from prime_flags(hi, lo) if
    isqrt(hi) <= hi - lo <= min(WINDOW_BYTES_PER_VALUE n, PRIME_SIEVE_LIMIT),
    else (a sparse window, as of a truncated form) tested by is_prime."""
    ell = spec.num_form_vars
    check_box_budget(Q, ell)   # before the norm form, whose determinant is the costly part
    vals = box_grid(norm_form(spec), Q)
    distinct, first, inverse = np.unique(vals, return_index=True, return_inverse=True)
    start = np.searchsorted(distinct, 2)
    cand, limit = distinct[start:], arith.FACTOR_LIMIT   # ascending: lo and hi are its ends
    if len(over := np.flatnonzero(cand > limit)):   # the one a test in box order meets first
        charge("primality test argument", int(cand[over[first[start:][over].argmin()]]), limit)
    prime = np.zeros(len(distinct), dtype=bool)
    lo, hi = (int(cand[0]), int(cand[-1])) if len(cand) else (0, 0)
    if isqrt(hi) <= hi - lo <= min(WINDOW_BYTES_PER_VALUE * len(cand), arith.PRIME_SIEVE_LIMIT):
        prime[start:] = prime_flags(hi, lo)[cand.astype(np.int64) - lo]   # hi < (10^8 + 1)^2
    else:
        prime[start:] = [is_prime(v) for v in cand.tolist()]
    hit = np.flatnonzero(prime[inverse])
    values: dict[int, list[list[int]]] = {}
    for v, q in zip(vals[hit].tolist(), _box_points(hit, Q, Q, ell)):
        values.setdefault(v, []).append(q)
    return PrimeValueReport(
        values=values, count=len(hit), distinct=len(values),
        max_multiplicity=max(map(len, values.values()), default=0),
        density_ratio=len(hit) / (Q ** ell / log(Q)) if Q >= 2 else None,
        maynard_condition_ok=Fraction(ell) >= Fraction(3 * spec.degree, 4))


@dataclass(frozen=True)
class DivisorSearchReport:
    """The witnesses as columns: primes[i] is a found p and divisors[i] its
    qualifying prime divisors d of p - 1 in increasing order;
    representations maps each d that divisors names, ascending, to its
    first point in box order."""
    X: int
    theta: Fraction
    count: int
    prime_count: int
    density: float
    q_range: int
    primes: list[int]
    divisors: list[list[int]]
    representations: dict[int, list[int]]


def prime_divisor_search(spec: NumberFieldSpec, X: int, theta) -> DivisorSearchReport:
    """Find primes p <= X such that p-1 has a prime divisor d >= p^theta that
    is a norm-form value on positive coordinates.

    The norm values over 1 <= q_i <= X^(1/n) that are primes d < X are read
    off one sieve up to X.  The walk is one vectorised pass: every p = 1 + j*d
    with j >= 1, p <= X and p^tn <= d^td (exact) of every d goes into one
    array, the prime p are kept and grouped by one stable sort into the
    report's columns of plain ints: the p ascending, each with its list of d
    in increasing order; then each named d gets its first point in box order.
    Before the sieve, in this order, more than NORM_VALUE_BUDGET norm values,
    a theta = tn/td whose powers d^td could pass THETA_POWER_BITS bits, a norm
    form past NORM_FORM_BUDGET and X above PRIME_SIEVE_LIMIT are refused
    (BudgetError); before the walk, more than DIVISOR_WALK_BUDGET entries.
    """
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    if X < 1:
        raise ValueError(f"X must be >= 1, got {X}")
    n = spec.degree
    ell = spec.num_form_vars
    qmax = integer_nth_root(X, n)
    charge("norm value sieve", qmax ** ell, NORM_VALUE_BUDGET)
    tn, td = theta.numerator, theta.denominator
    # every d is below X, so d^td has at most td * bits(X) bits
    charge("bits of d^td for theta's denominator", td * X.bit_length(), THETA_POWER_BITS)
    check_norm_form_budget(spec)   # the sieve below costs a byte per integer up to X
    flags = prime_flags(X)
    vals = norm_form(spec).grid([range(1, qmax + 1)] * ell)
    # a value past the flags is clipped to an end, then masked; Python ints are clipped first
    index = vals if vals.dtype != object else np.clip(vals, 0, X).astype(np.int64)
    hit = np.flatnonzero(flags.take(index, mode="clip") & (vals < X))
    norm_primes, first = np.unique(vals[hit].astype(np.int64, copy=False), return_index=True)
    # Each d from d_star, the least d with d^td >= X^tn, walks up to X.  Below
    # it a float d^(td/tn) (relative error < 1e-13 as its log is < log X) fixes
    # the last step unless WALK_END_MARGIN moves it; only then is d^td rooted.
    d_star = integer_nth_root(X ** tn - 1, td) + 1
    low = norm_primes[:np.searchsorted(norm_primes, d_star)]
    est = np.exp(np.log(low) * (td / tn))
    last, last_hi = (np.floor((est * (1 + e) - 1) / low)
                     for e in (-WALK_END_MARGIN, WALK_END_MARGIN))
    steps = (X - 1) // norm_primes   # of d: the j >= 1 with p = 1 + j d in range
    steps[:len(low)] = np.minimum(steps[:len(low)], last)
    for i in np.flatnonzero(last != last_hi).tolist():
        steps[i] = (integer_nth_root(int(low[i]) ** td, tn) - 1) // int(low[i])
    charge("divisor walk entries", int(steps.sum()), DIVISOR_WALK_BUDGET)
    div = np.repeat(norm_primes, steps)
    p = np.arange(1, len(div) + 1) - np.repeat(np.cumsum(steps) - steps, steps)
    p *= div   # in place: these arrays hold one entry per step
    p += 1
    keep = np.flatnonzero(flags[p])
    keep = keep[np.argsort(p[keep], kind="stable")]   # each p keeps its d in increasing order
    p, div = p[keep], div[keep]   # drops the step arrays before the lists are built
    # the d some witness names (np.unique or np.isin here would import numpy.ma, ~15 ms, once)
    rows = np.flatnonzero(np.bincount(np.searchsorted(norm_primes, div)))
    reps = dict(zip(norm_primes[rows].tolist(), _box_points(hit[first[rows]], 1, qmax, ell)))
    ps, starts = np.unique(p, return_index=True)
    divs, bounds = div.tolist(), starts.tolist() + [len(keep)]
    divisors = [divs[a:b] for a, b in zip(bounds, bounds[1:])]
    prime_count = int(np.count_nonzero(flags))
    return DivisorSearchReport(
        X=X, theta=theta, count=len(divisors), prime_count=prime_count,
        density=len(divisors) / prime_count if prime_count else 0.0,
        q_range=qmax, primes=ps.tolist(), divisors=divisors, representations=reps)


def _box_points(index: np.ndarray, lo: int, side: int, ell: int) -> list[list[int]]:
    """The points of the grid [lo, lo + side)^ell at the given flat indices."""
    return (np.column_stack(np.unravel_index(index, (side,) * ell)) + lo).tolist()
