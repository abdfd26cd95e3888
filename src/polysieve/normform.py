"""Incomplete norm forms of a monic irreducible integer polynomial and the
search for primes p whose p-1 has a large prime divisor of norm-form shape.

The norm of q1 + q2 w + ... + q_(n-k) w^(n-k-1) is computed as the exact
symbolic determinant of the multiplication matrix on the power basis
1, w, ..., w^(n-1), expanded by a memoized Laplace recursion over column
prefixes (division-free, so signs and integer coefficients are unambiguous).
Irreducibility of the defining polynomial is checked only by a cheap
necessary battery (no integer roots, squarefree); full irreducibility is a
user assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import log

from .arith import factorize, is_prime, primes_up_to
from .boxes import DyadicBox, check_box_budget
from .errors import BudgetError
from .mvpoly import MvPoly, parse_poly


def integer_nth_root(x: int, n: int) -> int:
    """Largest r >= 0 with r^n <= x, by integer Newton iteration.

    The start 2^ceil(bits(x)/n) lies above the root.  A step from above the
    root lands at or above it (AM-GM) and strictly below the previous
    iterate, so the first step that does not decrease starts from the root.
    """
    if x < 0 or n < 1:
        raise ValueError("need x >= 0 and n >= 1")
    if x == 0:
        return 0
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def _poly_derivative(coeffs: list[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(coeffs)][1:]


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
    b = _poly_derivative(a)
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
        poly = parse_poly(text, num_vars=1, var_prefix="x")
        n = poly.total_degree()
        coeffs = [0] * (n + 1)
        for (e,), c in poly.terms.items():
            coeffs[e] = c
        return cls(tuple(coeffs), truncation)


def _divisors_with_sign(c0: int):
    return sorted(s * d for d in factorize(c0).divisors() for s in (1, -1))


def _eval_int_poly(coeffs, x: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


def power_basis_table(spec: NumberFieldSpec) -> list[tuple[int, ...]]:
    """Coordinates of w^j on the basis 1..w^(n-1), for j = 0..2n-2."""
    n = spec.degree
    reduction = [-c for c in spec.coeffs[:n]]  # w^n = reduction . basis
    table = []
    for j in range(n):
        row = [0] * n
        row[j] = 1
        table.append(tuple(row))
    for j in range(n, 2 * n - 1):
        prev = table[j - 1]
        row = [0] * n
        for i in range(n - 1):
            row[i + 1] = prev[i]
        top = prev[n - 1]
        if top:
            for i in range(n):
                row[i] += top * reduction[i]
        table.append(tuple(row))
    return table


def multiplication_matrix(spec: NumberFieldSpec) -> list[list[MvPoly]]:
    """Matrix of the multiplication-by-alpha map, alpha = sum q_i w^(i-1),
    with entries linear MvPolys in q1..q_(n-truncation)."""
    n = spec.degree
    ell = spec.num_form_vars
    table = power_basis_table(spec)
    zero_exps = (0,) * ell
    matrix = []
    for row in range(n):
        matrix_row = []
        for col in range(n):
            terms = {}
            for i in range(1, ell + 1):
                c = table[i - 1 + col][row]
                if c:
                    exps = list(zero_exps)
                    exps[i - 1] = 1
                    terms[tuple(exps)] = c
            matrix_row.append(MvPoly(ell, terms))
        matrix.append(matrix_row)
    return matrix


def _det_poly(matrix: list[list[MvPoly]], ell: int) -> MvPoly:
    """Division-free determinant: Laplace expansion memoized on row subsets."""
    n = len(matrix)
    one = MvPoly.constant(ell, 1)
    cache: dict[int, MvPoly] = {}

    def rec(mask: int) -> MvPoly:
        if mask == 0:
            return one
        if mask in cache:
            return cache[mask]
        col = n - bin(mask).count("1")
        total = MvPoly(ell, {})
        sign = 1
        for r in range(n):
            if mask >> r & 1:
                entry = matrix[r][col]
                if entry.terms:
                    sub = rec(mask & ~(1 << r))
                    total = total + (entry * sub if sign > 0 else -(entry * sub))
                sign = -sign
        cache[mask] = total
        return total

    return rec((1 << n) - 1)


def norm_form(spec: NumberFieldSpec) -> MvPoly:
    """The incomplete norm form as an exact MvPoly, homogeneous of degree n."""
    return _det_poly(multiplication_matrix(spec), spec.num_form_vars)


def field_multiply(spec: NumberFieldSpec, u, v) -> tuple[int, ...]:
    """Power-basis coordinates of the product of two field elements.

    u and v are integer coordinate vectors of length n (full basis, so this
    is the truncation = 0 context).
    """
    n = spec.degree
    u, v = list(u), list(v)
    if len(u) != n or len(v) != n:
        raise ValueError(f"coordinate vectors must have length {n}")
    conv = [0] * (2 * n - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                conv[i + j] += ui * vj
    table = power_basis_table(spec)
    out = [0] * n
    for j, c in enumerate(conv):
        if c:
            row = table[j]
            for i in range(n):
                out[i] += c * row[i]
    return tuple(out)


@dataclass(frozen=True)
class PrimeValueReport:
    """Prime values of the norm form on the dyadic box, grouped by value."""
    Q: int
    num_vars: int
    degree: int
    values: dict[int, list[tuple[int, ...]]]
    count: int
    distinct: int
    max_multiplicity: int
    density_ratio: float | None       # count / (Q^ell / log Q); None at Q = 1
    maynard_condition_ok: bool        # ell >= 3 * degree / 4, exact


def prime_value_sieve(spec: NumberFieldSpec, Q: int,
                      budget: int = 5_000_000) -> PrimeValueReport:
    ell = spec.num_form_vars
    check_box_budget(Q, ell, budget)
    form = norm_form(spec)
    values: dict[int, list[tuple[int, ...]]] = {}
    for q in DyadicBox(Q, ell):
        v = form.evaluate(q)
        if v >= 2 and is_prime(v):
            values.setdefault(v, []).append(q)
    count = sum(len(qs) for qs in values.values())
    max_mult = max((len(qs) for qs in values.values()), default=0)
    ratio = count / (Q ** ell / log(Q)) if Q >= 2 else None
    return PrimeValueReport(
        Q=Q, num_vars=ell, degree=spec.degree, values=values, count=count,
        distinct=len(values), max_multiplicity=max_mult, density_ratio=ratio,
        maynard_condition_ok=Fraction(ell) >= Fraction(3 * spec.degree, 4))


@dataclass(frozen=True)
class DivisorWitness:
    p: int
    divisors: tuple[int, ...]                    # qualifying prime divisors of p-1
    representations: dict[int, tuple[int, ...]]  # divisor -> one q with N(q) = divisor


@dataclass(frozen=True)
class DivisorSearchReport:
    X: int
    theta: Fraction
    count: int
    prime_count: int
    density: float
    q_range: int
    witnesses: tuple[DivisorWitness, ...]


def prime_divisor_search(spec: NumberFieldSpec, X: int, theta,
                         budget: int = 20_000_000) -> DivisorSearchReport:
    """Find primes p <= X such that p-1 has a prime divisor d >= p^theta that
    is a norm-form value on positive coordinates.

    The divisor set is sieved first (norm values over 1 <= q_i <= X^(1/n)),
    then the primes are scanned - one pass each way instead of a
    representability search per divisor.  The threshold d >= p^theta is
    decided exactly by integer powering.
    """
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    n = spec.degree
    ell = spec.num_form_vars
    qmax = integer_nth_root(X, n)
    if qmax < 1 or (qmax ** ell) > budget:
        raise BudgetError("norm value sieve", max(qmax, 1) ** ell, budget)
    form = norm_form(spec)
    norm_primes: dict[int, tuple[int, ...]] = {}
    for q in product(range(1, qmax + 1), repeat=ell):
        v = form.evaluate(q)
        if v >= 2 and v not in norm_primes and is_prime(v):
            norm_primes[v] = q
    witnesses = []
    primes = primes_up_to(X)
    tn, td = theta.numerator, theta.denominator
    for p in primes:
        hits = []
        for d in factorize(p - 1).divisors():
            if d in norm_primes and d ** td >= p ** tn:
                hits.append(d)
        if hits:
            witnesses.append(DivisorWitness(
                p=p, divisors=tuple(hits),
                representations={d: norm_primes[d] for d in hits}))
    return DivisorSearchReport(
        X=X, theta=theta, count=len(witnesses), prime_count=len(primes),
        density=len(witnesses) / len(primes) if primes else 0.0,
        q_range=qmax, witnesses=tuple(witnesses))
