"""Exponent arithmetic for polynomial moduli, prime-tuple weights, maximal
progression discrepancies, and the two desk-scale average sums built from
them.

All exponent arithmetic is exact rational (fractions.Fraction).  With
R = r(k+1) and r = C(k+ell, ell) - 1, the admissible level exponent
1/(2k + k/(2 rho)) simplifies to 2R / (k(5R - 1)), which is the closed form
asserted by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import fsum, gcd, log, prod

import numpy as np

from .arith import (KahanSum, euler_phi, moebius, von_mangoldt,
                    von_mangoldt_table)
from .boxes import (DyadicBox, check_box_budget, fold_moduli, map_leading,
                    value_counts)
from .characters import CHAR_MODULUS_CAP, enumerate_characters
from .congruence import r_parameter
from .errors import BudgetError
from .mvpoly import FactoredPoly, MvPoly

_PARALLEL_MIN = 512


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

    Disjointness of factor variable sets is enforced by FactoredPoly itself.
    """
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
    k = F.product.total_degree()
    ell = len(F.product.used_variables())
    prof = exponent_profile(k, ell)
    divisors = []
    for indices, dpoly in F.divisor_subsets():
        dk = dpoly.total_degree()
        dell = len(dpoly.used_variables())
        dlevel = exponent_profile(dk, dell).level_exponent
        divisors.append(DivisorCheck(
            factor_indices=indices, degree=dk, num_vars_used=dell,
            level_exponent=dlevel, monotone_ok=prof.level_exponent <= dlevel))
    top_ok = F.product.min_top_coeff() == 1 and all(
        c.min_top_coeff == 1 for c in checks)
    return SettingReport(
        factors=tuple(checks), divisors=tuple(divisors), product_degree=k,
        product_num_vars_used=ell, product_min_top_coeff=F.product.min_top_coeff(),
        product_profile=prof,
        all_variable_conditions_ok=all(c.variable_condition_ok for c in checks),
        all_divisors_monotone=all(d.monotone_ok for d in divisors),
        top_coeffs_are_one=top_ok)


def prime_value_weight(F: FactoredPoly, q) -> float:
    """mu^2(P(q)) times the product of Lambda(H_j(q)).

    Nonzero only when every factor value is a prime power and the product is
    squarefree.  Defined as 0 whenever some factor value is < 1 (Lambda of a
    nonpositive integer has no meaning here).
    """
    return _weight(F.evaluate_factors(q))


def _weight(vals) -> float:
    """mu^2(prod vals) times the product of Lambda(v); 0 if some v < 1."""
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


@dataclass(frozen=True)
class DiscrepancyPoint:
    value: float
    residue: int
    y: float
    left_limit: bool   # True when the sup is approached from below a jump


def max_progression_discrepancy_detail(m: int, x: float) -> DiscrepancyPoint:
    """sup over y <= x and coprime residues a of |psi(y; m, a) - y/phi(m)|.

    Between jump points the difference is linear in y, so the sup is attained
    at y = x or at a one-sided limit of a jump (prime powers coprime to m).
    The returned point records where.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    phi = euler_phi(m)
    T, L = von_mangoldt_table(int(x))
    acc = {a: KahanSum() for a in range(m) if gcd(a, m) == 1}
    best = DiscrepancyPoint(0.0, 1, 0.0, False)
    for t, ln, a in zip(T.tolist(), L.tolist(), (T % m).tolist()):
        s = acc.get(a)
        if s is None:
            continue
        drift = t / phi
        before = abs(s.total - drift)
        if before > best.value:
            best = DiscrepancyPoint(before, a, float(t), True)
        after = abs(s.add(ln) - drift)
        if after > best.value:
            best = DiscrepancyPoint(after, a, float(t), False)
    for a, s in acc.items():
        v = abs(s.total - x / phi)
        if v > best.value:
            best = DiscrepancyPoint(v, a, float(x), False)
    return best


def max_progression_discrepancy(m: int, x: float) -> float:
    return max_progression_discrepancy_detail(m, x).value


def default_eps_bad(Q: int, k: int, A: float, m: int) -> float:
    """(log(Q+2))^(-k(A+m+1)); the +2 keeps Q = 1 meaningful."""
    return log(Q + 2) ** (-k * (A + m + 1))


@dataclass(frozen=True)
class DiscrepancySumReport:
    """The weighted average of maximal progression discrepancies over the box,
    with small moduli excluded, next to the x/(log x)^A comparator."""
    value: float
    comparator: float
    Q: int
    x: float
    A: float
    eps_bad: float
    box_size: int
    excluded_small: int
    negative_factor_tuples: int
    nonzero_weight_tuples: int
    weight_sum: float


def _discrepancy_chunk(args):
    F, Q, x, threshold_num, threshold_den, q_ell, leading = args
    parts = []
    excluded = negative = nonzero = 0
    weights = []
    for q1 in leading:
        for rest in product(range(Q, 2 * Q), repeat=q_ell - 1):
            q = (q1,) + rest
            vals = F.evaluate_factors(q)
            pval = prod(vals)
            if abs(pval) * threshold_den <= threshold_num:
                excluded += 1
                continue
            if any(v < 1 for v in vals):
                negative += 1
                continue
            w = _weight(vals)
            if w == 0.0:
                continue
            nonzero += 1
            weights.append(w)
            disc = max_progression_discrepancy(pval, x)
            parts.append(w * euler_phi(pval) / Q ** q_ell * disc)
    return parts, weights, excluded, negative, nonzero


def discrepancy_sum(F: FactoredPoly, Q: int, x: float, eps_bad: float | None = None,
                    A: float = 2.0, workers: int = 1) -> DiscrepancySumReport:
    """Sum over q ~ Q with |P(q)| > eps_bad * Q^k of
    weight(q) * phi(P(q)) / Q^ell * discrepancy(P(q), x).

    The weight forces every factor value prime and the product squarefree, so
    only those tuples cost a discrepancy evaluation.  Box chunks are reduced
    in leading-coordinate order and the final reduction is an fsum, making
    the result independent of the worker count.
    """
    ell = F.num_vars
    k = F.product.total_degree()
    if eps_bad is None:
        eps_bad = default_eps_bad(Q, k, A, len(F.factors))
    if eps_bad <= 0:
        raise ValueError("eps_bad must be positive")
    check_box_budget(Q, ell)
    thr = Fraction(eps_bad) * Q ** k
    results = map_leading(_discrepancy_chunk, DyadicBox(Q, ell),
                          (F, Q, x, thr.numerator, thr.denominator, ell),
                          workers, _PARALLEL_MIN)
    parts, weights = [], []
    excluded = negative = nonzero = 0
    for p, w, e, ng, nz in results:
        parts.extend(p)
        weights.extend(w)
        excluded += e
        negative += ng
        nonzero += nz
    return DiscrepancySumReport(
        value=fsum(parts), comparator=x / log(x) ** A if x > 1 else float("inf"),
        Q=Q, x=x, A=A, eps_bad=eps_bad, box_size=Q ** ell,
        excluded_small=excluded, negative_factor_tuples=negative,
        nonzero_weight_tuples=nonzero, weight_sum=fsum(weights))


@dataclass(frozen=True)
class MeanValueReport:
    """The mean value sum, its moduli |P(q)| with their multiplicities in the
    box, and the count of tuples skipped because |P(q)| <= 1."""
    value: float
    moduli: dict[int, int]
    skipped_unit_moduli: int


def mean_value_sum(P: MvPoly, Q: int, x: float, workers: int = 1,
                   char_cap: int = CHAR_MODULUS_CAP) -> MeanValueReport:
    """Sum over q ~ Q of P(q)/phi(P(q)) times the sum over primitive
    characters mod P(q) of sup_{y <= x} |psi(y, chi)|.

    Moduli are |P(q)|; tuples with |P(q)| <= 1 contribute nothing (there is
    no primitive character to sum over by the convention adopted here).
    """
    moduli, skipped, _ = fold_moduli(value_counts(P, Q, workers=workers))
    T, L = von_mangoldt_table(max(int(x), 0))
    parts = []
    for d in sorted(moduli):
        if d > char_cap:
            raise BudgetError("mean value sum modulus", d, char_cap)
        residues = T % d
        sups = []
        for chi in enumerate_characters(d):
            if chi.is_primitive:
                # np.hypot rounds like the scalar abs of a complex; np.abs
                # on complex arrays can differ in the last ulp.
                c = np.cumsum(L * chi.values()[residues])
                sups.append(float(np.max(np.hypot(c.real, c.imag), initial=0.0)))
        if sups:
            parts.append(moduli[d] * d / euler_phi(d) * fsum(sups))
    return MeanValueReport(value=fsum(parts), moduli=moduli,
                           skipped_unit_moduli=skipped)
