"""Exponential sums S(a/m), the sieve sum over polynomial moduli, and the
four comparator bounds for the normalized sieve constant.

The double sum runs over q ~ Q and over reduced fractions a/P(q).  Values of
P are grouped by modulus first (one box pass), then each distinct modulus d
costs one length-d discrete Fourier transform of the coefficient sequence
folded mod d, which gives S(a/d) for every residue a at once.  Reported
bounds set every (QN)^o(1) and implied constant to 1 - they are comparators,
not certified bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, fsum, pi

import numpy as np

from .boxes import fold_moduli, value_counts
from .congruence import r_parameter
from .errors import BudgetError
from .mvpoly import MvPoly

DEFAULT_WORK_BUDGET = 50_000_000


class SieveSequence:
    """Complex coefficients a_n on the window (M, M+N]."""

    __slots__ = ("M", "N", "coeffs", "norm_sq")

    def __init__(self, M: int, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim != 1 or len(coeffs) == 0:
            raise ValueError("coeffs must be a nonempty 1-d array")
        if M < 0:
            raise ValueError(f"M must be >= 0, got {M}")
        if M + len(coeffs) > 2 ** 63 - 1:
            raise ValueError(f"window (M, M+N] must end below 2^63, got M={M}")
        self.M = M
        self.N = len(coeffs)
        self.coeffs = coeffs
        self.norm_sq = float(np.sum(np.abs(coeffs) ** 2))

    def indices(self) -> np.ndarray:
        return np.arange(self.M + 1, self.M + self.N + 1, dtype=np.int64)

    def __repr__(self):
        return f"SieveSequence(M={self.M}, N={self.N})"


def ones_sequence(N: int, M: int = 0) -> SieveSequence:
    return SieveSequence(M, np.ones(N))


def spike_sequence(N: int, M: int = 0, position: int = 0) -> SieveSequence:
    c = np.zeros(N)
    c[position] = 1.0
    return SieveSequence(M, c)


def random_sign_sequence(N: int, seed: int, M: int = 0) -> SieveSequence:
    rng = np.random.default_rng(seed)
    return SieveSequence(M, rng.choice([-1.0, 1.0], size=N))


def random_unit_sequence(N: int, seed: int, M: int = 0) -> SieveSequence:
    rng = np.random.default_rng(seed)
    return SieveSequence(M, np.exp(2j * pi * rng.random(N)))


SEQUENCE_FAMILIES = {
    "ones": lambda N, seed, M=0: ones_sequence(N, M),
    "spike": lambda N, seed, M=0: spike_sequence(N, M),
    "pm1": lambda N, seed, M=0: random_sign_sequence(N, seed, M),
    "unit": lambda N, seed, M=0: random_unit_sequence(N, seed, M),
}


def exp_sums_all_residues(seq: SieveSequence, m: int) -> np.ndarray:
    """S(a/m) for a = 0..m-1: fold n into residues mod m, then one DFT."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    folded = np.zeros(m, dtype=np.complex128)
    np.add.at(folded, seq.indices() % m, seq.coeffs)
    # entry a of m*ifft is sum_t folded[t] e(+a t / m)
    return m * np.fft.ifft(folded)


def _coprime_residue_sum(seq: SieveSequence, d: int) -> float:
    values = exp_sums_all_residues(seq, d)
    mask = np.gcd(np.arange(d), d) == 1
    mask[0] = False
    return float(np.sum(np.abs(values[mask]) ** 2))


def sieve_sum(seq: SieveSequence, P: MvPoly, Q: int, min_modulus=None,
              workers: int = 1, budget: int = DEFAULT_WORK_BUDGET) -> float:
    """The double sum over q ~ Q and reduced a/P(q) of |S(a/P(q))|^2.

    min_modulus = None gives the plain sum; a threshold keeps only tuples
    with |P(q)| >= min_modulus.  Moduli |P(q)| <= 1 never enter.  Distinct
    moduli are processed in increasing order, each weighted by its
    multiplicity in the box; the final reduction is an fsum, so results do
    not depend on the worker split.
    """
    retained, _, _ = fold_moduli(value_counts(P, Q, workers=workers), min_modulus)
    work = sum(d + seq.N for d in retained)
    if work > budget:
        raise BudgetError("sieve sum", work, budget)
    return fsum(retained[d] * _coprime_residue_sum(seq, d) for d in sorted(retained))


def empirical_delta(seq: SieveSequence, P: MvPoly, Q: int, min_modulus=None,
                    workers: int = 1) -> float:
    """sieve_sum / norm_sq, the measured sieve constant for this sequence."""
    if seq.norm_sq <= 0:
        raise ValueError("sequence norm is zero")
    return sieve_sum(seq, P, Q, min_modulus=min_modulus, workers=workers) / seq.norm_sq


@dataclass(frozen=True)
class DeltaReport:
    """All four comparator values for the sieve constant at (k, ell, Q, N).

    new_bound applies only in the range Q^k <= N <= Q^(2k); outside it the
    flag is False and the value is still reported.
    """
    k: int
    ell: int
    Q: int
    N: int
    r_star: int
    trivial_bound: float
    zhao_conjecture: float
    old_bound: float
    new_bound: float
    new_bound_applicable: bool
    empirical: float | None = None


def delta_bounds(k: int, ell: int, Q: int, N: int, r_star: int,
                 empirical: float | None = None) -> DeltaReport:
    """Evaluate the comparator menu with all o(1) factors set to 1.

    trivial: min(r* (Q^2k + N), Q^ell (Q^k + N))
    conjectural: r* (Q^(ell+k) + N)
    older three-term bound with r0 = C(ell*k + ell - 1, ell) - 1
    new: Q^(ell + k/(r(k+1))) N^(1 - 1/(r(k+1))), r = C(k+ell, ell) - 1
    """
    if k < 2 or ell < 1 or Q < 1 or N < 1 or r_star < 1:
        raise ValueError("need k >= 2, ell >= 1, Q >= 1, N >= 1, r_star >= 1")
    trivial = float(min(r_star * (Q ** (2 * k) + N), Q ** ell * (Q ** k + N)))
    zhao = float(r_star * (Q ** (ell + k) + N))
    r0 = comb(ell * k + ell - 1, ell) - 1
    old = (Q ** float(ell * (k + 1))
           + Q ** (ell - 1.0 / (2 * r0 * ell * k)) * N
           + Q ** (ell + 1.0 / (2 * r0)) * N ** (1 - 1.0 / (2 * r0 * ell * k)))
    r = r_parameter(k, ell)
    e = 1.0 / (r * (k + 1))
    new = Q ** (ell + k * e) * N ** (1 - e)
    return DeltaReport(k=k, ell=ell, Q=Q, N=N, r_star=r_star,
                       trivial_bound=trivial, zhao_conjecture=zhao,
                       old_bound=old, new_bound=new,
                       new_bound_applicable=Q ** k <= N <= Q ** (2 * k),
                       empirical=empirical)
