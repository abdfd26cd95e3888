"""The sieve sum over polynomial moduli, its test sequences, and the four
comparator bounds for the sieve constant.  A sequence is its coefficient
array a_1..a_N (sieve_sequence builds each one): float64 for a real family,
complex128 for a complex one; the window offset M is an argument of the sum.

The double sum runs over q ~ Q and reduced fractions a/P(q).  Once
boxes.box_moduli has grouped the values by modulus, expanding the square with
Ramanujan's sum c_d(h) = sum_{e | (d,h)} e mu(d/e) (Hardy-Wright, Thm 271) gives, with
R(h) = sum_n a_{n+h} conj(a_n) and G(e) = sum_{d = 0 mod e} mult_d mu(d/e),

    sum_d mult_d sum_{(a,d)=1} |S(a/d)|^2
        = R(0) sum_d mult_d phi(d) + 2 sum_{e<N} e G(e) Re sum_{j>=1, je<N} R(je)
        = R(0) sum_d mult_d phi(d) + 2 Re sum_{0<h<N} R(h) W(h),

with the divisor-weight table W(h) = sum_{e | h} e G(e).  One zero-padded FFT
gives all of R and one dot product the sum; as e | h < N forces e < N, one
table at a grid's largest N serves every N.  Nothing is done per residue, and
the window offset M drops out; R depends on no polynomial, so it is kept per
(family, N, seed).  Reported bounds set every (QN)^o(1) and implied constant
to 1 - they are comparators, not certified bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite, log2, pi

import numpy as np

from .arith import euler_phi, exact_dtype, factorize
from .congruence import r_parameter
from .errors import charge

DEFAULT_WORK_BUDGET = 50_000_000
# Distinct moduli sieve_sums factors, at 50-75 us each end to end in sieve-scan.
SIEVE_MODULI_BUDGET = 10 ** 5
AUTOCORRELATION_CACHE_BYTES = 2 ** 21   # of R arrays kept by sequence_autocorrelation
_autocorrelations: dict[tuple[str, int, int], tuple[float, np.ndarray]] = {}   # oldest first

SEQUENCE_FAMILIES = {   # name -> coefficient builder (N, rng) -> array
    "ones": lambda N, rng: np.ones(N),
    "spike": lambda N, rng: np.eye(1, N)[0],
    "pm1": lambda N, rng: rng.choice([-1.0, 1.0], size=N),
    "unit": lambda N, rng: np.exp(2j * pi * rng.random(N)),
}


def sieve_sequence(family: str, N: int, seed: int) -> np.ndarray:
    """The SEQUENCE_FAMILIES coefficients a_1..a_N, drawn from a generator
    seeded with seed: float64 for ones, spike and pm1, complex128 for unit."""
    return SEQUENCE_FAMILIES[family](N, np.random.default_rng(seed))


# Integer coefficients give an integer autocorrelation R.  The FFT's absolute
# error on R is below c 2^-53 norm_sq log2(n) for a small constant c, at the
# transformed length n (Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., ch. 24), so while norm_sq log2(n) < 2^EXACT_BITS rounding recovers R,
# and the least integer dtype holding -norm_sq - 1, hence norm_sq, holds it, as
# |R(h)| <= R(0) = norm_sq (Cauchy-Schwarz).  Its int64 dot product with W is
# exact while norm_sq (N-1) sum_e |G(e)| < 2^63, as
# sum_{h<N} |W(h)| <= sum_e |e G(e)| (N-1)/e.
EXACT_BITS = 44


def ramanujan_weights(moduli: dict[int, int], N: int) -> tuple[int, dict[int, int], int]:
    """(sum_d mult_d phi(d), {e: G(e)} over the e < N with G(e) != 0, terms),
    where e = d/s runs over the squarefree s | d and terms counts the pairs."""
    phi_total = terms = 0
    G: dict[int, int] = {}
    for d, mult in moduli.items():
        if d < 2:
            raise ValueError(f"moduli must be >= 2, got {d}")
        phi_total += mult * euler_phi(d)
        signed = [(d, mult)]   # (d/s, mult mu(s))
        for p, _ in factorize(d):
            signed += [(e // p, -w) for e, w in signed]
        terms += len(signed)
        for e, w in signed:
            G[e] = G.get(e, 0) + w
    return phi_total, {e: g for e, g in G.items() if g and e < N}, terms


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length pocketfft transforms fast."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:   # each odd part p = 3^b 5^c below best, doubled up to n
        p, p5 = p5, 5 * p5
        while p < best:
            best, p = min(best, p << (-(-n // p) - 1).bit_length()), 3 * p
    return best


def autocorrelation(coeffs: np.ndarray) -> tuple[float, np.ndarray]:
    """(norm_sq, R[h] = Re R(h) for 0 <= h < N), R read-only: the power spectra
    of the real and imaginary parts at _fft_length(2N - 1), free of wraparound,
    add before one inverse FFT; R is rounded as EXACT_BITS says on real integers."""
    N, n, power = len(coeffs), _fft_length(2 * len(coeffs) - 1), None
    norm_sq = float(np.sum(np.abs(coeffs) ** 2))
    for part in (coeffs.real, coeffs.imag) if np.iscomplexobj(coeffs) else (coeffs,):
        f = np.fft.rfft(part, n)
        f.real *= f.real
        f.real += f.imag ** 2
        f.imag[:] = 0
        power = f if power is None else np.add(power, f, out=power)
    R = np.fft.irfft(power, n)[:N].copy()
    if (norm_sq * log2(n) < 2 ** EXACT_BITS and not np.iscomplexobj(coeffs)
            and np.array_equal(coeffs, np.rint(coeffs))):
        R = np.rint(R, out=R).astype(np.min_scalar_type(-int(norm_sq) - 1))
    R.flags.writeable = False
    return norm_sq, R


def sequence_autocorrelation(family: str, N: int, seed: int) -> tuple[float, np.ndarray]:
    """autocorrelation(sieve_sequence(family, N, seed)), kept in _autocorrelations
    while all its R arrays total at most AUTOCORRELATION_CACHE_BYTES (a miss
    evicts the oldest); an R past the cap alone is returned but not kept."""
    entry = _autocorrelations.pop((family, N, seed), None)
    if entry is None:
        entry = autocorrelation(sieve_sequence(family, N, seed))
        kept = sum(R.nbytes for _, R in _autocorrelations.values())
        while kept + entry[1].nbytes > AUTOCORRELATION_CACHE_BYTES >= entry[1].nbytes:
            kept -= _autocorrelations.pop(next(iter(_autocorrelations)))[1].nbytes
    if entry[1].nbytes <= AUTOCORRELATION_CACHE_BYTES:
        _autocorrelations[family, N, seed] = entry
    return entry


def fft_work(N: int) -> int:
    """2N bits(2N), the work estimate of the FFT at _fft_length(2N - 1)."""
    return 2 * N * (2 * N).bit_length()


def check_grid(M: int, grid) -> None:
    """Refuse a grid before anything is built: the largest N's work estimate
    fft_work(N) past DEFAULT_WORK_BUDGET (read at call time), then the
    smallest N below 1, then M below 0."""
    charge("sieve sequence FFT", fft_work(max(grid)), DEFAULT_WORK_BUDGET)
    if min(grid) < 1:
        raise ValueError(f"N must be >= 1, got {min(grid)}")
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")


def sieve_sums(moduli: dict[int, int], M: int, grid, spectrum) -> list[tuple[float, int | float]]:
    """(norm_sq, total) at each N of grid in order, where spectrum(N) gives
    the autocorrelation (norm_sq, R) of a coefficient array a_n on the window
    (M, M+N]: total sums |S(a/d)|^2 over the moduli d >= 2, weighted by
    multiplicity, and the reduced a/d, exactly when R has an integer dtype
    (see autocorrelation), else as a float.

    Only sums are computed here; a caller checks anything else first, as
    sieve-scan does its comparators after check_grid.  Before spectrum is
    called, check_grid runs, then each N in grid order has its window checked
    to end below 2^63, then its work estimate fft_work(N) + terms
    (ramanujan_weights) + the sum of 1 + (N-1)//e over the weights e < N
    refused past DEFAULT_WORK_BUDGET (first its lower bound, with
    len(moduli) for terms; at the first N, more than SIEVE_MODULI_BUDGET
    moduli are refused in between, before any modulus is factored).
    """
    check_grid(M, grid)
    top, weights = max(grid), None
    for N in grid:
        if M + N > 2 ** 63 - 1:
            raise ValueError(f"window (M, M+N] must end below 2^63, got M={M}")
        charge("sieve sum", fft_work(N) + len(moduli), DEFAULT_WORK_BUDGET)
        if weights is None:   # the one expansion of the moduli
            charge("sieve moduli", len(moduli), SIEVE_MODULI_BUDGET)
            phi_total, weights, terms = ramanujan_weights(moduli, top)
            E = np.fromiter(weights, np.int64, len(weights))
        charge("sieve sum", fft_work(N) + terms + int(((N - 1) // E[E < N] + 1).sum()),
               DEFAULT_WORK_BUDGET)
    # sum_e |e G(e)| bounds every W(h) and the partial sums that build it
    w_bound = sum(abs(e * g) for e, g in weights.items())
    W = np.zeros(top, dtype=exact_dtype(w_bound))
    for e, g in weights.items():
        W[e::e] += e * g
    g_abs, out = sum(map(abs, weights.values())), []
    for N in grid:
        norm_sq, R = spectrum(N)
        if np.issubdtype(R.dtype, np.integer):
            if exact_dtype(max(w_bound, int(norm_sq) * (N - 1) * g_abs)) is object:
                R = R.astype(object)
            total = int(R[0]) * phi_total + 2 * int(R @ W[:N])
        else:
            total = float(R[0]) * phi_total + 2.0 * float(R @ W[:N].astype(float))
        out.append((norm_sq, total))
    return out


def empirical_delta(moduli: dict[int, int], M: int, grid, spectrum) -> list[float]:
    """total / norm_sq of each sieve_sums entry, the measured sieve constant of
    the sequence behind spectrum, with sieve_sums' checks in its order; an
    exact integer total gives the correctly rounded quotient."""
    sums = sieve_sums(moduli, M, grid, spectrum)
    if any(norm_sq <= 0 for norm_sq, _ in sums):
        raise ValueError("sequence norm is zero")
    return [t / (int(s) if isinstance(t, int) else s) for s, t in sums]


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


def delta_bounds(k: int, ell: int, Q: int, N: int, r_star: int) -> DeltaReport:
    """Evaluate the comparator menu with all o(1) factors set to 1; a
    caller fills DeltaReport.empirical with dataclasses.replace.

    trivial: min(r* (Q^2k + N), Q^ell (Q^k + N))
    conjectural: r* (Q^(ell+k) + N)
    older three-term bound with r0 = C(ell*k + ell - 1, ell) - 1
    new: Q^(ell + k/(r(k+1))) N^(1 - 1/(r(k+1))), r = C(k+ell, ell) - 1

    A value out of float range raises ValueError.
    """
    if k < 2 or ell < 1 or Q < 1 or N < 1 or r_star < 1:
        raise ValueError("need k >= 2, ell >= 1, Q >= 1, N >= 1, r_star >= 1")
    try:
        trivial = float(min(r_star * (Q ** (2 * k) + N), Q ** ell * (Q ** k + N)))
        zhao = float(r_star * (Q ** (ell + k) + N))
        r0 = comb(ell * k + ell - 1, ell) - 1
        old = (Q ** float(ell * (k + 1))
               + Q ** (ell - 1.0 / (2 * r0 * ell * k)) * N
               + Q ** (ell + 1.0 / (2 * r0)) * N ** (1 - 1.0 / (2 * r0 * ell * k)))
        r = r_parameter(k, ell)
        e = 1.0 / (r * (k + 1))
        new = Q ** (ell + k * e) * N ** (1 - e)
        if not all(map(isfinite, (trivial, zhao, old, new))):   # a product or sum hit inf
            raise OverflowError
    except OverflowError:
        raise ValueError(f"the comparators at N={N} are not all finite floats") from None
    return DeltaReport(k=k, ell=ell, Q=Q, N=N, r_star=r_star,
                       trivial_bound=trivial, zhao_conjecture=zhao,
                       old_bound=old, new_bound=new,
                       new_bound_applicable=Q ** k <= N <= Q ** (2 * k))
