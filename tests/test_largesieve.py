import re
from fractions import Fraction

from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (clear_caches, dft_sieve_sum, exact_sieve_sum, exp_sum, exp_sums_all_residues,
                     farey_points, moduli_sieve_sum, norm_sq, pointwise_sieve_sum, sieve_sum,
                     strided_sieve_sum, sum_sq_over_points)

import polysieve.largesieve as largesieve
from polysieve.arith import euler_phi
from polysieve.boxes import box_moduli, box_values
from polysieve.cli import main
from polysieve.errors import BudgetError
from polysieve.farey import build_farey, min_spacing
from polysieve.largesieve import (SEQUENCE_FAMILIES, DeltaReport, autocorrelation, delta_bounds,
                                  empirical_delta, ramanujan_weights, sieve_sequence, sieve_sums)
from polysieve.mvpoly import parse_poly

P_SUM_SQ = parse_poly("x1^2+x2^2")


def delta_of(coeffs, M, moduli):
    """empirical_delta of coeffs on the window (M, M+N], N = len(coeffs)."""
    coeffs = np.asarray(coeffs)
    return empirical_delta(moduli, M, [len(coeffs)], lambda N: autocorrelation(coeffs))[0]


def test_sieve_sums_refuses_a_window_before_building_a_sequence():
    built = []

    def sequence(N):
        built.append(N)
        return autocorrelation(np.ones(N))

    with pytest.raises(ValueError, match=r"^M must be >= 0, got -1$"):
        sieve_sums({5: 1}, -1, [3], sequence)
    with pytest.raises(ValueError, match=r"^N must be >= 1, got 0$"):
        sieve_sums({5: 1}, 0, [3, 0], sequence)
    with pytest.raises(ValueError, match=r"^window \(M, M\+N\] must end below 2\^63, got M=9"):
        sieve_sums({5: 1}, 2 ** 63 - 3, [2, 3], sequence)
    assert built == []


def test_the_divisor_weight_table_past_2_63_is_exact():
    # G = {1: -2c, 5: c, 7: c}: sum |e G(e)| = 14c is in [2^63, 2^64), and
    # W(35) = 10c is past 2^63, so an int64 table would wrap there
    c = 12 * 10 ** 17
    moduli = {5: c, 7: c}
    [(norm_sq, total)] = sieve_sums(moduli, 0, [36], lambda N: autocorrelation(np.ones(N)))
    assert 2 ** 63 <= 14 * c < 2 ** 64 and 10 * c >= 2 ** 63
    assert total == exact_sieve_sum(np.ones(36), moduli)


def test_the_dot_product_past_2_63_is_exact():
    # an integer R with |R(h)| <= R(0), the sign of W(h) = -2 + 5[5 | h] + 7[7 | h]:
    # the bound norm_sq (N - 1) sum |G| = 140 norm_sq is in [2^63, 2^64), and
    # R @ W = 96 norm_sq, past 2^63, so an int64 dot product would wrap
    norm_sq, W = 11 * 10 ** 16, [0] + [-2 + 5 * (h % 5 == 0) + 7 * (h % 7 == 0) for h in range(1, 36)]
    R = np.array([norm_sq] + [norm_sq if w > 0 else -norm_sq for w in W[1:]])
    [(_, total)] = sieve_sums({5: 1, 7: 1}, 0, [36], lambda N: (float(norm_sq), R))
    assert 2 ** 63 <= 140 * norm_sq < 2 ** 64 and 96 * norm_sq >= 2 ** 63
    assert total == norm_sq * 10 + 2 * sum(int(r) * w for r, w in zip(R, W))


def test_sequence_dtypes_choose_the_path():
    # the real families stay float64 and take the exact path; unit is complex
    moduli = box_moduli(P_SUM_SQ, 2)[0]
    for family in sorted(SEQUENCE_FAMILIES):
        seq = sieve_sequence(family, 12, 3)
        assert seq.shape == (12,)
        total = moduli_sieve_sum(seq, 0, moduli)
        if family == "unit":
            assert seq.dtype == np.complex128 and type(total) is float
        else:
            assert seq.dtype == np.float64 and type(total) is int
    # a complex array takes the float path even with a zero imaginary part
    assert type(moduli_sieve_sum(np.ones(12, dtype=complex), 0, moduli)) is float


def test_exp_sum_trivial():
    seq = sieve_sequence("ones", 5, 0)
    assert exp_sum(seq, 0, 0) == pytest.approx(5)
    two = [1, 1]
    assert abs(exp_sum(two, 0, Fraction(1, 2))) < 1e-12  # e(1/2) + e(1) = 0


def test_exp_sum_matches_extended_precision_oracle():
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=20) + 1j * rng.normal(size=20)
    theta = Fraction(3, 7)
    got = exp_sum(coeffs, 7, theta)
    mpmath.mp.dps = 40
    acc = mpmath.mpc(0)
    for off, c in enumerate(coeffs):
        n = 8 + off
        acc += mpmath.mpc(c.real, c.imag) * mpmath.e ** (
            2j * mpmath.pi * n * mpmath.mpf(3) / 7)
    assert abs(got - complex(acc)) < 1e-9


def test_all_residues_matches_pointwise():
    rng = np.random.default_rng(3)
    seq = rng.normal(size=17) + 1j * rng.normal(size=17)
    bulk = exp_sums_all_residues(seq, 5, 13)
    for a in range(13):
        assert abs(bulk[a] - exp_sum(seq, 5, Fraction(a, 13) if a else 0)) < 1e-9
    single = exp_sums_all_residues(seq, 5, 1)
    assert single[0] == pytest.approx(np.sum(seq), rel=1e-12)


def test_parseval():
    rng = np.random.default_rng(8)
    for _ in range(25):
        m = int(rng.integers(2, 120))
        N = int(rng.integers(1, m + 1))
        M = int(rng.integers(0, 9))
        seq = rng.normal(size=N) + 1j * rng.normal(size=N)
        total = float(np.sum(np.abs(exp_sums_all_residues(seq, M, m)) ** 2))
        assert total == pytest.approx(m * norm_sq(seq), rel=1e-9)


def test_sieve_sum_q1_examples():
    assert sieve_sum([1, 1], 0, P_SUM_SQ, 1) < 1e-12
    assert sieve_sum([1, 0], 0, P_SUM_SQ, 1) == pytest.approx(1.0)


def test_sieve_sum_matches_farey_points():
    system = build_farey(P_SUM_SQ, 2)
    seq = sieve_sequence("unit", 16, 2)
    direct = sieve_sum(seq, 0, P_SUM_SQ, 2)
    via_points = sum_sq_over_points(seq, 0, farey_points(system))
    assert direct == pytest.approx(via_points, rel=1e-9)


def test_sieve_sum_paths_agree():
    moduli = [q1 * q1 + q2 * q2 for q1 in range(3, 6) for q2 in range(3, 6)]
    # N in {1, 2} is where a per-modulus pointwise route used to be chosen
    for N, M in ((40, 0), (1, 0), (2, 0), (2, 7)):
        seq = sieve_sequence("pm1", N, 9)
        assert sieve_sum(seq, M, P_SUM_SQ, 3) == pytest.approx(
            pointwise_sieve_sum(seq, M, moduli), rel=1e-9)


def test_sieve_sum_filter_and_additivity():
    seq = sieve_sequence("pm1", 10, 5)
    full = sieve_sum(seq, 0, P_SUM_SQ, 2)
    starred = sieve_sum(seq, 0, P_SUM_SQ, 2, min_modulus=9)
    # moduli are 8, 13, 13, 18; the star filter drops 8
    mods = [8, 13, 13, 18]
    parts = {m: sum_sq_over_points(
        seq, 0, [Fraction(a, m) for a in range(1, m) if np.gcd(a, m) == 1])
        for m in set(mods)}
    assert full == pytest.approx(sum(parts[m] for m in mods), rel=1e-9)
    assert starred == pytest.approx(sum(parts[m] for m in mods if m >= 9), rel=1e-9)


def test_montgomery_vaughan_inequality():
    rng = np.random.default_rng(14)
    for Q in (2, 3):
        system = build_farey(P_SUM_SQ, Q)
        delta = min_spacing(system)
        pts = list(dict.fromkeys(farey_points(system)))
        for _ in range(5):
            N = int(rng.integers(1, 300))
            seq = rng.normal(size=N) + 1j * rng.normal(size=N)
            lhs = sum_sq_over_points(seq, 0, pts)
            rhs = (1 / float(delta) + N) * norm_sq(seq)
            assert lhs <= rhs * (1 + 1e-9)


def test_trivial_bound_inequality():
    rng = np.random.default_rng(15)
    for Q in (1, 2, 3):
        counts = {abs(v): c for v, c in zip(*(a.tolist() for a in box_values(P_SUM_SQ, Q)))
                  if abs(v) > 1}
        D = max(counts)
        r_star = max(counts.values())
        for _ in range(5):
            N = int(rng.integers(1, 200))
            seq = rng.normal(size=N)
            lhs = sieve_sum(seq, 0, P_SUM_SQ, Q)
            assert lhs <= r_star * (D ** 2 + N) * norm_sq(seq) * (1 + 1e-9)


def test_empirical_delta():
    moduli = box_moduli(P_SUM_SQ, 1)[0]
    assert delta_of([1, 0], 0, moduli) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        delta_of([0, 0], 0, moduli)


def test_delta_bounds_values():
    rep = delta_bounds(2, 2, 4, 256, 1)
    # Q^2k = 256 here, so the min picks the r* branch: 1 * (256 + 256)
    assert rep.trivial_bound == 512.0
    assert rep.zhao_conjecture == 1 * (4 ** 4 + 256) == 512.0
    assert rep.new_bound == pytest.approx(4 ** (2 + 2 / 15) * 256 ** (14 / 15), rel=1e-12)
    assert rep.new_bound_applicable  # 16 <= 256 <= 65536... (4^2 <= 256 <= 4^4)
    # r0 = C(2*2+2-1, 2) - 1 = 9
    r0 = 9
    expected_old = (4 ** 6 + 4 ** (2 - 1 / (2 * r0 * 4)) * 256
                    + 4 ** (2 + 1 / (2 * r0)) * 256 ** (1 - 1 / (2 * r0 * 4)))
    assert rep.old_bound == pytest.approx(expected_old, rel=1e-12)
    assert not delta_bounds(2, 2, 4, 15, 1).new_bound_applicable
    assert not delta_bounds(2, 2, 4, 70000, 1).new_bound_applicable
    for value in (rep.trivial_bound, rep.zhao_conjecture, rep.old_bound, rep.new_bound):
        assert value > 0


def test_delta_bounds_validation():
    with pytest.raises(ValueError):
        delta_bounds(1, 2, 4, 256, 1)
    with pytest.raises(ValueError):
        delta_bounds(2, 2, 4, 256, 0)
    # Q^(ell(k+1)) = 2^1202 is past the float range
    with pytest.raises(ValueError, match="^the comparators at N=4 are not all finite floats$"):
        delta_bounds(600, 2, 2, 4, 1)
    # each factor of the old bound's second term is finite, their product inf
    with pytest.raises(ValueError, match="not all finite floats"):
        delta_bounds(2, 1, 10, 8 * 10 ** 307, 1)


def test_sequence_families_deterministic():
    a = sieve_sequence("pm1", 32, 7)
    b = sieve_sequence("pm1", 32, 7)
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {-1.0, 1.0}
    u = sieve_sequence("unit", 16, 7)
    assert np.allclose(np.abs(u), 1.0)
    s = sieve_sequence("spike", 8, 0)
    assert norm_sq(s) == 1.0


def test_budget(monkeypatch):
    seq = sieve_sequence("ones", 10, 0)
    monkeypatch.setattr(largesieve, "DEFAULT_WORK_BUDGET", 100)
    with pytest.raises(BudgetError):
        sieve_sum(seq, 0, P_SUM_SQ, 30)


def test_reported_ratios_are_finite():
    # reporting-only paths: the all-ones ratio at large N and the seed-mean
    # ratio carry no assertion beyond being well defined
    moduli = box_moduli(P_SUM_SQ, 2)[0]
    big = delta_of(sieve_sequence("ones", 400, 0), 0, moduli)
    assert big > 0
    mean = np.mean([delta_of(sieve_sequence("pm1", 64, s), 0, moduli)
                    for s in range(20)])
    assert np.isfinite(mean) and mean > 0


FORMS = [parse_poly(t) for t in ("x1^2+x2^2", "x1^2+x1*x2+3*x2^2", "2*x1^2-x1*x2+x2^2")]


def test_integer_families_match_exact_oracle():
    # x1^2+x2^2 at Q = 5 has moduli 50..162: with N <= 40 every modulus is >= N
    assert min(box_moduli(P_SUM_SQ, 5)[0]) == 50
    for P, Q, min_modulus in product(FORMS, (2, 3, 5, 8), (None, 50)):
        moduli = box_moduli(P, Q, min_modulus)[0]
        for family, N, M in product(("ones", "spike", "pm1"), (1, 2, 3, 7, 40, 150), (0, 11)):
            seq = sieve_sequence(family, N, N + Q)
            total = sieve_sum(seq, M, P, Q, min_modulus=min_modulus)
            exact = exact_sieve_sum(seq, moduli)
            assert type(total) is int and total == exact
            assert delta_of(seq, M, moduli) == float(Fraction(exact, int(norm_sq(seq))))


def test_unit_family_matches_pointwise_and_dft():
    for P, Q, N, M in ((P_SUM_SQ, 2, 1, 0), (FORMS[1], 3, 37, 11), (FORMS[2], 2, 150, 4)):
        moduli = box_moduli(P, Q)[0]
        seq = sieve_sequence("unit", N, N)
        total = moduli_sieve_sum(seq, M, moduli)
        expanded = [d for d, mult in moduli.items() for _ in range(mult)]
        assert total == pytest.approx(pointwise_sieve_sum(seq, M, expanded), rel=1e-12)
        assert total == pytest.approx(dft_sieve_sum(seq, M, moduli), rel=1e-12)


def test_exact_route_needs_the_guard(monkeypatch):
    moduli = box_moduli(FORMS[1], 3)[0]
    seq = sieve_sequence("pm1", 90, 4)
    exact = moduli_sieve_sum(seq, 0, moduli)
    assert type(exact) is int
    monkeypatch.setattr(largesieve, "EXACT_BITS", 0)
    rounded = moduli_sieve_sum(seq, 0, moduli)
    assert type(rounded) is float and rounded == pytest.approx(exact, rel=1e-12)
    half = seq / 2
    assert type(moduli_sieve_sum(half, 0, moduli)) is float


def test_empirical_quotient_correctly_rounded_past_2_53():
    # d = 2^61 + 197 is prime, so three ones give N (d - N) = 3 (d - 3), past
    # 2^53: rounding the total to a float first would be off by an ulp here
    d = 2 ** 61 + 197
    seq = sieve_sequence("ones", 3, 0)
    assert moduli_sieve_sum(seq, 0, {d: 1}) == 3 * (d - 3) == exact_sieve_sum([1, 1, 1], {d: 1})
    assert delta_of(seq, 0, {d: 1}) == float(d - 3) != float(3 * (d - 3)) / 3


def test_ramanujan_weights():
    # 12 = 2^2 3: e = 12/s over s | 6, mu(s) = 1, -1, -1, 1 for s = 1, 2, 3, 6
    assert ramanujan_weights({12: 2}, 13) == (8, {12: 2, 6: -2, 4: -2, 2: 2}, 4)
    assert ramanujan_weights({12: 2}, 5) == (8, {4: -2, 2: 2}, 4)
    # e = 1 collects mu(d) = -1 from each prime modulus
    assert ramanujan_weights({2: 1, 3: 1}, 10) == (3, {2: 1, 1: -2, 3: 1}, 4)
    with pytest.raises(ValueError):
        ramanujan_weights({1: 1}, 5)


def test_budget_is_the_work_estimate(monkeypatch):
    moduli = box_moduli(FORMS[1], 4)[0]
    seq = sieve_sequence("pm1", 100, 1)
    _, weights, terms = ramanujan_weights(moduli, 100)
    work = 200 * 8 + terms + sum(1 + 99 // e for e in weights)
    monkeypatch.setattr(largesieve, "DEFAULT_WORK_BUDGET", work)
    assert moduli_sieve_sum(seq, 0, moduli) == exact_sieve_sum(seq, moduli)
    monkeypatch.setattr(largesieve, "DEFAULT_WORK_BUDGET", work - 1)
    with pytest.raises(BudgetError) as info:
        moduli_sieve_sum(seq, 0, moduli)
    assert info.value.required == work
    # the lower bound with len(moduli) refuses before any factorization
    monkeypatch.setattr(largesieve, "DEFAULT_WORK_BUDGET", 200 * 8 + len(moduli) - 1)
    with pytest.raises(BudgetError) as info:
        moduli_sieve_sum(seq, 0, moduli)
    assert info.value.required == 200 * 8 + len(moduli)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=40),
       st.integers(0, 50),
       st.dictionaries(st.integers(2, 240), st.integers(1, 4), min_size=1, max_size=6))
def test_integer_coefficients_exact_property(coeffs, M, moduli):
    total = moduli_sieve_sum(coeffs, M, moduli)
    assert type(total) is int and total == exact_sieve_sum(coeffs, moduli)


@settings(max_examples=120, deadline=None)
@given(st.dictionaries(st.integers(2, 400), st.integers(1, 5), min_size=1, max_size=8),
       st.sampled_from(sorted(SEQUENCE_FAMILIES)),
       st.lists(st.integers(1, 70), min_size=1, max_size=5),
       st.integers(0, 50), st.integers(0, 2 ** 32))
@example({12: 2, 35: 1, 97: 3}, "pm1", [40, 7, 40, 1, 23], 3, 0)
@example({12: 2, 35: 1, 97: 3}, "unit", [40, 7, 40, 1, 23], 3, 0)
def test_grid_kernel_matches_strided_oracle(moduli, family, grid, M, seed):
    # one table at max(grid) serves every N, in any order and with repeats
    built = []

    def sequence(N):
        built.append(N)
        return autocorrelation(sieve_sequence(family, N, seed + N))

    sums = sieve_sums(moduli, M, grid, sequence)
    assert built == grid and len(sums) == len(grid)
    for N, (norm, total) in zip(grid, sums):
        seq = sieve_sequence(family, N, seed + N)
        assert norm == norm_sq(seq)
        if family == "unit":
            scale = norm_sq(seq) * sum(mult * (d + N) for d, mult in moduli.items())
            assert type(total) is float
            assert total == pytest.approx(strided_sieve_sum(seq, moduli), rel=1e-9,
                                          abs=1e-12 * scale)
        else:
            assert type(total) is int
            assert total == strided_sieve_sum(seq, moduli) == exact_sieve_sum(seq, moduli)


def test_exact_past_the_int64_bounds():
    # one prime modulus 61: G(61) = mult, G(1) = -mult, and on 64 ones the dot
    # product R[:N] W[:N] is -1833 mult.  mult = 2^53 keeps the table W in
    # int64 (sum_e |e G(e)| = 62 mult) but takes the dot past 2^63; mult = 2^58
    # takes W past it too.  int64 arithmetic would wrap in both.
    seq = sieve_sequence("ones", 64, 0)
    for mult in (2 ** 53, 2 ** 58):
        total = moduli_sieve_sum(seq, 0, {61: mult})
        assert type(total) is int and total == 64 * 60 * mult - 2 * 1833 * mult
        assert total == strided_sieve_sum(seq, {61: mult}) == exact_sieve_sum([1] * 64, {61: mult})


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_fft_length_is_the_smallest_5_smooth_length():
    top = 20000
    smallest, m = {}, 2 * top
    while not _is_5_smooth(m):
        m += 1
    for n in range(m, 0, -1):   # m is the smallest 5-smooth length >= n
        if _is_5_smooth(n):
            m = n
        smallest[n] = m
    for n in range(1, top + 1):
        assert largesieve._fft_length(n) == smallest[n]
        # the padding keeps fft_work's 2N bits(2N) an honest estimate: past
        # 64 the worst ratio is 72/65 = 360/325, and past 327 it is below 1.1
        assert n < 64 or 65 * smallest[n] <= 72 * n
        assert n < 328 or smallest[n] <= 1.1 * n


POOL_N = (100, 464, 2154, 10000, 144, 755, 3956, 20736, 196, 1139, 6613, 38416)


def test_autocorrelation_runs_at_a_5_smooth_length(monkeypatch):
    lengths = []

    def spy(transform):
        def call(a, n, *args, **kwargs):
            lengths.append(n)
            return transform(a, n, *args, **kwargs)
        return call

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(largesieve.np.fft, name, spy(getattr(np.fft, name)))
    moduli = box_moduli(P_SUM_SQ, 3)[0]
    for N in POOL_N + (389,):   # 389 is prime: 2N = 778 = 2 389
        for family, calls in (("pm1", 2), ("unit", 3)):
            lengths.clear()
            moduli_sieve_sum(sieve_sequence(family, N, 1), 0, moduli)
            assert len(lengths) == calls
            assert all(_is_5_smooth(n) and n >= 2 * N - 1 for n in lengths)


def test_exact_route_at_lengths_with_a_large_prime_factor():
    # 2N - 1 = 777 = 3 7 37 and 2277 = 3^2 11 23 are padded to 800 and 2304
    moduli = box_moduli(FORMS[1], 3)[0]
    for family, N in product(("ones", "spike", "pm1"), (389, 1139)):
        seq = sieve_sequence(family, N, N)
        total = moduli_sieve_sum(seq, 0, moduli)
        assert type(total) is int and total == exact_sieve_sum(seq, moduli)


def _kept_bytes():
    return sum(R.nbytes for _, R in largesieve._autocorrelations.values())


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SEQUENCE_FAMILIES)),
       st.one_of(st.just(1), st.just(389), st.integers(1, 300)),
       st.integers(0, 2 ** 63 - 1))
@example(family="ones", N=128, seed=0)
def test_sequence_autocorrelation_is_a_fresh_autocorrelation_cold_and_warm(family, N, seed):
    fresh_norm, fresh = autocorrelation(sieve_sequence(family, N, seed))
    largesieve._autocorrelations.clear()
    for _ in ("cold", "warm"):
        norm, R = largesieve.sequence_autocorrelation(family, N, seed)
        assert norm == fresh_norm and R.dtype == fresh.dtype and R.tobytes() == fresh.tobytes()
        assert not R.flags.writeable and _kept_bytes() <= largesieve.AUTOCORRELATION_CACHE_BYTES
    # an exact R is stored in the least integer dtype that holds -norm_sq - 1, so R(0) fits
    if family != "unit":
        assert R.dtype == np.min_scalar_type(-int(norm) - 1) and np.abs(R).max() == R[0] == norm


@pytest.mark.parametrize("N", [127, 128, 32767, 32768])
def test_autocorrelation_dtype_holds_R0_at_a_power_of_two_norm(N):
    # ones has R(0) = norm_sq = N: at N = 2^7 or 2^15 the least dtype holding -N cannot hold N
    norm, R = autocorrelation(np.ones(N))
    assert int(R[0]) == N == norm and R.tobytes() == np.arange(N, 0, -1).astype(R.dtype).tobytes()
    # the exact sieve sum agrees with the float path, which never narrows R
    total = moduli_sieve_sum(np.ones(N), 0, {3: 1, 4: 1})
    assert type(total) is int and total == pytest.approx(
        moduli_sieve_sum(np.ones(N, dtype=complex), 0, {3: 1, 4: 1}), rel=1e-9)


def test_autocorrelation_cache_keeps_the_newest_under_its_cap(monkeypatch):
    # a unit R is float64, 8 bytes a lag: N = 4 keeps 32 bytes, N = 2 keeps 16
    monkeypatch.setattr(largesieve, "AUTOCORRELATION_CACHE_BYTES", 100)
    largesieve._autocorrelations.clear()
    seen = []

    def call(N, seed):
        entry = largesieve.sequence_autocorrelation("unit", N, seed)
        assert _kept_bytes() <= 100
        seen.append(list(largesieve._autocorrelations))
        return entry

    for seed in (0, 1, 2):
        call(4, seed)
    hit = call(4, 0)   # a hit becomes the newest entry, and is the same object
    assert seen[-1] == [("unit", 4, 1), ("unit", 4, 2), ("unit", 4, 0)]
    assert call(4, 0)[1] is hit[1]
    call(2, 5)   # 96 + 16 bytes: the oldest entry leaves
    assert seen[-1] == [("unit", 4, 2), ("unit", 4, 0), ("unit", 2, 5)]
    # 160 bytes is past the cap: returned, not kept, and nothing evicted
    norm, R = call(20, 0)
    assert R.nbytes == 160 and R.tobytes() == autocorrelation(sieve_sequence("unit", 20, 0))[1].tobytes()
    assert seen[-1] == seen[-2]
    largesieve._autocorrelations.clear()


def test_sieve_scan_reuses_the_autocorrelation_across_polynomials(monkeypatch, capsys):
    transforms = []

    def spy(a, n, *args, **kwargs):
        transforms.append(n)
        return rfft(a, n, *args, **kwargs)

    def report(P, seed="3", family="pm1"):
        assert main(["sieve-scan", "--P", P, "--Q", "3", "--N", "9,40,81",
                     "--seed", seed, "--sequence", family]) == 0
        return re.sub(r'^  "duration_s": .*\n', "", capsys.readouterr().out, flags=re.M)

    rfft = np.fft.rfft
    monkeypatch.setattr(largesieve.np.fft, "rfft", spy)
    form, cold = "x1^2+x1*x2+3*x2^2", {}
    for flags in (("3", "pm1"), ("4", "pm1"), ("3", "unit")):
        clear_caches()
        cold[flags] = report(form, *flags)
    clear_caches()
    report("x1^2+x2^2")
    transforms.clear()
    assert report(form) == cold["3", "pm1"] and transforms == []
    # another seed or another family misses at every N: one rfft per real part
    for flags, calls in ((("4", "pm1"), 3), (("3", "unit"), 6)):
        transforms.clear()
        assert report(form, *flags) == cold[flags] and len(transforms) == calls
