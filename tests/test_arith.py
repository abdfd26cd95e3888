import math
from math import fsum

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from oracles import trial_division_factorize, trial_division_is_prime
from polysieve.arith import (LAMBDA_LIMIT, Factorization, chebyshev_psi,
                             euler_phi, factorize, is_prime, moebius,
                             primes_up_to, psi_progression, tau, von_mangoldt,
                             von_mangoldt_table)
from polysieve.errors import BudgetError


def test_factorize_examples():
    assert factorize(12).prime_powers == ((2, 2), (3, 1))
    assert factorize(1).prime_powers == ()
    assert factorize(10403).prime_powers == ((101, 1), (103, 1))
    assert trial_division_factorize(10403) == [(101, 1), (103, 1)]


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(1, 10 ** 5))
def test_factorize_matches_trial_division(n):
    assert list(factorize(n).prime_powers) == trial_division_factorize(n)


@given(st.integers(1, 10 ** 12))
def test_factorize_rebuilds(n):
    f = factorize(n)
    assert f.rebuild() == n
    assert all(is_prime(p) for p, _ in f.prime_powers)
    assert all(e >= 1 for _, e in f.prime_powers)
    primes = [p for p, _ in f.prime_powers]
    assert primes == sorted(primes)


def test_divisors():
    assert factorize(12).divisors() == [1, 2, 3, 4, 6, 12]
    assert factorize(1).divisors() == [1]


def test_is_prime_small_and_edge():
    assert is_prime(2)
    assert not is_prime(1)
    assert [n for n in range(1, 60) if is_prime(n)] == primes_up_to(59)[:]


def test_is_prime_large_cross_check():
    assert is_prime(2 ** 61 - 1)
    assert sympy.isprime(2 ** 61 - 1)
    for n in (2 ** 61 - 1, 2 ** 62 + 135, 10 ** 18 + 9, 10 ** 18 + 7,
              3 * 10 ** 14 + 1, 999999999989):
        assert is_prime(n) == sympy.isprime(n), n


@given(st.integers(1, 3000))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == trial_division_is_prime(n)


def test_standard_function_values():
    assert von_mangoldt(8) == math.log(2)
    assert moebius(30) == -1
    assert euler_phi(10) == 4
    assert tau(12) == 6
    # n = 1 conventions
    assert von_mangoldt(1) == 0.0
    assert moebius(1) == 1
    assert euler_phi(1) == 1
    assert tau(1) == 1
    assert von_mangoldt(10) == 0.0
    assert moebius(12) == 0


def test_divisor_sum_identities():
    # sum of phi over divisors is n; sum of mu over divisors detects n = 1.
    # Sieve both identities exactly up to 1e5, then bridge the sieve to the
    # factorization-based functions on a sample.
    N = 10 ** 5
    phi = list(range(N + 1))
    for p in primes_up_to(N):
        for k in range(p, N + 1, p):
            phi[k] -= phi[k] // p
    phi_divisor_sum = [0] * (N + 1)
    for d in range(1, N + 1):
        for k in range(d, N + 1, d):
            phi_divisor_sum[k] += phi[d]
    assert all(phi_divisor_sum[n] == n for n in range(1, N + 1))

    mu = [1] * (N + 1)
    for p in primes_up_to(N):
        for k in range(p, N + 1, p):
            mu[k] *= -1
        for k in range(p * p, N + 1, p * p):
            mu[k] = 0
    mu_divisor_sum = [0] * (N + 1)
    for d in range(1, N + 1):
        for k in range(d, N + 1, d):
            mu_divisor_sum[k] += mu[d]
    assert mu_divisor_sum[1] == 1
    assert all(mu_divisor_sum[n] == 0 for n in range(2, N + 1))

    import random
    rng = random.Random(4)
    for n in [1, 2, 12, 30, 97, 1024] + [rng.randrange(1, N) for _ in range(300)]:
        assert euler_phi(n) == phi[n]
        assert moebius(n) == mu[n]


def test_psi_progression_examples():
    assert psi_progression(10, 3, 1) == pytest.approx(math.log(14), rel=1e-12)
    assert psi_progression(0, 5, 2) == 0.0
    assert psi_progression(10, 1, 0) == pytest.approx(math.log(2520), rel=1e-12)
    assert chebyshev_psi(10) == psi_progression(10, 1, 0)


def test_psi_progression_rejects_bad_input():
    with pytest.raises(ValueError):
        psi_progression(-1, 3, 1)
    with pytest.raises(ValueError):
        psi_progression(10, 0, 1)


def test_psi_class_decomposition_exact():
    # Partitioning the Lambda terms by residue class and re-merging them in
    # increasing n reproduces the psi(y) term list, so one fsum of the merged
    # list is bitwise equal to chebyshev_psi.  The float identity on the
    # per-class sums holds to accumulation accuracy.
    for m, y in ((7, 300), (12, 1000), (50, 2500)):
        merged = []
        for a in range(m):
            merged.extend([(n, von_mangoldt(n)) for n in range(1, int(y) + 1)
                           if n % m == a and von_mangoldt(n) > 0])
        merged.sort()
        assert fsum(v for _, v in merged) == chebyshev_psi(y)
        regrouped = fsum(psi_progression(y, m, a) for a in range(m))
        assert regrouped == pytest.approx(chebyshev_psi(y), rel=1e-12)


def test_psi_batch_and_pointwise_identical():
    import polysieve.arith as arith
    y, m, a = 200, 7, 3
    table_backed = psi_progression(y, m, a)
    saved = arith._lambda_table
    try:
        arith._lambda_table = None
        pointwise = fsum(von_mangoldt(n) for n in range(a, y + 1, m))
    finally:
        arith._lambda_table = saved
    assert table_backed == pointwise


def test_von_mangoldt_table_matches_pointwise():
    for limit in (0, 1, 2, 500, 37):
        T, L = von_mangoldt_table(limit)
        assert T.dtype == np.int64 and L.dtype == np.float64
        assert T.tolist() == [n for n in range(1, limit + 1) if von_mangoldt(n)]
        assert L.tolist() == [von_mangoldt(n) for n in T.tolist()]
    with pytest.raises(ValueError):
        von_mangoldt_table(-1)
    with pytest.raises(BudgetError):
        von_mangoldt_table(LAMBDA_LIMIT + 1)


def test_factorization_dataclass():
    f = factorize(360)
    assert isinstance(f, Factorization)
    assert f.n == 360 and f.rebuild() == 360
