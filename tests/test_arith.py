import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

import polysieve.arith as arith
from oracles import (moebius, primes_up_to, trial_division_factorize, trial_division_is_prime,
                     von_mangoldt)
from polysieve.arith import (LAMBDA_LIMIT, euler_phi, factorize, is_prime, prime_flags,
                             von_mangoldt_table)
from polysieve.errors import BudgetError
from polysieve.normform import _divisors_with_sign


def test_exact_dtype_is_int64_exactly_below_2_63():
    assert arith.exact_dtype(0) is arith.exact_dtype(2 ** 63 - 1) is np.int64
    assert arith.exact_dtype(2 ** 63) is arith.exact_dtype(2 ** 64) is object


def test_factorize_examples():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(1) == ()
    assert factorize(10403) == ((101, 1), (103, 1))
    assert trial_division_factorize(10403) == [(101, 1), (103, 1)]
    # three primes above the trial bound 2^12, none trial-divided: rho splits them
    assert factorize(1000003 * 1000033 * 1000037) == (
        (1000003, 1), (1000033, 1), (1000037, 1))
    assert factorize(1000003 ** 3) == ((1000003, 3),)


# the primes on either side of the trial bound 2^12 = 4096
_NEAR_TRIAL_BOUND = (4057, 4073, 4079, 4091, 4093, 4099, 4111, 4127, 4129, 4133)


def _factorint(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(sympy.factorint(n).items()))


def _plain_ints(f: tuple[tuple[int, int], ...]) -> bool:
    return all(type(p) is int and type(e) is int for p, e in f)


def test_factorize_matches_sympy_across_the_trial_bound():
    rng = random.Random(12)
    cases = [math.prod(rng.choices(_NEAR_TRIAL_BOUND, k=k)) for k in range(2, 6) for _ in range(30)]
    cases += [p ** e for p in _NEAR_TRIAL_BOUND for e in range(2, 5)]
    assert max(cases) < 2 ** 63
    for n in cases:
        assert factorize(n) == _factorint(n) and _plain_ints(factorize(n)), n


@pytest.mark.parametrize("bits", range(40, 64))
def test_factorize_matches_sympy_on_semiprimes_with_a_factor_above_the_trial_table(bits):
    # one factor in (2^12, 10^6): above the trial table, so rho must find it
    rng = random.Random(bits)
    for _ in range(4):
        p = sympy.nextprime(rng.randrange(2 ** 12, 10 ** 6 - 100))
        q = sympy.prevprime(rng.randrange(2 ** (bits - 1), 2 ** bits) // p)
        n = p * q
        assert n < 2 ** 63 and p < 10 ** 6
        assert factorize(n) == _factorint(n) and _plain_ints(factorize(n)), n


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(1, 10 ** 5))
def test_factorize_matches_trial_division(n):
    assert list(factorize(n)) == trial_division_factorize(n)


@given(st.integers(1, 10 ** 12))
def test_factorize_rebuilds(n):
    f = factorize(n)
    assert math.prod(p ** e for p, e in f) == n
    assert all(is_prime(p) for p, _ in f)
    assert all(e >= 1 for _, e in f)
    primes = [p for p, _ in f]
    assert primes == sorted(primes)


def test_divisors():
    assert _divisors_with_sign(12) == [-12, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 12]
    assert _divisors_with_sign(1) == [-1, 1]


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
    # n = 1 conventions
    assert von_mangoldt(1) == 0.0
    assert moebius(1) == 1
    assert euler_phi(1) == 1
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


def test_von_mangoldt_table_matches_pointwise():
    # the prime-power edges: 2^13, and 101^2 just below and at its square
    for limit in (0, 1, 2, 500, 37, 2 ** 13, 101 ** 2 - 1, 101 ** 2):
        T, L = von_mangoldt_table(limit)
        assert T.dtype == np.int64 and L.dtype == np.float64
        assert T.tolist() == [n for n in range(1, limit + 1) if von_mangoldt(n)]
        assert L.tolist() == [von_mangoldt(n) for n in T.tolist()]
    with pytest.raises(ValueError):
        von_mangoldt_table(-1)
    with pytest.raises(BudgetError):
        von_mangoldt_table(LAMBDA_LIMIT + 1)


def test_von_mangoldt_table_prefixes_are_read_only_and_fresh(monkeypatch):
    def fresh(limit):
        monkeypatch.setattr(arith, "_lambda_stream", None)
        return von_mangoldt_table(limit)

    monkeypatch.setattr(arith, "_lambda_stream", None)
    calls = [(limit, von_mangoldt_table(limit)) for limit in (10 ** 4, 50, 10 ** 5)]
    for limit, (T, L) in calls:
        assert not T.flags.writeable and not L.flags.writeable
        with pytest.raises(ValueError):
            T[0] = 0
        FT, FL = fresh(limit)
        assert np.array_equal(T, FT) and np.array_equal(L, FL)
        RT, RL = von_mangoldt_table(limit)
        assert np.array_equal(T, RT) and np.array_equal(L, RL)


# windows [lo, limit] that start below 2, hold one value or none, cross the
# square of a base prime, or start at one
@given(st.integers(-50, 20_000).flatmap(
    lambda lo: st.tuples(st.just(lo), st.integers(lo - 3, lo + 400))))
@example((-5, 1))
@example((0, 4))
@example((-3, 40))
@example((7, 7))
@example((10, 9))
@example((24, 26))
@example((120, 122))
@example((49, 49))
@example((121, 300))
@example((10201, 10250))
def test_prime_flags_window_matches_trial_division(window):
    lo, limit = window
    flags = prime_flags(limit, lo)
    assert flags.dtype == bool and len(flags) == max(limit + 1 - lo, 0)
    assert flags.tolist() == [trial_division_is_prime(n) for n in range(lo, limit + 1)]


def test_prime_flags_window_is_priced_by_its_length(monkeypatch):
    monkeypatch.setattr(arith, "PRIME_SIEVE_LIMIT", 100)
    assert len(prime_flags(1002, 902)) == 101
    with pytest.raises(BudgetError, match="^prime sieve limit: requires 101, budget is 100$"):
        prime_flags(1002, 901)


def test_factorization_dataclass():
    f = factorize(360)
    assert f == ((2, 3), (3, 2), (5, 1))
    assert type(f) is tuple and all(type(pe) is tuple and len(pe) == 2 for pe in f)
    assert _plain_ints(f)


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 10 ** 5])
def test_primes_up_to_matches_sympy(limit):
    primes = primes_up_to(limit)
    assert primes == list(sympy.primerange(limit + 1))
    assert all(type(p) is int for p in primes)
