import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (field_multiply, laplace_norm_form, loop_prime_divisor_search,
                     loop_prime_value_sieve, sylvester_resultant)
from polysieve import boxes, normform
from polysieve.cli import main
from polysieve.errors import BudgetError
from polysieve.mvpoly import parse_poly
from polysieve.normform import (NumberFieldSpec, _divisors_with_sign,
                                check_norm_form_budget, integer_nth_root, norm_form,
                                prime_divisor_search, prime_value_sieve)

GAUSS = NumberFieldSpec.from_text("t^2+1")
CUBE2 = NumberFieldSpec.from_text("t^3-2")
CUBE2_TRUNC = NumberFieldSpec.from_text("t^3-2", truncation=1)
QUARTIC = NumberFieldSpec.from_text("t^4-t-1")

TEST_FIELDS = (GAUSS, CUBE2, QUARTIC)


def test_norm_form_gaussian():
    assert norm_form(GAUSS) == parse_poly("x1^2+x2^2")


def test_norm_form_truncated_cubic():
    form = norm_form(CUBE2_TRUNC)
    assert form == parse_poly("x1^3+2*x2^3")
    assert form.to_text(var_prefix="q") == "q1^3 + 2*q2^3"


def test_norm_form_full_cubic():
    form = norm_form(CUBE2)
    assert form == parse_poly("x1^3 + 2*x2^3 + 4*x3^3 - 6*x1*x2*x3")
    assert form.evaluate((1, 1, 1)) == 1


def test_norm_form_homogeneous():
    rng = random.Random(0)
    for spec in TEST_FIELDS:
        n = spec.degree
        form = norm_form(spec)
        assert form.total_degree() == n
        assert all(sum(e) == n for e in form.terms)
        for _ in range(10):
            q = [rng.randint(-9, 9) for _ in range(n)]
            c = rng.randint(-5, 5)
            assert form.evaluate([c * x for x in q]) == c ** n * form.evaluate(q)


def test_field_multiply_identity_and_relations():
    assert field_multiply(CUBE2, (1, 0, 0), (5, 7, 9)) == (5, 7, 9)
    assert field_multiply(GAUSS, (0, 1), (0, 1)) == (-1, 0)   # w^2 = -1
    assert field_multiply(CUBE2, (0, 1, 0), (0, 0, 1)) == (2, 0, 0)  # w^3 = 2
    with pytest.raises(ValueError):
        field_multiply(GAUSS, (1,), (0, 1))


def test_norm_multiplicativity():
    rng = random.Random(17)
    for spec in TEST_FIELDS:
        n = spec.degree
        form = norm_form(spec)
        for _ in range(100):
            u = [rng.randint(-10, 10) for _ in range(n)]
            v = [rng.randint(-10, 10) for _ in range(n)]
            assert form.evaluate(field_multiply(spec, u, v)) \
                == form.evaluate(u) * form.evaluate(v)


def test_norm_matches_resultant_oracle():
    rng = random.Random(23)
    for spec in TEST_FIELDS:
        n = spec.degree
        form = norm_form(spec)
        for _ in range(50):
            q = [rng.randint(-10, 10) for _ in range(n)]
            if not any(q):
                continue
            res = sylvester_resultant(list(spec.coeffs), q)
            assert form.evaluate(q) == res


def test_truncated_norm_is_restriction():
    full = norm_form(CUBE2)
    trunc = norm_form(CUBE2_TRUNC)
    for q1 in range(-4, 5):
        for q2 in range(-4, 5):
            assert trunc.evaluate((q1, q2)) == full.evaluate((q1, q2, 0))


def test_spec_validation():
    with pytest.raises(ValueError):
        NumberFieldSpec.from_text("t^2-1")        # root t = 1
    with pytest.raises(ValueError):
        NumberFieldSpec.from_text("t^2+2*t+1")    # (t+1)^2
    with pytest.raises(ValueError):
        NumberFieldSpec.from_text("2*t^2+1")      # not monic
    with pytest.raises(ValueError):
        NumberFieldSpec.from_text("t^2+t")        # root t = 0
    with pytest.raises(ValueError):
        NumberFieldSpec.from_text("t+3")          # degree 1
    with pytest.raises(ValueError):
        NumberFieldSpec.from_text("t^3-2", truncation=3)
    with pytest.raises(ValueError):
        NumberFieldSpec((1, 0, 2, 1), truncation=-1)


def test_integer_nth_root():
    assert integer_nth_root(10 ** 5, 2) == 316
    assert integer_nth_root(26, 3) == 2
    assert integer_nth_root(27, 3) == 3
    assert integer_nth_root(0, 4) == 0
    for x in (1, 7, 63, 64, 65, 10 ** 12 - 1, 10 ** 12, 2 ** 1000 - 1, 2 ** 1000,
              (10 ** 57 + 3) ** 7, 3 ** 800 - 1, 10 ** 400 - 1, 10 ** 400):
        for n in (1, 2, 3, 5, 7):
            r = integer_nth_root(x, n)
            assert r ** n <= x < (r + 1) ** n
    # long exponents, as corollary-search takes for theta near 1, around
    # exact powers and at random sizes up to 10^420
    rng = random.Random(31)
    for _ in range(300):
        n = rng.choice((11, 999, 1000, 1200, rng.randrange(1, 1201)))
        d = rng.randrange(2, 70000)
        for x in (d ** n - 1, d ** n, d ** n + 1, rng.randrange(1, 10 ** rng.randrange(1, 421))):
            r = integer_nth_root(x, n)
            assert r ** n <= x < (r + 1) ** n


def test_divisors_with_sign_of_a_large_prime():
    p = 2 ** 61 - 1
    assert _divisors_with_sign(p) == [-p, -1, 1, p]


@pytest.mark.parametrize("c0", [1, 2, 12, 360, 2 ** 10 * 3 ** 5, 1000003, 1000003 * 1000033])
def test_divisors_with_sign_match_sympy(c0):
    assert _divisors_with_sign(c0) == sorted(s * d for d in sympy.divisors(c0) for s in (1, -1))


def test_prime_value_sieve_examples():
    rep = prime_value_sieve(GAUSS, 1)
    assert dict(rep.values) == {2: [[1, 1]]}
    assert rep.maynard_condition_ok  # 2 >= 3*2/4
    assert rep.density_ratio is None  # log Q vanishes at Q = 1

    rep2 = prime_value_sieve(GAUSS, 2)
    assert set(rep2.values) == {13}
    assert rep2.values[13] == [[2, 3], [3, 2]]
    assert rep2.max_multiplicity == 2 and rep2.count == 2

    rep3 = prime_value_sieve(CUBE2_TRUNC, 2)
    assert dict(rep3.values) == {43: [[3, 2]]}
    assert not rep3.maynard_condition_ok  # 2 < 9/4


def test_prime_divisor_search_small():
    rep = prime_divisor_search(GAUSS, 100, Fraction(2, 5))
    ps = set(rep.primes)
    assert 11 in ps
    assert 13 not in ps
    assert rep.count == len(ps) > 0
    assert rep.divisors[rep.primes.index(11)] == [5]
    assert norm_form(GAUSS).evaluate(rep.representations[5]) == 5


def test_prime_divisor_search_matches_full_oracle():
    X = 3000
    theta = Fraction(2, 5)
    rep = prime_divisor_search(GAUSS, X, theta)
    got = {p: set(ds) for p, ds in zip(rep.primes, rep.divisors)}
    expected = {}
    for p in sympy.primerange(2, X + 1):
        hits = set()
        for d in sympy.divisors(p - 1):
            # prime and a sum of two positive squares: d = 2 or d = 1 mod 4
            if sympy.isprime(d) and (d == 2 or d % 4 == 1) and d ** 5 >= p ** 2:
                hits.add(d)
        if hits:
            expected[p] = hits
    assert got == expected


def test_prime_divisor_search_vacuous_threshold():
    rep = prime_divisor_search(GAUSS, 50, Fraction(99, 100))
    assert rep.count == 0
    assert rep.primes == [] and rep.divisors == []


def test_prime_divisor_search_validation_and_budget(monkeypatch):
    with pytest.raises(ValueError):
        prime_divisor_search(GAUSS, 100, Fraction(7, 5))
    monkeypatch.setattr(normform, "NORM_VALUE_BUDGET", 1000)
    with pytest.raises(BudgetError):
        prime_divisor_search(GAUSS, 10 ** 9, Fraction(2, 5))
    monkeypatch.undo()
    # td * bits(X) against THETA_POWER_BITS = 2^16; X = 200 has 8 bits
    assert prime_divisor_search(GAUSS, 200, Fraction(1, 8192)).count > 0
    with pytest.raises(BudgetError):
        prime_divisor_search(GAUSS, 200, Fraction(1, 8193))


@pytest.mark.parametrize("X", [0, -5])
def test_prime_divisor_search_refuses_x_below_one(X):
    with pytest.raises(ValueError, match=rf"^X must be >= 1, got {X}$"):
        prime_divisor_search(GAUSS, X, Fraction(1, 2))


def test_prime_divisor_search_budget_boundary(monkeypatch):
    # X = 100 gives qmax = 10 and 10^2 norm values for t^2+1
    monkeypatch.setattr(normform, "NORM_VALUE_BUDGET", 100)
    assert prime_divisor_search(GAUSS, 100, Fraction(2, 5)).q_range == 10
    monkeypatch.setattr(normform, "NORM_VALUE_BUDGET", 99)
    with pytest.raises(BudgetError, match=r"^norm value sieve: requires 100, budget is 99$"):
        prime_divisor_search(GAUSS, 100, Fraction(2, 5))


def test_prime_value_sieve_budget_boundary(monkeypatch):
    # the box cap is read from boxes at call time: Q = 3 gives 3^2 tuples
    expected = prime_value_sieve(GAUSS, 3)
    monkeypatch.setattr(boxes, "DEFAULT_BOX_BUDGET", 9)
    assert prime_value_sieve(GAUSS, 3) == expected
    monkeypatch.setattr(boxes, "DEFAULT_BOX_BUDGET", 8)
    with pytest.raises(BudgetError, match=r"^box enumeration: requires 9, budget is 8$"):
        prime_value_sieve(GAUSS, 3)


def test_over_budget_prime_value_sieve_refuses_before_the_norm_form(monkeypatch, capsys):
    # the norm form's determinant grows steeply with the degree; the box
    # 4^12 is refused before it is built
    def refuse(spec):
        raise AssertionError("the norm form was built")

    monkeypatch.setattr(normform, "norm_form", refuse)
    assert main(["prime-value-sieve", "--f", "t^12+2", "--Q", "4"]) == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "box enumeration: requires 16777216, budget is 5000000"


@pytest.mark.parametrize("argv", [
    ("norm-form", "--f", "t^11+2"),
    ("prime-value-sieve", "--f", "t^11+2", "--Q", "1"),
    ("corollary-search", "--f", "t^11+2", "--X", "100", "--theta", "1/3"),
], ids=lambda argv: argv[0])
def test_degree_11_norm_form_is_refused_before_the_determinant(capsys, argv):
    # 11 2^10 C(21, 10) = 3972993024; the determinant itself ran past 30 s
    start = time.perf_counter()
    assert main(list(argv)) == 3
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {
        "error": "norm form determinant: requires 3972993024, budget is 500000000",
        "kind": "resource", "partial_progress": False}


def _run_cli(argv, timeout):
    """The CLI in a fresh interpreter, killed (TimeoutExpired) after timeout s."""
    env = dict(os.environ, PYTHONPATH=str(Path(normform.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "polysieve.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_corollary_search_refuses_the_norm_form_before_the_prime_sieve():
    # 11 2^10 C(20, 9) = 1891901440; the prime sieve up to X = 10^8 that ran
    # first took about 2 s
    argv = ["corollary-search", "--f", "t^11+2", "--truncation", "1", "--X", "100000000",
            "--theta", "1/3"]
    start = time.perf_counter()
    proc = _run_cli(argv, timeout=60)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 3
    assert proc.stderr == json.dumps({
        "error": "norm form determinant: requires 1891901440, budget is 500000000",
        "kind": "resource", "partial_progress": False}) + "\n"


@pytest.mark.parametrize("argv, timeout", [
    # a dense degree 9 in 9 variables: about 1 s, so 30 s leaves a slow host room
    (("--f", "t^9+t^8+3*t+2"), 30),
    # one diagonal path of row subsets; building all 2^20 of them takes about 15 s
    (("--f", "t^20+3", "--truncation", "19"), 5),
], ids=["dense-degree-9", "diagonal-degree-20"])
def test_norm_form_finishes_in_time(argv, timeout):
    proc = _run_cli(["norm-form", *argv], timeout=timeout)
    assert proc.returncode == 0, proc.stderr


def test_degree_160_is_refused_before_the_irreducibility_battery():
    # the battery's squarefree test on this dense f runs past 100 s
    rng = random.Random(160)
    f = "+".join(["t^160"] + [f"{rng.randint(1, 9)}*t^{i}" for i in range(159, -1, -1)])
    proc = _run_cli(["norm-form", "--f", f], timeout=2)
    assert proc.returncode == 3 and proc.stdout == ""
    [line] = proc.stderr.splitlines()
    error = json.loads(line)
    assert error["kind"] == "resource"
    assert error["error"].startswith("norm form determinant: requires ")


def test_spec_refuses_a_norm_form_past_the_budget_from_degree_26():
    # 25 2^24 = 419430400 passes at one variable; 26 2^25 = 872415232 does not
    assert norm_form(NumberFieldSpec.from_text("t^25+2", truncation=24)) \
        == parse_poly("x1^25")
    with pytest.raises(BudgetError, match=r"^norm form determinant: requires 872415232, "
                                          r"budget is 500000000$"):
        NumberFieldSpec.from_text("t^26+2", truncation=25)
    with pytest.raises(ValueError, match="root"):   # t = 1 is still found below degree 26
        NumberFieldSpec.from_text("t^25-1", truncation=24)


def test_norm_form_budget_boundary(monkeypatch):
    # t^3 - 2 in 3 variables: 3 2^2 C(5, 2) = 120
    expected = norm_form(CUBE2)
    monkeypatch.setattr(normform, "NORM_FORM_BUDGET", 120)
    assert norm_form(CUBE2) == expected
    monkeypatch.setattr(normform, "NORM_FORM_BUDGET", 119)
    with pytest.raises(BudgetError, match=r"^norm form determinant: requires 120, budget is 119$"):
        norm_form(CUBE2)


def test_the_budget_admits_degree_10():
    # n = ell = 10 estimates 10 2^9 C(19, 9) = 472975360, under the budget;
    # the determinant itself takes about 2 s
    spec = NumberFieldSpec.from_text("t^10+2")
    check_norm_form_budget(spec)
    form = norm_form(spec)
    assert form.num_vars == 10 and all(sum(e) == 10 for e in form.terms)
    rng = random.Random(10)
    for _ in range(5):
        q = [rng.randint(-3, 3) for _ in range(10)]
        assert form.evaluate(q) == sylvester_resultant(list(spec.coeffs), q)


@st.composite
def monic_fields(draw):
    """A monic f of degree 2-7 that passes the irreducibility battery, its
    constant term small or near +-10^18."""
    n = draw(st.integers(2, 7))
    c0 = draw(st.integers(-9, 9) | st.integers(10 ** 18 - 99, 10 ** 18 + 99)
              | st.integers(-10 ** 18 - 99, -10 ** 18 + 99))
    middle = draw(st.lists(st.integers(-9, 9), min_size=n - 1, max_size=n - 1))
    try:
        return NumberFieldSpec((c0, *middle, 1))
    except ValueError:
        assume(False)


# t^3 + 10^18 + 3 in 3 variables has a product of row sums past 2^63, so it
# runs on Python ints; the small fields and its truncations run in int64.
# t^3 - 3037000501 has the coefficient 3037000501^2 of q3^3 just past 2^63,
# where an int64 run would wrap
@example(NumberFieldSpec.from_text(f"t^3+{10 ** 18 + 3}"))
@example(NumberFieldSpec.from_text("t^3-3037000501"))
@example(NumberFieldSpec.from_text("t^7+t^6+3*t+2"))
@settings(max_examples=30)
@given(monic_fields())
def test_norm_form_matches_the_laplace_expansion(spec):
    for truncation in range(spec.degree):
        truncated = NumberFieldSpec(spec.coeffs, truncation)
        assert norm_form(truncated) == laplace_norm_form(truncated)


ORACLE_FIELDS = [NumberFieldSpec.from_text("t^2+1"), NumberFieldSpec.from_text("t^2+t+3"),
                 CUBE2_TRUNC]


# From X = 100 on, t^2 + 10^17 takes the object grid and has norm values
# above 2^63, which is_prime refuses; they are >= X and never tested.
BIG_FIELD = NumberFieldSpec.from_text("t^2+" + str(10 ** 17))


@pytest.mark.parametrize("spec", ORACLE_FIELDS + [BIG_FIELD], ids=repr)
@pytest.mark.parametrize("X", [2, 3, 100, 3000])
@pytest.mark.parametrize("theta", [Fraction(1, 3), Fraction(2, 5), Fraction(1, 2),
                                   Fraction(99, 100), Fraction(999, 1000)], ids=str)
def test_prime_divisor_search_matches_loop_reference(spec, X, theta):
    got = prime_divisor_search(spec, X, theta)
    expected = loop_prime_divisor_search(spec, X, theta)
    assert got == expected
    assert list(got.representations.items()) == list(expected.representations.items())


@pytest.mark.parametrize("spec", ORACLE_FIELDS, ids=repr)
@pytest.mark.parametrize("X, theta", [(3000, Fraction(1, 3)), (3000, Fraction(99, 100)),
                                      (20000, Fraction(1, 3))], ids=str)
def test_representations_hold_each_named_divisor_at_its_first_point(spec, X, theta):
    # the map narrows to the d some witness names: at t^2+1, X = 20000,
    # theta = 1/3 that is 231 of the 1126 norm primes below X
    rep = prime_divisor_search(spec, X, theta)
    keys = list(rep.representations)
    assert set(keys) == {d for ds in rep.divisors for d in ds}
    assert keys == sorted(keys)
    form, first = norm_form(spec), {}
    for q in product(range(1, rep.q_range + 1), repeat=spec.num_form_vars):
        first.setdefault(form.evaluate(q), list(q))
    assert rep.representations == {d: first[d] for d in keys}


def test_corollary_search_leaves_numpy_ma_unimported():
    # np.unique without indices, and np.isin through it, import numpy.ma on
    # their first call: about 15 ms on the first corollary-search of a process
    code = ("import os, sys; from polysieve.cli import main; "
            "main(['corollary-search', '--f', 't^2+1', '--X', '60000', '--theta', '1/2', "
            "'--out', os.devnull]); print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(normform.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("theta", [Fraction(2, 5), Fraction(1, 2), Fraction(999, 1000)], ids=str)
@pytest.mark.parametrize("X", [10000, 30000])
def test_prime_divisor_search_walk_bound_threshold(X, theta):
    # at X = 10000, theta = 1/2 the threshold X^theta = 100 is exact and falls
    # between the norm primes 97 and 101; at 999/1000 nearly every norm prime
    # lies below X^theta, where a float estimate fixes its walk's end
    got = prime_divisor_search(GAUSS, X, theta)
    assert got == loop_prime_divisor_search(GAUSS, X, theta)


@pytest.mark.parametrize("theta", [Fraction(2, 5), Fraction(1, 2), Fraction(99, 100)], ids=str)
def test_prime_divisor_search_exact_walk_ends(monkeypatch, theta):
    # a margin of 1 leaves every walk end below X^theta to the exact root
    monkeypatch.setattr(normform, "WALK_END_MARGIN", 1.0)
    got = prime_divisor_search(GAUSS, 3000, theta)
    assert got == loop_prime_divisor_search(GAUSS, 3000, theta)


# The fields of the benchmark's corollary-search pool.
POOL_FIELDS = [f"t^2+{c}" if b == 0 else f"t^2+t+{c}" for c in range(1, 13) for b in (0, 1)]


def _assert_search_matches_loop(spec, X, theta):
    got = prime_divisor_search(spec, X, theta)
    assert got == loop_prime_divisor_search(spec, X, theta)
    # plain ints, as the report writer takes no numpy scalars
    assert all(type(p) is int for p in got.primes)
    assert all(type(d) is int for ds in got.divisors for d in ds)
    assert all(type(c) is int for q in got.representations.values() for c in q)
    return got


@pytest.mark.parametrize("field", POOL_FIELDS)
@pytest.mark.parametrize("X", [2, 3, 100, 3000])
def test_one_pass_walk_matches_loop_reference_on_pool_fields(field, X):
    spec = NumberFieldSpec.from_text(field)
    for theta in (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)):
        _assert_search_matches_loop(spec, X, theta)


@pytest.mark.parametrize("X", [2, 3, 100, 200, 255])
def test_one_pass_walk_at_the_smallest_theta(X):
    # td * bits(X) = 8192 * 8 is the largest THETA_POWER_BITS allows
    _assert_search_matches_loop(GAUSS, X, Fraction(1, 8192))


def test_one_pass_walk_without_steps():
    # no norm prime below X: q1^2 + q1 q2 + 12 q2^2 >= 14 on the box
    rep = _assert_search_matches_loop(NumberFieldSpec.from_text("t^2+t+12"), 10, Fraction(1, 3))
    assert rep.count == 0 and rep.primes == [] and rep.divisors == []
    # the one norm prime 2 < 3^theta takes no step
    rep = _assert_search_matches_loop(GAUSS, 3, Fraction(99, 100))
    assert rep.count == 0 and rep.prime_count == 2


@pytest.mark.parametrize("spec", ORACLE_FIELDS + [CUBE2, QUARTIC], ids=repr)
@pytest.mark.parametrize("Q", [1, 2, 3, 7])
def test_prime_value_sieve_matches_loop_reference(spec, Q):
    got = prime_value_sieve(spec, Q)
    expected = loop_prime_value_sieve(spec, Q)
    assert got == expected
    assert list(got.values.items()) == list(expected.values.items())
    # plain ints, as the report writer takes no numpy scalars
    assert all(type(c) is int for qs in got.values.values() for q in qs for c in q)
