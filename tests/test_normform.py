import random
from fractions import Fraction

import pytest
import sympy

from oracles import sylvester_resultant
from polysieve.errors import BudgetError
from polysieve.mvpoly import parse_poly
from polysieve.normform import (NumberFieldSpec, _divisors_with_sign,
                                field_multiply, integer_nth_root, norm_form,
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


def test_divisors_with_sign_of_a_large_prime():
    p = 2 ** 61 - 1
    assert _divisors_with_sign(p) == [-p, -1, 1, p]


def test_prime_value_sieve_examples():
    rep = prime_value_sieve(GAUSS, 1)
    assert dict(rep.values) == {2: [(1, 1)]}
    assert rep.maynard_condition_ok  # 2 >= 3*2/4
    assert rep.density_ratio is None  # log Q vanishes at Q = 1

    rep2 = prime_value_sieve(GAUSS, 2)
    assert set(rep2.values) == {13}
    assert rep2.values[13] == [(2, 3), (3, 2)]
    assert rep2.max_multiplicity == 2 and rep2.count == 2

    rep3 = prime_value_sieve(CUBE2_TRUNC, 2)
    assert dict(rep3.values) == {43: [(3, 2)]}
    assert not rep3.maynard_condition_ok  # 2 < 9/4


def test_prime_divisor_search_small():
    rep = prime_divisor_search(GAUSS, 100, Fraction(2, 5))
    ps = {w.p for w in rep.witnesses}
    assert 11 in ps
    assert 13 not in ps
    assert rep.count == len(ps) > 0
    w11 = next(w for w in rep.witnesses if w.p == 11)
    assert w11.divisors == (5,)
    assert norm_form(GAUSS).evaluate(w11.representations[5]) == 5


def test_prime_divisor_search_matches_full_oracle():
    X = 3000
    theta = Fraction(2, 5)
    rep = prime_divisor_search(GAUSS, X, theta)
    got = {w.p: set(w.divisors) for w in rep.witnesses}
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
    assert rep.witnesses == ()


def test_prime_divisor_search_validation_and_budget():
    with pytest.raises(ValueError):
        prime_divisor_search(GAUSS, 100, Fraction(7, 5))
    with pytest.raises(BudgetError):
        prime_divisor_search(GAUSS, 10 ** 9, Fraction(2, 5), budget=1000)
