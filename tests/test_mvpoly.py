import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import horner_eval, poly_from_json_dict, poly_product, poly_to_json
from polysieve.bv import check_setting, exponent_profile
from polysieve.errors import BudgetError
from polysieve.mvpoly import GRID_VALUE_BITS, FactoredPoly, MvPoly, parse_poly


def test_parse_and_eval_trivial():
    P = parse_poly("x1^2+x2^2")
    assert P.evaluate((1, 2)) == 5
    Q = parse_poly("x1^3+2*x2^3")
    assert Q.evaluate((1, 1)) == 3


def test_eval_matches_horner_oracle():
    P = parse_poly("x1^2+x2^2")
    assert P.evaluate((3, 4)) == 25
    assert horner_eval(P.terms, 2, (3, 4)) == 25


def test_eval_dimension_mismatch():
    P = parse_poly("x1^2+x2^2")
    with pytest.raises(ValueError):
        P.evaluate((1, 2, 3))


def test_total_degree():
    assert parse_poly("x1^2*x2 + x2^2").total_degree() == 3
    assert parse_poly("x1^3+2*x2^3").total_degree() == 3
    assert parse_poly("7").total_degree() == 0
    with pytest.raises(ValueError):
        MvPoly(2, {}).total_degree()


def test_min_top_coeff():
    assert parse_poly("x1^3+2*x2^3").min_top_coeff() == 1
    assert parse_poly("2*x1^2+3*x2^2").min_top_coeff() == 2
    # only the degree-3 terms count
    assert parse_poly("x1^2*x2 + 5*x1^3").min_top_coeff() == 1


def test_multiply_basic():
    x1 = parse_poly("x1")
    assert poly_product(x1, x1) == parse_poly("x1^2")
    assert poly_product(parse_poly("x1+x2"), parse_poly("x1-x2")) == parse_poly("x1^2-x2^2")


exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
poly_terms = st.dictionaries(exponents, st.integers(-9, 9).filter(bool),
                             min_size=1, max_size=5)
points = st.tuples(st.integers(-7, 7), st.integers(-7, 7))


@given(poly_terms, poly_terms, st.lists(points, min_size=1, max_size=10))
def test_multiply_matches_pointwise_eval(t1, t2, pts):
    P, Q = MvPoly(2, t1), MvPoly(2, t2)
    R = poly_product(P, Q)
    for x in pts:
        assert R.evaluate(x) == P.evaluate(x) * Q.evaluate(x)
        assert P.evaluate(x) == horner_eval(P.terms, 2, x)


@given(poly_terms, poly_terms)
def test_degree_additivity(t1, t2):
    P, Q = MvPoly(2, t1), MvPoly(2, t2)
    R = poly_product(P, Q)
    if not (P.is_zero() or Q.is_zero()):
        assert R.total_degree() == P.total_degree() + Q.total_degree()


def test_parse_rejects_garbage():
    for bad in ("", "  ", "x0", "x1^", "x1**2", "3x1", "x1+*x2", "y1+x1", "+"):
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_parse_merges_and_cancels():
    assert parse_poly("x1 + x1") == parse_poly("2*x1")
    assert parse_poly("x1 - x1").is_zero()


def test_text_round_trip():
    for text in ("x1^2+x2^2", "3*x1^2*x2 - x3^3 + 7", "-x1+4", "x1^3+2*x2^3"):
        P = parse_poly(text)
        assert parse_poly(P.to_text()) == P


def test_json_round_trip():
    P = parse_poly("3*x1^2*x2 - x3^3 + 7")
    d = json.loads(poly_to_json(P))
    assert poly_from_json_dict(d) == P
    assert all(isinstance(t["coef"], str) for t in d["terms"])


def test_used_variables_and_factors_kept_as_given():
    P, H = parse_poly("x1^2+x2^2"), parse_poly("x4+x3*x4")
    assert P.used_variables() == frozenset({1, 2})
    assert H.used_variables() == frozenset({3, 4})
    assert MvPoly(4, {(0, 2, 0, 0): 1}).used_variables() == frozenset({2})
    F = FactoredPoly([P, H])
    assert F.factors[0] is P and F.factors[1] is H
    assert F.num_vars == 4


@st.composite
def factored_polys(draw):
    """1 to 4 factors on disjoint blocks of 1 to 3 variables, each with up to
    5 terms of exponents up to 3, nonconstant in its block's first variable."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    ell, factors, start = sum(sizes), [], 0
    for size in sizes:
        block = range(start, start + size)
        exps = st.tuples(*[st.integers(0, 3) if i in block else st.just(0) for i in range(ell)])
        terms = draw(st.dictionaries(exps, st.integers(-9, 9), max_size=4))
        lead = tuple(draw(st.integers(1, 3)) if i == start else 0 for i in range(ell))
        terms[lead] = draw(st.integers(-9, 9).filter(bool))
        factors.append(MvPoly(ell, terms))
        start += size
    return FactoredPoly(factors)


@given(factored_polys())
@settings(max_examples=150, deadline=None)
def test_check_setting_matches_symbolic_subset_products(F):
    # the oracle expands every subset product with poly_product; check_setting
    # reads the same data off the factors, as their variables are disjoint
    rep = check_setting(F)
    m = len(F.factors)
    assert [d.factor_indices for d in rep.divisors] == [
        tuple(i + 1 for i in range(m) if mask >> i & 1) for mask in range(1, 1 << m)]
    for d in rep.divisors:
        product = poly_product(*(F.factors[i - 1] for i in d.factor_indices))
        assert d.degree == product.total_degree()
        assert d.num_vars_used == len(product.used_variables())
        assert d.level_exponent == exponent_profile(d.degree, d.num_vars_used).level_exponent
    product = poly_product(*F.factors)
    assert rep.product_degree == product.total_degree()
    assert rep.product_num_vars_used == len(product.used_variables())
    assert rep.product_min_top_coeff == product.min_top_coeff()
    assert rep.top_coeffs_are_one == (product.min_top_coeff() == 1 and all(
        f.min_top_coeff() == 1 for f in F.factors))


def test_factored_poly_rejects_overlap_and_constants():
    with pytest.raises(ValueError):
        FactoredPoly([parse_poly("x1^2+x2^2"), parse_poly("x1+x3")])
    with pytest.raises(ValueError):
        FactoredPoly([parse_poly("5")])
    with pytest.raises(ValueError):
        FactoredPoly([])


def test_immutable():
    P = parse_poly("x1")
    with pytest.raises(AttributeError):
        P.num_vars = 3


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 70), st.integers(1, 2 ** 40), st.integers(1, 2 ** 70), st.integers(-2, 2))
def test_grid_dtype_is_the_exact_int64_guard(k, top, coef, offset):
    # the bit-length comparison takes the same choice as c t^k < 2^63 in
    # Python ints, for a random c and for one next to 2^63 / t^k
    for c in (coef, max(1, 2 ** 63 // top ** k + offset)):
        dtype = np.int64 if c * top ** k < 2 ** 63 else object
        assert MvPoly(1, {(k,): c}).grid([[top]]).dtype == dtype


def test_grid_value_bits_cap():
    # 3^32767 has 51935 bits; the bound 1 + 32767 bits(3) is the cap less one
    at_cap = MvPoly(1, {(32767,): 1})
    assert at_cap.grid([[2, 3]]).tolist() == [2 ** 32767, 3 ** 32767]
    with pytest.raises(BudgetError) as info:
        MvPoly(1, {(32768,): 1}).grid([[2, 3]])
    assert (info.value.required, info.value.budget) == (65537, GRID_VALUE_BITS)
