import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import horner_eval, poly_from_json_dict, poly_to_json
from polysieve.mvpoly import FactoredPoly, MvPoly, parse_poly


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
    assert x1 * x1 == parse_poly("x1^2")
    assert parse_poly("x1+x2") * parse_poly("x1-x2") == parse_poly("x1^2-x2^2")


exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
poly_terms = st.dictionaries(exponents, st.integers(-9, 9).filter(bool),
                             min_size=1, max_size=5)
points = st.tuples(st.integers(-7, 7), st.integers(-7, 7))


@given(poly_terms, poly_terms, st.lists(points, min_size=1, max_size=10))
def test_multiply_matches_pointwise_eval(t1, t2, pts):
    P, Q = MvPoly(2, t1), MvPoly(2, t2)
    R = P * Q
    for x in pts:
        assert R.evaluate(x) == P.evaluate(x) * Q.evaluate(x)
        assert P.evaluate(x) == horner_eval(P.terms, 2, x)


@given(poly_terms, poly_terms)
def test_degree_additivity(t1, t2):
    P, Q = MvPoly(2, t1), MvPoly(2, t2)
    R = P * Q
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


def test_embed_and_used_variables():
    P = parse_poly("x1^2+x2^2")
    E = P.embed(4)
    assert E.num_vars == 4
    assert E.evaluate((1, 2, 9, 9)) == 5
    assert E.used_variables() == frozenset({1, 2})


def test_factored_poly_divisors():
    h1 = parse_poly("x1^2+x2^2")
    f1 = FactoredPoly([h1])
    assert len(f1.divisor_subsets()) == 1
    h2 = parse_poly("x3^2+x4^2")
    f2 = FactoredPoly([h1, h2])
    divs = f2.divisor_subsets()
    assert len(divs) == 3
    assert f2.product == h1.embed(4) * h2
    h3 = parse_poly("x5+x6")
    assert len(FactoredPoly([h1, h2, h3]).divisor_subsets()) == 7


def test_factored_poly_divisor_values_divide_product():
    f = FactoredPoly([parse_poly("x1^2+x2^2"), parse_poly("x3^2+x4^2")])
    for x in ((1, 2, 3, 4), (2, 2, 5, 1), (-3, 1, 0, 2)):
        pv = f.product.evaluate(x)
        for _, d in f.divisor_subsets():
            dv = d.evaluate(x)
            assert dv != 0 and pv % dv == 0


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
