"""Every work cap refuses through errors.charge, with the message
`what: requires R, budget is B`.  REFUSALS drives each refusal site just
past its cap and pins its full message; tests/test_routes.py checks that
every charge call in src/ names one of its `what` texts."""

from fractions import Fraction

import pytest

from polysieve import (arith, boxes, bv, characters, congruence, errors, farey, largesieve,
                       normform)
from polysieve.errors import BudgetError
from polysieve.mvpoly import FactoredPoly, parse_poly
from polysieve.normform import NumberFieldSpec, norm_form, prime_divisor_search


def test_charge_passes_at_the_budget_and_refuses_one_past_it():
    assert errors.charge("box enumeration", 7, 7) is None
    with pytest.raises(BudgetError) as info:
        errors.charge("box enumeration", 8, 7)
    assert (info.value.what, info.value.required, info.value.budget) == ("box enumeration", 8, 7)
    assert str(info.value) == "box enumeration: requires 8, budget is 7"


# (site, what, caps patched as (module, NAME, value), the call, its full message).
# A real cap is used where the refused input is cheap to build; otherwise the
# cap is set one below the call's estimate.
REFUSALS = [
    ("arith.prime_flags", "prime sieve limit", (),
     lambda: arith.prime_flags(10 ** 8 + 1),
     "prime sieve limit: requires 100000001, budget is 100000000"),
    ("arith.is_prime", "primality test argument", (),
     lambda: arith.is_prime(2 ** 63 + 1),
     "primality test argument: requires 9223372036854775809, budget is 9223372036854775808"),
    ("arith.factorize", "factorization argument", (),
     lambda: arith.factorize(2 ** 63 + 1),
     "factorization argument: requires 9223372036854775809, budget is 9223372036854775808"),
    ("arith.von_mangoldt_table", "von Mangoldt table limit", (),
     lambda: arith.von_mangoldt_table(10 ** 7 + 1),
     "von Mangoldt table limit: requires 10000001, budget is 10000000"),
    ("boxes.check_box_budget", "box enumeration", (),
     lambda: boxes.box_values(parse_poly("x1+x2"), 2237),
     "box enumeration: requires 5004169, budget is 5000000"),
    ("bv.exponent_profile", "bits of the exponent fractions", (),
     lambda: bv.exponent_profile(1, 2 ** 13997),
     "bits of the exponent fractions: requires 14001, budget is 14000"),
    ("bv.check_setting", "setting divisors", (),
     lambda: bv.check_setting(FactoredPoly([parse_poly(f"x{i}") for i in range(1, 18)])),
     "setting divisors: requires 131071, budget is 65536"),
    ("bv.discrepancy_sum", "discrepancy work", ((bv, "DISCREPANCY_BUDGET", 34),),
     lambda: bv.discrepancy_sum(FactoredPoly([parse_poly("x1"), parse_poly("x2")]), 4, 100),
     "discrepancy work: requires 35, budget is 34"),
    ("bv.mean_value_sum", "character modulus", (),
     lambda: bv.mean_value_sum(parse_poly("x1+100000"), 1, 10),
     "character modulus: requires 100001, budget is 100000"),
    ("bv.mean_value_sum", "mean value work", ((bv, "MEAN_VALUE_BUDGET", 1749),),
     lambda: bv.mean_value_sum(parse_poly("x1^2+1"), 4, 100),
     "mean value work: requires 1750, budget is 1749"),
    ("bv.mean_value_sum", "sum of unit group moduli", ((bv, "UNIT_GROUP_BUDGET", 129),),
     lambda: bv.mean_value_sum(parse_poly("x1^2+1"), 4, 100),
     "sum of unit group moduli: requires 130, budget is 129"),
    ("characters.UnitGroup", "character modulus", (),
     lambda: characters.UnitGroup(100001),
     "character modulus: requires 100001, budget is 100000"),
    ("congruence.count_solutions", "congruence residue grid", (),
     lambda: congruence.count_solutions(congruence.CongruenceInstance(
         parse_poly("x1^2+x2^2"), 1, 2237, (0, 0), 2237, 0, 1)),
     "congruence residue grid: requires 5004169, budget is 5000000"),
    ("congruence.r_parameter", "bits of r = C(k+ell, ell) - 1", (),
     lambda: congruence.r_parameter(5732, 5732),
     "bits of r = C(k+ell, ell) - 1: requires 14001, budget is 14000"),
    ("farey.build_farey", "farey point set", ((farey, "DEFAULT_POINT_BUDGET", 33),),
     lambda: farey.build_farey(parse_poly("x1^2+x2^2"), 2),
     "farey point set: requires 34, budget is 33"),
    ("largesieve.check_grid", "sieve sequence FFT", (),
     lambda: largesieve.check_grid(0, [1136364]),
     "sieve sequence FFT: requires 50000016, budget is 50000000"),
    # fft_work(1136363) = 49999972, plus 29 moduli: the lower bound refuses
    ("largesieve.sieve_sums", "sieve sum", (),
     lambda: largesieve.sieve_sums(dict.fromkeys(range(2, 31), 1), 0, [1136363], None),
     "sieve sum: requires 50000001, budget is 50000000"),
    ("largesieve.sieve_sums", "sieve sum", ((largesieve, "DEFAULT_WORK_BUDGET", 122),),
     lambda: largesieve.sieve_sums({2: 1, 3: 1}, 0, [10], None),
     "sieve sum: requires 123, budget is 122"),
    # the first N's lower bound passes, then the moduli are counted before any is factored
    ("largesieve.sieve_sums", "sieve moduli", ((largesieve, "SIEVE_MODULI_BUDGET", 28),),
     lambda: largesieve.sieve_sums(dict.fromkeys(range(2, 31), 1), 0, [10], None),
     "sieve moduli: requires 29, budget is 28"),
    ("mvpoly.MvPoly.grid", "grid value bits", (),
     lambda: boxes.box_values(parse_poly("x1^65536"), 1),
     "grid value bits: requires 65537, budget is 65536"),
    ("normform.check_norm_form_budget", "norm form determinant", (),
     lambda: norm_form(NumberFieldSpec.from_text("t^11+t+1", truncation=2)),
     "norm form determinant: requires 851355648, budget is 500000000"),
    ("normform.prime_divisor_search", "norm value sieve", (),
     lambda: prime_divisor_search(NumberFieldSpec.from_text("t^2+1"), 4473 ** 2, Fraction(1, 2)),
     "norm value sieve: requires 20007729, budget is 20000000"),
    ("normform.prime_divisor_search", "bits of d^td for theta's denominator", (),
     lambda: prime_divisor_search(NumberFieldSpec.from_text("t^2+1"), 1, Fraction(1, 65537)),
     "bits of d^td for theta's denominator: requires 65537, budget is 65536"),
    ("normform.prime_divisor_search", "divisor walk entries",
     ((normform, "DIVISOR_WALK_BUDGET", 28),),
     lambda: prime_divisor_search(NumberFieldSpec.from_text("t^2+1"), 100, Fraction(1, 2)),
     "divisor walk entries: requires 29, budget is 28"),
]


@pytest.mark.parametrize("site, what, caps, call, message", REFUSALS,
                         ids=[f"{site}-{what}" for site, what, *_ in REFUSALS])
def test_each_cap_refuses_just_past_it_with_its_message(monkeypatch, site, what, caps, call,
                                                        message):
    for module, name, value in caps:
        monkeypatch.setattr(module, name, value)
    with pytest.raises(BudgetError) as info:
        call()
    assert (info.value.what, str(info.value)) == (what, message)
