import ast
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polysieve.boxes as boxes
import polysieve.bv as bv
import polysieve.cli as cli
import polysieve.largesieve as largesieve
from polysieve.cli import build_parser, main
from polysieve.mvpoly import MvPoly

from oracles import assert_plain_json

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_farey_stats_report(capsys):
    rep = run_json(capsys, "farey-stats", "--P", "x1^2+x2^2", "--Q", "2", "--N", "64")
    assert rep["result"]["total_count"] == 34
    assert rep["result"]["distinct_count"] == 22
    assert rep["command"] == "farey-stats"
    assert rep["config"]["P"] == "x1^2+x2^2"
    assert rep["seed"] == 0
    assert rep["version"]


def test_exponents_report(capsys):
    rep = run_json(capsys, "exponents", "--k", "3", "--ell", "2")
    assert rep["result"]["level_exponent"] == "24/179"
    assert rep["result"]["k_times_level_exponent"] == "72/179"
    assert rep["result"]["rho"] == "36/35"
    assert rep["result"]["r"] == 9


def test_empty_polynomial_is_validation_error(capsys):
    code, out, err = run_cli(capsys, "farey-stats", "--P", "", "--Q", "2", "--N", "4")
    assert code == 2
    assert out == ""
    error = json.loads(err.strip())
    assert error["kind"] == "validation"
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("farey-stats", "--P", "x1^2+x2^2", "--Q", "2", "--N", "4", "--min-modulus", "nan"),
    ("sieve-scan", "--P", "x1^2+x2^2", "--Q", "2", "--N", "4", "--min-modulus", "nan"),
    ("bv-sum", "--P", "x1^2+x2^2", "--Q", "1", "--x", "inf"),
    ("meanvalue-sum", "--P", "x1^2+x2^2", "--Q", "1", "--x", "inf"),
    ("bad-moduli", "--P", "x1^2-x2^2", "--Q", "2", "--eps-bad", "inf"),
    ("exponents", "--k", "2", "--ell", "1", "--workers", "0"),
    ("exponents", "--k", "2", "--ell", "1", "--workers", "-5"),
    ("bv-sum", "--P", "x1^2+x2^2", "--P", "x3^2+x4^2", "--Q", "1", "--x", "100",
     "--A", "nan", "--eps-bad", "0.1"),
    ("bv-sum", "--P", "x1^2+x2^2", "--P", "x3^2+x4^2", "--Q", "1", "--x", "100",
     "--A", "inf", "--eps-bad", "0.1"),
    *((*argv, "--Q", Q) for argv in (
        ("bad-moduli", "--P", "x1^2-x2^2", "--eps-bad", "0.5"),
        ("meanvalue-sum", "--P", "x1^2+x2^2", "--x", "10"),
        ("bv-sum", "--P", "x1^2+x2^2", "--x", "10"),
        ("farey-stats", "--P", "x1^2+x2^2", "--N", "4"),
        ("sieve-scan", "--P", "x1^2+x2^2", "--N", "4"),
    ) for Q in ("0", "-3")),
    # the comparator x/(log x)^A leaves the float range
    ("bv-sum", "--P", "x1^2+x2^2", "--Q", "1", "--x", "10", "--A", "1e30",
     "--eps-bad", "0.001"),
    ("bv-sum", "--P", "x1^2+x2^2", "--Q", "1", "--x", "1.5", "--A", "2000",
     "--eps-bad", "0.001"),
    # (log x)^A is finite but the quotient x/(log x)^A overflows to inf
    ("bv-sum", "--P", "x1^2+x2^2", "--Q", "1", "--x", "10", "--A", "-860",
     "--eps-bad", "12"),
    ("sieve-scan", "--P", "x1^2+x2^2", "--Q", "2", "--N", "4", "--M", str(10 ** 23)),
    ("sieve-scan", "--P", "x1^2+x2^2", "--Q", "2", "--N", "4", "--min-modulus", "inf"),
    # comparators out of float range, refused before the count
    ("congruence-count", "--P", "x1^2+x2^2", "--m", "3", "--H", str(10 ** 200), "--R", "1"),
    ("congruence-count", "--P", "x1^2+x2^2", "--m", "3", "--H", "3", "--R", str(10 ** 400)),
    ("farey-stats", "--P", "x1^2+x2^2", "--Q", "2", "--N", str(10 ** 400)),
    # count = 10^400 over a finite bound
    ("congruence-count", "--P", "x1^2+x2^2", "--m", "1", "--H", str(10 ** 100),
     "--R", str(10 ** 200)),
    # N < 1 is refused before a sequence is built, however large
    ("sieve-scan", "--P", "x1^2+x2^2", "--Q", "2", "--N", "8," + str(-10 ** 23)),
    ("sieve-scan", "--P", "x1^2+x2^2", "--Q", "2", "--N", "0"),
    # a constant P has r = 0, so the close-point exponent 1/(r(k+1)) is undefined
    ("farey-stats", "--P", "5", "--Q", "2", "--N", "4"),
    # and k = 0, so the bad-moduli comparator eps^(1/k) is undefined
    ("bad-moduli", "--P", "5", "--Q", "2", "--eps-bad", "0.5"),
    ("bad-moduli", "--P", "5", "--Q", "2", "--eps-bad", "0"),
    # the comparator Q^(ell(k+1)) leaves the float range
    ("sieve-scan", "--P", "x1^600-x2^600", "--Q", "2", "--N", "4", "--min-modulus", "1e300"),
])
def test_bad_numeric_input_is_validation_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "validation"


@pytest.mark.parametrize("X", ["0", "-5"])
def test_corollary_search_refuses_x_below_one(capsys, X):
    code, out, err = run_cli(capsys, "corollary-search", "--f", "t^2+1", "--X", X,
                             "--theta", "1/2")
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": f"X must be >= 1, got {X}", "kind": "validation"}


def test_budget_is_resource_error(capsys):
    code, out, err = run_cli(capsys, "farey-stats", "--P", "x1^2+x2^2+x3^2+x4^2+x5^2+x6^2+x7^2+x8^2+x9^2",
                             "--Q", "10", "--N", "4")
    assert code == 3
    assert json.loads(err.strip())["kind"] == "resource"


@pytest.mark.parametrize("argv", [
    ("meanvalue-sum", "--P", "x1^2+x2^2", "--Q", "2", "--x", "1e12"),
    ("bv-sum", "--P", "x1", "--P", "x2", "--Q", "2", "--x", "1e12", "--eps-bad", "0.001"),
    ("corollary-search", "--f", "t^2+1", "--X", "1" + "0" * 400, "--theta", "2/5"),
    # the Lambda table up to x = 10^8 is over its budget at a bigger box too
    ("bv-sum", "--P", "x1", "--P", "x2", "--Q", "32", "--x", "1e8", "--eps-bad", "0.001",
     "--workers", "2"),
    # the constant term is outside the range of the exact factorization
    ("prime-value-sieve", "--f", "t^2+1000000000000000000000", "--Q", "2"),
    # the sieve work of one N is at least N
    ("sieve-scan", "--P", "x1^2+x2^2", "--Q", "2", "--N", str(10 ** 23)),
    # the FFT's estimate 2N bits(2N) alone is over budget: no sequence is built
    ("sieve-scan", "--P", "x1^2+x2^2", "--Q", "2", "--N", "1500000"),
    # the FFT fits, but with the divisor terms and strided sums of 451 moduli
    # the kernel's estimate does not: refused before the FFT
    ("sieve-scan", "--P", "x1^2+x2^2", "--Q", "30", "--N", "1100000"),
    # passes the norm-value budget; the prime sieve up to X is refused unallocated
    ("corollary-search", "--f", "t^3-2", "--truncation", "1", "--X", str(10 ** 10),
     "--theta", "1/2"),
    # the exact powers d^td compared against p^tn would not fit in memory
    ("corollary-search", "--f", "t^2+1", "--X", "60000", "--theta", "1/" + str(10 ** 400)),
    # r = C(k+ell, ell) - 1 would have about 2 * 10^23 bits
    ("exponents", "--k", str(10 ** 23), "--ell", str(10 ** 23)),
    ("exponents", "--k", "1000000", "--ell", "1000000"),
    # r would have about 40000 bits: more than the 4300 digits Python prints
    ("exponents", "--k", "20000", "--ell", "20000"),
    # r = k prints, but rho and the level exponent hold k^2 r
    ("exponents", "--k", str(10 ** 2000), "--ell", "1"),
])
def test_huge_limit_is_resource_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "resource"


def test_exponents_print_the_largest_r_under_the_cap(capsys):
    r = run_json(capsys, "exponents", "--k", "5000", "--ell", "5000")["result"]["r"]
    assert r == math.comb(10000, 5000) - 1


@pytest.mark.parametrize("argv, message", [
    (("farey-stats", "--P", "x1^2+x2^2", "--Q", "2", "--N", "a,b"), "not an integer grid: 'a,b'"),
    (("sieve-scan", "--P", "x1^2+x2^2", "--Q", "2", "--N", ","), "empty grid: ','"),
    (("corollary-search", "--f", "t^2+1", "--X", "100", "--theta", "1/0"),
     "not a rational number: '1/0'"),
])
def test_flag_parsers_keep_their_messages(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    (line,) = err.strip().splitlines()
    assert json.loads(line) == {"error": f"argument {argv[-2]}: {message}", "kind": "validation"}


# One numeric flag of one subcommand changes at a time; every other value
# keeps the run tiny.
GRID_BASES = {
    "congruence-count": ("--P", "x1^2+x2^2", "--a", "1", "--m", "3", "--H", "3",
                         "--L", "0", "--R", "1"),
    "farey-stats": ("--P", "x1^2+x2^2", "--Q", "2", "--N", "4", "--min-modulus", "2"),
    "sieve-scan": ("--P", "x1^2+x2^2", "--Q", "2", "--N", "4", "--M", "0",
                   "--min-modulus", "2"),
    "exponents": ("--k", "2", "--ell", "1"),
    "bv-sum": ("--P", "x1^2+x2^2", "--Q", "1", "--x", "10", "--A", "2",
               "--eps-bad", "0.001"),
    "meanvalue-sum": ("--P", "x1^2+x2^2", "--Q", "1", "--x", "10"),
    "norm-form": ("--f", "t^2+1", "--truncation", "0"),
    "prime-value-sieve": ("--f", "t^2+1", "--truncation", "0", "--Q", "2"),
    "corollary-search": ("--f", "t^2+1", "--truncation", "0", "--X", "100",
                         "--theta", "2/5"),
    "bad-moduli": ("--P", "x1^2-x2^2", "--Q", "2", "--eps-bad", "0.5"),
}
GRID_VALUES = ("nan", "inf", "-inf", "0", "-3", "0.5", "1e30", str(10 ** 23))
GRID_CASES = [
    pytest.param((command, *base[:i], value, *base[i + 1:], "--workers", "1"),
                 id=f"{command} {base[i - 1]} {value}")
    for command, base in GRID_BASES.items()
    for i in range(1, len(base), 2) if base[i - 1] not in ("--P", "--f")
    for value in GRID_VALUES
]


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("argv", GRID_CASES)
def test_numeric_flag_grid(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3)
    if code:
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        json.loads(lines[0])
    else:
        json.loads(out, parse_constant=_reject_constant)


def test_bv_sum_comparator_is_null_at_x_at_most_one(capsys):
    for P in (("--P", "x1^2"), ("--P", "x1^2+x2^2")):
        code, out, err = run_cli(capsys, "bv-sum", *P, "--Q", "1", "--x", "1")
        assert code == 0, err
        rep = json.loads(out, parse_constant=_reject_constant)
        assert rep["result"]["comparator"] is None
        assert '"comparator": null' in out


@pytest.mark.parametrize("x", ["0.5", "-3"])
@pytest.mark.parametrize("P", [("--P", "x1", "--P", "x2"), ("--P", "x1^2"),
                               ("--P", "x1^2", "--P", "x2")])
def test_bv_sum_refuses_x_below_one_whatever_the_box_holds(capsys, P, x):
    # x1 * x2 has tuples of nonzero weight at Q = 2; the factor x1^2 is never
    # prime, so no tuple reaches the kernel, and x is refused all the same
    code, out, err = run_cli(capsys, "bv-sum", *P, "--Q", "2", "--x", x)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": f"need x >= 1, got {float(x)}", "kind": "validation"}


@pytest.mark.parametrize("Q", ["-3", "-1", "0"])
def test_bv_sum_checks_q_before_the_default_eps_bad(capsys, Q):
    code, out, err = run_cli(capsys, "bv-sum", "--P", "x1^2+x2^2", "--Q", Q, "--x", "10")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "Q and ell must be positive", "kind": "validation"}


def test_bv_sum_over_the_factorization_cap(capsys):
    # 11 is prime, so x2's value 8^22 = 2^66 is factored and refused; a
    # product of two primes near 2^40 is refused at the first in box order
    for P1, P2, Q, n in (("x1", "x2^22", "8", 73786976294838206464),
                         ("x1+1099511627776", "x2+1099511628000", "64",
                          1208925820054433825845967)):
        code, out, err = run_cli(capsys, "bv-sum", "--P", P1, "--P", P2, "--Q", Q, "--x", "100")
        assert code == 3
        assert out == ""
        assert err == (f'{{"error": "factorization argument: requires {n}, '
                       'budget is 9223372036854775808", "kind": "resource", '
                       '"partial_progress": false}\n')
    # no cube is prime, so no value of x2^22 is factored
    rep = run_json(capsys, "bv-sum", "--P", "x1^3", "--P", "x2^22", "--Q", "8", "--x", "100")
    assert rep["result"]["nonzero_weight_tuples"] == 0
    assert rep["result"]["value"] == 0.0


def test_bv_sum_refuses_a_product_of_two_primes_between_2_63_and_2_64(capsys):
    # 3300000001 * 3300000059 is in [2^63, 2^64): the moduli are multiplied
    # on Python ints, where int64 would wrap the product and refuse nothing
    code, out, err = run_cli(capsys, "bv-sum", "--P", "x1+3300000000", "--P", "x2+3300000058",
                             "--Q", "1", "--x", "10")
    assert 2 ** 63 <= 3300000001 * 3300000059 < 2 ** 64
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == ("factorization argument: requires 10890000198000000059, "
                                        "budget is 9223372036854775808")


LAMBDA_ERROR = ('{"error": "von Mangoldt table limit: requires 100000000, '
                'budget is 10000000", "kind": "resource", "partial_progress": false}\n')
BV_LAMBDA_ARGV = ("bv-sum", "--P", "x1", "--P", "x2", "--Q", "2000", "--x", "100000000",
                  "--workers", "1")


def test_bv_sum_refuses_the_lambda_table_at_the_first_weighted_tuple(capsys, monkeypatch):
    # (2003, 2011) is the first tuple of nonzero weight; the rest of the
    # 4*10^6 tuples are never classified
    def refuse(*args):
        raise AssertionError("the discrepancy kernel ran")

    monkeypatch.setattr(bv, "max_progression_discrepancy", refuse)
    assert run_cli(capsys, *BV_LAMBDA_ARGV) == (3, "", LAMBDA_ERROR)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "polysieve.cli", *BV_LAMBDA_ARGV], env=env,
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", LAMBDA_ERROR)


def test_bv_sum_lambda_limit_wins_over_a_weighted_modulus_past_2_63(capsys):
    # the first weighted modulus, about 2^80, is refused by factorize at
    # --x 100 (test_bv_sum_over_the_factorization_cap); past LAMBDA_LIMIT the
    # Lambda table is refused first, at the first weighted tuple
    argv = ("bv-sum", "--P", "x1+1099511627776", "--P", "x2+1099511628000", "--Q", "64")
    assert run_cli(capsys, *argv, "--x", "100000000") == (3, "", LAMBDA_ERROR)


def test_bv_sum_refuses_the_discrepancy_work_before_any_scan():
    # 9,045 weighted moduli times 665,134 stream terms, whose scans ran past
    # 60 s; the refusal comes after classifying the 1000 values of each
    # factor and building the Lambda table: about 0.7 s on an idle 2-core
    # host, twice that under load
    argv = ("bv-sum", "--P", "x1", "--P", "x2", "--Q", "1000", "--x", "10000000")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "polysieve.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (3, "", 1)
    assert json.loads(proc.stderr) == {
        "error": f"discrepancy work: requires 6016137030, budget is {bv.DISCREPANCY_BUDGET}",
        "kind": "resource", "partial_progress": False}


def test_corollary_search_refuses_the_divisor_walk_before_building_it():
    # 20,168,058 walk entries took 1554 MiB; the refusal comes after the
    # norm-value sieve: about 1.1 s on an idle 2-core host, twice that
    # under load
    argv = ("corollary-search", "--f", "t^2+1", "--X", "20000000", "--theta", "1/10")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "polysieve.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (3, "", 1)
    assert json.loads(proc.stderr) == {
        "error": "divisor walk entries: requires 20168058, budget is 3000000",
        "kind": "resource", "partial_progress": False}


def test_sieve_scan_refuses_the_factorisations_before_any_modulus_is_factored():
    # 639,929 distinct moduli, whose factorisations took about 96 s and
    # 432 MiB; the refusal comes after the box: about 0.7 s on an idle 2-core
    # host, twice that under load
    argv = ("sieve-scan", "--P", "x1^3+x2^3+x1", "--Q", "800", "--N", "4")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "polysieve.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (3, "", 1)
    assert json.loads(proc.stderr) == {
        "error": f"sieve moduli: requires 639929, budget is {largesieve.SIEVE_MODULI_BUDGET}",
        "kind": "resource", "partial_progress": False}


def test_bv_sum_over_moduli_with_a_large_prime_cofactor_runs_in_seconds():
    # every weighted modulus is (q1 + 2^40 - 2) q2, a prime above 10^12 times
    # a prime q2: factorize must hand the large prime to rho after the 2^12
    # trial table, not trial-divide up to its root (27-30 s on a 2-core host)
    argv = ("bv-sum", "--P", "x1+1099511627774", "--P", "x2", "--Q", "1000", "--x", "10",
            "--workers", "1")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "polysieve.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    result = json.loads(proc.stdout)["result"]
    assert (result["nonzero_weight_tuples"], result["value"]) == (4185, 2704506425846435.0)


def test_determinism_up_to_duration(capsys):
    for args in (("sieve-scan", "--P", "x1^2+x2^2", "--Q", "2", "--N", "8,16",
                  "--sequence", "pm1", "--seed", "42"),
                 ("meanvalue-sum", "--P", "x1^2-x2^2", "--Q", "2", "--x", "50"),
                 ("bv-sum", "--P", "x1^2+x2^2", "--Q", "2", "--x", "200")):
        rep1 = run_json(capsys, *args)
        rep2 = run_json(capsys, *args)
        rep1.pop("duration_s")
        rep2.pop("duration_s")
        assert rep1 == rep2


def test_json_reports_reparse(capsys):
    for args in (("exponents", "--k", "2", "--ell", "1"),
                 ("congruence-count", "--P", "x1^2+x2^2", "--m", "3",
                  "--H", "3", "--R", "1"),
                 ("bad-moduli", "--P", "x1^2-x2^2", "--Q", "4", "--eps-bad", "0.5")):
        rep = run_json(capsys, *args)
        assert json.loads(json.dumps(rep)) == rep


def test_congruence_count_worked_example(capsys):
    rep = run_json(capsys, "congruence-count", "--P", "x1^2+x2^2",
                   "--m", "3", "--H", "3", "--R", "1")
    assert rep["result"]["count"] == 4


def test_norm_form_output(capsys):
    rep = run_json(capsys, "norm-form", "--f", "t^3-2", "--truncation", "1")
    assert rep["result"]["polynomial"] == "q1^3 + 2*q2^3"
    assert rep["result"]["degree"] == 3
    assert rep["result"]["num_vars"] == 2


def test_csv_format(capsys):
    code, out, err = run_cli(capsys, "sieve-scan", "--P", "x1^2+x2^2", "--Q", "2",
                             "--N", "8,16", "--format", "csv", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# polysieve")
    assert lines[1].split(",")[0] == "N"
    assert len(lines) == 4  # comment + header + 2 rows
    assert lines[2].split(",")[0] == "8"


def test_gnuplot_format(capsys):
    code, out, err = run_cli(capsys, "farey-stats", "--P", "x1^2+x2^2", "--Q", "2",
                             "--N", "8,16", "--format", "gnuplot")
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    assert any(line == "# close_count" for line in out.splitlines())


def _farey_table(fmt, out):
    """(blocks, rest): a farey-stats report's rows, one list per table block, and
    every other part of it but the config line, which echoes the grid."""
    if fmt == "json":
        result = json.loads(out)["result"]
        return [result.pop("per_N")], result
    lines = out.splitlines()[1:]
    if fmt == "csv":
        return [lines[1:]], lines[0]
    blocks = [b.splitlines() for b in "\n".join(lines).strip().split("\n\n")]
    return [b[1:] for b in blocks], [b[0] for b in blocks]


@pytest.mark.parametrize("fmt", ["json", "csv", "gnuplot"])
def test_farey_stats_grid_rows_are_the_single_n_rows_in_grid_order(capsys, fmt):
    grid = ["4096", "16", "256", "16"]
    argv = ("farey-stats", "--P", "x1^2+x1*x2+3*x2^2", "--Q", "4", "--format", fmt)
    blocks, rest = _farey_table(fmt, run_cli(capsys, *argv, "--N", ",".join(grid))[1])
    singles = [_farey_table(fmt, run_cli(capsys, *argv, "--N", N)[1]) for N in grid]
    assert all(single_rest == rest for _, single_rest in singles)
    assert blocks == [[row for single, _ in singles for row in single[b]]
                      for b in range(len(blocks))]
    assert [str(row["N"]) if fmt == "json" else row.split(",")[0].split(" ")[0]
            for row in blocks[0]] == grid


def test_gnuplot_rejected_where_unsupported(capsys):
    code, out, err = run_cli(capsys, "exponents", "--k", "2", "--ell", "2",
                             "--format", "gnuplot")
    assert code == 2
    assert json.loads(err.strip())["kind"] == "validation"


def test_gnuplot_is_refused_before_the_handler_runs(capsys, monkeypatch):
    def refuse(args):
        raise AssertionError("the handler ran")

    monkeypatch.setitem(cli._HANDLERS, "corollary-search", refuse)
    code, out, err = run_cli(capsys, "corollary-search", "--f", "t^2+1", "--X", "10000000",
                             "--theta", "1/2", "--format", "gnuplot")
    assert (code, out) == (2, "")
    assert json.loads(err)["kind"] == "validation"


def test_unknown_flag_is_single_line_error(capsys):
    code, out, err = run_cli(capsys, "exponents", "--k", "2", "--ell", "2",
                             "--bogus", "1")
    assert code == 2
    assert len(err.strip().splitlines()) == 1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "exponents", "--k", "2", "--ell", "1",
                             "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"]["level_exponent"] == "6/29"


@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_unwritable_out_is_validation_error(capsys, monkeypatch, tmp_path, where):
    # a missing directory, and a directory in place of a file, are refused
    # before the handler runs
    ran = []
    monkeypatch.setitem(cli._HANDLERS, "exponents", ran.append)
    code, out, err = run_cli(capsys, "exponents", "--k", "3", "--ell", "2",
                             "--out", str(tmp_path / where))
    assert ran == []
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["kind"] == "validation"
    assert list(tmp_path.iterdir()) == []


def test_bv_sum_smoke(capsys):
    import math
    rep = run_json(capsys, "bv-sum", "--P", "x1^2+x2^2", "--Q", "1", "--x", "10")
    assert rep["result"]["value"] == pytest.approx(
        math.log(2) * (9 - math.log(105)), rel=1e-9)


def test_bv_sum_multiple_factors(capsys):
    rep = run_json(capsys, "bv-sum", "--P", "x1^2+x2^2", "--P", "x3^2+x4^2",
                   "--Q", "1", "--x", "50")
    assert rep["result"]["box_size"] == 1
    assert rep["config"]["P"] == ["x1^2+x2^2", "x3^2+x4^2"]


def test_meanvalue_sum_smoke(capsys):
    rep = run_json(capsys, "meanvalue-sum", "--P", "x1^2+x2^2", "--Q", "2",
                   "--x", "10")
    assert rep["result"]["value"] > 0
    assert rep["result"]["moduli"] == {"8": 1, "13": 2, "18": 1}


def test_check_setting_smoke(capsys):
    rep = run_json(capsys, "check-setting", "--P", "x1^3+2*x2^3")
    assert rep["result"]["all_variable_conditions_ok"] is True
    assert rep["result"]["product_profile"]["level_exponent"] == "24/179"


def test_bv_sum_and_check_setting_expand_no_product(capsys):
    # the factors' variables are disjoint, so the product's data follow from
    # the factors' and MvPoly has no product to expand
    assert not hasattr(MvPoly, "__mul__") and not hasattr(MvPoly, "__rmul__")
    factors = ("--P", "x1^2+x2^2", "--P", "x3^2+x4", "--P", "x5+2*x6^3")
    run_json(capsys, "check-setting", *factors)
    run_json(capsys, "bv-sum", *factors, "--Q", "2", "--x", "10")


def _binary_form(j, k=14):
    """x_a^k + x_a^(k-1) x_b + ... + x_b^k in a = 2j - 1, b = 2j: k + 1 terms."""
    return "+".join(f"x{2 * j - 1}^{k - i}*x{2 * j}^{i}" for i in range(k + 1))


@pytest.mark.parametrize("argv", [("bv-sum", "--Q", "1", "--x", "10"), ("check-setting",)],
                         ids=lambda argv: argv[0])
def test_six_factor_setting_does_not_hang(argv):
    # the symbolic product of six 15-term factors has 15^6 terms; expanding it
    # and its 62 proper subset products ran past 60 s
    env = dict(os.environ, PYTHONPATH=str(SRC))
    factors = [arg for j in range(1, 7) for arg in ("--P", _binary_form(j))]
    proc = subprocess.run([sys.executable, "-m", "polysieve.cli", *argv, *factors], env=env,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr


def test_check_setting_refuses_past_the_divisor_budget(capsys, monkeypatch):
    # 20 factors have 2^20 - 1 subset divisors: refused before any profile
    factors = [arg for i in range(1, 21) for arg in ("--P", f"x{i}")]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "check-setting", *factors)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "setting divisors: requires 1048575, budget is 65536"
    # the cap itself is allowed
    monkeypatch.setattr(bv, "SETTING_DIVISOR_BUDGET", 7)
    assert len(run_json(capsys, "check-setting", *factors[:6])["result"]["divisors"]) == 7
    assert run_cli(capsys, "check-setting", *factors[:8])[0] == 3


def test_bad_moduli_refuses_a_huge_power(capsys):
    # 3^(10^8) would have 1.6 10^8 bits: refused before any power is taken
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bad-moduli", "--P", "x1^100000000", "--Q", "2",
                             "--eps-bad", "1")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "grid value bits: requires 200000001, budget is 65536"


def test_prime_value_sieve_smoke(capsys):
    rep = run_json(capsys, "prime-value-sieve", "--f", "t^2+1", "--Q", "2")
    assert rep["result"]["values"] == {"13": [[2, 3], [3, 2]]}


def test_corollary_search_smoke(capsys):
    rep = run_json(capsys, "corollary-search", "--f", "t^2+1", "--X", "100",
                   "--theta", "2/5")
    ps = [w["p"] for w in rep["result"]["witnesses"]]
    assert 11 in ps and 13 not in ps
    assert rep["config"]["theta"] == "2/5"


def test_no_module_imports_a_process_pool():
    for path in sorted((SRC / "polysieve").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
        names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not names & {"concurrent", "concurrent.futures", "multiprocessing"}, path.name


def test_no_public_callable_takes_a_budget():
    # each work cap is a module constant read at call time, set in tests by monkeypatch
    checked = []
    for path in sorted((SRC / "polysieve").glob("[!_]*.py")):
        mod = importlib.import_module(f"polysieve.{path.stem}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = ([(f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)
                        if not attr.startswith("_")] if inspect.isclass(obj) else [(name, obj)])
            for qualname, fn in members:
                if callable(fn):
                    params = inspect.signature(fn).parameters
                    checked.append(f"{path.stem}.{qualname}")
                    assert not [p for p in params if p == "budget" or p.endswith("_budget")], \
                        checked[-1]
    assert {"boxes.box_values", "farey.build_farey", "normform.NumberFieldSpec.from_text",
            "arith.factorize"} <= set(checked)


@pytest.mark.parametrize("command", ["farey-stats", "sieve-scan", "bv-sum", "meanvalue-sum",
                                     "bad-moduli"])
def test_workers_flag_changes_no_byte(capsys, command):
    # the flag is only echoed in config; the duration is the one other field that varies
    outs = []
    for workers in ("1", "2"):
        code, out, err = run_cli(capsys, command, *SMALL_OPS[command], "--workers", workers)
        assert code == 0, err
        assert re.search(f'"workers": {workers},?\n', out)
        outs.append(re.sub(r'"(duration_s|workers)": .*\n', "", out))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv, key, size", [
    pytest.param(("sieve-scan", "--N", "9,27,81,243", "--min-modulus", "20"), "rows", 4,
                 id="sieve-scan"),
    pytest.param(("farey-stats", "--N", "9,27,81,243", "--min-modulus", "20"), "per_N", 4,
                 id="farey-stats"),
    pytest.param(("meanvalue-sum", "--x", "100"), "moduli", 9, id="meanvalue-sum"),
])
def test_sieve_scan_makes_one_box_pass(capsys, monkeypatch, argv, key, size):
    original, calls = boxes.box_values, []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # wherever the box pass is looked up from
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("polysieve") and \
                getattr(mod, "box_values", None) is original:
            monkeypatch.setattr(mod, "box_values", counting)
    rep = run_json(capsys, *argv, "--P", "x1^2+x1*x2+3*x2^2", "--Q", "3")
    assert len(calls) == 1
    assert len(rep["result"][key]) == size


def _count_expansions(monkeypatch):
    """The largest N of each signed-divisor expansion (ramanujan_weights)."""
    original, calls = largesieve.ramanujan_weights, []

    def counting(moduli, N):
        calls.append(N)
        return original(moduli, N)

    monkeypatch.setattr(largesieve, "ramanujan_weights", counting)
    return calls


def test_sieve_scan_expands_its_moduli_once_per_op(capsys, monkeypatch):
    calls = _count_expansions(monkeypatch)
    for _ in range(2):   # nothing carries over from one op to the next
        rep = run_json(capsys, "sieve-scan", "--P", "x1^2+x1*x2+3*x2^2", "--Q", "3",
                       "--N", "27,9,243,81,9")
        assert [row["N"] for row in rep["result"]["rows"]] == [27, 9, 243, 81, 9]
    assert calls == [243, 243]


def test_sieve_scan_expands_its_moduli_once_when_refused(capsys, monkeypatch):
    calls = _count_expansions(monkeypatch)
    argv = ("sieve-scan", "--P", "x1^2+x2^2", "--Q", "2", "--N", "8,16")
    # N = 16 passes the lower bound (3 moduli), then fails the full estimate
    monkeypatch.setattr(largesieve, "DEFAULT_WORK_BUDGET", largesieve.fft_work(16) + 3)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == "" and json.loads(err)["error"].startswith("sieve sum: ")
    assert calls == [16]
    # a refusal at the first N's lower bound comes before any expansion
    monkeypatch.setattr(largesieve, "DEFAULT_WORK_BUDGET", largesieve.fft_work(16) + 2)
    code, _, err = run_cli(capsys, *argv[:-1], "16,8")
    assert code == 3 and json.loads(err)["error"] == "sieve sum: requires 195, budget is 194"
    assert calls == [16]


WINDOW_M = str(2 ** 63 - 1 - 1136000)   # the window (M, M+N] fits for N <= 1136000


@pytest.mark.parametrize("argv, code, error", [
    # the second N fails the full estimate: 451 moduli's divisor terms
    (("--N", "1000,1100000"), 3, "sieve sum: requires 54557480, budget is 50000000"),
    # the first N fails the lower bound fft_work(N) + len(moduli)
    (("--N", "1136363,8"), 3, "sieve sum: requires 50000423, budget is 50000000"),
    # the budget check of an earlier N wins over the window of a later one
    (("--N", "1136000,1136363", "--M", WINDOW_M), 3,
     "sieve sum: requires 56342888, budget is 50000000"),
    (("--N", "1136363,1136000", "--M", WINDOW_M), 2,
     f"window (M, M+N] must end below 2^63, got M={WINDOW_M}"),
    # the comparators of the first N (k = 1) fail before a later N's budget
    (("--P", "x1+x2", "--N", "8,1100000"), 2,
     "need k >= 2, ell >= 1, Q >= 1, N >= 1, r_star >= 1"),
])
def test_sieve_scan_reports_the_first_error_of_the_grid(capsys, argv, code, error):
    got, out, err = run_cli(capsys, "sieve-scan", "--P", "x1^2+x2^2", "--Q", "30", *argv)
    assert (got, out) == (code, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == error


def test_sieve_scan_refuses_the_comparators_before_any_modulus_is_factored(capsys,
                                                                           monkeypatch):
    def refuse(moduli, N):
        raise AssertionError("the moduli were factored")

    monkeypatch.setattr(largesieve, "ramanujan_weights", refuse)
    code, out, err = run_cli(capsys, "sieve-scan", "--P", "x1+x2", "--Q", "3", "--N", "4")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "need k >= 2, ell >= 1, Q >= 1, N >= 1, r_star >= 1"


def test_sieve_scan_fft_check_reads_the_kernel_cap(capsys, monkeypatch):
    # the pre-check reads largesieve's cap at call time, as the kernel does
    argv = ("sieve-scan", "--P", "x1^2+x2^2", "--Q", "2", "--N", "1500000")
    work = largesieve.fft_work(1500000)
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert json.loads(err)["error"] == f"sieve sequence FFT: requires {work}, budget is 50000000"
    monkeypatch.setattr(largesieve, "DEFAULT_WORK_BUDGET", work)
    code, _, err = run_cli(capsys, *argv)
    assert code == 3 and json.loads(err)["error"].startswith("sieve sum: ")
    monkeypatch.setattr(largesieve, "DEFAULT_WORK_BUDGET", 10 ** 9)
    assert run_json(capsys, *argv)["result"]["rows"][0]["N"] == 1500000


def _refuse_the_box(*args, **kwargs):
    raise AssertionError("the box was built")


def test_sieve_scan_refuses_n_below_1_before_the_box(capsys, monkeypatch):
    monkeypatch.setattr(cli, "box_moduli", _refuse_the_box)
    code, out, err = run_cli(capsys, "sieve-scan", "--P", "x1^2+x2^2", "--Q", "2000",
                             "--N", "0")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "N must be >= 1, got 0"


def test_sieve_scan_refuses_m_below_0_before_the_box(capsys, monkeypatch):
    monkeypatch.setattr(cli, "box_moduli", _refuse_the_box)
    code, out, err = run_cli(capsys, "sieve-scan", "--P", "x1^2+x2^2", "--Q", "2000",
                             "--N", "4", "--M", "-1")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "M must be >= 0, got -1"


def test_meanvalue_sum_refuses_the_lambda_table_before_the_box(capsys, monkeypatch):
    monkeypatch.setattr(bv, "box_moduli", _refuse_the_box)
    code, out, err = run_cli(capsys, "meanvalue-sum", "--P", "x1^2+x2^2+1", "--Q", "2000",
                             "--x", "100000000")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == ("von Mangoldt table limit: requires 100000000, "
                                        "budget is 10000000")


MEAN_VALUE_ARGV = ("meanvalue-sum", "--P", "x1+99000", "--Q", "1", "--x", "10000000")
MEAN_VALUE_ERROR = ('{"error": "mean value work: requires 47028299470, budget is 500000000", '
                    '"kind": "resource", "partial_progress": false}\n')


def test_meanvalue_sum_refuses_the_kernel_work_before_any_kernel_call(capsys, monkeypatch):
    # d = 99001 = 7 * 14143: 70,705 primitive characters times 665,134 stream
    # terms, which the kernel would take minutes over
    def refuse(*args):
        raise AssertionError("the character kernel ran")

    monkeypatch.setattr(bv, "_primitive_sups", refuse)
    assert run_cli(capsys, *MEAN_VALUE_ARGV) == (3, "", MEAN_VALUE_ERROR)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "polysieve.cli", *MEAN_VALUE_ARGV], env=env,
                          capture_output=True, text=True, timeout=2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", MEAN_VALUE_ERROR)


def test_meanvalue_sum_refuses_the_unit_group_build_within_2_s():
    # 4096 moduli 95903..99998: work 1.5*10^8 passes MEAN_VALUE_BUDGET, and
    # their unit groups would take about 30 s to build
    argv = ("meanvalue-sum", "--P", "x1+91807", "--Q", "4096", "--x", "2")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "polysieve.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=2)
    assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (3, "", 1)
    assert json.loads(proc.stderr) == {
        "error": f"sum of unit group moduli: requires 401205248, budget is {bv.UNIT_GROUP_BUDGET}",
        "kind": "resource", "partial_progress": False}


# Runs argv and prints its exit code and its ru_maxrss (KiB on Linux).  A
# process keeps its peak RSS across exec, so the command is started from
# this small launcher: forked from the test process, it would report the
# test process's peak.
PEAK_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_meanvalue_sum_over_300_moduli_near_10_5_peaks_below_192_mib():
    # moduli 92107..92406: each cached unit group keeps its dlog tables, pair
    # rows and carry, so the child peaked at 227 MiB with 256 groups cached
    # and peaks at 149 MiB with 128
    argv = ("meanvalue-sum", "--P", "x1+91807", "--Q", "300", "--x", "2", "--workers", "1")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PEAK_LAUNCHER, sys.executable, "-m",
                           "polysieve.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kib < 192 * 1024


def test_bv_sum_over_75_900_weighted_tuples_peaks_below_50_mib():
    # the 276 primes of [2236, 4472) in ordered pairs: the child peaks at
    # 45 MiB with each distinct modulus handed its primes, and at 54.2 MiB
    # with the kernel factoring every modulus (the distinct moduli grouped
    # by np.unique, the per-tuple arrays dropped before the kernel), at 55.5
    # MiB with them kept through it, and at 59.9-60.0 MiB with the moduli
    # grouped by a dict and a list of them kept through it
    argv = ("bv-sum", "--P", "x1", "--P", "x2", "--Q", "2236", "--x", "10",
            "--workers", "1", "--out", os.devnull)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PEAK_LAUNCHER, sys.executable, "-m",
                           "polysieve.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kib < 50 * 1024


def test_bv_sum_refused_at_10_7_peaks_below_100_mib():
    # 9,045 moduli times 665,134 stream terms: the Lambda stream is built
    # before the refusal, and the child peaked at 134 MiB with the stream cut
    # from a dense table of 8 bytes per n, at 68 MiB with it built from the primes
    argv = ("bv-sum", "--P", "x1", "--P", "x2", "--Q", "1000", "--x", "10000000",
            "--workers", "1")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PEAK_LAUNCHER, sys.executable, "-m",
                           "polysieve.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 3
    assert json.loads(proc.stderr) == {
        "error": "discrepancy work: requires 6016137030, budget is 50000000",
        "kind": "resource", "partial_progress": False}
    assert peak_kib < 100 * 1024


def test_norm_form_of_a_dense_degree_10_peaks_below_160_mib():
    # a 20.3 MiB report: the child peaks at 102-103 MiB with the report's
    # objects freed once encoded, and at 150 or 170 MiB, by heap layout alone,
    # with them kept through the indent (185 MiB with a second translated copy)
    argv = ("norm-form", "--f", "t^10+t^9+3*t+2", "--workers", "1", "--out", os.devnull)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PEAK_LAUNCHER, sys.executable, "-m",
                           "polysieve.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kib < 160 * 1024


def test_corollary_search_near_the_walk_cap_peaks_below_285_mib():
    # 2,995,862 walk entries, just under DIVISOR_WALK_BUDGET: the child peaks
    # at 264.6 MiB with points built after the walk for the named divisors
    # alone, and at 298.8 MiB with one built for every norm prime below X
    argv = ("corollary-search", "--f", "t^2+1", "--X", "2860000", "--theta", "1/10",
            "--workers", "1", "--out", os.devnull)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PEAK_LAUNCHER, sys.executable, "-m",
                           "polysieve.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kib < 285 * 1024


# corollary-search --f t^2+1 --X 20000 --theta 1/3: 965 witnesses of one
# divisor share one representations dict per divisor, and 34 of several build
# their own, whose keys sort as text.  The digests were recorded before the
# dicts were shared; the json one is taken with the duration_s line removed.
COROLLARY_ARGV = ("corollary-search", "--f", "t^2+1", "--X", "20000", "--theta", "1/3")
COROLLARY_SHA256 = {
    "json": "9f52aa2125d6d70da096f95f930d5c7f8f060ede074da803cd9267e3036d9a73",
    "csv": "1cde2cc8cc8bae0722efda9346c0f8ce7f2f038aaad7a35f2baf3d59c4918c3b",
}
WITNESS_6323 = {
    "json": ('        "divisors": [\n          29,\n          109\n        ],\n'
             '        "p": 6323,\n        "representations": {\n          "109": [\n'
             '            3,\n            10\n          ],\n          "29": [\n'
             '            2,\n            5\n          ]\n        }\n'),
    "csv": '{"divisors": [29, 109], "p": 6323, "representations": {"109": [3, 10], "29": [2, 5]}}',
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_corollary_search_shared_and_own_witness_dicts_keep_their_bytes(capsys, fmt):
    code, out, err = run_cli(capsys, *COROLLARY_ARGV, "--format", fmt)
    assert (code, err) == (0, "")
    out = re.sub(r'^  "duration_s": .*\n', "", out, flags=re.M)
    assert hashlib.sha256(out.encode()).hexdigest() == COROLLARY_SHA256[fmt]
    assert WITNESS_6323[fmt] in out


def _without_duration(text):
    return re.sub(r'"duration_s": [^,\n]+', '"duration_s": null', text)


@pytest.mark.parametrize("argv", [
    ("exponents", "--k", "3", "--ell", "2"),
    ("sieve-scan", "--P", "x1^2+x2^2", "--Q", "2", "--N", "8,16", "--format", "csv"),
    ("bv-sum", "--P", "x1^2+x2^2", "--Q", "2", "--x", "200"),
    ("exponents", "--k", "2", "--ell", "2", "--bogus", "1"),
    ("sieve-scan", "--P", "x1^2", "--Q", "2", "--N", "1500000"),
])
def test_reused_parser_prints_what_a_fresh_process_prints(capsys, argv):
    # the parser of this process has already parsed other subcommands and
    # other errors; a fresh process builds its own
    main(["exponents", "--k", "2", "--ell", "1"])
    main(["bv-sum", "--P", "x1^2", "--Q", "2", "--x", "-5"])
    capsys.readouterr()
    code, out, err = run_cli(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    fresh = subprocess.run([sys.executable, "-m", "polysieve.cli", *argv], env=env,
                           capture_output=True, text=True, timeout=120)
    assert code == fresh.returncode
    assert err == fresh.stderr
    assert _without_duration(out) == _without_duration(fresh.stdout)
    assert build_parser() is build_parser()


# -- the report writer ----------------------------------------------------------

# quotes, backslashes, control characters, non-ASCII and astral characters
JSON_TEXT = st.text(st.one_of(st.characters(),
                              st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\xe9\U0001f600')))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), JSON_TEXT,
    st.integers(), st.integers(min_value=2 ** 64, max_value=2 ** 200).map(lambda n: n * (-1) ** n),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300]))
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children, max_size=5) | st.lists(st.integers(), max_size=5)
                      | st.dictionaries(JSON_TEXT, children, max_size=5)),
    max_leaves=40)


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) as the report writer encodes it."""
    return cli._indent(cli._ENCODER.encode(obj).encode())


@given(JSON_TREES)
@settings(max_examples=200)
def test_writer_matches_json_dumps(obj):
    assert _dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [
    '\\"', '\\\\"', 'a\\\\', {'\\"': ['\\\\', '"\\'], 'a\\\\': '\\\\\\"'},
    {"[": "]", "{a,b}": "c: d", ",": [":", "}", "{", "[]", "{}"], "]}": {"x,": ",["}},
    [[[[[]]]]], {"a": {}}, [{}], [[], {}, [{}, []], {"b": []}], {"": [[{"": {}}]]},
    1, -0.0, "x", "", None, True, float("nan"),
], ids=repr)
def test_writer_matches_json_dumps_on_awkward_text(obj):
    assert _dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


# refused by the writer's C encoder
WRITER_REFUSES = [{"a": 1, 2: 3}, {"a": [1, np.int64(2)]}, np.int64(3), {1, 2}, 1 + 2j]
# accepted by the C encoder; the handler contract is checked by the oracle
ORACLE_REFUSES = [{1: 2}, {"a": {2: "b"}}, (1, 2), {"a": (1,)}, [1, (2,)],
                  np.float64(1.5), [np.float64(1.5)]]


@pytest.mark.parametrize("obj", WRITER_REFUSES, ids=repr)
def test_writer_refuses_what_is_not_plain_json(obj):
    with pytest.raises(TypeError):
        _dumps(obj)


@pytest.mark.parametrize("obj", WRITER_REFUSES + ORACLE_REFUSES, ids=repr)
def test_oracle_refuses_what_is_not_plain_json(obj):
    with pytest.raises(TypeError):
        assert_plain_json(obj)


SMALL_OPS = {
    "congruence-count": ("--P", "x1^2+x2^2", "--m", "3", "--H", "3", "--R", "1"),
    "farey-stats": ("--P", "x1^2+x2^2", "--Q", "2", "--N", "8,16"),
    "sieve-scan": ("--P", "x1^2+x2^2", "--Q", "2", "--N", "8,16"),
    "exponents": ("--k", "3", "--ell", "2"),
    "check-setting": ("--P", "x1^3+2*x2^3", "--P", "x3^2+x4^2"),
    "bv-sum": ("--P", "x1^2+x2^2", "--Q", "2", "--x", "200"),
    # moduli 8, 13 and 18: a numeric key sort would put 8 first
    "meanvalue-sum": ("--P", "x1^2+x2^2", "--Q", "2", "--x", "10"),
    "norm-form": ("--f", "t^3-2", "--truncation", "1"),
    "prime-value-sieve": ("--f", "t^3-2", "--Q", "3"),
    "corollary-search": ("--f", "t^2+1", "--X", "100", "--theta", "2/5"),
    "bad-moduli": ("--P", "x1^2-x2^2", "--Q", "4", "--eps-bad", "0.5"),
}


def test_small_ops_cover_every_subcommand():
    assert set(SMALL_OPS) == set(cli._HANDLERS)


@pytest.mark.parametrize("command", sorted(SMALL_OPS))
def test_handler_results_are_plain_json(command):
    args = build_parser().parse_args([command, *SMALL_OPS[command]])
    result, _ = cli._HANDLERS[command](args)
    assert_plain_json(result)
    assert_plain_json(cli.resolve_config(args))


@pytest.fixture(scope="module")
def large_report():
    # the witness list of the corollary search: a 341 kB report
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["corollary-search", "--f", "t^2+t+2", "--X", "60000", "--theta", "1/2",
                     "--workers", "1"])
    assert code == 0
    return buf.getvalue()


def test_large_report_is_the_stdlib_indented_text(large_report):
    assert len(large_report) > 300_000
    assert large_report == json.dumps(json.loads(large_report), sort_keys=True, indent=2) + "\n"


def test_writer_memory_stays_within_five_times_its_text(large_report):
    # the C encoder alone peaks near 4 times; full-length int64 index arrays
    # in the re-indent would take it near 10
    report = json.loads(large_report)
    tracemalloc.start()
    try:
        text = _dumps(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text + "\n" == large_report
    assert peak <= 5 * len(text)


@pytest.mark.parametrize("command", sorted(SMALL_OPS))
def test_json_report_is_the_stdlib_indented_text(capsys, command):
    code, out, err = run_cli(capsys, command, *SMALL_OPS[command], "--workers", "1")
    assert code == 0, err
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_meanvalue_moduli_keys_sort_as_strings(capsys):
    out = run_cli(capsys, "meanvalue-sum", *SMALL_OPS["meanvalue-sum"])[1]
    assert out.index('"13": 2') < out.index('"18": 1') < out.index('"8": 1')


# Outputs of the text formats, recorded before the writer and the handlers
# changed, with the default --workers of 1 filled in.
@pytest.mark.parametrize("argv, expected", [
    (("sieve-scan", "--P", "x1^2+x2^2", "--Q", "2", "--N", "8,16", "--format", "csv",
      "--seed", "1"),
     '# polysieve 0.1.0 sieve-scan config={{"M": 0, "N": [8, 16], "P": "x1^2+x2^2", "Q": 2, '
     '"command": "sieve-scan", "format": "csv", "min_modulus": null, "seed": 1, '
     '"sequence": "pm1", "workers": {workers}}}\n'
     'N,empirical,trivial_bound,zhao_conjecture,old_bound,new_bound,new_bound_applicable\n'
     '8,36.25,48.0,48.0,128.00296578225078,30.554931325133328,1\n'
     '16,26.5,64.0,64.0,191.38682543787687,58.35023926772587,1\n'),
    (("sieve-scan", "--P", "x1^2+x2^2", "--Q", "2", "--N", "8,16", "--format", "csv"),
     '# polysieve 0.1.0 sieve-scan config={{"M": 0, "N": [8, 16], "P": "x1^2+x2^2", "Q": 2, '
     '"command": "sieve-scan", "format": "csv", "min_modulus": null, "seed": 0, '
     '"sequence": "pm1", "workers": {workers}}}\n'
     'N,empirical,trivial_bound,zhao_conjecture,old_bound,new_bound,new_bound_applicable\n'
     '8,34.25,48.0,48.0,128.00296578225078,30.554931325133328,1\n'
     '16,30.0,64.0,64.0,191.38682543787687,58.35023926772587,1\n'),
    (("farey-stats", "--P", "x1^2+x2^2", "--Q", "2", "--N", "8,16", "--format", "gnuplot"),
     '# polysieve 0.1.0 farey-stats config={{"N": [8, 16], "P": "x1^2+x2^2", "Q": 2, '
     '"command": "farey-stats", "format": "gnuplot", "min_modulus": null, "seed": 0, '
     '"workers": {workers}}}\n'
     '# close_count\n8 5\n16 4\n\n'
     '# comparator\n8 3.819366415641666\n16 3.6468899542328668\n\n'),
    (("meanvalue-sum", "--P", "x1^2+x2^2", "--Q", "2", "--x", "10", "--format", "csv"),
     '# polysieve 0.1.0 meanvalue-sum config={{"P": "x1^2+x2^2", "Q": 2, '
     '"command": "meanvalue-sum", "format": "csv", "seed": 0, "workers": {workers}, '
     '"x": 10.0}}\n'
     'key,value\nQ,2\nmoduli,{{"13": 2, "18": 1, "8": 1}}\nskipped_unit_moduli,0\n'
     'value,74.91710741927594\nx,10.0\n'),
    (("corollary-search", "--f", "t^2+1", "--X", "30", "--theta", "1/3", "--format", "csv"),
     '# polysieve 0.1.0 corollary-search config={{"X": 30, "command": "corollary-search", '
     '"f": "t^2+1", "format": "csv", "seed": 0, "theta": "1/3", "truncation": 0, '
     '"workers": {workers}}}\n'
     'key,value\nX,30\ncount,4\ndensity,0.4\nprime_count,10\nq_range,5\ntheta,"1/3"\n'
     'witnesses,[{{"divisors": [2], "p": 3, "representations": {{"2": [1, 1]}}}}, '
     '{{"divisors": [2], "p": 5, "representations": {{"2": [1, 1]}}}}, '
     '{{"divisors": [2], "p": 7, "representations": {{"2": [1, 1]}}}}, '
     '{{"divisors": [5], "p": 11, "representations": {{"5": [1, 2]}}}}]\n'),
    *((("corollary-search", "--f", "t^2+1", "--X", X, "--theta", "1/2", "--format", "csv"),
       f'# polysieve 0.1.0 corollary-search config={{{{"X": {X}, "command": "corollary-search", '
       '"f": "t^2+1", "format": "csv", "seed": 0, "theta": "1/2", "truncation": 0, '
       '"workers": {workers}}}\n'
       f'key,value\nX,{X}\ncount,0\ndensity,0.0\nprime_count,{primes}\nq_range,1\n'
       'theta,"1/2"\nwitnesses,[]\n') for X, primes in (("1", 0), ("2", 1))),
    (("prime-value-sieve", "--f", "t^2+1", "--Q", "2", "--format", "csv"),
     '# polysieve 0.1.0 prime-value-sieve config={{"Q": 2, "command": "prime-value-sieve", '
     '"f": "t^2+1", "format": "csv", "seed": 0, "truncation": 0, "workers": {workers}}}\n'
     'key,value\ncount,2\ndensity_ratio,0.34657359027997264\ndistinct,1\n'
     'max_multiplicity,2\nmaynard_condition_ok,true\nvalues,{{"13": [[2, 3], [3, 2]]}}\n'),
])
def test_text_formats_keep_their_bytes(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out == expected.format(workers=1)


# -- numeric flags, drawn -----------------------------------------------------------

# Spellings argparse's int, float and Fraction parsers meet; ints stay small
# so that no drawn box, modulus or sieve runs long, and the huge values are
# refused by a budget or a range check before any work.
NUMERIC_TEXT = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e30", "1e300", "-1e300",
                     "1e-300", "-0", "0.0", "+5", "1_0", " 7", "", "0x10", str(10 ** 23),
                     str(-10 ** 23), str(10 ** 400), "1/" + str(10 ** 400)]))


@pytest.mark.parametrize("command", sorted(GRID_BASES))
@given(data=st.data())
@settings(max_examples=60)
def test_numeric_flags_drawn(command, data):
    base = GRID_BASES[command]
    numeric = [flag for flag in base[::2] if flag not in ("--P", "--f")]
    drawn = data.draw(st.sets(st.sampled_from(numeric), min_size=1, max_size=2), label="flags")
    argv = [command]
    for flag, value in zip(base[::2], base[1::2]):
        argv += [flag, data.draw(NUMERIC_TEXT, label=flag) if flag in drawn else value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--workers", "1"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    if code:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        json.loads(lines[0])
    else:
        json.loads(out, parse_constant=_reject_constant)
