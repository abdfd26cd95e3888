import json

import pytest

from polysieve.cli import main


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
    # the constant term is outside the range of the exact factorization
    ("prime-value-sieve", "--f", "t^2+1000000000000000000000", "--Q", "2"),
])
def test_bad_numeric_input_is_validation_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "validation"


def test_budget_is_resource_error(capsys):
    code, out, err = run_cli(capsys, "farey-stats", "--P", "x1^2+x2^2+x3^2+x4^2+x5^2+x6^2+x7^2+x8^2+x9^2",
                             "--Q", "10", "--N", "4")
    assert code == 3
    assert json.loads(err.strip())["kind"] == "resource"


@pytest.mark.parametrize("argv", [
    ("meanvalue-sum", "--P", "x1^2+x2^2", "--Q", "2", "--x", "1e12"),
    ("bv-sum", "--P", "x1", "--P", "x2", "--Q", "2", "--x", "1e12", "--eps-bad", "0.001"),
    ("corollary-search", "--f", "t^2+1", "--X", "1" + "0" * 400, "--theta", "2/5"),
    # raised in a pool worker and pickled back to the parent
    ("bv-sum", "--P", "x1", "--P", "x2", "--Q", "32", "--x", "1e8", "--eps-bad", "0.001",
     "--workers", "2"),
])
def test_huge_limit_is_resource_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "resource"


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


def test_gnuplot_rejected_where_unsupported(capsys):
    code, out, err = run_cli(capsys, "exponents", "--k", "2", "--ell", "2",
                             "--format", "gnuplot")
    assert code == 2
    assert json.loads(err.strip())["kind"] == "validation"


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


def test_prime_value_sieve_smoke(capsys):
    rep = run_json(capsys, "prime-value-sieve", "--f", "t^2+1", "--Q", "2")
    assert rep["result"]["values"] == {"13": [[2, 3], [3, 2]]}


def test_corollary_search_smoke(capsys):
    rep = run_json(capsys, "corollary-search", "--f", "t^2+1", "--X", "100",
                   "--theta", "2/5")
    ps = [w["p"] for w in rep["result"]["witnesses"]]
    assert 11 in ps and 13 not in ps
    assert rep["config"]["theta"] == "2/5"


def test_workers_flag_does_not_change_results(capsys):
    base = run_json(capsys, "bad-moduli", "--P", "x1^2-x2^2", "--Q", "8",
                    "--eps-bad", "0.5", "--workers", "1")
    multi = run_json(capsys, "bad-moduli", "--P", "x1^2-x2^2", "--Q", "8",
                     "--eps-bad", "0.5", "--workers", "2")
    assert base["result"] == multi["result"]
