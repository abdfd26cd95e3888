"""Each experiment script and each benchmark workload runs to completion at
a tiny size."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from polysieve.normform import NumberFieldSpec, prime_divisor_search

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("sieve_scan_experiment.py", ["--Q", "2", "--out-dir", "out"]),
    ("sieve_scan_experiment.py", ["--Q", "2", "--sequence", "unit", "--out-dir", "out"]),
    ("bv_level_experiment.py", ["--Q", "1", "--x-max", "1000"]),
    ("bv_level_experiment.py", ["--factors", "x1^2+x2^2", "x3^2+x4", "--Q", "1",
                                "--x-max", "1000"]),
    ("prime_divisor_experiment.py", ["--X", "1000"]),
    ("meanvalue_sweep_experiment.py", ["--Q", "2", "--x-max", "2000"]),
    # at Q = 2 the moduli are 8, 13, 18 and 8, 10, 13: the second grid reads two totals
    ("meanvalue_sweep_experiment.py", ["--P", "x1^2+x2^2", "--P", "x1*x2+4", "--Q", "2",
                                       "--x-max", "2000"]),
    # x2 is in no factor, and P prints as its factors
    ("bv_level_experiment.py", ["--factors", "x1", "x3", "--Q", "2", "--x-max", "1000"]),
])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # relative paths such as --out-dir resolve under tmp_path
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_prime_divisor_experiment_prints_the_search():
    # each theta row: its count, and the largest qualifying d of the last three p
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "prime_divisor_experiment.py"),
                           "--X", "1000"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert len(rows) == 5
    spec = NumberFieldSpec.from_text("t^2+1")
    for row in rows:
        theta, count, _, samples = row.split(maxsplit=3)
        rep = prime_divisor_search(spec, 1000, Fraction(theta))
        assert int(count) == rep.count
        assert samples.split(", ") == [f"{p}:{ds[-1]}" for p, ds in
                                       zip(rep.primes[-3:], rep.divisors[-3:])]


@pytest.mark.parametrize("workload", ["spacing", "primes", "boxes"])
def test_bench_workload_runs_traced(workload):
    # The traced run wraps names of every layer (it fails on a missing one)
    # and checks each op's report against the recorded references.
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                           "--workload", workload, "--seed", "1", "--seconds", "1",
                           "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["failed"] == 0
