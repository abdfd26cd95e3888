"""Each experiment script runs to completion at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("sieve_scan_experiment.py", ["--Q", "2", "--out-dir", "out"]),
    ("bv_level_experiment.py", ["--Q", "1", "--x-max", "1000"]),
    ("prime_divisor_experiment.py", ["--X", "1000"]),
])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # relative paths such as --out-dir resolve under tmp_path
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
