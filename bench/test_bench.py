"""Self-tests for the benchmark: python3 -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import verify
import workloads
from run import ROOT, load_cli, run_op
from tracer import METRICS

RUN = str(Path(__file__).resolve().parent / "run.py")
DEFAULT_SEED = 1


def bench(*args, cwd=ROOT, script=RUN, timeout=300):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_batch_is_deterministic_per_seed(name):
    keys = [[op.key for op in ops] for ops in workloads.batch(name, 7, 3)]
    assert keys == [[op.key for op in ops] for ops in workloads.batch(name, 7, 3)]
    assert keys != [[op.key for op in ops] for ops in workloads.batch(name, 8, 3)]
    # Same batch in a fresh interpreter with another string-hash seed.
    code = ("import json, sys, workloads; print(json.dumps([[op.key for op in ops] "
            f"for ops in workloads.batch({name!r}, 7, 3)]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=Path(RUN).parent,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONHASHSEED": "12345"})
    assert json.loads(proc.stdout) == keys


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_rounds_draw_every_slot_without_repeats(name):
    slots = workloads.pool(name)
    rounds = workloads.batch(name, DEFAULT_SEED, workloads.CANDIDATES_PER_SLOT)
    for ops in rounds:
        assert sorted({op.slot for op in ops}) == sorted(slots)
    keys = [op.key for ops in rounds for op in ops]
    assert len(keys) == len(set(keys)) == len(workloads.pool_ops(name))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_references_cover_the_pool(name):
    assert set(verify.load_refs(name)) == {op.key for op in workloads.pool_ops(name)}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_op_of_the_default_seed_passes(name):
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    result = last_json(bench("--workload", name, "--seed", str(DEFAULT_SEED),
                             "--seconds", str(seconds), "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    per_round = sum(len(blocks[0]) for blocks in workloads.pool(name).values())
    assert result["attempted"] == per_round * workloads.rounds_for(name, seconds)


def test_verifier_flags_perturbed_references():
    cli = load_cli(ROOT / "src")
    op = workloads.pool("spacing")["sieve-scan Q=10"][0][0]
    _, code, text, _ = run_op(cli.main, op.argv)
    assert code == 0
    result = json.loads(text)["result"]
    ref = verify.load_refs("spacing")[op.key]
    assert verify.mismatch(ref, result) is None

    floats = list(ref["floats"])
    floats[0] *= 1 + 1e-6
    assert "float #0" in verify.mismatch({**ref, "floats": floats}, result)
    floats[0] = ref["floats"][0] * (1 + 1e-12)
    assert verify.mismatch({**ref, "floats": floats}, result) is None
    assert verify.mismatch({**ref, "floats": ref["floats"][1:]}, result)

    changed = dict(result, r_star=result["r_star"] + 1)
    assert verify.mismatch(ref, changed) == "exact fields differ from the reference"
    assert verify.mismatch(ref, dict(result, r_star=float(result["r_star"])))


def test_traced_counts_repeat_exactly():
    counts = [name for name, unit in METRICS
              if unit in ("count", "B", "1") and name != "host.speed_factor"]
    for name in workloads.WORKLOADS:
        runs = [last_json(bench("--workload", name, "--seed", "3", "--seconds", "1",
                                "--trace", "1"))["metrics"] for _ in range(2)]
        assert set(runs[0]) == {m for m, _ in METRICS}
        assert {k: runs[0][k] for k in counts} == {k: runs[1][k] for k in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(RUN).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "spacing", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py", timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
