"""Every benchmark pool report keeps its bytes whatever the caches hold.

All 336 ops of bench/workloads.py run in process through polysieve.cli.main
in three passes: pool order after clearing every cache; a fixed seeded
shuffle with the caches left warm; and each op again right after clearing
every cache.  stdout (with the json `duration_s` line removed), stderr and
the exit code must agree across the passes.  json is run in all three
passes; csv, and gnuplot on the ops whose subcommand draws a table, in the
first two.
"""

import contextlib
import importlib.util
import io
import random
import re
import sys
from pathlib import Path

from oracles import clear_caches
from polysieve.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _pool_ops():
    # bench/workloads.py imports nothing from polysieve; it is loaded under
    # its own name so that the bench's `workloads` module is left alone
    spec = importlib.util.spec_from_file_location("pool_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)   # its dataclass looks itself up there
    return [op for name in workloads.WORKLOADS for op in workloads.pool_ops(name)]


OPS = _pool_ops()
TABLE_COMMANDS = ("farey-stats", "sieve-scan")
DURATION = re.compile(r'^  "duration_s": .*\n', re.M)


def _run(argv: tuple[str, ...], fmt: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", fmt])
    return code, DURATION.sub("", out.getvalue()), err.getvalue()


def test_pool_reports_keep_their_bytes_cold_warm_and_shuffled():
    runs = [(op.argv, fmt) for op in OPS for fmt in
            (("json", "csv", "gnuplot") if op.command in TABLE_COMMANDS else ("json", "csv"))]
    assert len(OPS) == 336 and len(runs) == 2 * 336 + 108
    clear_caches()
    first = {run: _run(*run) for run in runs}
    assert all(code == 0 for code, _, _ in first.values())
    assert not any('"duration_s"' in out for _, out, _ in first.values())

    shuffled = random.Random(20240611).sample(runs, len(runs))
    assert [run for run in shuffled if _run(*run) != first[run]] == []

    moved = []
    for op in OPS:
        clear_caches()
        if _run(op.argv, "json") != first[op.argv, "json"]:
            moved.append(op.key)
    assert moved == []
