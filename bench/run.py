#!/usr/bin/env python3
"""polysieve benchmark: one seeded workload, closed loop, one client.

    python3 bench/run.py --workload spacing --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 22

Run from the root of a checkout.  The process imports ``polysieve.cli`` from
the checkout's ``src/`` and calls ``main(argv)`` in-process for each op of
the batch, one after another with no think time, every op with
``--workers 1``.  Each op's report is checked against the recorded
references.  Human-readable lines come first; the last line of stdout is
one JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer metrics of an outside-in traced run (``--trace 1``).

``--workload all`` runs every workload untraced and then traced, each in a
fresh process, and prints the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import verify  # noqa: E402
import workloads  # noqa: E402
from calibration import CAL_REF_S, calibration_seconds, scaled  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402

# setup_s is the median of this many import probes.  Each probe brackets
# the import with the calibration loop inside its own process, right around
# the import.  Over 12 runs of 21 probes on a 2-core x86-64 host the spread
# of that median (interquartile range over median) was 5-7 %; with the loop
# run in this process around the whole probe process it was 6-24 %, and the
# minimum of the probes spread 19-33 %.
SETUP_SAMPLES = 21
IMPORT_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
from time import perf_counter
from calibration import calibration_seconds
before = calibration_seconds()
start = perf_counter()
import polysieve.cli
seconds = perf_counter() - start
print(seconds, before, calibration_seconds())
"""


class SpeedClock:
    """Times calls and scales each by the host speed measured around it."""

    def __init__(self):
        self.cal = [calibration_seconds()]

    def scale(self, seconds: float) -> float:
        """Seconds at the reference speed for a call that just ended."""
        self.cal.append(calibration_seconds())
        return scaled(seconds, self.cal[-2], self.cal[-1])

    @property
    def factor(self) -> float:
        return statistics.fmean(self.cal) / CAL_REF_S


def setup_seconds(src: Path) -> list[tuple[float, float]]:
    """Import time of polysieve.cli (numpy included) in fresh processes,
    as (raw, scaled) pairs."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src), str(BENCH)],
                              capture_output=True, text=True, timeout=120, check=True)
        raw, before, after = map(float, proc.stdout.split())
        out.append((raw, scaled(raw, before, after)))
    return out


def load_cli(src: Path):
    if not (src / "polysieve" / "cli.py").is_file():
        raise FileNotFoundError(f"no polysieve sources under {src}")
    sys.path.insert(0, str(src))
    import polysieve.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"polysieve was imported from {cli.__file__}, not {src}")
    return cli


def run_op(main, argv) -> tuple[float, int, str, str]:
    """(seconds, exit code, stdout, stderr) of one in-process CLI call.

    An exception escaping main() is reported as exit code 1 with the
    exception text, and counts as a failed op.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(list(argv))
        except Exception as exc:  # the batch goes on; the op is failed
            code = 1
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def tail(values: list[float]) -> tuple[float, int]:
    """Nearest-rank value at the highest of p99, p95, p90, p75 and p50 that
    leaves at least 10 values above it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99, 95, 90, 75, 50):
        rank = -(-pct * n // 100)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    src = ROOT / "src"
    try:
        refs = verify.load_refs(name)
        cli = load_cli(src)
    except (OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rounds = workloads.batch(name, seed, workloads.rounds_for(name, seconds))
    clock = SpeedClock()
    tracer = Tracer.install() if trace else None
    setup = [] if trace else setup_seconds(src)

    records = []   # (op, raw seconds, scaled seconds, failure or None)
    for ops in rounds:
        for op in ops:
            if tracer:
                tracer.begin_op()
            dt, code, text, err = run_op(cli.main, op.argv)
            scaled = clock.scale(dt)
            failure, duration = None, None
            if code != 0:
                failure = f"exit {code}: {err.strip()[:200]}"
            else:
                report = json.loads(text)
                duration = report["duration_s"]
                expected = refs.get(op.key)
                failure = ("no reference recorded" if expected is None
                           else verify.mismatch(expected, report["result"]))
            if tracer:
                # The digits of duration_s vary from run to run; the count
                # leaves them out so that it repeats exactly.
                size = len(text) - (len(json.dumps(duration)) if duration is not None else 0)
                tracer.end_op(dt, duration, size, scaled)
            records.append((op, dt, scaled, failure))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = [(op, why) for op, _, _, why in records if why]
    for op, why in failed:
        print(f"FAILED {op.key}: {why}")
    n = len(records)
    print(f"workload {name}  seed {seed}  {len(rounds)} rounds  {n} ops  "
          f"{len(failed)} failed  failed_ops_ratio {len(failed) / n:.4g} 1  "
          f"host speed factor {clock.factor:.4f}")

    if tracer:
        metrics = tracer.metrics(clock.factor)
        units = dict(METRICS)
        for key, value in metrics.items():
            print(f"  {key:<42} {value:.6g} {units[key]}")
        result = {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}
    else:
        cmd_a, cmd_b = workloads.COMMANDS[name]
        result = {}
        for i, kind in ((2, "value"), (1, "raw")):
            times = [r[i] for r in records]
            by_cmd = {c: [r[i] for r in records if r[0].command == c] for c in (cmd_a, cmd_b)}
            tail_s, tail_pct = tail(times)
            for key, value in (("wall_s", sum(times)),
                               ("op_p50_s", statistics.median(times)),
                               ("op_tail_s", tail_s),
                               ("setup_s", statistics.median(p[i - 1] for p in setup)),
                               ("cmd_a.p50_s", statistics.median(by_cmd[cmd_a])),
                               ("cmd_b.p50_s", statistics.median(by_cmd[cmd_b]))):
                result.setdefault(key, {"unit": "s"})[kind] = value
        result["peak_rss_mib"] = {"unit": "MiB", "value": rss_mib}
        notes = {
            "op_tail_s": f"p{tail_pct} of {n} ops",
            "setup_s": f"median of {len(setup)} fresh imports",
            "cmd_a.p50_s": f"{cmd_a}.p50_s, {len(by_cmd[cmd_a])} ops",
            "cmd_b.p50_s": f"{cmd_b}.p50_s, {len(by_cmd[cmd_b])} ops",
        }
        for key, m in result.items():
            note = "; ".join(([f"raw {m.pop('raw'):.6g} s"] if "raw" in m else [])
                             + ([notes[key]] if key in notes else []))
            print(f"  {key:<14} {m['value']:.6g} {m['unit']}  {note}".rstrip())
    print(json.dumps({"correct": not failed, "attempted": n, "failed": len(failed),
                      "metrics": result}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    status = 0
    for name in workloads.WORKLOADS:
        walls = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            status = status or (0 if last["correct"] else 1)
            walls[trace] = last["metrics"]["trace.wall_s" if trace else "wall_s"]["value"]
        if len(walls) == 2:
            print(f"workload {name}  tracing overhead {walls[1] - walls[0]:.3f} s "
                  f"({100 * (walls[1] / walls[0] - 1):.1f} % of wall_s)")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="sets the batch size (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
