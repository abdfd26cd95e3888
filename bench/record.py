#!/usr/bin/env python3
"""Record reference fingerprints for every op a seed can draw.

    python3 bench/record.py [--src DIR]

References must come from the parent commit of the change under test, so
that the benchmark checks a change against what the program computed before
it.  With the parent's sources unpacked elsewhere, for example by
``git archive <parent> src | tar -x -C /tmp/parent``, run
``python3 bench/record.py --src /tmp/parent/src``.  Only a change to a
workload's pool calls for new references: the pool covers every seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import ROOT, load_cli, run_op
import verify
import workloads


def record(cli, name: str) -> dict:
    ops = {}
    for op in workloads.pool_ops(name):
        _, code, text, err = run_op(cli.main, op.argv)
        if code != 0:
            raise RuntimeError(f"{op.key} exited {code}: {err.strip()}")
        ops[op.key] = verify.fingerprint(json.loads(text)["result"])
    return {"ops": ops}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the polysieve package to record from")
    args = ap.parse_args()
    cli = load_cli(args.src)
    verify.REFS_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        refs = record(cli, name)
        with open(verify.refs_path(name), "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(refs['ops'])} references -> {verify.refs_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
