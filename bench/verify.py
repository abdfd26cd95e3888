"""Reference checks for op outputs.

A report's ``result`` is split into an exact part and its floats.  The exact
part (integers, rationals rendered as strings, booleans, strings, nulls and
the shape of every list and dict) is compared through a SHA-256 digest, so it
must match bit for bit.  Floats are compared one by one with ``math.isclose``
at the tolerances below, which leave room for a kernel that sums in another
order but not for a changed result.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12

REFS_DIR = Path(__file__).resolve().parent / "refs"


def _encode(x, floats: list, out: list) -> None:
    # Type-tagged canonical text; floats are replaced by a placeholder.
    if isinstance(x, bool) or x is None:
        out.append(json.dumps(x))
    elif isinstance(x, int):
        out.append(f"i{x}")
    elif isinstance(x, float):
        floats.append(x)
        out.append("f")
    elif isinstance(x, str):
        out.append(json.dumps(x))
    elif isinstance(x, list):
        out.append("[")
        for v in x:
            _encode(v, floats, out)
            out.append(",")
        out.append("]")
    elif isinstance(x, dict):
        out.append("{")
        for k in sorted(x):
            out.append(json.dumps(k) + ":")
            _encode(x[k], floats, out)
            out.append(",")
        out.append("}")
    else:
        raise TypeError(f"unexpected JSON value {x!r}")


def fingerprint(result) -> dict:
    """{"exact": digest of the exact part, "floats": [floats in key order]}."""
    floats: list = []
    out: list = []
    _encode(result, floats, out)
    return {"exact": hashlib.sha256("".join(out).encode()).hexdigest(), "floats": floats}


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def mismatch(expected: dict, result) -> str | None:
    """None when result matches the reference, else a one-line reason."""
    got = fingerprint(result)
    if got["exact"] != expected["exact"]:
        return "exact fields differ from the reference"
    if len(got["floats"]) != len(expected["floats"]):
        return "float count differs from the reference"
    for i, (a, b) in enumerate(zip(got["floats"], expected["floats"])):
        if not _same_float(a, b):
            return f"float #{i} is {a!r}, reference {b!r}"
    return None


def refs_path(workload: str) -> Path:
    return REFS_DIR / f"{workload}.json"


def load_refs(workload: str) -> dict:
    """Op key -> fingerprint, as written by record.py."""
    with open(refs_path(workload)) as fh:
        return json.load(fh)["ops"]
