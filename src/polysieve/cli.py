"""Command-line front end.

Every run emits a report embedding the fully resolved configuration, the
library version, the seed (even when unused), and the wall-clock duration.
Two runs with the same configuration and seed produce byte-identical JSON up
to the duration field.  Validation failures exit nonzero with a single-line
machine-readable error on stderr; budget overruns exit with kind=resource.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import __version__
from .boxes import box_moduli, count_bad_moduli
from .bv import check_setting, discrepancy_sum, exponent_profile, mean_value_sum
from .congruence import CongruenceInstance, congruence_count_bound
from .errors import BudgetError
from .farey import build_farey, close_points_comparator, max_close_points, min_spacing
from .largesieve import (SEQUENCE_FAMILIES, check_grid, delta_bounds, empirical_delta,
                         sequence_autocorrelation)
from .mvpoly import FactoredPoly, parse_poly
from .normform import NumberFieldSpec, norm_form, prime_divisor_search, prime_value_sieve


class CliError(ValueError):
    pass


def resolve_config(args) -> dict:
    """The fully resolved run configuration, echoed verbatim into every
    report: every parsed flag but --out, sorted by name."""
    return dict(sorted((k, _jsonify(v)) for k, v in vars(args).items() if k != "out"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _int_grid(text: str) -> list[int]:
    try:
        grid = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer grid: {text!r}") from exc
    if not grid:
        raise argparse.ArgumentTypeError(f"empty grid: {text!r}")
    return grid


def _jsonify(obj):
    """Plain JSON values from a parsed flag or a dataclass report: dataclasses
    as dicts of their fields, one level at a time, tuples as lists, Fractions
    as strings."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return str(obj) if isinstance(obj, Fraction) else obj


# The report writer: the C encoder writes compact ASCII text (ensure_ascii is
# on), and one sparse numpy pass puts "\n" and 2 spaces per depth after each
# comma and non-empty opener and before each non-empty closer, read from one
# translated copy of the text.  The encoder takes tuples, int keys and
# np.float64; the tests check the handler contract.  A report has no cycle (a
# shared dict is written at each place), so the encoder marks no container.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ": "), check_circular=False)
# int8 codes (254 is -2): bit 0 set where the indent follows, the rest twice the depth step
_KINDS = bytes(dict(zip(b'",[{]}', (4, 1, 3, 3, 254, 254))).get(c, 0) for c in range(256))


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), encoded in C."""
    return _indent(_ENCODER.encode(obj).encode())


def _indent(raw: bytes) -> str:
    """The encoder's compact text raw, indented as _dumps writes it."""
    text = raw
    # blank escapes, paired from the left as a parser reads them, and empty containers
    escapes = (b"\\\\", b'\\"') if b"\\" in raw else ()
    for blank in (*escapes, b"[]", b"{}"):
        text = text.replace(blank, b"__")
    marks = np.frombuffer(text.translate(_KINDS), np.int8)
    pos = marks.nonzero()[0]
    kind = marks[pos]
    quote = kind == 4
    keep = ~(np.logical_xor.accumulate(quote) | quote)   # outside strings
    pos, kind = pos[keep], kind[keep]
    run = np.add.accumulate(kind & -2) + 1   # "\n" and the indent of the depth after
    ends = np.add.accumulate(run)
    size = len(raw) + (int(ends[-1]) if ends.size else 0)
    ends += pos + (kind & 1)   # after commas and openers, before closers
    starts = ends - run
    del text, marks, pos, kind, quote, keep, run   # before the full-length arrays
    kept = np.zeros(size, bool)
    kept[0] = kept[starts] = kept[ends] = True
    del ends
    np.logical_xor.accumulate(kept, out=kept)   # True on the bytes of raw
    out = np.full(size, ord(" "), np.uint8)
    out[starts] = ord("\n")
    del starts
    out[kept] = np.frombuffer(raw, np.uint8)
    del kept, raw   # before the copy into text
    return str(out, "ascii")


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    parser = _Parser(prog="polysieve", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, poly=False, factors=False, field=False, table=False):
        p.add_argument("--seed", type=int, default=0)
        # gnuplot draws a table: offered only where the handler returns one
        formats = ("json", "csv", "gnuplot") if table else ("json", "csv")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--workers", type=_positive_int, default=1,
                       help="echoed in config; every run is one process")
        if poly:
            p.add_argument("--P", required=True, help="polynomial text, e.g. 'x1^2+x2^2'")
        if factors:
            p.add_argument("--P", action="append", required=True,
                           help="factor polynomial text; repeat for several factors")
        if field:
            p.add_argument("--f", required=True, help="monic polynomial in t, e.g. 't^3-2'")
            p.add_argument("--truncation", type=int, default=0)

    p = sub.add_parser("congruence-count", help="count solutions of a*P(x) = y (mod m) in a box")
    common(p, poly=True)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--K", default=None, help="comma-separated box corners, default all 0")
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--L", type=int, default=0)
    p.add_argument("--R", type=int, required=True)

    p = sub.add_parser("farey-stats", help="spacing statistics of the fraction system a/P(q)")
    common(p, poly=True, table=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--N", type=_int_grid, required=True, help="grid, e.g. 16,64,256")
    p.add_argument("--min-modulus", type=_finite_float, default=None)

    p = sub.add_parser("sieve-scan", help="empirical sieve constant vs comparators over an N grid")
    common(p, poly=True, table=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--N", type=_int_grid, required=True)
    p.add_argument("--M", type=int, default=0)
    p.add_argument("--sequence", choices=sorted(SEQUENCE_FAMILIES), default="pm1")
    p.add_argument("--min-modulus", type=_finite_float, default=None)

    p = sub.add_parser("exponents", help="exact exponent profile for (k, ell)")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)

    p = sub.add_parser("check-setting", help="factor conditions and divisor monotonicity")
    common(p, factors=True)

    p = sub.add_parser("bv-sum", help="weighted discrepancy sum over the box")
    common(p, factors=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--A", type=_finite_float, default=2.0)
    p.add_argument("--eps-bad", type=_finite_float, default=None)

    p = sub.add_parser("meanvalue-sum", help="primitive-character mean value sum")
    common(p, poly=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--x", type=_finite_float, required=True)

    p = sub.add_parser("norm-form", help="print the expanded incomplete norm form")
    common(p, field=True)

    p = sub.add_parser("prime-value-sieve", help="prime norm values on the dyadic box")
    common(p, field=True)
    p.add_argument("--Q", type=int, required=True)

    p = sub.add_parser("corollary-search",
                       help="primes p <= X with a large norm-form prime divisor of p-1")
    common(p, field=True)
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--theta", type=_fraction, required=True)

    p = sub.add_parser("bad-moduli", help="count small |P(q)| over the box")
    common(p, poly=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--eps-bad", type=_finite_float, required=True)

    return parser


# -- handlers ----------------------------------------------------------------
# Each returns (result, table): result holds plain JSON values with str keys;
# table is None or (header, rows, plotted), where gnuplot draws each plotted
# column against the first.  Only a subcommand built with common(table=True)
# returns a table, and only it offers --format gnuplot.


def _run_congruence_count(args):
    P = parse_poly(args.P)
    corners = tuple(int(c) for c in args.K.split(",")) if args.K else (0,) * P.num_vars
    inst = CongruenceInstance(P=P, a=args.a, m=args.m, K=corners,
                              H=args.H, L=args.L, R=args.R)
    return _jsonify(congruence_count_bound(inst)), None


def _run_farey_stats(args):
    P = parse_poly(args.P)
    comps = [close_points_comparator(P.total_degree(), P.num_vars, args.Q, N) for N in args.N]
    system = build_farey(P, args.Q, min_modulus=args.min_modulus)
    spacing = str(min_spacing(system)) if system.distinct_count >= 2 else None
    header = ["N", "close_count", "comparator", "ratio"]
    counts = max_close_points(system, args.N)
    rows = [[N, count, comp, count / comp] for N, count, comp in zip(args.N, counts, comps)]
    result = {key: getattr(system, key) for key in
              ("distinct_count", "total_count", "skipped_unit_moduli", "skipped_filtered")}
    result |= {"min_spacing": spacing, "per_N": [dict(zip(header, row)) for row in rows]}
    return result, (header, rows, ["close_count", "comparator"])


def _split_seed(seed: int, counter: int) -> int:
    """Derive a per-task seed from the user seed; stable across grids."""
    return (seed * 0x9E3779B97F4A7C15 + counter * 0xBF58476D1CE4E5B9) % 2 ** 63


def _run_sieve_scan(args):
    check_grid(args.M, args.N)
    P = parse_poly(args.P)
    k, ell = P.total_degree(), P.num_vars
    moduli, _, _, r_star = box_moduli(P, args.Q, args.min_modulus)
    # the comparators depend on no modulus: refused before any is factored
    bounds = [delta_bounds(k, ell, args.Q, N, r_star) for N in args.N]
    emps = empirical_delta(moduli, args.M, args.N, lambda N: sequence_autocorrelation(
        args.sequence, N, _split_seed(args.seed, N)))
    rows = [dataclasses.replace(b, empirical=emp) for b, emp in zip(bounds, emps)]
    result = {"k": k, "ell": ell, "Q": args.Q, "r_star": r_star,
              "sequence": args.sequence, "rows": _jsonify(rows)}
    header = ["N", "empirical", "trivial_bound", "zhao_conjecture", "old_bound",
              "new_bound", "new_bound_applicable"]
    table = [[r.N, r.empirical, r.trivial_bound, r.zhao_conjecture, r.old_bound,
              r.new_bound, int(r.new_bound_applicable)] for r in rows]
    return result, (header, table, ["empirical", "trivial_bound", "new_bound"])


def _run_exponents(args):
    prof = exponent_profile(args.k, args.ell)
    return dict(_jsonify(prof), k_times_level_exponent=str(prof.k * prof.level_exponent)), None


def _run_check_setting(args):
    return _jsonify(check_setting(FactoredPoly([parse_poly(t) for t in args.P]))), None


def _run_bv_sum(args):
    F = FactoredPoly([parse_poly(t) for t in args.P])
    rep = discrepancy_sum(F, args.Q, args.x, eps_bad=args.eps_bad, A=args.A)
    return _jsonify(rep), None


def _run_meanvalue_sum(args):
    rep = mean_value_sum(parse_poly(args.P), args.Q, args.x)
    return {"value": rep.value, "moduli": {str(d): c for d, c in rep.moduli.items()},
            "skipped_unit_moduli": rep.skipped_unit_moduli, "Q": args.Q, "x": args.x}, None


def _run_norm_form(args):
    spec = NumberFieldSpec.from_text(args.f, truncation=args.truncation)
    form = norm_form(spec)
    return {"polynomial": form.to_text(var_prefix="q"),
            "json": form.to_json_dict(), "degree": spec.degree,
            "num_vars": spec.num_form_vars}, None


def _run_prime_value_sieve(args):
    spec = NumberFieldSpec.from_text(args.f, truncation=args.truncation)
    rep = prime_value_sieve(spec, args.Q)
    return {"count": rep.count, "distinct": rep.distinct,
            "max_multiplicity": rep.max_multiplicity,
            "density_ratio": rep.density_ratio,
            "maynard_condition_ok": rep.maynard_condition_ok,
            "values": {str(v): qs for v, qs in rep.values.items()}}, None


def _run_corollary_search(args):
    spec = NumberFieldSpec.from_text(args.f, truncation=args.truncation)
    rep = prime_divisor_search(spec, args.X, args.theta)
    alone = {d: {str(d): q} for d, q in rep.representations.items()}   # shared where ds is [d]
    return {"count": rep.count, "prime_count": rep.prime_count,
            "density": rep.density, "q_range": rep.q_range,
            "theta": str(rep.theta), "X": rep.X,
            "witnesses": [{"p": p, "divisors": ds, "representations": alone[ds[0]]
                           if len(ds) == 1 else {str(d): rep.representations[d] for d in ds}}
                          for p, ds in zip(rep.primes, rep.divisors)]}, None


def _run_bad_moduli(args):
    return _jsonify(count_bad_moduli(parse_poly(args.P), args.Q, args.eps_bad)), None


_HANDLERS = {
    "congruence-count": _run_congruence_count,
    "farey-stats": _run_farey_stats,
    "sieve-scan": _run_sieve_scan,
    "exponents": _run_exponents,
    "check-setting": _run_check_setting,
    "bv-sum": _run_bv_sum,
    "meanvalue-sum": _run_meanvalue_sum,
    "norm-form": _run_norm_form,
    "prime-value-sieve": _run_prime_value_sieve,
    "corollary-search": _run_corollary_search,
    "bad-moduli": _run_bad_moduli,
}


def _render(args, config, result, table, duration) -> str:
    lines = ["# polysieve {} {} config={}".format(
        __version__, args.command, json.dumps(config, sort_keys=True))]
    if args.format == "gnuplot":   # two-column blocks separated by blank lines
        header, rows, plotted = table
        for col in map(header.index, plotted):
            lines += [f"# {header[col]}", *(f"{row[0]} {row[col]}" for row in rows), ""]
    elif table is None:
        lines.append("key,value")
        lines += [f"{key},{json.dumps(result[key], sort_keys=True)}" for key in sorted(result)]
    else:
        lines += [",".join(table[0]), *(",".join(map(str, row)) for row in table[1])]
    return "\n".join(lines) + "\n"


def run(args) -> str:
    """Dispatch a parsed configuration and render the report text."""
    config = resolve_config(args)
    start = time.perf_counter()
    result, table = _HANDLERS[args.command](args)
    duration = time.perf_counter() - start
    if args.format != "json":
        return _render(args, config, result, table, duration)
    raw = _ENCODER.encode({"command": args.command, "config": config, "version": __version__,
                           "seed": args.seed, "duration_s": duration, "result": result})
    del result, table   # the report's objects go before its indented text is built
    return _indent(raw.encode()) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out and (os.path.isdir(args.out)
                         or not os.path.isdir(os.path.dirname(args.out) or ".")):
            raise CliError(f"--out must name a file in an existing directory, got {args.out!r}")
        text = run(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
    except BudgetError as exc:
        print(json.dumps({"error": str(exc), "kind": "resource",
                          "partial_progress": False}), file=sys.stderr)
        return 3
    except (CliError, ValueError, OSError) as exc:   # OSError: --out is not writable
        print(json.dumps({"error": str(exc), "kind": "validation"}), file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
