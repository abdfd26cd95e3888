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

import numpy as np

from . import __version__
from .arith import euler_phi
from .boxes import count_bad_moduli, max_representation_count
from .bv import (check_setting, default_eps_bad, discrepancy_sum,
                 exponent_profile, mean_value_sum)
from .congruence import CongruenceInstance, congruence_count_bound
from .errors import BudgetError
from .farey import build_farey, close_points_comparator, max_close_points, min_spacing
from .largesieve import SEQUENCE_FAMILIES, delta_bounds, empirical_delta
from .mvpoly import FactoredPoly, parse_poly
from .normform import NumberFieldSpec, norm_form, prime_divisor_search, prime_value_sieve


class CliError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run configuration, echoed verbatim into every report."""
    command: str
    seed: int
    format: str
    workers: int
    params: dict

    def as_flat_dict(self) -> dict:
        out = {"command": self.command, "seed": self.seed,
               "format": self.format, "workers": self.workers}
        out.update(self.params)
        return dict(sorted(out.items()))


def resolve_config(args) -> ExperimentConfig:
    params = {k: _jsonify(v) for k, v in vars(args).items()
              if k not in ("command", "seed", "format", "workers", "out")}
    return ExperimentConfig(command=args.command, seed=args.seed,
                            format=args.format, workers=args.workers,
                            params=params)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"not a rational number: {text!r}") from exc


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
        raise CliError(f"not an integer grid: {text!r}") from exc
    if not grid:
        raise CliError(f"empty grid: {text!r}")
    return grid


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonify(v) for v in items]
    return obj


def build_parser() -> _Parser:
    parser = _Parser(prog="polysieve", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, poly=False, factors=False, field=False):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv", "gnuplot"), default="json")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--workers", type=_positive_int, default=os.cpu_count() or 1)
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
    common(p, poly=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--N", type=_int_grid, required=True, help="grid, e.g. 16,64,256")
    p.add_argument("--min-modulus", type=float, default=None)

    p = sub.add_parser("sieve-scan", help="empirical sieve constant vs comparators over an N grid")
    common(p, poly=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--N", type=_int_grid, required=True)
    p.add_argument("--M", type=int, default=0)
    p.add_argument("--sequence", choices=sorted(SEQUENCE_FAMILIES), default="pm1")
    p.add_argument("--min-modulus", type=float, default=None)

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
# Each returns (result_dict, table, gnuplot_blocks); table is (header, rows)
# or None, gnuplot_blocks is a list of (title, [(x, y), ...]) or None.


def _parse_factors(texts) -> FactoredPoly:
    return FactoredPoly([parse_poly(t) for t in texts])


def _run_congruence_count(args):
    P = parse_poly(args.P)
    corners = tuple(int(c) for c in args.K.split(",")) if args.K else (0,) * P.num_vars
    inst = CongruenceInstance(P=P, a=args.a, m=args.m, K=corners,
                              H=args.H, L=args.L, R=args.R)
    rep = congruence_count_bound(inst)
    result = {"count": rep.count, "bound": rep.bound, "ratio": rep.ratio,
              "r": rep.r, "k": rep.k, "ell": rep.ell}
    return result, None, None


def _run_farey_stats(args):
    P = parse_poly(args.P)
    system = build_farey(P, args.Q, min_modulus=args.min_modulus, workers=args.workers)
    k = P.total_degree()
    ell = P.num_vars
    spacing = min_spacing(system) if system.distinct_count >= 2 else None
    rows = []
    for N in args.N:
        count = max_close_points(system, N)
        comp = close_points_comparator(k, ell, args.Q, N)
        rows.append({"N": N, "close_count": count, "comparator": comp,
                     "ratio": count / comp})
    result = {"distinct_count": system.distinct_count,
              "total_count": system.total_count,
              "skipped_unit_moduli": system.skipped_unit_moduli,
              "skipped_filtered": system.skipped_filtered,
              "min_spacing": spacing, "per_N": rows}
    table = (["N", "close_count", "comparator", "ratio"],
             [[r["N"], r["close_count"], r["comparator"], r["ratio"]] for r in rows])
    blocks = [("close_count", [(r["N"], r["close_count"]) for r in rows]),
              ("comparator", [(r["N"], r["comparator"]) for r in rows])]
    return result, table, blocks


def _split_seed(seed: int, counter: int) -> int:
    """Derive a per-task seed from the user seed; stable across grids."""
    return (seed * 0x9E3779B97F4A7C15 + counter * 0xBF58476D1CE4E5B9) % 2 ** 63


def _run_sieve_scan(args):
    P = parse_poly(args.P)
    k = P.total_degree()
    ell = P.num_vars
    r_star = max_representation_count(P, args.Q, workers=args.workers)
    family = SEQUENCE_FAMILIES[args.sequence]
    rows = []
    for N in args.N:
        seq = family(N, _split_seed(args.seed, N), args.M)
        emp = empirical_delta(seq, P, args.Q, min_modulus=args.min_modulus,
                              workers=args.workers)
        rows.append(delta_bounds(k, ell, args.Q, N, r_star, empirical=emp))
    result = {"k": k, "ell": ell, "Q": args.Q, "r_star": r_star,
              "sequence": args.sequence, "rows": rows}
    header = ["N", "empirical", "trivial_bound", "zhao_conjecture", "old_bound",
              "new_bound", "new_bound_applicable"]
    table = (header, [[r.N, r.empirical, r.trivial_bound, r.zhao_conjecture,
                       r.old_bound, r.new_bound, int(r.new_bound_applicable)]
                      for r in rows])
    blocks = [("empirical", [(r.N, r.empirical) for r in rows]),
              ("trivial_bound", [(r.N, r.trivial_bound) for r in rows]),
              ("new_bound", [(r.N, r.new_bound) for r in rows])]
    return result, table, blocks


def _run_exponents(args):
    prof = exponent_profile(args.k, args.ell)
    result = {"k": prof.k, "ell": prof.ell, "r": prof.r, "rho": prof.rho,
              "level_exponent": prof.level_exponent,
              "k_times_level_exponent": prof.k * prof.level_exponent,
              "variable_condition_rhs": prof.variable_condition_rhs,
              "conjectural_level_exponent": prof.conjectural_level_exponent,
              "maynard_rhs": prof.maynard_rhs}
    return result, None, None


def _run_check_setting(args):
    report = check_setting(_parse_factors(args.P))
    return _jsonify(report), None, None


def _run_bv_sum(args):
    F = _parse_factors(args.P)
    rep = discrepancy_sum(F, args.Q, args.x, eps_bad=args.eps_bad, A=args.A,
                          workers=args.workers)
    return _jsonify(rep), None, None


def _run_meanvalue_sum(args):
    rep = mean_value_sum(parse_poly(args.P), args.Q, args.x, workers=args.workers)
    result = dict(dataclasses.asdict(rep), Q=args.Q, x=args.x)
    return result, None, None


def _run_norm_form(args):
    spec = NumberFieldSpec.from_text(args.f, truncation=args.truncation)
    form = norm_form(spec)
    result = {"polynomial": form.to_text(var_prefix="q"),
              "json": form.to_json_dict(), "degree": spec.degree,
              "num_vars": spec.num_form_vars}
    return result, None, None


def _run_prime_value_sieve(args):
    spec = NumberFieldSpec.from_text(args.f, truncation=args.truncation)
    rep = prime_value_sieve(spec, args.Q)
    result = {"count": rep.count, "distinct": rep.distinct,
              "max_multiplicity": rep.max_multiplicity,
              "density_ratio": rep.density_ratio,
              "maynard_condition_ok": rep.maynard_condition_ok,
              "values": {str(v): [list(q) for q in qs] for v, qs in sorted(rep.values.items())}}
    return result, None, None


def _run_corollary_search(args):
    spec = NumberFieldSpec.from_text(args.f, truncation=args.truncation)
    rep = prime_divisor_search(spec, args.X, args.theta)
    result = {"count": rep.count, "prime_count": rep.prime_count,
              "density": rep.density, "q_range": rep.q_range,
              "theta": rep.theta, "X": rep.X,
              "witnesses": [{"p": w.p, "divisors": list(w.divisors),
                             "representations": {str(d): list(q) for d, q in
                                                 sorted(w.representations.items())}}
                            for w in rep.witnesses]}
    return result, None, None


def _run_bad_moduli(args):
    P = parse_poly(args.P)
    rep = count_bad_moduli(P, args.Q, args.eps_bad, workers=args.workers)
    result = {"count": rep.count, "box_size": rep.box_size, "eps": rep.eps,
              "comparator": rep.comparator, "ratio": rep.ratio}
    return result, None, None


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

_GNUPLOT_COMMANDS = {"farey-stats", "sieve-scan"}


def _render(args, config, result, table, blocks, duration) -> str:
    if args.format == "json":
        report = {"command": args.command, "config": config,
                  "version": __version__, "seed": args.seed,
                  "duration_s": duration, "result": _jsonify(result)}
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    header_line = "# polysieve {} {} config={}".format(
        __version__, args.command, json.dumps(config, sort_keys=True))
    if args.format == "csv":
        lines = [header_line]
        if table is None:
            lines.append("key,value")
            flat = _jsonify(result)
            for key in sorted(flat):
                lines.append(f"{key},{json.dumps(flat[key], sort_keys=True)}")
        else:
            header, rows = table
            lines.append(",".join(header))
            for row in rows:
                lines.append(",".join(str(_jsonify(c)) for c in row))
        return "\n".join(lines) + "\n"
    # gnuplot: two-column blocks separated by blank lines
    if blocks is None:
        raise CliError(f"format gnuplot is not supported for {args.command}")
    lines = [header_line]
    for title, points in blocks:
        lines.append(f"# {title}")
        for x, y in points:
            lines.append(f"{x} {y}")
        lines.append("")
    return "\n".join(lines) + "\n"


def run(args) -> str:
    """Dispatch a parsed configuration and render the report text."""
    config = resolve_config(args)
    start = time.perf_counter()
    result, table, blocks = _HANDLERS[args.command](args)
    duration = time.perf_counter() - start
    return _render(args, config.as_flat_dict(), result, table, blocks, duration)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text = run(args)
    except BudgetError as exc:
        print(json.dumps({"error": str(exc), "kind": "resource",
                          "partial_progress": False}), file=sys.stderr)
        return 3
    except (CliError, ValueError) as exc:
        print(json.dumps({"error": str(exc), "kind": "validation"}), file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
