#!/usr/bin/env python3
"""Sweep N for a fixed polynomial and dyadic box and tabulate the measured
sieve constant against all comparator bounds.

Usage: python scripts/sieve_scan_experiment.py [--P "x1^2+x2^2"] [--Q 3]
       [--seed 0] [--out-dir out]

Writes <out-dir>/sieve_scan.csv and <out-dir>/sieve_scan.gp (gnuplot blocks).
"""

import argparse
import dataclasses
import os

from polysieve.boxes import box_moduli
from polysieve.largesieve import (SEQUENCE_FAMILIES, delta_bounds, empirical_delta,
                                  sequence_autocorrelation)
from polysieve.mvpoly import parse_poly


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--P", default="x1^2+x2^2")
    ap.add_argument("--Q", type=int, default=3)
    ap.add_argument("--sequence", default="pm1", choices=sorted(SEQUENCE_FAMILIES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    P = parse_poly(args.P)
    k, ell = P.total_degree(), P.num_vars
    moduli, _, _, r_star = box_moduli(P, args.Q)
    lo, hi = args.Q ** k, args.Q ** (2 * k)
    grid = sorted({int(lo * (hi / lo) ** (i / 11)) for i in range(12)})

    emps = empirical_delta(moduli, 0, grid,
                           lambda N: sequence_autocorrelation(args.sequence, N, args.seed))
    rows = [dataclasses.replace(delta_bounds(k, ell, args.Q, N, r_star), empirical=emp)
            for N, emp in zip(grid, emps)]

    print(f"P = {P.to_text()},  Q = {args.Q},  k = {k}, ell = {ell}, "
          f"r* = {r_star},  sequence = {args.sequence}")
    print(f"{'N':>8} {'empirical':>12} {'trivial':>12} {'conjecture':>12} "
          f"{'old':>12} {'new':>12}")
    for r in rows:
        print(f"{r.N:>8} {r.empirical:>12.4g} {r.trivial_bound:>12.4g} "
              f"{r.zhao_conjecture:>12.4g} {r.old_bound:>12.4g} {r.new_bound:>12.4g}")

    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "sieve_scan.csv")
    with open(csv_path, "w") as fh:
        fh.write("N,empirical,trivial_bound,zhao_conjecture,old_bound,new_bound\n")
        for r in rows:
            fh.write(f"{r.N},{r.empirical},{r.trivial_bound},"
                     f"{r.zhao_conjecture},{r.old_bound},{r.new_bound}\n")
    gp_path = os.path.join(args.out_dir, "sieve_scan.gp")
    with open(gp_path, "w") as fh:
        for title, attr in (("empirical", "empirical"), ("trivial", "trivial_bound"),
                            ("new", "new_bound")):
            fh.write(f"# {title}\n")
            for r in rows:
                fh.write(f"{r.N} {getattr(r, attr)}\n")
            fh.write("\n")
    print(f"wrote {csv_path} and {gp_path}")


if __name__ == "__main__":
    main()
