#!/usr/bin/env python3
"""Tabulate the primitive-character mean value sum over a doubling grid of x,
at fixed Q, for each P given, with the seconds of each x.

All of the grids run in one process, in ascending order, so each x reads the
box that boxes.box_values keeps and the unit groups of the last one, and
resumes the character kernel from its prefix sums: a row's seconds are the
cost of its new stream terms, not of the box or of all the terms.
A later P's grid meets the moduli it shares with an earlier one at the same
x, and reads their totals from the totals memo without running the kernel.

Usage: python scripts/meanvalue_sweep_experiment.py [--P "x1^2+x2^2" ...]
       [--Q 4] [--x-min 500] [--x-max 64000]
"""

import argparse
from time import perf_counter

from polysieve.bv import mean_value_sum
from polysieve.mvpoly import parse_poly


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--P", action="append", help="repeatable; default x1^2+x2^2")
    ap.add_argument("--Q", type=int, default=4)
    ap.add_argument("--x-min", type=float, default=500)
    ap.add_argument("--x-max", type=float, default=64000)
    args = ap.parse_args()

    for text in args.P or ["x1^2+x2^2"]:
        P = parse_poly(text)
        print(f"P = {P.to_text()}, Q = {args.Q}")
        print(f"{'x':>10} {'sum':>20} {'moduli':>7} {'seconds':>9}")
        x = args.x_min
        while x <= args.x_max:
            start = perf_counter()
            rep = mean_value_sum(P, args.Q, x)
            print(f"{x:>10.0f} {rep.value:>20.6f} {len(rep.moduli):>7} "
                  f"{perf_counter() - start:>9.4f}")
            x *= 2


if __name__ == "__main__":
    main()
