#!/usr/bin/env python3
"""Tabulate the weighted progression-discrepancy sum against x/(log x)^A for
a factored polynomial modulus over a grid of x, at fixed Q.

The interesting question at desk scale is how fast the ratio decays as x
grows past the admissible level Q^(1/level_exponent).

Usage: python scripts/bv_level_experiment.py [--factors "x1^2+x2^2"]
       [--Q 2] [--A 2.0] [--x-max 20000]
"""

import argparse

from polysieve.bv import check_setting, discrepancy_sum
from polysieve.mvpoly import FactoredPoly, parse_poly


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--factors", nargs="+", default=["x1^2+x2^2"])
    ap.add_argument("--Q", type=int, default=2)
    ap.add_argument("--A", type=float, default=2.0)
    ap.add_argument("--x-max", type=float, default=20000)
    args = ap.parse_args()

    F = FactoredPoly([parse_poly(t) for t in args.factors])

    setting = check_setting(F)
    level = setting.product_profile.level_exponent
    print(f"P = {' * '.join(f'({f.to_text()})' for f in F.factors)}")
    print(f"level exponent = {level} (so x ~ Q^{1 / level} admits Q = {args.Q})")
    print(f"variable conditions ok: {setting.all_variable_conditions_ok}, "
          f"divisor monotonicity: {setting.all_divisors_monotone}")

    x = 100.0
    print(f"{'x':>10} {'sum':>12} {'x/(log x)^A':>14} {'ratio':>10} "
          f"{'nonzero q':>10} {'excluded':>9}")
    while x <= args.x_max:
        rep = discrepancy_sum(F, args.Q, x, A=args.A)
        ratio = rep.value / rep.comparator
        print(f"{x:>10.0f} {rep.value:>12.4f} {rep.comparator:>14.4f} "
              f"{ratio:>10.4f} {rep.nonzero_weight_tuples:>10} "
              f"{rep.excluded_small:>9}")
        x *= 2


if __name__ == "__main__":
    main()
