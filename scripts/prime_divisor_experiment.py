#!/usr/bin/env python3
"""Count primes p <= X whose p-1 has a prime divisor of norm-form shape of
size at least p^theta, for a grid of thresholds theta.

Usage: python scripts/prime_divisor_experiment.py [--f "t^2+1"] [--X 100000]
"""

import argparse
from fractions import Fraction

from polysieve.normform import NumberFieldSpec, prime_divisor_search


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--f", default="t^2+1")
    ap.add_argument("--truncation", type=int, default=0)
    ap.add_argument("--X", type=int, default=100_000)
    args = ap.parse_args()

    spec = NumberFieldSpec.from_text(args.f, truncation=args.truncation)
    print(f"f = {args.f}, degree {spec.degree}, "
          f"{spec.num_form_vars} norm-form variables, X = {args.X}")
    print(f"{'theta':>8} {'count':>8} {'density':>9} {'example witnesses':>40}")
    for theta in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5),
                  Fraction(1, 2), Fraction(3, 5)):
        rep = prime_divisor_search(spec, args.X, theta)
        sample = ", ".join(
            f"{p}:{ds[-1]}" for p, ds in zip(rep.primes[-3:], rep.divisors[-3:]))
        print(f"{str(theta):>8} {rep.count:>8} {rep.density:>9.4f} {sample:>40}")


if __name__ == "__main__":
    main()
