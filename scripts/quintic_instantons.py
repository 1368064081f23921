#!/usr/bin/env python3
"""Print the quintic mirror-map data: Yukawa coupling, instanton numbers, and
their p-integrality for a few primes.

Usage:
    python scripts/quintic_instantons.py [--degree D]
"""

import argparse
from fractions import Fraction

from dworklab.arith import val_p_fraction
from dworklab.cy import (
    canonical_coordinate,
    preset_operator,
    standard_solutions,
    yukawa_and_instantons,
)


def degree(text: str) -> int:
    """A --degree value: an int >= 0."""
    d = int(text)
    if d < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {d}")
    return d


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--degree", type=degree, default=10)
    args = ap.parse_args()

    T = args.degree + 2
    sols = standard_solutions(preset_operator("quintic"), T)
    q, mirror = canonical_coordinate(sols, T)
    Y, N = yukawa_and_instantons(sols, mirror, T)

    print("Yukawa coupling Y(q):")
    for d in range(min(5, T)):
        print(f"  [q^{d}] = {Fraction(Y[d])}")
    print("\ninstanton numbers (times 5):")
    for d in range(args.degree):
        nd = Fraction(N[d])
        print(f"  d={d + 1:>2}:  5*N_d = {5 * nd}")
    print("\np-integrality of N_d for p in (7, 11, 13):")
    for p in (7, 11, 13):
        ok = all(val_p_fraction(N[d], p) >= 0 for d in range(args.degree))
        print(f"  p={p}: {'integral' if ok else 'NOT integral'}")


if __name__ == "__main__":
    main()
