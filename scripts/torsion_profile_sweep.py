#!/usr/bin/env python3
"""Sweep the good primes q of a curve and print the p-division-polynomial
factor degree profile over F_(q^f) with f = ord_p(q), plus the tower-torsion
verdict.  Useful for spotting candidate P2 primes of other curve pairs."""
import argparse

from dualselmer.classify import residue_degree
from dualselmer.curve import Good, reduction_type
from dualselmer.integers import is_prime
from dualselmer.registry import load_registry
from dualselmer.torsion import has_p_power_point_degree, torsion_point_degrees


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="21a4")
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--qmax", type=int, default=50)
    args = parser.parse_args()

    curve = load_registry()[args.label]
    print(f"curve {args.label} {list(curve.a_invariants)}, p = {args.p}")
    print(f"{'q':>4} {'f':>3} {'x-factor degrees':<24} {'point degrees':<24} tower")
    for q in range(2, args.qmax + 1):
        if not is_prime(q) or q == args.p:
            continue
        if not isinstance(reduction_type(curve, q), Good):
            continue
        f = residue_degree(q, args.p)
        prof = torsion_point_degrees(curve, args.p, q, f)
        tower = has_p_power_point_degree(prof)
        print(
            f"{q:>4} {f:>3} {str(list(prof.x_factor_degrees)):<24} "
            f"{str(list(prof.point_degrees)):<24} {tower}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
