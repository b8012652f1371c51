#!/usr/bin/env python3
"""Implied ledger constants over a grid of rates and start cells.

For each (alpha, h, beta) the summed per-move decay terms plus the
geometric diagonal tail are compared with the claimed closed form
exp(2C - rate * i); the table reports the supremum of the implied
constant over all planable starts with i + j below the grid bound,
which must stay finite and stabilize as the grid grows.
"""

import argparse
from fractions import Fraction

from sp4lab import zigzag as zz


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=300)
    ap.add_argument("--stride", type=int, default=11)
    ap.add_argument("--h-values", nargs="*", type=int, default=[1, 2])
    ap.add_argument("--alphas", nargs="*", default=["3/10", "7/10"])
    ap.add_argument("--beta-fractions", nargs="*", default=["0", "9/10"],
                    help="beta as a fraction of the admissible limit")
    args = ap.parse_args()
    regimes = (zz.Regime(zz.CHAR_NE2, v0=0), zz.Regime(zz.CHAR_2))
    for regime in regimes:
        rows = [(h, alpha_s, zz.beta_limit(regime, Fraction(alpha_s), h) * Fraction(frac_s))
                for h in args.h_values for alpha_s in args.alphas
                for frac_s in args.beta_fractions]
        results = zz.ledger_sweep(
            regime, [(Fraction(alpha_s), h, beta, 0) for h, alpha_s, beta in rows],
            max_length=args.grid, stride=args.stride)
        for (h, alpha_s, beta), res in zip(rows, results):
            print(f"{regime.kind:9} h={h} alpha={alpha_s:5} "
                  f"beta={str(beta):8} rate={res['rate']:8} "
                  f"sup C^ = {res['sup_constant']:.6f} "
                  f"at {res['worst_start']}")


if __name__ == "__main__":
    main()
