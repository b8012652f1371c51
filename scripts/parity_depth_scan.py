#!/usr/bin/env python3
"""Decided-mass refinement table for the characteristic-2 parity volumes.

For a family of diagonal elements over F2((t)), samples Haar-uniform
classes at the deepest level and reports, per depth, how much mass is
decided even/odd and how wide the resulting alpha/beta intervals are.
Each class is classified once, at the deepest level, in the residue
ring by the same classifier ``parity_depth_profile`` uses, and the
tally of capped wedge valuations is split at each depth by the same
``split_tally``: a class is decided at every depth above its value.
Refinement must never undecide a class, so the decided column is
monotone down each row block.
"""

import argparse
import random
from collections import Counter

from sp4lab.exactfield import parse_field
from sp4lab.sp4 import cartan_invariants, d_matrix
from sp4lab.verifiers.parity import residue_wedge, split_tally
from sp4lab.verifiers.sampling import sample_symplectic_residue


def scan(field_name, cells, max_depth, samples, seed):
    spec = parse_field(field_name)
    rng = random.Random(seed)
    for (i, j) in cells:
        g = d_matrix(spec, i, j)
        (ci, cj), _, _ = cartan_invariants(g)
        wedge = residue_wedge(g, ci, max_depth)
        tally = Counter(wedge(sample_symplectic_residue(spec, max_depth, rng))
                        for _ in range(samples))
        print(f"g = D({i},{j})  cell ({ci},{cj})")
        for depth in range(1, max_depth + 1):
            even, odd, und = split_tally(tally, depth)
            print(f"  depth {depth}: decided {(even + odd) / samples:6.3f}"
                  f"  alpha in [{even / samples:.3f}, {1 - odd / samples:.3f}]"
                  f"  beta in [{odd / samples:.3f}, {1 - even / samples:.3f}]"
                  f"  undecided {und / samples:.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", default="F2((t))")
    ap.add_argument("--max-depth", type=int, default=6)
    ap.add_argument("--samples", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    cells = [(0, 0), (1, 0), (1, 1), (2, 1)]
    scan(args.field, cells, args.max_depth, args.samples, args.seed)


if __name__ == "__main__":
    main()
