#!/usr/bin/env python3
"""Transform-norm brackets across coefficient spaces.

Prints, for each field/level/space combination, the exact Hilbert value
or the [search lower bound, interpolation upper bound] bracket, plus
the decay exponent alpha = -log(upper) the line-averaging checks use.
"""

import argparse
import math

from sp4lab.exactfield import parse_field
from sp4lab.fourier import SpaceSpec, transform_norm


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fields", nargs="*", default=["Q2", "Q3"])
    ap.add_argument("--h-values", nargs="*", type=int, default=[1, 2])
    ap.add_argument("--exponents", nargs="*", type=float, default=[1.0, 1.5, 2.0])
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--iters", type=int, default=1500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for field_name in args.fields:
        spec = parse_field(field_name)
        for h in args.h_values:
            for p in args.exponents:
                space = SpaceSpec(p, args.dim)
                res = transform_norm(spec, h, space, iters=args.iters,
                                     seed=args.seed)
                alpha = -math.log(res["upper"])
                print(f"{field_name:8} h={h} {str(space):8} "
                      f"[{res['lower']:.9f}, {res['upper']:.9f}] "
                      f"({res['kind']})  alpha={alpha:.6f}")


if __name__ == "__main__":
    main()
