"""Parity volumes for characteristic 2: wedge valuation of g k column pairs.

alpha(g) and beta(g) are the Haar volumes of k in K for which the
wedge of the first two columns of g k has even respectively odd
valuation.  At finite depth n only classes whose wedge valuation is
below n - 2i are decided (perturbing a depth-n class moves each minor
by at most q^(2i - n)); everything else is reported as undecided mass,
so the result is a pair of intervals rather than point values.
"""

from fractions import Fraction

import math
import random

from sp4lab.exactfield import EQUAL
from sp4lab.sp4 import cartan_invariants
from sp4lab.verifiers.reports import VerificationReport
from sp4lab.verifiers.sampling import (
    enumerate_symplectic_residue,
    lift_symplectic,
    sample_symplectic_residue,
    symplectic_group_order,
)

EXHAUSTIVE_LIMIT = 100_000


def wedge_valuation(rows):
    """Valuation of the wedge of the first two columns (min over row pairs)."""
    best = None
    for r1 in range(4):
        for r2 in range(r1 + 1, 4):
            m = rows[r1][0] * rows[r2][1] - rows[r1][1] * rows[r2][0]
            v = m.valuation()
            if best is None or v < best:
                best = v
    return best


def _classify(g, k_elem, depth, i):
    """(decided?, parity) for one exactly lifted class."""
    val = wedge_valuation((g * k_elem).rows)
    if val is math.inf or val >= depth - 2 * i:
        return False, None
    return True, int(val) % 2


def parity_volumes(g, depth, mode="exhaustive", sample_n=10000, seed=0):
    """Interval estimates for (alpha(g), beta(g)) at finite depth.

    Exhaustive mode enumerates Sp4(O/pi^depth) (small cases only) and
    returns exact Fractions; sample mode draws Haar-uniform classes and
    returns point estimates with a binomial confidence radius.
    """
    spec = g.field
    if not (spec.kind == EQUAL and spec.p == 2):
        raise ValueError("parity volumes are a characteristic-2 quantity")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    (i, _j), _, _ = cartan_invariants(g)
    report = VerificationReport(
        task=f"parity:{spec}:depth{depth}:{mode}",
        params={"field": str(spec), "depth": depth, "mode": mode,
                "cell_i": i},
        seed=seed)
    if mode == "exhaustive":
        n = symplectic_group_order(spec.q, depth)
        if n > EXHAUSTIVE_LIMIT:
            raise ValueError(f"{n} classes exceed the exhaustive limit; sample instead")
        classes = enumerate_symplectic_residue(spec, depth)
    elif mode == "sample":
        n = sample_n
        rng = random.Random(seed)
        classes = (sample_symplectic_residue(spec, depth, rng) for _ in range(n))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    even = odd = undecided = 0
    for reps in classes:
        decided, parity = _classify(g, lift_symplectic(spec, depth, reps), depth, i)
        if not decided:
            undecided += 1
        elif parity == 0:
            even += 1
        else:
            odd += 1
    if mode == "exhaustive":
        alpha = (Fraction(even, n), Fraction(n - odd, n))
        beta = (Fraction(odd, n), Fraction(n - even, n))
        report.margins["alpha_interval"] = [str(alpha[0]), str(alpha[1])]
        report.margins["beta_interval"] = [str(beta[0]), str(beta[1])]
    else:
        radius = 1.96 * math.sqrt(0.25 / n)
        alpha = (even / n, 1 - odd / n)
        beta = (odd / n, 1 - even / n)
        report.margins["alpha_interval"] = list(alpha)
        report.margins["beta_interval"] = list(beta)
        report.margins["confidence_radius"] = radius
    report.cases_total = n
    report.cases_run = n
    report.margins["decided_even"] = even
    report.margins["decided_odd"] = odd
    report.margins["undecided"] = undecided
    # every class walked is counted once: in exhaustive mode this checks
    # the enumeration against the group-order formula
    if even + odd + undecided != n:
        report.record_violation({"check": "mass-conservation"})
    return report.done()


def parity_depth_profile(g, max_depth, sample_n=2000, seed=0):
    """Per-sample decidedness across depths 1..max_depth with shared lifts.

    Each class is drawn at max_depth and the same exact lift is assessed
    at every shallower depth, so decided sets are nested by construction
    and the reported decided masses are monotone in the depth.
    """
    spec = g.field
    (i, _j), _, _ = cartan_invariants(g)
    rng = random.Random(seed)
    decided_counts = [0] * (max_depth + 1)
    for _ in range(sample_n):
        reps = sample_symplectic_residue(spec, max_depth, rng)
        k_elem = lift_symplectic(spec, max_depth, reps)
        val = wedge_valuation((g * k_elem).rows)
        for depth in range(1, max_depth + 1):
            if val is not math.inf and val < depth - 2 * i:
                decided_counts[depth] += 1
    return [c / sample_n for c in decided_counts[1:]]
