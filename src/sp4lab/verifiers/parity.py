"""Parity volumes for characteristic 2: wedge valuation of g k column pairs.

alpha(g) and beta(g) are the Haar volumes of k in K for which the
wedge of the first two columns of g k has even respectively odd
valuation.  At finite depth n only classes whose wedge valuation is
below n - 2i are decided (perturbing a depth-n class moves each minor
by at most q^(2i - n)); everything else is reported as undecided mass,
so the result is a pair of intervals rather than point values.

Each class is decided in the residue ring O/pi^n, without lifting it.
Let i be the Cartan cell of g, so i = -min v(g_rc) and g' = pi^i g is
integral.  A 2x2 minor of the first two columns of g' k is pi^(2i)
times the same minor of g k, so v(g' k) = v(g k) + 2i for the wedge
valuations, and v(g k) < n - 2i iff v(g' k) < n, with the same parity.
Since g' and k are integral, k mod pi^n fixes g' k mod pi^n and hence
each minor mod pi^n; a minor of valuation below n has that valuation
in O/pi^n, and one of valuation n or more is the zero class.  So the
least valuation v of the six minors of (g' mod pi^n)(k mod pi^n),
capped at n as ``PolyResidueRing.valuation`` caps it, decides the class
iff v < n, and its parity is then v mod 2.  Every lift of the class
gets the same answer, in particular the exact lift the oracle route
``_classify(g, lift_symplectic(...))`` assesses.

The classes are tallied once, as a ``Counter`` of their capped
valuations, and ``split_tally`` reads (even, odd, undecided) off it at
any depth up to the one the valuations were capped at: a class drawn at
depth n reduces to its class at each depth d <= n, decided iff v < d.
``parity_volumes``, ``parity_depth_profile`` and
``scripts/parity_depth_scan.py`` all split their tallies this way.
"""

from collections import Counter
from fractions import Fraction

import math
import random

from sp4lab.exactfield import EQUAL, residue_ring
from sp4lab.sp4 import PAIRS, cartan_invariants
from sp4lab.verifiers.reports import VerificationReport
from sp4lab.verifiers.sampling import (
    enumerate_symplectic_residue,
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
    """(decided?, parity) for one exactly lifted class: the oracle route."""
    val = wedge_valuation((g * k_elem).rows)
    if val is math.inf or val >= depth - 2 * i:
        return False, None
    return True, int(val) % 2


def residue_wedge(g, i, depth):
    """Classifier of Sp4(O/pi^depth) classes k by the wedge of g k.

    Returns a function of a class (a 4x4 tuple of residues) that gives
    the least valuation of the six minors of the first two columns of
    g' k in O/pi^depth, capped at depth, where g' = pi^i g and i is g's
    Cartan cell.  The class is decided iff that value is below depth,
    with its parity (see the module docstring).
    """
    ring = residue_ring(g.field, depth)
    mul, add, sub, valuation = ring.mul, ring.add, ring.sub, ring.valuation
    zero = ring.zero
    # nonzero entries (column, residue) of each row of g' mod pi^depth
    rows = tuple(tuple((c, r) for c, r in enumerate(e.shift(i).reduce(ring) for e in row)
                       if r != zero)
                 for row in g.rows)

    def wedge(reps):
        col0, col1 = [], []
        for row in rows:
            a = b = zero
            for c, x in row:
                a = add(a, mul(x, reps[c][0]))
                b = add(b, mul(x, reps[c][1]))
            col0.append(a)
            col1.append(b)
        best = depth
        for r1, r2 in PAIRS:
            v = valuation(sub(mul(col0[r1], col1[r2]), mul(col1[r1], col0[r2])))
            if v < best:
                if v == 0:
                    return 0
                best = v
        return best

    return wedge


def split_tally(tally, depth):
    """(even, odd, undecided) class counts at depth from a ``Counter`` of
    capped wedge valuations: a class is decided iff its value is below
    depth, with the parity of that value."""
    even = sum(n for v, n in tally.items() if v < depth and v % 2 == 0)
    odd = sum(n for v, n in tally.items() if v < depth and v % 2 == 1)
    return even, odd, sum(tally.values()) - even - odd


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
        if sample_n < 1:
            raise ValueError(f"sample size must be at least 1, got {sample_n}")
        n = sample_n
        rng = random.Random(seed)
        classes = (sample_symplectic_residue(spec, depth, rng) for _ in range(n))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    tally = Counter(map(residue_wedge(g, i, depth), classes))
    even, odd, undecided = split_tally(tally, depth)
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
    """Per-sample decidedness across depths 1..max_depth from one residue pass.

    Each class is drawn at max_depth and its capped wedge valuation v of
    pi^i g k is tallied once there.  A class at depth d <= max_depth is
    the reduction of the one drawn, and it is decided iff v < d
    (``split_tally``), so decided sets are nested by construction and the
    reported decided masses are monotone in the depth.
    """
    spec = g.field
    (i, _j), _, _ = cartan_invariants(g)
    rng = random.Random(seed)
    wedge = residue_wedge(g, i, max_depth)
    tally = Counter(wedge(sample_symplectic_residue(spec, max_depth, rng))
                    for _ in range(sample_n))
    return [sum(split_tally(tally, depth)[:2]) / sample_n
            for depth in range(1, max_depth + 1)]
