"""Finite-group check of the averaging inequality ||x|| <= 2nN max ||x - y_i||.

Given a finite group K covered by (K_1 ... K_n)^N and a unitary
representation without invariant vectors, the inequality holds for any
x and any K_i-invariant y_i.  The verifier enumerates the product sets
to certify coverage, certifies that the averaging projector vanishes,
and then stress-tests the inequality with y_i taken both as K_i-averages
of x and as adversarial K_i-invariant vectors.
"""

import math

import numpy as np

from sp4lab.verifiers.reports import VerificationReport

TABLE_TOL = 1e-12       # entry-wise defect allowed in a represented product
INEQUALITY_TOL = 1e-9   # lhs above rhs * (1 + INEQUALITY_TOL) is a violation
FIXED_SPACE_TOL = 1e-9  # least singular value that counts as nonzero


class FiniteGroupRep:
    """A finite group as a multiplication table plus unitary matrices."""

    def __init__(self, name, mult, matrices, subgroups):
        self.name = name
        self.mult = mult
        self.matrices = np.asarray(matrices, dtype=complex)
        self.subgroups = subgroups
        self.order = len(mult)
        self.dim = self.matrices.shape[1]

    def check_table(self):
        for a in range(self.order):
            for b in range(self.order):
                prod = self.matrices[a] @ self.matrices[b]
                if np.max(np.abs(prod - self.matrices[self.mult[a][b]])) > TABLE_TOL:
                    raise ValueError("representation does not respect the table")


def _perm_group(perms):
    index = {p: k for k, p in enumerate(perms)}
    mult = [[index[tuple(p[q[k]] for k in range(len(q)))] for q in perms]
            for p in perms]
    return index, mult


def symmetric_3_standard():
    """S3 with its 2-dimensional standard representation (orthonormal basis
    of the sum-zero plane)."""
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    index, mult = _perm_group(perms)
    basis = np.array([[1 / math.sqrt(2), -1 / math.sqrt(2), 0],
                      [1 / math.sqrt(6), 1 / math.sqrt(6), -2 / math.sqrt(6)]]).T
    mats = []
    for p in perms:
        perm_mat = np.zeros((3, 3))
        for k in range(3):
            perm_mat[p[k], k] = 1.0
        mats.append(basis.T @ perm_mat @ basis)
    subgroups = {
        "K1": [index[(0, 1, 2)], index[(1, 0, 2)]],                 # <(12)>
        "K2": [index[(0, 1, 2)], index[(1, 2, 0)], index[(2, 0, 1)]],  # <(123)>
    }
    return FiniteGroupRep("S3-standard", mult, mats, subgroups)


def dihedral_4_standard():
    """D4 (order 8) acting on the plane: (r, s) is rot^r ref^s, with rot the
    rotation by 90 degrees and ref a reflection, all exactly unitary.

    The table comes from the group law: ref rot ref = rot^-1 gives
    (r1, s1)(r2, s2) = (r1 + (-1)^s1 r2 mod 4, s1 xor s2).
    """
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    ref = np.array([[1.0, 0.0], [0.0, -1.0]])
    keys = [(r, s) for r in range(4) for s in range(2)]
    mats = [np.linalg.matrix_power(rot, r) @ (ref if s else np.eye(2)) for r, s in keys]
    index = {k: i for i, k in enumerate(keys)}
    mult = [[index[(r1 + (-1) ** s1 * r2) % 4, s1 ^ s2] for r2, s2 in keys]
            for r1, s1 in keys]
    subgroups = {
        "K1": [index[(0, 0)], index[(0, 1)]],      # reflection
        "K2": [index[(r, 0)] for r in range(4)],   # rotations
    }
    return FiniteGroupRep("D4-standard", mult, mats, subgroups)


def product_coverage(group, subgroup_names, repeats):
    """The set (K_1 K_2 ... K_n)^N computed by word enumeration."""
    blocks = [group.subgroups[name] for name in subgroup_names]
    current = {0}  # identity index is 0 by construction in both builders
    for _ in range(repeats):
        for block in blocks:
            current = {group.mult[g][h] for g in current for h in block}
    return current


def verify_averaging(group, subgroup_names=("K1", "K2"), repeats=2,
                     trials=1000, seed=0):
    """Check coverage, the no-invariant-vector hypothesis, and the
    averaging inequality on random and adversarial data."""
    report = VerificationReport(
        task=f"averaging:{group.name}:N{repeats}",
        params={"group": group.name, "subgroups": list(subgroup_names),
                "N": repeats, "trials": trials},
        seed=seed)
    group.check_table()
    covered = product_coverage(group, subgroup_names, repeats)
    if len(covered) != group.order:
        report.record_violation({"check": "coverage",
                                 "covered": len(covered), "order": group.order})
        return report.done()
    projector = group.matrices.mean(axis=0)
    proj_norm = float(np.linalg.norm(projector, 2))
    report.margins["invariant_projector_norm"] = proj_norm
    if proj_norm > 1e-12:
        report.record_violation({"check": "no-invariant-vectors",
                                 "projector_norm": proj_norm})
        return report.done()
    n = len(subgroup_names)
    bound = 2 * n * repeats
    averages = {
        name: group.matrices[group.subgroups[name]].mean(axis=0)
        for name in subgroup_names
    }
    rng = np.random.default_rng(seed)
    worst = 0.0
    d = group.dim
    for trial in range(trials):
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        ys = []
        for name in subgroup_names:
            if trial % 2 == 0:
                ys.append(averages[name] @ x)
            else:
                z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                ys.append(averages[name] @ z)
        lhs = float(np.linalg.norm(x))
        rhs = bound * max(float(np.linalg.norm(x - y)) for y in ys)
        worst = max(worst, lhs / rhs if rhs > 0 else math.inf)
        if lhs > rhs * (1 + INEQUALITY_TOL):
            report.record_violation({"check": "averaging-inequality",
                                     "trial": trial, "lhs": lhs, "rhs": rhs})
    # forcing all y_i = x would force x invariant under every K_i, hence
    # under the covered group, hence zero: the joint fixed space of the
    # K_i-averaging operators must be trivial
    if not invariance_forces_zero(group, subgroup_names):
        report.record_violation({"check": "zero-case"})
    report.cases_total = trials + 1
    report.cases_run = trials + 1
    report.margins["max_lhs_over_rhs"] = worst
    return report.done()


def invariance_forces_zero(group, subgroup_names=("K1", "K2")):
    """If x equals its K_i-average for every i, x must vanish: the joint
    fixed space of the K_i-averaging operators is trivial."""
    mats = [group.matrices[group.subgroups[name]].mean(axis=0)
            for name in subgroup_names]
    d = group.dim
    stack = np.vstack([m - np.eye(d) for m in mats])
    sv = np.linalg.svd(stack, compute_uv=False)
    return bool(sv[-1] > FIXED_SPACE_TOL)
