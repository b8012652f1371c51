"""Exhaustive and sampled verification of the move-lemma claims.

For every residue tuple the cell verifier rebuilds the witness matrices
from their reference factors, recomputes the product, and compares the
observed Cartan cell with the claimed one.  The non-spherical layers
additionally check that the compensator k1 lies in K, that the two
reference diagonal rescalings of k1 beta^-1 alpha lie in K, and that k1
is congruent mod pi^k to its symbolically reduced target on every
congruence-restricted tuple.

beta^-1, alpha and the merged matrix are torus multiples of lower-Borel
elements, symplectic for every tuple (``sp4.lower_from_params`` gives the
argument), and so are their products with k1 and with the diagonal
rescalings once k1 is.  The k1-in-K check is therefore the one symplectic
certificate per tuple; the product and the rescalings are checked only
against their stated matrices and for integrality.
"""

import itertools
import math
import random

from sp4lab import lemma_witnesses as lw
from sp4lab.exactfield import residue_ring
from sp4lab.sp4 import (
    cartan_invariants,
    is_symplectic,
    wedge_norm_exponent,
    norm_exponent,
)
from sp4lab.verifiers.reports import BudgetExceededError, VerificationReport

HARD_BUDGET = 10 ** 7


def tuple_space(lemma, spec, i, j, k_level):
    """(A, B, X, eps_codes) domains of a lemma instance, as index views."""
    depth = lw.check_preconditions(lemma, spec, i, j, k_level)
    ring = residue_ring(spec, depth)
    a_dom, b_dom, x_dom = map(ring.pi_multiples, lw.congruence_levels(lemma, k_level))
    return a_dom, b_dom, x_dom, range(spec.q)


def case_count(lemma, spec, i, j, k_level):
    """Size of the tuple space: the product of the lengths of the domains,
    which are index views, so none is built.  A domain too long for
    ``len`` (2^63 classes or more) cannot be indexed, and is over budget
    in either mode."""
    try:
        return math.prod(map(len, tuple_space(lemma, spec, i, j, k_level)))
    except OverflowError:
        raise BudgetExceededError(
            f"a residue domain of {lemma} at ({i},{j}) is too long to index") from None


def _tuples(domains, mode, sample_n, seed):
    """The (a, b, x, eps) tuples one sweep checks, in the order it checks them.

    mode "exhaustive" walks the product of the domains in
    ``itertools.product`` order; mode "sample" makes sample_n draws from
    random.Random(seed), each in a, b, x, eps order.
    """
    if mode == "exhaustive":
        yield from itertools.product(*domains)
    elif mode == "sample":
        rng = random.Random(seed)
        for _ in range(sample_n):
            yield tuple(dom[rng.randrange(len(dom))] for dom in domains)
    else:
        raise ValueError(f"unknown mode {mode!r}")


def _sweep(report, lemma, spec, i, j, tuples, check):
    """Run check(a, b, x, eps) on each tuple and record every failure dict
    it returns, tagged with the tuple's residues."""
    ring = residue_ring(spec, lw.lemma_depth(lemma, spec, i, j))
    for a, b, x, eps in tuples:
        for desc in check(a, b, x, eps):
            desc.update({"a": ring.to_str(a), "b": ring.to_str(b),
                         "x": ring.to_str(x), "eps": eps})
            report.record_violation(desc)
        report.cases_run += 1


def _cell_failures(lemma, spec, i, j, k_level, a, b, x, eps, target,
                   mutation, record_cells):
    """The failure of one tuple's cell / membership / congruence claims, if any."""
    try:
        wit = lw.build_witness(lemma, spec, i, j, k_level, a, b, x, eps,
                               mutation=mutation)
        prod = wit.product
        if not prod == wit.merged_reference:
            return [{"check": "factor-product"}]
        cell = cartan_invariants(prod)[0]
        if wit.expected_cell is None:
            record_cells.add((eps, cell))
        elif cell != wit.expected_cell:
            return [{"check": "cell", "observed": list(cell),
                     "expected": list(wit.expected_cell)}]
        if wit.k1 is not None:
            return _check_compensator(wit, k_level, target)
    except lw.LemmaPreconditionError as exc:
        return [{"check": "precondition", "detail": str(exc)}]
    return []


def _check_compensator(wit, k_level, target):
    """The failed compensator check of a non-spherical witness, if any."""
    k1 = wit.k1
    if not (k1.is_integral() and is_symplectic(wit.field, k1.rows)):
        return [{"check": "k1-in-K"}]
    g1 = k1 * wit.product
    if not g1 == wit.extras["g1_reference"]:
        return [{"check": "g1-reference"}]
    for code, scale, reference in wit.scaled_branches:
        if wit.eps_code == code:
            scaled = scale * g1
            if scaled.rows != reference:
                return [{"check": f"scaled-reference-eps{code}"}]
            if not scaled.is_integral():
                return [{"check": f"scaled-in-K-eps{code}"}]
    if k_level > 0 and target is not None:
        if k1.reduce(k_level) != target:
            return [{"check": "k1-congruence"}]
    return []


def verify_cell_lemma(lemma, spec, i, j, k_level=0, mode="exhaustive",
                      sample_n=1000, seed=0, mutation=None):
    """Verify the cell / membership / congruence claims of one lemma instance.

    mode "exhaustive" enumerates the whole residue-tuple space, and raises
    BudgetExceededError before building it when it holds more than
    HARD_BUDGET tuples; mode "sample" draws sample_n tuples from the
    seeded stream.
    """
    params = {"lemma": lemma, "field": str(spec), "i": i, "j": j,
              "k": k_level, "mode": mode}
    if mutation:
        params["mutation"] = mutation
    report = VerificationReport(task=f"cells:{lemma}:{spec}:{i},{j},k{k_level}",
                                params=params, seed=seed)
    report.cases_total = total = case_count(lemma, spec, i, j, k_level)
    target = None
    if k_level > 0:
        target = lw.congruence_target(lemma, spec, i, j, k_level, mutation)
    if mode == "exhaustive" and total > HARD_BUDGET:
        raise BudgetExceededError(
            f"{total} tuples exceed the enumeration budget; use sample mode")
    observed_cells = set()
    tuples = _tuples(tuple_space(lemma, spec, i, j, k_level), mode, sample_n, seed)
    _sweep(report, lemma, spec, i, j, tuples,
           lambda a, b, x, eps: _cell_failures(lemma, spec, i, j, k_level, a, b, x,
                                               eps, target, mutation, observed_cells))
    if observed_cells:
        report.margins["unpinned_eps_cells"] = sorted(
            f"eps={e}->({c[0]},{c[1]})" for e, c in observed_cells)
    return report.done()


def _identity_failures(lemma, spec, i, j, k_level, a, b, x, eps, mutation):
    """The failed displayed identities of one tuple, or the build failure."""
    try:
        return [{"check": name} for name in
                _identity_checks(lemma, spec, i, j, k_level, a, b, x, eps, mutation)]
    except lw.LemmaPreconditionError as exc:
        return [{"check": "build", "detail": str(exc)}]


def _identity_checks(lemma, spec, i, j, k_level, a, b, x, eps, mutation):
    ring = residue_ring(spec, lw.lemma_depth(lemma, spec, i, j))
    wit = lw.build_witness(lemma, spec, i, j, k_level, a, b, x, eps,
                           mutation=mutation)
    prod = wit.product
    failures = []
    if not prod == wit.merged_reference:
        failures.append("factor-product")
    beta = wit.beta_inv.inverse()
    if lemma == lw.SPHER01:
        if not lw.minor_rows34_cols12(prod, mutation=mutation) == lw.spher01_minor_value(wit):
            failures.append("minor-formula")
        if norm_exponent(prod.rows) != wit.i:
            failures.append("product-norm")
        if wedge_norm_exponent(beta.rows) != wit.i + wit.j:
            failures.append("beta-wedge-norm")
        if wedge_norm_exponent(wit.alpha_mat.rows) != 2 * wit.m - 2 * wit.j:
            failures.append("alpha-wedge-norm")
        # free-y sweep: the wedge norm must follow the capped-valuation formula
        for y in ring.elements():
            fw = lw.build_witness(lemma, spec, i, j, 0, a, b, x, 0,
                                  mutation=mutation, y_override=y)
            if wedge_norm_exponent(fw.product.rows) != lw.spher01_wedge_formula(fw):
                failures.append(f"wedge-max-formula(y={ring.to_str(y)})")
                break
    elif lemma == lw.SPHER1M1:
        if wedge_norm_exponent(beta.rows) != wit.i:
            failures.append("beta-wedge-norm")
        if wedge_norm_exponent(wit.alpha_mat.rows) != wit.j:
            failures.append("alpha-wedge-norm")
        if wedge_norm_exponent(prod.rows) != wit.i + wit.j:
            failures.append("product-wedge-norm")
        for y in ring.elements():
            fw = lw.build_witness(lemma, spec, i, j, 0, a, b, x, 0,
                                  mutation=mutation, y_override=y)
            if norm_exponent(fw.product.rows) != lw.spher1m1_norm_formula(fw):
                failures.append(f"norm-max-formula(y={ring.to_str(y)})")
                break
    elif lemma in (lw.NONSPHER01, lw.NONSPHER1M1):
        ring1 = residue_ring(spec, 1)
        red = wit.eps1.reduce(ring1)
        if lemma == lw.NONSPHER01:
            eps0 = lw.designated_eps_code(lw.NONSPHER01, spec)
            want = ring1.mul(ring1.inv(ring1.embed_residue_code(eps0)),
                             ring1.embed_residue_code(eps))
        else:
            want = ring1.embed_residue_code(eps)
        if red != want:
            failures.append("eps1-reduction")
        g1 = wit.k1 * prod
        if not g1 == wit.extras["g1_reference"]:
            failures.append("g1-reference")
    elif lemma == lw.CHAR2_02:
        ring1 = residue_ring(spec, 1)
        if wit.eps1.reduce(ring1) != ring1.embed_residue_code(eps):
            failures.append("eps1-reduction")
        if not wit.k1 * prod == wit.extras["g1_reference"]:
            failures.append("g1-reference")
        if wedge_norm_exponent(beta.rows) != wit.i + wit.j:
            failures.append("beta-wedge-norm")
        if wedge_norm_exponent(wit.alpha_mat.rows) != 2 * wit.m - 2 * wit.j:
            failures.append("alpha-wedge-norm")
        if eps == 1:
            a1_den = wit.extras["a1_den"]
            unit_sq = wit.eps1 * wit.eps1 / (a1_den * a1_den) + spec.one()
            if not unit_sq.valuation() >= 2:
                failures.append("squared-unit-bound")
    return failures


def verify_witness_identities(lemma, spec, i, j, sample_n=1000, seed=0,
                              mutation=None):
    """Exact checks of the displayed identities inside one lemma's proof."""
    params = {"lemma": lemma, "field": str(spec), "i": i, "j": j,
              "n": sample_n}
    if mutation:
        params["mutation"] = mutation
    report = VerificationReport(task=f"identities:{lemma}:{spec}:{i},{j}",
                                params=params, seed=seed)
    k_level = 0 if lemma in (lw.SPHER01, lw.SPHER1M1, lw.CHAR2_02) else 1
    report.cases_total = case_count(lemma, spec, i, j, k_level)
    tuples = _tuples(tuple_space(lemma, spec, i, j, k_level), "sample", sample_n, seed)
    _sweep(report, lemma, spec, i, j, tuples,
           lambda a, b, x, eps: _identity_failures(lemma, spec, i, j, k_level,
                                                   a, b, x, eps, mutation))
    return report.done()
