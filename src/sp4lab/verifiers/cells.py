"""Exhaustive and sampled verification of the move-lemma claims.

For every residue tuple the cell verifier rebuilds the witness from its
reference factors, checks that beta^-1 alpha equals the stated merged
matrix, and compares the observed Cartan cell with the claimed one.  The
non-spherical layers additionally check that the compensator k1 lies in
K, that k1 beta^-1 alpha equals the stated g1_reference, that its
diagonal rescaling D * g1_reference at the tuple's eps code lies in K,
and that k1 is congruent mod pi^k to its symbolically reduced target on
every congruence-restricted tuple.  A rescaling is stated only by the
torus exponents of D, so integrality is its one per-tuple claim, read
off the valuations of g1_reference's entries.

beta^-1 alpha = merged is checked by the product law of the lower
unipotent group (``LemmaWitness.merges``).  The check is exact: the
three matrices share their invertible D factors and B is injective.
Where the law holds, beta^-1 alpha is the merged matrix, and the
verifiers read it; where the law fails they report factor-product and
read the multiplied-out ``LemmaWitness.product``, so each counterexample
is the one the 4x4 product gives.

beta^-1, alpha and the merged matrix are torus multiples of lower-Borel
elements, symplectic for every tuple (``sp4.lower_from_params`` gives the
argument), and so are their products with k1 and with the diagonal
rescalings once k1 is.  The k1-in-K check is therefore the one symplectic
certificate per tuple; the product is checked only against its stated
matrix, and the rescalings only for integrality.

The identity sweep checks the displayed identities inside each lemma's
proof, and names no lemma: each witness states its own identities
(``lemma_witnesses.LemmaWitness``), and the sweep walks those stated in
one fixed order (factor-product, minor-formula, product-norm,
eps1-reduction, g1-reference, the beta^-1, alpha and product wedge norms,
squared-unit-bound, the free-y probe) at the least congruence level the
lemma is stated at (``lemma_witnesses.LEAST_LEVEL``).
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
    ``itertools.product`` order; mode "sample" makes sample_n >= 1 draws
    from random.Random(seed), each in a, b, x, eps order.
    """
    if mode == "exhaustive":
        return itertools.product(*domains)
    if mode != "sample":
        raise ValueError(f"unknown mode {mode!r}")
    if sample_n < 1:
        raise ValueError(f"sample size must be at least 1, got {sample_n}")
    rng = random.Random(seed)
    return (tuple(dom[rng.randrange(len(dom))] for dom in domains)
            for _ in range(sample_n))


def _sweep(report, ring, tuples, check):
    """Run check(a, b, x, eps) on each tuple and record every failure dict
    it returns, tagged with the tuple's residues in ring."""
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
        if not wit.merges:
            return [{"check": "factor-product"}]
        cell = cartan_invariants(wit.merged_reference)[0]
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


def _product(wit):
    """beta^-1 * alpha: the stated merged matrix where the product law says
    it is equal, else the multiplied-out product."""
    return wit.merged_reference if wit.merges else wit.product


def _check_compensator(wit, k_level, target):
    """The failed compensator check of a non-spherical witness, if any."""
    k1 = wit.k1
    if not (k1.is_integral() and is_symplectic(wit.field, k1.rows)):
        return [{"check": "k1-in-K"}]
    # runs only where ``merges`` held, so beta^-1 alpha is merged_reference
    if not k1 * wit.merged_reference == wit.g1_reference:
        return [{"check": "g1-reference"}]
    for code, (u, v) in wit.scaled_branches:
        # D(u, v) scales the rows by pi^u, pi^v, pi^-v, pi^-u; a zero
        # entry has infinite valuation
        if wit.eps_code == code and not all(
                e.valuation() + shift >= 0
                for shift, row in zip((u, v, -v, -u), wit.g1_reference.rows)
                for e in row):
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
    _sweep(report, residue_ring(spec, lw.lemma_depth(lemma, spec, i, j)), tuples,
           lambda a, b, x, eps: _cell_failures(lemma, spec, i, j, k_level, a, b, x,
                                               eps, target, mutation, observed_cells))
    if observed_cells:
        report.margins["unpinned_eps_cells"] = sorted(
            f"eps={e}->({c[0]},{c[1]})" for e, c in observed_cells)
    return report.done()


def _identity_failures(lemma, spec, i, j, k_level, ring, a, b, x, eps, mutation):
    """The failed displayed identities of one tuple, or the build failure."""
    try:
        wit = lw.build_witness(lemma, spec, i, j, k_level, a, b, x, eps,
                               mutation=mutation)
    except lw.LemmaPreconditionError as exc:
        return [{"check": "build", "detail": str(exc)}]
    return [{"check": name} for name in _identity_checks(wit, ring, mutation)]


def _identity_checks(wit, ring, mutation):
    """The names of the failed identities among those the witness states,
    in one fixed order; ring is O/pi^depth of the lemma instance, which
    the free-y probe walks."""
    prod = _product(wit)
    failures = []
    if not wit.merges:
        failures.append("factor-product")
    if wit.minor_formula is not None and not (
            lw.minor_rows34_cols12(prod, mutation=mutation) == wit.minor_formula(wit)):
        failures.append("minor-formula")
    if wit.product_norm is not None and norm_exponent(prod.rows) != wit.product_norm:
        failures.append("product-norm")
    if wit.eps1 is not None:
        # eps1 reduces to eps / eps0, eps0 the lemma's designated code
        ring1 = residue_ring(wit.field, 1)
        if (ring1.mul(wit.eps1.reduce(ring1), ring1.embed_residue_code(wit.eps0))
                != ring1.embed_residue_code(wit.eps_code)):
            failures.append("eps1-reduction")
    if wit.k1 is not None and not wit.k1 * prod == wit.g1_reference:
        failures.append("g1-reference")
    # beta's minors are those of beta^-1 up to sign (``GroupElement.inverse``),
    # so beta's wedge norm is read off beta^-1
    if wit.beta_wedge is not None and wedge_norm_exponent(wit.beta_inv.rows) != wit.beta_wedge:
        failures.append("beta-wedge-norm")
    if wit.alpha_wedge is not None and wedge_norm_exponent(wit.alpha_mat.rows) != wit.alpha_wedge:
        failures.append("alpha-wedge-norm")
    if wit.product_wedge is not None and wedge_norm_exponent(prod.rows) != wit.product_wedge:
        failures.append("product-wedge-norm")
    if wit.unit_sq is not None and not wit.unit_sq.valuation() >= 2:
        failures.append("squared-unit-bound")
    if wit.free_y is not None:
        # only the family is re-evaluated at each y, at the tuple's depth and
        # lifts of a, b and x; a canonical lift does not depend on the level
        norm, formula, name = wit.free_y
        for y in ring.elements():
            fw = lw.family_witness(wit.lemma, wit.field, wit.i, wit.j, wit.depth, wit.sa,
                                   wit.sb, wit.sx, ring.section(y), eps_code=wit.eps_code,
                                   eps0=wit.eps0, mutation=mutation)
            if norm(_product(fw).rows) != formula(fw):
                failures.append(f"{name}(y={ring.to_str(y)})")
                break
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
    k_level = lw.LEAST_LEVEL[lemma]
    report.cases_total = case_count(lemma, spec, i, j, k_level)
    tuples = _tuples(tuple_space(lemma, spec, i, j, k_level), "sample", sample_n, seed)
    ring = residue_ring(spec, lw.lemma_depth(lemma, spec, i, j))
    _sweep(report, ring, tuples,
           lambda a, b, x, eps: _identity_failures(lemma, spec, i, j, k_level, ring,
                                                   a, b, x, eps, mutation))
    return report.done()
