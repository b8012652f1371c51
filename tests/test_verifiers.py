"""Verifier layer: cell suites, identities, decomposition, averaging, parity."""

import itertools
import random
from fractions import Fraction

import pytest

from sp4lab import lemma_witnesses as lw
from sp4lab import sp4
from sp4lab.exactfield import parse_field, residue_ring
from sp4lab.verifiers import decompose
from sp4lab.verifiers.averaging import (
    dihedral_4_standard,
    invariance_forces_zero,
    product_coverage,
    symmetric_3_standard,
    verify_averaging,
)
from sp4lab.verifiers.cells import (
    _check_compensator,
    tuple_space,
    verify_cell_lemma,
    verify_witness_identities,
)
from sp4lab.verifiers.decompose import DecompositionError, decompose_k1k2, weyl_reps
from sp4lab.verifiers.parity import (
    _classify,
    parity_depth_profile,
    parity_volumes,
    wedge_valuation,
)
from sp4lab.verifiers.reports import BudgetExceededError
from sp4lab.verifiers.sampling import (
    enumerate_symplectic_residue,
    lift_symplectic,
    random_k_element,
    sample_symplectic_residue,
    symplectic_group_order,
)
from conftest import FIELD_NAMES


def test_cell_suite_passes_spher01(fields):
    rep = verify_cell_lemma(lw.SPHER01, fields["Q3"], 3, 1)
    assert rep.status == "pass"
    assert rep.cases_run == rep.cases_total == 3 ** 7
    assert not rep.counterexamples


def test_cell_suite_passes_spher1m1_with_cells(fields):
    rep = verify_cell_lemma(lw.SPHER1M1, fields["F3((t))"], 4, 3)
    assert rep.status == "pass" and rep.cases_run == 3 ** 7


def test_cell_suite_boundary_nonspher1m1(fields):
    rep = verify_cell_lemma(lw.NONSPHER1M1, fields["Q3"], 3, 4, k_level=1)
    assert rep.status == "pass"


def test_cell_suite_char2_k1_congruence(fields):
    rep = verify_cell_lemma(lw.CHAR2_02, fields["F2((t))"], 7, 1, k_level=1)
    assert rep.status == "pass"
    rep = verify_cell_lemma(lw.CHAR2_02, fields["F4((t))"], 5, 1)
    assert rep.status == "pass"
    assert "unpinned_eps_cells" in rep.margins  # q=4 has residues beyond {0,1}


@pytest.mark.parametrize("lemma, field, i, j", [
    (lw.NONSPHER01, "Q3", 4, 1),
    (lw.NONSPHER1M1, "Q3", 4, 4),
    (lw.CHAR2_02, "F2((t))", 7, 1),
])
def test_swapped_rescalings_fail_scaled_in_k(fields, lemma, field, i, j):
    # a rescaling is stated only by its diagonal D, so D * g1_reference
    # being integral is its one per-tuple claim; each branch's D applied at
    # the other branch's eps code must break it, and only it
    spec = fields[field]
    target = lw.congruence_target(lemma, spec, i, j, 1)
    a_dom, b_dom, x_dom, _ = tuple_space(lemma, spec, i, j, 1)
    for a, b, x in ((a_dom[0], b_dom[0], x_dom[0]), (a_dom[-1], b_dom[-1], x_dom[-1])):
        for code in (0, lw.designated_eps_code(lemma, spec)):
            wit = lw.build_witness(lemma, spec, i, j, 1, a, b, x, code)
            assert _check_compensator(wit, 1, target) == []
            (code0, d0), (code1, d1) = wit.scaled_branches
            wit.scaled_branches = ((code0, d1), (code1, d0))
            assert _check_compensator(wit, 1, target) == [
                {"check": f"scaled-in-K-eps{code}"}]


def test_budget_enforced(fields):
    with pytest.raises(BudgetExceededError):
        verify_cell_lemma(lw.SPHER01, fields["Q3"], 8, 0)


def test_sample_mode_deterministic(fields):
    a = verify_cell_lemma(lw.SPHER01, fields["Q5"], 3, 1, mode="sample",
                          sample_n=50, seed=123)
    b = verify_cell_lemma(lw.SPHER01, fields["Q5"], 3, 1, mode="sample",
                          sample_n=50, seed=123)
    assert a.to_dict()["cases_run"] == 50
    da, db = a.to_dict(), b.to_dict()
    da.pop("elapsed_ms"), db.pop("elapsed_ms")
    assert da == db


def test_identity_suite_passes(fields):
    for lemma, field, i, j in ((lw.SPHER01, "Q3", 4, 1),
                               (lw.SPHER1M1, "Q3", 3, 3),
                               (lw.NONSPHER01, "Q3", 4, 1),
                               (lw.NONSPHER1M1, "Q3", 4, 4),
                               (lw.CHAR2_02, "F2((t))", 6, 2)):
        rep = verify_witness_identities(lemma, fields[field], i, j,
                                        sample_n=120, seed=4)
        assert rep.status == "pass", (lemma, rep.counterexamples[:2])


@pytest.mark.parametrize("mutation,catcher", [
    ("minor-sign-flip", "identities"),
    ("d-scaling-exponent", "cells"),
    ("drop-eps1", "cells"),
    ("wrong-n1", "cells"),
    ("minor-row-pair", "identities"),
])
def test_mutations_detected(fields, mutation, catcher):
    q3 = fields["Q3"]
    if catcher == "cells":
        lemma, i, j, k = (lw.NONSPHER1M1, 4, 4, 1) if mutation == "drop-eps1" \
            else (lw.SPHER01, 3, 1, 0)
        rep = verify_cell_lemma(lemma, q3, i, j, k_level=k, mutation=mutation)
    else:
        rep = verify_witness_identities(lw.SPHER01, q3, 3, 1, sample_n=200,
                                        seed=1, mutation=mutation)
    assert rep.status == "violated", mutation
    assert rep.counterexamples


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_identity_and_mu41(fields):
    q3 = fields["Q3"]
    fl = decompose_k1k2(sp4.identity(q3))
    assert fl.factors == [] and fl.block_count == 0 and fl.route == "identity"
    fl = decompose_k1k2(sp4.mu41(q3, q3.pi(1)))
    assert fl.block_count == 2
    tags = [t for t, _ in fl.factors]
    assert tags == ["K1", "K2", "K1"]
    assert fl.factors[0][1] == sp4.weyl_w21(q3)
    assert fl.factors[1][1] == sp4.mu32(q3, q3.pi(1))


def test_decompose_rejects_non_k(fields):
    with pytest.raises(DecompositionError):
        decompose_k1k2(sp4.d_matrix(fields["Q3"], 1, 0))


def test_decompose_known_bwb_failure_uses_fallback(fields):
    q3 = fields["Q3"]
    g = sp4.k2_embed(q3, ((q3.one(), q3.pi(1)), (q3.zero(), q3.one())))
    fl = decompose_k1k2(g)
    assert fl.route == "fallback"
    assert fl.block_count <= 30


def test_decompose_sweep_sp4_f2(fields):
    f2 = fields["F2((t))"]
    count = 0
    for reps in enumerate_symplectic_residue(f2, 1):
        g = lift_symplectic(f2, 1, reps)
        fl = decompose_k1k2(g)
        assert fl.block_count <= 30
        count += 1
    assert count == 720


def test_weyl_reps_cached_per_field(fields):
    names = ("F2((t))", "F4((t))", "Q3")
    first = {name: weyl_reps(fields[name]) for name in names}
    for name in names + names[::-1]:
        spec = fields[name]
        reps = weyl_reps(spec)
        assert reps is first[name]
        assert len(reps) == 8
        # in the order both decomposition routes try them
        order = [(len(word), pat) for pat, (_, word) in reps.items()]
        assert order == sorted(order)
        for pat, (elem, word) in reps.items():
            assert isinstance(word, tuple)
            assert elem.field == spec
            acc = sp4.identity(spec)
            for _, h in word:
                assert h.field == spec
                acc = acc * h
            assert acc == elem
            assert [[not e.is_zero() for e in row] for row in elem.rows] == \
                [[c == pat[r] for c in range(4)] for r in range(4)]


def _weyl_word_lengths(spec):
    """pattern -> length of a shortest w21/w32 word, by a breadth-first
    search over products: the search the stated words replaced."""
    gens = (sp4.weyl_w21(spec), sp4.weyl_w32(spec))

    def pattern(g):
        cols = [[c for c in range(4) if not row[c].is_zero()] for row in g.rows]
        assert all(len(c) == 1 for c in cols)
        return tuple(c[0] for c in cols)

    frontier = [sp4.identity(spec)]
    lengths = {pattern(frontier[0]): 0}
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = g * h
                if pattern(gh) not in lengths:
                    lengths[pattern(gh)] = lengths[pattern(g)] + 1
                    nxt.append(gh)
        frontier = nxt
    return lengths


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_weyl_words_are_shortest(fields, name):
    spec = fields[name]
    lengths = _weyl_word_lengths(spec)
    assert len(lengths) == 8
    reps = weyl_reps(spec)
    assert [tuple(tag for tag, _ in word) for _, word in reps.values()] == \
        list(decompose.WEYL_WORDS)
    assert set(reps) == set(lengths)
    for pat, (_, word) in reps.items():
        assert len(word) == lengths[pat], pat
    order = [(len(word), pat) for pat, (_, word) in reps.items()]
    assert order == sorted(order)
    # the last word is the longest element J
    j_elem, j_word = list(reps.values())[-1]
    assert len(j_word) == max(lengths.values()) == 4
    assert j_elem == sp4.j_form(spec)


def _assert_factorization(g, fl):
    assert fl.block_count <= 30
    tags = [t for t, _ in fl.factors]
    assert all(a != b for a, b in zip(tags, tags[1:])), "tags must alternate"
    for tag, x in fl.factors:
        assert sp4.subgroup_membership(x, tag)
    assert decompose._word_product(g.field, fl.factors) == g


def test_decompose_random_corpus(fields, rng):
    for name in ("Q3", "F2((t))"):
        spec = fields[name]
        for _ in range(40):
            g = random_k_element(spec, rng.randrange(1, 4), rng)
            _assert_factorization(g, decompose_k1k2(g))


@pytest.mark.parametrize("name", ["F8((t))", "F9((t))", "Q7"])
def test_decompose_random_corpus_larger_fields(name):
    # residue fields of 7 to 9 elements, where q^4 work per fallback would show
    spec = parse_field(name)
    rnd = random.Random(8097)
    routes = []
    for depth in (1, 2, 3):
        for _ in range(7):
            g = random_k_element(spec, depth, rnd)
            fl = decompose_k1k2(g)
            _assert_factorization(g, fl)
            routes.append(fl.route)
    assert "fallback" in routes and "direct" in routes


def test_staircase_solution_puts_u_g_in_the_staircase(fields, rng):
    # no re-check follows the exact solve, so its solutions are tested here
    solved = 0
    for name in ("Q2", "Q3", "F2((t))", "F4((t))"):
        spec = fields[name]
        one = spec.one()
        for _ in range(8):
            g = random_k_element(spec, rng.randrange(1, 4), rng)
            for pat in weyl_reps(spec):
                s = decompose._solve_staircase_exact(g, pat)
                if s is None:
                    continue
                rows = (decompose.lower_from_params(spec, *s, one, one) * g).rows
                assert all(s_i.is_integral() for s_i in s)
                assert all(rows[r][c].is_zero()
                           for r in range(4) for c in range(pat[r] + 1, 4)), (name, pat)
                solved += 1
    assert solved >= 16


# the q^4 search that the fallback's residue step replaced, kept as its oracle


def _oracle_unipotent_rows(ring, s, g):
    sa, sb, sc, sd = s
    r1 = g[0]
    r2 = tuple(ring.add(ring.mul(sa, r1[c]), g[1][c]) for c in range(4))
    r3 = tuple(ring.add(ring.add(ring.mul(sc, r1[c]), ring.mul(sb, g[1][c])),
                        g[2][c]) for c in range(4))
    t = ring.sub(sc, ring.mul(sa, sb))
    r4 = tuple(ring.add(ring.sub(ring.add(ring.mul(sd, r1[c]),
                                          ring.mul(t, g[1][c])),
                                 ring.mul(sa, g[2][c])), g[3][c])
               for c in range(4))
    return (r1, r2, r3, r4)


def _in_staircase(rows, pat, ring):
    return all(rows[r][c] == ring.zero for r in range(4) for c in range(pat[r] + 1, 4))


def _oracle_residue_step(spec, gbar, patterns):
    """The first pattern, then the lexicographically first s in O/pi, with
    U(s) gbar in the w-staircase, searched over all q^4 tuples s."""
    ring = residue_ring(spec, 1)
    elems = ring.elements()
    for pat in patterns:
        for s in itertools.product(elems, repeat=4):
            if _in_staircase(_oracle_unipotent_rows(ring, s, gbar), pat, ring):
                return pat, s
    raise AssertionError("every element of Sp4(F_q) lies in a Bruhat cell")


@pytest.mark.parametrize("name,count", [
    ("F2((t))", None), ("Q2", None),  # all 720 classes of Sp4(F_2)
    ("F3((t))", 60), ("F4((t))", 25), ("Q3", 200), ("Q5", 30),
])
def test_residue_step_matches_the_q4_search(name, count):
    spec = parse_field(name)
    ring = residue_ring(spec, 1)
    reps = weyl_reps(spec)
    one = spec.one()
    if count is None:
        classes = list(enumerate_symplectic_residue(spec, 1))
        assert len(classes) == 720
    else:
        rnd = random.Random(1301)
        classes = [sample_symplectic_residue(spec, 1, rnd) for _ in range(count)]
    for gbar in classes:
        g = lift_symplectic(spec, 1, gbar)
        pat, s = decompose._residue_bruhat(g, reps)
        want_pat, want_s = _oracle_residue_step(spec, gbar, reps)
        assert pat == want_pat, gbar
        assert s == tuple(ring.section(x) for x in want_s), gbar
        u = decompose.lower_from_params(spec, *s, one, one)
        assert _in_staircase((u * g).reduce(1), pat, ring), gbar


def test_fallback_solves_each_pattern_at_most_twice(fields, monkeypatch):
    # eight patterns over O, then at most eight over the residue field
    # through the same solver: a search over residue tuples through it
    # would show up here as thousands of calls
    calls = []
    real_solve = decompose._solve_staircase_exact

    def counting(g, pat):
        calls.append(pat)
        return real_solve(g, pat)

    monkeypatch.setattr(decompose, "_solve_staircase_exact", counting)
    q3 = fields["Q3"]
    inputs = [sp4.k2_embed(q3, ((q3.one(), q3.pi(1)), (q3.zero(), q3.one())))]
    for name, depth, seed in (("Q2", 2, 3), ("Q5", 3, 6), ("F3((t))", 3, 1),
                              ("F4((t))", 3, 2)):
        inputs.append(random_k_element(fields[name], depth, random.Random(seed)))
    for g in inputs:
        calls.clear()
        assert decompose_k1k2(g).route == "fallback"
        assert 8 < len(calls) <= 16


def test_fallback_congruence_part_and_lu_factors(fields, monkeypatch):
    # the fallback tests neither h = I mod pi nor the shape of the upper LU
    # factor, so both are checked here on every h it factors
    seen = []
    real_lu = decompose.symplectic_lu

    def spy(h):
        lower, upper = real_lu(h)
        seen.append((h, lower, upper))
        return lower, upper

    monkeypatch.setattr(decompose, "symplectic_lu", spy)
    rnd = random.Random(1861)
    for name in ("Q2", "Q3", "Q5", "F2((t))", "F3((t))", "F4((t))"):
        spec = fields[name]
        for _ in range(10):
            decompose_k1k2(random_k_element(spec, rnd.choice((2, 3)), rnd))
    assert len(seen) >= 20
    for h, lower, upper in seen:
        spec = h.field
        assert h.reduce(1) == sp4.identity(spec).reduce(1)
        decompose.lower_params(lower)  # raises unless lower is in the lower Borel of K
        assert all(upper.rows[r][r] == spec.one() for r in range(4))
        assert all(upper.rows[r][c].is_zero() for r in range(4) for c in range(r))
        assert lower * upper == h


# ---------------------------------------------------------------------------
# sampling


def test_enumeration_matches_order_formula(fields):
    f2 = fields["F2((t))"]
    assert sum(1 for _ in enumerate_symplectic_residue(f2, 1)) == \
        symplectic_group_order(2) == 720


def test_lift_certifies_and_reduces(fields, rng):
    for name in ("Q3", "F4((t))", "F2((t))"):
        spec = fields[name]
        for depth in (1, 2, 3):
            reps = sample_symplectic_residue(spec, depth, rng)
            g = lift_symplectic(spec, depth, reps)
            assert g.is_integral()
            assert g.reduce(depth) == reps
            # built without certification: the repairs must make it symplectic
            assert sp4.is_symplectic(spec, g.rows)


def test_sampling_uniform_level1(fields):
    # support should be essentially complete at 5x the group order draws,
    # and no class should be drawn wildly more often than the mean
    f2 = fields["F2((t))"]
    rnd = random.Random(23)
    counts = {}
    n = 5 * 720
    for _ in range(n):
        reps = sample_symplectic_residue(f2, 1, rnd)
        counts[reps] = counts.get(reps, 0) + 1
    assert len(counts) > 700
    assert max(counts.values()) < 25  # mean 5; a crude uniformity guard


# ---------------------------------------------------------------------------
# averaging


def test_averaging_s3_and_d4():
    rep = verify_averaging(symmetric_3_standard(), trials=300, seed=2)
    assert rep.status == "pass"
    assert rep.margins["max_lhs_over_rhs"] <= 1.0
    rep = verify_averaging(dihedral_4_standard(), trials=300, seed=3)
    assert rep.status == "pass"


def test_averaging_coverage_and_projector():
    g = symmetric_3_standard()
    assert len(product_coverage(g, ("K1", "K2"), 2)) == 6
    assert len(product_coverage(g, ("K1",), 2)) == 2  # K1 alone fails to cover
    assert invariance_forces_zero(g)
    assert invariance_forces_zero(dihedral_4_standard())


def test_averaging_hypothesis_failures_reported():
    from sp4lab.verifiers.averaging import FiniteGroupRep
    import numpy as np
    g = symmetric_3_standard()
    rep = verify_averaging(g, subgroup_names=("K1",), trials=5, seed=0)
    assert rep.status == "violated"
    assert rep.counterexamples[0]["check"] == "coverage"
    # a representation with invariant vectors must be rejected up front
    trivial = FiniteGroupRep("S3-trivial", g.mult,
                             np.stack([np.eye(2)] * g.order), g.subgroups)
    rep = verify_averaging(trivial, trials=5, seed=0)
    assert rep.status == "violated"
    assert rep.counterexamples[0]["check"] == "no-invariant-vectors"


def test_averaging_zero_vector_case():
    # all y_i equal to x forces RHS = 0 only when x is jointly invariant,
    # and joint invariance forces x = 0
    import numpy as np
    g = symmetric_3_standard()
    avg1 = g.matrices[g.subgroups["K1"]].mean(axis=0)
    avg2 = g.matrices[g.subgroups["K2"]].mean(axis=0)
    stack = np.vstack([avg1 - np.eye(2), avg2 - np.eye(2)])
    sv = np.linalg.svd(stack, compute_uv=False)
    assert sv[-1] > 1e-9  # trivial joint fixed space


def test_averaging_zero_case_reads_the_joint_fixed_space(monkeypatch):
    from sp4lab.verifiers import averaging
    monkeypatch.setattr(averaging, "invariance_forces_zero", lambda *args: False)
    rep = verify_averaging(symmetric_3_standard(), trials=4, seed=0)
    assert rep.status == "violated"
    assert [c["check"] for c in rep.counterexamples] == ["zero-case"]
    assert rep.cases_run == 5


# ---------------------------------------------------------------------------
# parity volumes


def test_parity_identity_depth1_exact(fields):
    f2 = fields["F2((t))"]
    rep = parity_volumes(sp4.identity(f2), 1, mode="exhaustive")
    assert rep.status == "pass"
    even, odd = rep.margins["decided_even"], rep.margins["decided_odd"]
    und = rep.margins["undecided"]
    assert even + odd + und == 720
    # independent count of wedge-degenerate classes: reduced column pairs of
    # an invertible matrix are independent, so none are degenerate
    ring = residue_ring(f2, 1)
    degenerate = 0
    for reps in enumerate_symplectic_residue(f2, 1):
        minors = []
        for r1 in range(4):
            for r2 in range(r1 + 1, 4):
                m = ring.sub(ring.mul(reps[r1][0], reps[r2][1]),
                             ring.mul(reps[r1][1], reps[r2][0]))
                minors.append(m)
        if all(m == ring.zero for m in minors):
            degenerate += 1
    assert und == degenerate == 0
    a_lo, a_hi = (Fraction(s) for s in rep.margins["alpha_interval"])
    b_lo, b_hi = (Fraction(s) for s in rep.margins["beta_interval"])
    assert a_lo + b_hi == 1 and a_hi + b_lo == 1
    assert a_lo + b_lo <= 1


def test_parity_rejects_wrong_characteristic(fields):
    with pytest.raises(ValueError):
        parity_volumes(sp4.identity(fields["Q3"]), 1)


def test_parity_rejects_unknown_mode(fields):
    with pytest.raises(ValueError, match="unknown mode 'exhaustve'"):
        parity_volumes(sp4.identity(fields["F2((t))"]), 1, mode="exhaustve",
                       sample_n=5)


def test_parity_depth_monotone(fields):
    f2 = fields["F2((t))"]
    g = sp4.d_matrix(f2, 1, 0)
    profile = parity_depth_profile(g, 4, sample_n=250, seed=5)
    assert all(b >= a for a, b in zip(profile, profile[1:]))
    # depth 1 cannot decide anything for i = 1 (threshold 1 - 2 < 0)
    assert profile[0] == 0.0


def _lift_route_counts(g, depth, classes):
    """(even, odd, undecided) from exact lifts: the oracle route."""
    spec = g.field
    (i, _j), _, _ = sp4.cartan_invariants(g)
    counts = [0, 0, 0]
    for reps in classes:
        decided, parity = _classify(g, lift_symplectic(spec, depth, reps), depth, i)
        counts[parity if decided else 2] += 1
    return tuple(counts)


def _differential_elements(spec):
    return (("identity", sp4.identity(spec)), ("D(1,0)", sp4.d_matrix(spec, 1, 0)),
            ("D(2,1)", sp4.d_matrix(spec, 2, 1)))


@pytest.mark.parametrize("name", ["F2((t))", "F4((t))"])
def test_parity_residue_route_matches_lift_route(fields, name):
    spec = fields[name]
    for label, g in _differential_elements(spec):
        for depth in range(1, 6):
            if spec.q == 2 and depth == 1:
                rep = parity_volumes(g, depth, mode="exhaustive")
                classes = enumerate_symplectic_residue(spec, depth)
            else:
                seed = 100 * depth + spec.q
                rep = parity_volumes(g, depth, mode="sample", sample_n=24, seed=seed)
                rng = random.Random(seed)
                classes = [sample_symplectic_residue(spec, depth, rng) for _ in range(24)]
            m = rep.margins
            assert (m["decided_even"], m["decided_odd"], m["undecided"]) == \
                _lift_route_counts(g, depth, classes), (label, depth)


@pytest.mark.parametrize("name", ["F2((t))", "F4((t))"])
def test_parity_profile_residue_route_matches_lift_route(fields, name):
    spec = fields[name]
    sample_n = 16
    for label, g in _differential_elements(spec):
        (i, _j), _, _ = sp4.cartan_invariants(g)
        for max_depth in (1, 3, 5):
            seed = 7 * max_depth + spec.q
            rng = random.Random(seed)
            vals = []
            for _ in range(sample_n):
                k_elem = lift_symplectic(spec, max_depth,
                                         sample_symplectic_residue(spec, max_depth, rng))
                vals.append(wedge_valuation((g * k_elem).rows))
            expected = [sum(1 for v in vals if v < depth - 2 * i) / sample_n
                        for depth in range(1, max_depth + 1)]
            assert parity_depth_profile(g, max_depth, sample_n=sample_n,
                                        seed=seed) == expected, (label, max_depth)


def test_wedge_valuation_example(fields):
    f2 = fields["F2((t))"]
    g = sp4.d_matrix(f2, 1, 0)
    val = wedge_valuation(g.rows)
    assert val == -1  # columns 1,2 of D(1,0) wedge to pi^(-1)
