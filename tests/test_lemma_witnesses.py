"""Witness construction: reference matrices, derived scalars, expected cells."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4lab import lemma_witnesses as lw
from sp4lab import sp4
from sp4lab.exactfield import residue_ring
from sp4lab.sp4 import is_symplectic
from sp4lab.verifiers.cells import verify_cell_lemma
from conftest import random_element
from test_sp4 import _fresh_one


def test_spher01_example_q3(fields):
    q3 = fields["Q3"]
    wit = lw.build_witness(lw.SPHER01, q3, 3, 1, 0, 0, 0, 0, 1)
    assert wit.m == 2 and wit.depth == 2
    assert wit.y == 3  # pi * 1 as a canonical digit
    minor = lw.minor_rows34_cols12(wit.product)
    assert minor == -2 * q3.pi(-6) * q3.pi(1)
    assert wit.observed_cell() == (3, 2) == wit.expected_cell


def test_spher1m1_example_f2(fields):
    f2 = fields["F2((t))"]
    wit = lw.build_witness(lw.SPHER1M1, f2, 3, 2, 0, (), (), (), 1)
    ring = residue_ring(f2, 1)
    assert wit.y == (1,)
    assert wit.expected_cell == (4, 1) == wit.observed_cell()


def test_precondition_errors(fields):
    with pytest.raises(lw.LemmaPreconditionError, match="i-j = 1 < 2"):
        lw.build_witness(lw.SPHER01, fields["Q2"], 2, 1, 0, 0, 0, 0, 0)
    with pytest.raises(lw.LemmaPreconditionError, match="characteristic 2"):
        lw.check_preconditions(lw.CHAR2_02, fields["Q3"], 6, 1, 0)
    with pytest.raises(lw.LemmaPreconditionError, match="characteristic != 2"):
        lw.check_preconditions(lw.SPHER01, fields["F2((t))"], 4, 1, 0)
    with pytest.raises(lw.LemmaPreconditionError, match="j = 1 < 2"):
        lw.check_preconditions(lw.SPHER1M1, fields["Q3"], 4, 1, 0)
    with pytest.raises(lw.LemmaPreconditionError, match="no residue content"):
        lw.check_preconditions(lw.CHAR2_02, fields["F2((t))"], 3, 1, 0)
    # boundary i = j - 1 is admitted for the non-spherical (1,-1) layer only
    lw.check_preconditions(lw.NONSPHER1M1, fields["Q3"], 3, 4, 1)
    with pytest.raises(lw.LemmaPreconditionError):
        lw.check_preconditions(lw.SPHER1M1, fields["Q3"], 3, 4, 0)


def test_congruence_layer_tuple_constraints(fields):
    q3 = fields["Q3"]
    ring = residue_ring(q3, lw.lemma_depth(lw.NONSPHER01, q3, 4, 1))
    with pytest.raises(lw.LemmaPreconditionError, match="pi\\^k"):
        lw.build_witness(lw.NONSPHER01, q3, 4, 1, 1, 1, 0, 0, 0)  # a not in pi O
    with pytest.raises(lw.LemmaPreconditionError, match="pi\\^2k"):
        lw.build_witness(lw.NONSPHER01, q3, 4, 1, 1, 0, 3, 0, 0)  # b not in pi^2 O


def test_factor_product_consistency_small_sweep(fields):
    # the witnesses skip certification: beta^-1, alpha, their product and
    # the merged matrix are symplectic by construction under every
    # mutation, and k1 fails only where drop-eps1 drops a nonzero eps1
    cases = [
        (lw.SPHER01, fields["Q3"], 3, 1, 0),
        (lw.SPHER1M1, fields["F3((t))"], 4, 2, 0),
        (lw.NONSPHER01, fields["Q5"], 3, 1, 1),
        (lw.NONSPHER1M1, fields["Q3"], 4, 4, 1),
        (lw.CHAR2_02, fields["F4((t))"], 4, 0, 0),
    ]
    for mutation in (None,) + lw.MUTATIONS:
        broken = 0
        for lemma, spec, i, j, k in cases:
            depth = lw.lemma_depth(lemma, spec, i, j)
            ring = residue_ring(spec, depth)
            a_dom = ring.pi_multiples(k) if k else ring.elements()
            b_dom = (ring.pi_multiples(2 * k) if (k and lemma != lw.NONSPHER1M1)
                     else ring.elements())
            count = 0
            for a in a_dom[:3]:
                for b in b_dom[:3]:
                    for x in a_dom[-3:]:
                        for eps in range(spec.q):
                            wit = lw.build_witness(lemma, spec, i, j, k, a, b, x, eps,
                                                   mutation=mutation)
                            assert wit.product == wit.merged_reference
                            assert wit.merges == (
                                wit.beta_inv * wit.alpha_mat == wit.merged_reference)
                            for g in (wit.beta_inv, wit.alpha_mat, wit.product,
                                      wit.merged_reference):
                                assert is_symplectic(spec, g.rows)
                            if wit.k1 is not None:
                                dropped = (lemma == lw.NONSPHER1M1
                                           and mutation == "drop-eps1"
                                           and not wit.eps1.is_zero())
                                assert is_symplectic(spec, wit.k1.rows) == (not dropped)
                                assert wit.k1.is_integral()
                                broken += dropped
                            count += 1
            assert count > 0
        assert (broken > 0) == (mutation == "drop-eps1"), mutation
    # the cell sweep's one certificate of k1 reports exactly that case
    rep = verify_cell_lemma(lw.NONSPHER1M1, fields["Q3"], 4, 4, 1, mode="sample",
                            sample_n=60, seed=7, mutation="drop-eps1")
    assert rep.counterexamples
    assert {c["check"] for c in rep.counterexamples} == {"k1-in-K"}


def test_corrupted_merged_parameters_fail_both_routes(fields, monkeypatch):
    # a stated merged matrix off by one in its d parameter: the product
    # law and the multiplied-out product both reject it, and the cell
    # sweep reports it as factor-product
    q3 = fields["Q3"]
    build = lw.build_witness

    def corrupted(*args, **kwargs):
        wit = build(*args, **kwargs)
        a, b, c, d = wit.p_merged
        return dataclasses.replace(wit, p_merged=(a, b, c, d + q3.one()))

    sound = build(lw.SPHER01, q3, 3, 1, 0, 1, 2, 4, 1)
    bad = corrupted(lw.SPHER01, q3, 3, 1, 0, 1, 2, 4, 1)
    assert sound.merges and not bad.merges
    assert bad.beta_inv * bad.alpha_mat == sound.merged_reference != bad.merged_reference
    monkeypatch.setattr(lw, "build_witness", corrupted)
    rep = verify_cell_lemma(lw.SPHER01, q3, 3, 1, mode="sample", sample_n=5, seed=3)
    assert [c["check"] for c in rep.counterexamples] == ["factor-product"] * 5


def test_wedge_norm_claims(fields):
    from sp4lab.sp4 import wedge_norm_exponent
    q3 = fields["Q3"]
    wit = lw.build_witness(lw.SPHER01, q3, 4, 1, 0, 2, 5, 7, 1)
    beta = wit.beta_inv.inverse()
    assert wedge_norm_exponent(beta.rows) == wit.i + wit.j
    assert wedge_norm_exponent(wit.alpha_mat.rows) == 2 * wit.m - 2 * wit.j
    wit = lw.build_witness(lw.SPHER1M1, q3, 4, 3, 0, 1, 2, 3, 1)
    beta = wit.beta_inv.inverse()
    assert wedge_norm_exponent(beta.rows) == wit.i
    assert wedge_norm_exponent(wit.alpha_mat.rows) == wit.j
    assert wedge_norm_exponent(wit.product.rows) == wit.i + wit.j


def test_eps1_reductions(fields):
    q5 = fields["Q5"]
    ring1 = residue_ring(q5, 1)
    eps0 = lw.designated_eps_code(lw.NONSPHER01, q5)
    assert eps0 == 3  # 1/2 mod 5
    depth = lw.lemma_depth(lw.NONSPHER01, q5, 3, 1)
    ring = residue_ring(q5, depth)
    for a in ring.pi_multiples(1):
        for eps in range(5):
            wit = lw.build_witness(lw.NONSPHER01, q5, 3, 1, 1, a, 0, 0, eps)
            want = ring1.mul(ring1.inv(eps0), eps % 5)
            assert wit.eps1.reduce(ring1) == want
    q3 = fields["Q3"]
    for eps in range(3):
        wit = lw.build_witness(lw.NONSPHER1M1, q3, 4, 4, 1, 0, 1, 0, eps)
        assert wit.eps1.reduce(residue_ring(q3, 1)) == eps


def test_char2_squared_unit_bound(fields):
    f4 = fields["F4((t))"]
    depth = lw.lemma_depth(lw.CHAR2_02, f4, 6, 0)
    ring = residue_ring(f4, depth)
    for a in ring.elements()[:4]:
        wit = lw.build_witness(lw.CHAR2_02, f4, 6, 0, 0, a, ring.elements()[1], (), 1)
        val = (wit.eps1 * wit.eps1 / (wit.a1_den * wit.a1_den) + f4.one()).valuation()
        assert val >= 2


def test_char2_unpinned_eps_recorded(fields):
    f4 = fields["F4((t))"]
    wit = lw.build_witness(lw.CHAR2_02, f4, 5, 1, 0, (), (), (), 2)
    assert wit.expected_cell is None
    cell = wit.observed_cell()
    assert cell[0] >= cell[1] >= 0


def test_section_independence_small(fields):
    # any set-theoretic section must produce the same cells and memberships
    q3 = fields["Q3"]
    depth = lw.lemma_depth(lw.SPHER01, q3, 3, 1)
    ring = residue_ring(q3, depth)

    def skewed_section(rep):
        return ring.section(rep) + q3.pi(depth) * q3.integer(1 + (rep % 2))

    for a in (0, 4):
        for eps in range(3):
            wit = lw.build_witness(lw.SPHER01, q3, 3, 1, 0, a, 7, 5, eps,
                                   section=skewed_section)
            assert wit.observed_cell() == wit.expected_cell
            assert wit.product == wit.merged_reference


def test_congruence_target(fields):
    q3 = fields["Q3"]
    target = lw.congruence_target(lw.NONSPHER1M1, q3, 4, 4, 1)
    ring = residue_ring(q3, 1)
    # reference reduction: antidiagonal-ish with +-pi^(i-j+1) entries vanishing mod pi
    depth = lw.lemma_depth(lw.NONSPHER1M1, q3, 4, 4)
    big = residue_ring(q3, depth)
    for a in big.pi_multiples(1):
        for eps in range(3):
            wit = lw.build_witness(lw.NONSPHER1M1, q3, 4, 4, 1, a, 2, a, eps)
            assert wit.k1.reduce(1) == target


def test_free_y_probe(fields):
    q3 = fields["Q3"]
    depth = lw.lemma_depth(lw.SPHER01, q3, 3, 1)
    ring = residue_ring(q3, depth)
    from sp4lab.sp4 import wedge_norm_exponent, norm_exponent
    for y in ring.elements():
        wit = lw.build_witness(lw.SPHER01, q3, 3, 1, 0, 1, 2, 4, 0, y_override=y)
        assert wedge_norm_exponent(wit.product.rows) == lw.spher01_wedge_formula(wit)
        assert norm_exponent(wit.product.rows) == wit.i
    depth = lw.lemma_depth(lw.SPHER1M1, q3, 3, 3)
    ring = residue_ring(q3, depth)
    for y in ring.elements():
        wit = lw.build_witness(lw.SPHER1M1, q3, 3, 3, 0, 1, 2, 4, 0, y_override=y)
        assert norm_exponent(wit.product.rows) == lw.spher1m1_norm_formula(wit)


# ---------------------------------------------------------------------------
# the entrywise factor builder against the product route


def _param(spec, rnd, zero):
    """A B-parameter: zero, or a random element, integral or not."""
    return spec.zero() if zero else random_element(spec, rnd)


def _unit(spec, rnd, kind):
    """The memoised one, an equal element that is not it, or a random unit."""
    if kind == 0:
        return spec.one()
    if kind == 1:
        return _fresh_one(spec)
    tail = spec.from_residue_code(rnd.randrange(spec.q)).shift(rnd.randrange(1, 4))
    return spec.from_residue_code(rnd.randrange(1, spec.q)) + tail


_EXPONENT = st.integers(-6, 6)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["Q2", "Q3", "Q5", "F2((t))", "F4((t))"]),
       seed=st.integers(0, 2 ** 32 - 1),
       zeros=st.tuples(*[st.booleans()] * 4),
       dl=st.tuples(_EXPONENT, _EXPONENT), dr=st.tuples(_EXPONENT, _EXPONENT),
       units=st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_scale_matches_the_product_route(fields, name, seed, zeros, dl, dr, units):
    spec = fields[name]
    rnd = random.Random(seed)
    params = tuple(_param(spec, rnd, zero) for zero in zeros)
    one = spec.one()
    unipotent = sp4.lower_from_params(spec, *params, one, one)
    # D(u, v) = diag(pi^u, pi^v, pi^-v, pi^-u) is d_matrix(-u, -v)
    left, right = sp4.d_matrix(spec, -dl[0], -dl[1]), sp4.d_matrix(spec, -dr[0], -dr[1])
    oracle = sp4.mat_mul(sp4.mat_mul(left.rows, unipotent.rows), right.rows)
    assert lw._scale(spec, dl, params, dr).rows == oracle
    # with units e, f the builder is the unipotent times diag(e, f, 1/f, 1/e)
    e, f = (_unit(spec, rnd, kind) for kind in units)
    assert sp4.lower_from_params(spec, *params, e, f) == unipotent * sp4.torus(spec, e, f)
