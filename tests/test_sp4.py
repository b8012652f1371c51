"""Group layer: certification, generators, Cartan invariants, memberships."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4lab import lemma_witnesses as lw
from sp4lab import sp4
from sp4lab.exactfield import INF, LaurentElem, PadicElem, residue_ring
from sp4lab.sp4 import (
    GroupElement,
    InternalSoundnessError,
    SymplecticError,
    cartan_from_elementary_divisors,
    cartan_invariants,
    matrix_from_json,
    subgroup_membership,
)
from sp4lab.verifiers.decompose import DecompositionError, lower_params
from sp4lab.verifiers.cells import tuple_space
from sp4lab.verifiers.sampling import random_k_element
from conftest import FIELD_NAMES, random_element


def test_j_is_symplectic_and_involution_facts(fields):
    for name in FIELD_NAMES:
        spec = fields[name]
        jm = sp4.j_form(spec)
        assert sp4.is_symplectic(spec, jm.rows)
        w21 = sp4.weyl_w21(spec)
        assert w21 * w21 == sp4.identity(spec)
        assert sp4.is_symplectic(spec, sp4.identity(spec).rows)


def test_d_matrix_example(fields):
    q3 = fields["Q3"]
    g = sp4.d_matrix(q3, 2, 1)
    assert g.rows[0][0] == q3.pi(-2)
    assert g.rows[1][1] == q3.pi(-1)
    assert g.rows[2][2] == q3.pi(1)
    assert g.rows[3][3] == q3.pi(2)
    assert sp4.is_symplectic(q3, g.rows)


def test_symplectic_check_failure_names_entry(fields):
    q3 = fields["Q3"]
    z, o = q3.zero(), q3.one()
    rows = ((q3.pi(1), z, z, z), (z, o, z, z), (z, z, o, z), (z, z, z, q3.pi(1)))
    with pytest.raises(SymplecticError) as err:
        sp4.symplectic_check(q3, rows)
    assert err.value.row is not None


def test_mu41_conjugation_identity(fields):
    for name in ("Q3", "F4((t))"):
        spec = fields[name]
        for code in range(min(spec.q, 3)):
            a = spec.from_residue_code(code) if code else spec.zero()
            lhs = sp4.mu41(spec, a)
            rhs = sp4.weyl_w21(spec) * sp4.mu32(spec, a) * sp4.weyl_w21(spec)
            assert lhs == rhs
    q3 = fields["Q3"]
    a = q3.pi(1)
    assert sp4.mu41(q3, a) == sp4.weyl_w21(q3) * sp4.mu32(q3, a) * sp4.weyl_w21(q3)


def test_cartan_on_diagonal_cells(fields):
    for name in FIELD_NAMES:
        spec = fields[name]
        for i in range(7):
            for j in range(i + 1):
                g = sp4.d_matrix(spec, i, j)
                (ci, cj), (e1, e2), length = cartan_invariants(g)
                assert (ci, cj) == (i, j)
                assert (e1, e2) == (i, i + j)
                assert length == i + j
                assert cartan_from_elementary_divisors(g) == (i, j)


def test_cartan_examples(fields):
    q3 = fields["Q3"]
    assert cartan_invariants(sp4.identity(q3))[0] == (0, 0)
    (cell, norms, length) = cartan_invariants(sp4.d_matrix(q3, 3, 1))
    assert cell == (3, 1) and norms == (3, 4) and length == 4
    z, o = q3.zero(), q3.one()
    a = q3.pi(-2)
    rows = ((o, z, z, z), (z, o, z, z), (a, z, o, z), (z, a, z, o))
    g = sp4.symplectic_check(q3, rows)
    assert cartan_invariants(g)[0] == (2, 2)
    assert cartan_from_elementary_divisors(g) == (2, 2)


def test_cartan_k_invariance_corpus(fields):
    rnd = random.Random(5)
    for name in ("Q3", "F2((t))"):
        spec = fields[name]
        for _ in range(60):
            k1 = random_k_element(spec, 2, rnd)
            k2 = random_k_element(spec, 2, rnd)
            i, j = rnd.randrange(0, 4), 0
            j = rnd.randrange(0, i + 1)
            g = sp4.d_matrix(spec, i, j)
            assert cartan_invariants(k1 * g * k2)[0] == (i, j)
            assert cartan_invariants((k1 * g * k2).inverse())[0] == (i, j)


def test_length_subadditive(fields):
    rnd = random.Random(11)
    spec = fields["Q3"]
    for _ in range(40):
        k1 = random_k_element(spec, 2, rnd)
        k2 = random_k_element(spec, 2, rnd)
        g = k1 * sp4.d_matrix(spec, rnd.randrange(4), 0) * k2
        h = k2 * sp4.d_matrix(spec, 3, rnd.randrange(3)) * k1
        lg = cartan_invariants(g)[2]
        lh = cartan_invariants(h)[2]
        assert cartan_invariants(g * h)[2] <= lg + lh


def test_wedge_two_routes_agree_on_corpus(fields):
    rnd = random.Random(6)
    for name in ("Q3", "F4((t))"):
        spec = fields[name]
        for _ in range(30):
            k1 = random_k_element(spec, 2, rnd)
            k2 = random_k_element(spec, 2, rnd)
            i = rnd.randrange(0, 4)
            j = rnd.randrange(0, i + 1)
            g = k1 * sp4.d_matrix(spec, i, j) * k2
            assert cartan_invariants(g)[0] == cartan_from_elementary_divisors(g) == (i, j)


def test_memberships(fields):
    q3 = fields["Q3"]
    assert subgroup_membership(sp4.weyl_w21(q3), "K1")
    assert subgroup_membership(sp4.weyl_w21(q3), "K")
    assert subgroup_membership(sp4.weyl_w32(q3), "K2")
    assert not subgroup_membership(sp4.d_matrix(q3, 1, 0), "K")
    assert subgroup_membership(sp4.mu21(q3, q3.pi(1)), "K1")
    b1 = sp4.k1_embed(q3, ((q3.one(), q3.pi(1)), (q3.integer(2), q3.one())))
    assert subgroup_membership(b1, "K1")
    assert not subgroup_membership(b1, "K2")
    with pytest.raises(ValueError, match="unknown subgroup tag 'B1'"):
        subgroup_membership(b1, "B1")
    # the lower Borel of K is what decompose.lower_params accepts
    low = sp4.mu41(q3, q3.integer(2)) * sp4.mu21(q3, q3.one())
    assert lower_params(low) == (q3.one(), q3.zero(), q3.zero(), q3.integer(2),
                                 q3.one(), q3.one())
    with pytest.raises(DecompositionError, match="not lower triangular"):
        lower_params(sp4.weyl_w21(q3))


def _lower_right_by_quotients(rows):
    """Whether the lower-right block is Q tA^-1 Q, compared entry by entry
    with the four quotients [[a, -b], [-c, d]] / det."""
    a, b, c, d = rows[0][0], rows[0][1], rows[1][0], rows[1][1]
    det = a * d - b * c
    return (rows[2][2] == a / det and rows[2][3] == -b / det
            and rows[3][2] == -c / det and rows[3][3] == d / det)


@pytest.mark.parametrize("name", ["Q2", "Q3", "F2((t))", "F3((t))", "F4((t))"])
def test_k1_product_form_matches_quotients(fields, name):
    spec = fields[name]
    rnd = random.Random(0xB10C + len(name))

    def integral():
        return spec.from_residue_code(rnd.randrange(spec.q)).shift(rnd.randrange(3))

    def unit():
        return spec.from_residue_code(rnd.randrange(1, spec.q)) + integral().shift(1)

    for _ in range(40):
        # a unit diagonal or a unit antidiagonal keeps det a unit
        block = ((unit(), integral()), (integral().shift(1), unit()))
        if rnd.randrange(2):
            block = ((integral().shift(1), unit()), (unit(), integral()))
        g = sp4.k1_embed(spec, block)
        assert subgroup_membership(g, "K1") and _lower_right_by_quotients(g.rows)
        # one lower-right entry moved by pi^k leaves K1 under both forms
        for k in range(4):
            r, c = rnd.choice(((2, 2), (2, 3), (3, 2), (3, 3)))
            rows = [list(row) for row in g.rows]
            rows[r][c] = rows[r][c] + spec.pi(k)
            assert not subgroup_membership(GroupElement(spec, rows), "K1")
            assert not _lower_right_by_quotients(rows)


def test_dominance_failure_is_internal_error(fields):
    q3 = fields["Q3"]
    # a non-symplectic near-rank-one matrix, which the constructor accepts
    # since it never certifies: every 2x2 minor is a unit or smaller while
    # one entry is large, so the computed pair leaves the dominant cone and
    # must trip the soundness assertion
    base = q3.pi(-1)
    rows = tuple(tuple(base + (q3.pi(1) if r == c else q3.zero())
                       for c in range(4)) for r in range(4))
    fake = GroupElement(q3, rows)
    with pytest.raises(InternalSoundnessError):
        cartan_invariants(fake)


def test_matrix_json_roundtrip(fields):
    rnd = random.Random(8)
    for name in ("Q3", "F4((t))"):
        spec = fields[name]
        g = random_k_element(spec, 2, rnd)
        again = matrix_from_json(spec, json.dumps(g.to_strings()))
        assert again == g


def test_k1_k2_embed_validation(fields):
    q3 = fields["Q3"]
    with pytest.raises(ValueError):
        sp4.k1_embed(q3, ((q3.pi(1), q3.zero()), (q3.zero(), q3.pi(1))))  # det not unit
    with pytest.raises(ValueError):
        sp4.k2_embed(q3, ((q3.integer(2), q3.zero()), (q3.zero(), q3.integer(2))))
    with pytest.raises(ValueError):
        sp4.mu21(q3, q3.pi(-1))


# ---------------------------------------------------------------------------
# certification against the full product t(m) J m - J


def _defects(spec, rows):
    """Oracle: the nonzero entries (r, c, str) of t(m) J m - J in row-major order.

    Built from the full product, with no use of the form's antisymmetry.
    """
    j = sp4.j_rows(spec)
    jm = [[sum((j[r][k] * rows[k][c] for k in range(4)), spec.zero()) for c in range(4)]
          for r in range(4)]
    out = []
    for r in range(4):
        for c in range(4):
            defect = sum((rows[k][r] * jm[k][c] for k in range(4)), spec.zero()) - j[r][c]
            if not defect.is_zero():
                out.append((r, c, defect.to_str()))
    return out


def _random_generator(spec, rnd):
    def integral():
        code = rnd.randrange(spec.q)
        return spec.from_residue_code(code).shift(rnd.randrange(3)) if code else spec.zero()

    def unit():
        return spec.from_residue_code(rnd.randrange(1, spec.q)) + spec.pi(1) * integral()

    def nonzero():
        return unit().shift(rnd.randrange(3))

    pick = rnd.randrange(8)
    if pick == 0:
        return sp4.d_matrix(spec, rnd.randrange(4), rnd.randrange(-2, 3))
    if pick == 1:
        return rnd.choice((sp4.mu21, sp4.mu32, sp4.mu31, sp4.mu41))(spec, integral())
    if pick == 2:
        return sp4.torus(spec, unit(), unit())
    if pick == 3:
        return rnd.choice((sp4.weyl_w21, sp4.weyl_w32, sp4.j_form))(spec)
    if pick == 4:
        return sp4.k1_embed(spec, ((unit(), integral()), (spec.pi(1) * integral(), unit())))
    if pick == 5:
        return random_k_element(spec, 1, rnd)
    if pick == 6:
        # a, b both nonzero, so the c - ab entry is exercised
        return sp4.lower_from_params(spec, nonzero(), nonzero(), integral(), integral(),
                                     unit(), unit())
    return _random_generator(spec, rnd).inverse()


def _random_product(spec, rnd, factors=4):
    g = sp4.identity(spec)
    for _ in range(factors):
        g = g * _random_generator(spec, rnd)
    return g


def _assert_certified_like_oracle(spec, rows):
    """Certification accepts rows iff the oracle does, else names its first defect."""
    defects = _defects(spec, rows)
    if not defects:
        assert sp4.is_symplectic(spec, rows)
        return False
    with pytest.raises(SymplecticError) as err:
        sp4.symplectic_check(spec, rows)
    assert (err.value.row, err.value.col, err.value.defect) == defects[0]
    assert not sp4.is_symplectic(spec, rows)
    return True


@pytest.mark.parametrize("name", ["Q2", "Q3", "F2((t))", "F4((t))"])
def test_certification_matches_full_product(fields, name):
    spec = fields[name]
    rnd = random.Random(0x5E7 + len(name))
    rejected = 0
    for _ in range(20):
        g = _random_product(spec, rnd)
        assert _defects(spec, g.rows) == []
        assert sp4.symplectic_check(spec, g.rows) == g
        # one perturbed entry breaks the form unless row r of J g is a
        # multiple of e_c (a root-subgroup step), so both outcomes occur
        r, c = rnd.randrange(4), rnd.randrange(4)
        delta = spec.pi(rnd.randrange(-2, 3)) * spec.from_residue_code(rnd.randrange(1, spec.q))
        rows = [list(row) for row in g.rows]
        rows[r][c] = rows[r][c] + delta
        rejected += _assert_certified_like_oracle(spec, tuple(map(tuple, rows)))
    assert rejected >= 10


@pytest.mark.parametrize("name", ["Q3", "F2((t))", "F4((t))"])
def test_each_pairing_violation_is_named(fields, name):
    spec = fields[name]
    rnd = random.Random(0xA11)
    x = spec.pi(1) + spec.one()
    for a, b in sp4.PAIRS:
        cols = [list(col) for col in zip(*sp4.identity(spec).rows)]
        if a + b == 3:
            # scaling column a scales omega(c_a, c_b) alone, b being a's partner
            cols[a] = [x * e for e in cols[a]]
        else:
            # adding x e_(3-a) to column b turns omega(c_a, c_b) from 0 into +-x
            cols[b][3 - a] = cols[b][3 - a] + x
        base = tuple(zip(*cols))
        g = _random_product(spec, rnd, factors=3)
        # left multiplication by a symplectic g preserves every pairing
        for rows in (base, sp4.mat_mul(g.rows, base)):
            assert [d[:2] for d in _defects(spec, rows)] == [(a, b), (b, a)]
            assert _assert_certified_like_oracle(spec, rows)


@pytest.mark.parametrize("name", ["Q2", "Q3", "F2((t))", "F4((t))"])
def test_inverse_is_minus_j_transpose_j(fields, name):
    spec = fields[name]
    rnd = random.Random(0x1F + len(name))
    j = sp4.j_rows(spec)
    one = sp4.identity(spec)
    for _ in range(15):
        g = _random_product(spec, rnd)
        oracle = sp4.mat_mul(j, sp4.mat_mul(tuple(zip(*g.rows)), j))
        assert g.inverse().rows == tuple(tuple(-e for e in row) for row in oracle)
        assert g * g.inverse() == one


# ---------------------------------------------------------------------------
# matrix product against a schoolbook oracle


def _schoolbook(spec, a, b):
    """Every entry as the full sum of its four products, zeros and ones included."""
    return tuple(tuple(sum((a[r][k] * b[k][c] for k in range(4)), spec.zero())
                       for c in range(4)) for r in range(4))


def _fresh_one(spec):
    """An element equal to 1 that is not the field's memoised one."""
    if spec.kind == "mixed":
        x = PadicElem(spec, 0, 1, 1)
    else:
        x = LaurentElem(spec, 0, (1,), (1,))
    assert x == spec.one() and x is not spec.one()
    return x


_ENTRY = st.tuples(st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(["Q2", "Q3", "F2((t))", "F4((t))"]),
       seed=st.integers(0, 2 ** 32 - 1),
       factors=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       zero_rows=st.tuples(st.sampled_from((None, 0, 1, 2, 3)),
                           st.sampled_from((None, 0, 1, 2, 3))),
       fresh_ones=st.tuples(st.lists(_ENTRY, max_size=5), st.lists(_ENTRY, max_size=5)))
def test_mat_mul_matches_schoolbook(fields, name, seed, factors, zero_rows, fresh_ones):
    spec = fields[name]
    rnd = random.Random(seed)
    mats = []
    for n_factors, zero_row, ones in zip(factors, zero_rows, fresh_ones):
        rows = [list(row) for row in _random_product(spec, rnd, factors=n_factors).rows]
        for r, c in ones:
            rows[r][c] = _fresh_one(spec)
        if zero_row is not None:
            rows[zero_row] = [spec.zero()] * 4
        mats.append(tuple(map(tuple, rows)))
    a, b = mats
    assert sp4.mat_mul(a, b) == _schoolbook(spec, a, b)


# ---------------------------------------------------------------------------
# wedge norm against all 36 minors


def _wedge_oracle(rows):
    """log_q ||L2 g|| with every one of the 36 minors formed."""
    best = -INF
    for r1, r2 in sp4.PAIRS:
        for c1, c2 in sp4.PAIRS:
            minor = rows[r1][c1] * rows[r2][c2] - rows[r1][c2] * rows[r2][c1]
            if not minor.is_zero():
                best = max(best, -minor.valuation())
    return best


WEDGE_FIELDS = ["Q2", "Q3", "Q5", "F2((t))", "F4((t))"]


def _kdk(spec, rnd):
    i = rnd.randrange(0, 5)
    k1, k2 = random_k_element(spec, 2, rnd), random_k_element(spec, 2, rnd)
    return (k1 * sp4.d_matrix(spec, i, rnd.randrange(0, i + 1)) * k2).rows


def _free_y_product(spec, rnd):
    """beta^-1 alpha of a witness whose y is drawn freely, as the identity sweeps do."""
    if spec.kind == "equal" and spec.p == 2:
        lemma, i, j = rnd.choice(((lw.CHAR2_02, 6, 2), (lw.CHAR2_02, 5, 1),
                                  (lw.SPHER1M1, 3, 2)))
    else:
        lemma, i, j = rnd.choice(((lw.SPHER01, 4, 1), (lw.SPHER01, 5, 1),
                                  (lw.SPHER1M1, 3, 2)))
    ring = residue_ring(spec, lw.lemma_depth(lemma, spec, i, j))
    a, b, x, y = (rnd.choice(ring.elements()) for _ in range(4))
    return lw.build_witness(lemma, spec, i, j, 0, a, b, x, 0, y_override=y).product.rows


def _near_rank_one(spec, rnd):
    """Two pairs of rows r and lam*r + pi^n*e.  In a minor of such a pair, ad
    and bc share the term lam*r[c1]*r[c2]; where it dominates they tie in
    valuation and cancel down to pi^n times a minor of (r, e), or to 0."""
    def elem():
        return random_element(spec, rnd, span=8) if rnd.randrange(5) else spec.zero()

    def unit(shift):
        u = random_element(spec, rnd, span=8)
        while u.is_zero():
            u = random_element(spec, rnd, span=8)
        return u.shift(shift - u.valuation())

    rows = []
    for _ in range(2):
        r = [elem() for _ in range(4)]
        lam, n = unit(rnd.randrange(-3, 2)), rnd.randrange(0, 5)
        e = [elem().shift(n) if rnd.randrange(3) else spec.zero() for _ in range(4)]
        rows += [r, [lam * x + y for x, y in zip(r, e)]]
    rnd.shuffle(rows)
    return tuple(map(tuple, rows))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(WEDGE_FIELDS), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from((_kdk, _free_y_product, _near_rank_one)))
def test_wedge_norm_matches_all_minors(fields, name, seed, kind):
    rows = kind(fields[name], random.Random(seed))
    assert sp4.wedge_norm_exponent(rows) == _wedge_oracle(rows)


@pytest.mark.parametrize("name", WEDGE_FIELDS)
def test_inverse_has_the_norms_of_g(fields, name):
    # g^-1 = -J t(g) J: its entries and 2x2 minors are those of g up to sign
    # and place, so the identity sweep reads beta's norms off beta^-1
    spec = fields[name]
    rnd = random.Random(f"inverse-norms:{name}")
    mats = [random_k_element(spec, 3, rnd) for _ in range(10)]
    mats += [GroupElement(spec, _kdk(spec, rnd)) for _ in range(20)]
    if spec.kind == "equal":
        cases = ((lw.CHAR2_02, 6, 2, 0), (lw.SPHER1M1, 3, 2, 0),
                 (lw.NONSPHER1M1, 4, 4, 1))
    else:
        cases = ((lw.SPHER01, 4, 1, 0), (lw.SPHER1M1, 3, 2, 0),
                 (lw.NONSPHER01, 5, 1, 1), (lw.NONSPHER1M1, 4, 4, 1))
    for lemma, i, j, k in cases:
        domains = tuple_space(lemma, spec, i, j, k)
        for _ in range(5):
            a, b, x, eps = (dom[rnd.randrange(len(dom))] for dom in domains)
            wit = lw.build_witness(lemma, spec, i, j, k, a, b, x, eps)
            mats += [wit.beta_inv, wit.alpha_mat, wit.merged_reference]
            if wit.k1 is not None:
                mats += [wit.k1, wit.g1_reference]
    assert len({sp4.wedge_norm_exponent(g.rows) for g in mats}) > 2
    for g in mats:
        inv = g.inverse()
        assert sp4.norm_exponent(inv.rows) == sp4.norm_exponent(g.rows)
        assert sp4.wedge_norm_exponent(inv.rows) == sp4.wedge_norm_exponent(g.rows)


@pytest.mark.parametrize("name", WEDGE_FIELDS)
def test_wedge_norm_sees_cancelling_ties(fields, name):
    spec = fields[name]
    z, o, u = spec.zero(), spec.one(), spec.pi(-3)
    # in the minor of rows and columns 1, 2, ad and bc have valuation -6
    # and cancel, down to u (valuation -3) and then to 0
    rows = ((u, u, z, z), (u, u + o, z, z), (z, z, o, z), (z, z, z, o))
    assert _wedge_oracle(rows) == sp4.wedge_norm_exponent(rows) == 3
    rows = ((u, u, z, z), (u, u, z, z), (z, z, o, z), (z, z, z, o))
    assert _wedge_oracle(rows) == sp4.wedge_norm_exponent(rows) == 3
    for seed in range(40):
        rows = _near_rank_one(spec, random.Random(seed))
        assert sp4.wedge_norm_exponent(rows) == _wedge_oracle(rows)


@pytest.mark.parametrize("name", ["Q2", "Q3", "Q5", "F2((t))", "F4((t))"])
def test_unipotent_product_law(fields, name):
    # the law against the 4x4 product of the two unipotents, on parameters
    # that are zero or of any valuation, negative ones included
    spec = fields[name]
    rnd = random.Random(f"unipotent-law:{name}")
    one = spec.one()

    def params():
        return tuple(spec.zero() if rnd.randrange(4) == 0 else random_element(spec, rnd)
                     for _ in range(4))

    for _ in range(200):
        p, q = params(), params()
        product = (sp4.lower_from_params(spec, *p, one, one)
                   * sp4.lower_from_params(spec, *q, one, one))
        assert sp4.lower_from_params(spec, *sp4.unipotent_product(p, q), one, one) == product
