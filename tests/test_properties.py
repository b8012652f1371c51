"""Property-based checks across the exact layers."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from sp4lab import lemma_witnesses as lw
from sp4lab import sp4
from sp4lab import zigzag as zz
from sp4lab.exactfield import parse_field, residue_ring
from sp4lab.sp4 import cartan_invariants
from sp4lab.exactfield import LaurentElem
from sp4lab.gfq import poly_trim
from sp4lab.verifiers import (
    decompose_k1k2,
    expand_lower,
    lower_from_params,
    lower_params,
    random_k_element,
)
from sp4lab.verifiers.decompose import _word_product

Q3 = parse_field("Q3")
F4 = parse_field("F4((t))")
ROUND_TRIP_FIELDS = tuple(parse_field(n) for n in ("Q2", "Q3", "F2((t))", "F4((t))"))


def _integral(data, spec, unit=False):
    """A random integral element of spec, a unit when unit is set."""
    if spec.kind == "mixed":
        num = data.draw(st.integers(-500, 500).filter(lambda n: not unit or n % spec.p))
        den = data.draw(st.integers(1, 60).filter(lambda n: n % spec.p))
        return spec.rational(num, den)
    coef = st.integers(0, spec.q - 1)
    lead = st.integers(1, spec.q - 1) if unit else coef
    num = poly_trim((data.draw(lead),) + tuple(data.draw(st.lists(coef, max_size=4))))
    den = (1,) + tuple(data.draw(st.lists(coef, max_size=3)))
    if not num:
        return spec.zero()
    return LaurentElem(spec, 0, num, poly_trim(den))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_lower_params_round_trip_and_mu_expansion(data):
    spec = data.draw(st.sampled_from(ROUND_TRIP_FIELDS))
    params = tuple(_integral(data, spec) for _ in range(4)) + tuple(
        _integral(data, spec, unit=True) for _ in range(2))
    g = lower_from_params(spec, *params)
    assert sp4.is_symplectic(spec, g.rows)
    assert lower_params(g) == params
    # the identity the decomposition relies on without re-multiplying
    assert _word_product(spec, expand_lower(g)) == g


@settings(max_examples=60, deadline=None)
@given(a=st.integers(-20, 20), b=st.integers(-20, 20), c=st.integers(-20, 20),
       d=st.integers(-20, 20), e=st.sampled_from([1, -1, 2, 4, 5]),
       f=st.sampled_from([1, -1, 2, 7]))
def test_lower_triangular_expansion_reconstructs(a, b, c, d, e, f):
    elem = lower_from_params(Q3, Q3.integer(a), Q3.integer(b), Q3.integer(c),
                             Q3.integer(d), Q3.integer(e), Q3.integer(f))
    fl = decompose_k1k2(elem)
    assert fl.block_count <= 30
    assert _word_product(Q3, fl.factors) == elem


@settings(max_examples=40, deadline=None)
@given(i=st.integers(2, 6), jj=st.integers(0, 6), a=st.integers(0, 8),
       b=st.integers(0, 8), x=st.integers(0, 8), eps=st.integers(0, 2))
def test_spher01_cells_hypothesis(i, jj, a, b, x, eps):
    j = min(jj, i - 1)
    depth = 2 * ((i + j) // 2) - 2 * j
    if depth < 1:
        return
    ring = residue_ring(Q3, depth)
    wit = lw.build_witness(lw.SPHER01, Q3, i, j, 0, a % ring.size,
                           b % ring.size, x % ring.size, eps)
    assert cartan_invariants(wit.product)[0] == wit.expected_cell
    assert wit.product == wit.merged_reference


@settings(max_examples=40, deadline=None)
@given(i=st.integers(0, 5), j=st.integers(0, 5), depth=st.integers(1, 3),
       seed=st.integers(0, 10 ** 6))
def test_cartan_bi_invariance_hypothesis(i, j, depth, seed):
    if j > i:
        i, j = j, i
    rnd = random.Random(seed)
    k1 = random_k_element(Q3, depth, rnd)
    k2 = random_k_element(Q3, depth, rnd)
    g = k1 * sp4.d_matrix(Q3, i, j) * k2
    assert cartan_invariants(g)[0] == (i, j)


@settings(max_examples=80, deadline=None)
@given(i=st.integers(0, 60), j=st.integers(0, 60), char2=st.booleans())
def test_planner_total_or_blocked(i, j, char2):
    if j > i:
        i, j = j, i
    regime = zz.Regime(zz.CHAR_2) if char2 else zz.Regime(zz.CHAR_NE2, v0=0)
    try:
        path = zz.plan_path((i, j), regime)
    except zz.PlannerError:
        blocked = {(0, 0), (1, 0), (1, 1)} | ({(2, 1)} if char2 else set())
        assert (i, j) in blocked
        return
    zz.validate_path(path)
    d = path.notes["diagonal"]
    assert d[0] == 2 * d[1]


def test_connectivity_between_roomy_cells():
    # far from the walls the move graph links any two cells (through a
    # common diagonal stretch); verified by bidirectional search
    regime = zz.Regime(zz.CHAR_NE2, v0=0)
    for start, goal in (((17, 5), (23, 9)), ((12, 6), (19, 4))):
        route = zz._bfs_route(regime, start, lambda c: c == goal, 60)
        assert route is not None


def test_wedge_norm_claims_exhaustive_small():
    # stated factor norms checked on every tuple of one small instance
    from sp4lab.sp4 import wedge_norm_exponent
    spec = Q3
    i, j = 3, 1
    depth = lw.lemma_depth(lw.SPHER01, spec, i, j)
    ring = residue_ring(spec, depth)
    m = (i + j) // 2
    for a in ring.elements():
        for b in ring.elements():
            wit = lw.build_witness(lw.SPHER01, spec, i, j, 0, a, b, ring.zero, 1)
            assert wedge_norm_exponent(wit.beta_inv.inverse().rows) == i + j
            assert wedge_norm_exponent(wit.alpha_mat.rows) == 2 * m - 2 * j
    i, j = 3, 2
    depth = lw.lemma_depth(lw.SPHER1M1, spec, i, j)
    ring = residue_ring(spec, depth)
    for a in ring.elements():
        for x in ring.elements():
            wit = lw.build_witness(lw.SPHER1M1, spec, i, j, 0, a, ring.zero, x, 1)
            assert wedge_norm_exponent(wit.beta_inv.inverse().rows) == i
            assert wedge_norm_exponent(wit.alpha_mat.rows) == j


def test_cartan_k_invariance_thousand():
    rnd = random.Random(99)
    for field in (Q3, F4):
        for _ in range(500):
            k1 = random_k_element(field, 2, rnd)
            k2 = random_k_element(field, 2, rnd)
            i = rnd.randrange(0, 5)
            j = rnd.randrange(0, i + 1)
            g = k1 * sp4.d_matrix(field, i, j) * k2
            assert cartan_invariants(g)[0] == (i, j)
            assert cartan_invariants(g.inverse())[0] == (i, j)
