"""Fourier layer: characters, transform norms, line averaging, type constants."""

import itertools
import math

import numpy as np
import pytest

from sp4lab.exactfield import parse_field, residue_ring
from sp4lab.fourier import (
    SpaceSpec,
    _fft_ratio,
    _fft_ratios,
    _sign_table,
    c2_constant,
    c2_constant_direct,
    characters_pairing,
    check_fft_lemma,
    estimate_type_constant,
    fft_rhs_coefficient,
    line_operator,
    parse_space,
    shifted_difference_operator,
    shifted_rewrite_families,
    transform_matrix,
    transform_norm,
    type_ratio,
)


def test_space_grammar():
    s = parse_space("l2:4")
    assert s.p == 2 and s.d == 4 and s.is_hilbert
    s = parse_space("l1.5:3")
    assert s.p == 1.5 and s.d == 3
    assert parse_space("hilbert:2").p == 2
    with pytest.raises(ValueError):
        parse_space("x2:4")
    for p in (0.5, float("nan")):
        with pytest.raises(ValueError):
            SpaceSpec(p, 2)
    assert parse_space("hilbert").d == 1
    for bad in ("lx:2", "hilbert:x", "hilbertx:2", "lnan:2", "l2"):
        with pytest.raises(ValueError, match=f"bad space spec '{bad}'"):
            parse_space(bad)


def test_character_orthogonality_grid(fields):
    for name in ("Q2", "Q3", "Q5", "F2((t))", "F3((t))", "F4((t))"):
        spec = fields[name]
        for n in (1, 2, 3):
            if spec.q ** n > 200:
                continue
            mat = characters_pairing(spec, n)
            size = mat.shape[0]
            gram = mat @ mat.conj().T
            assert np.abs(gram - size * np.eye(size)).max() <= 1e-10 * size
            # rows pairwise distinct
            for a in range(mat.shape[0]):
                for b in range(a + 1, mat.shape[0]):
                    assert np.abs(mat[a] - mat[b]).max() > 1e-9


def test_character_examples(fields):
    f2 = fields["F2((t))"]
    sums = characters_pairing(f2, 1).sum(axis=1)
    nontrivial = [abs(s) for s in sums if abs(s) > 1e-9]
    assert len(nontrivial) == 1  # only the trivial character has nonzero sum
    q3 = fields["Q3"]
    mat = characters_pairing(q3, 2)
    gram = mat @ mat.conj().T
    assert np.abs(gram - 9 * np.eye(9)).max() < 1e-10
    f4 = fields["F4((t))"]
    characters_pairing(f4, 1)  # perfectness certified at construction


@pytest.mark.parametrize("name", ["Q2", "Q3", "Q5", "Q7", "F2((t))", "F3((t))",
                                  "F4((t))", "F5((t))", "F7((t))", "F8((t))",
                                  "F9((t))", "F25((t))"])
def test_level_one_characters_are_indexed_by_residue_code(name):
    # c2_constant reads column c for code c, and check_fft_lemma reads row 1
    spec = parse_field(name)
    ring = residue_ring(spec, 1)
    mat = characters_pairing(spec, 1)
    assert np.array_equal(mat[0], np.ones(spec.q))
    assert np.abs(mat[1] - 1.0).max() > 1e-9
    elems = ring.elements()
    assert [elems.index(ring.embed_residue_code(c)) for c in range(spec.q)] == list(range(spec.q))


def test_hilbert_norm_exact(fields):
    for name in ("Q2", "Q3"):
        spec = fields[name]
        for h in (1, 2):
            res = transform_norm(spec, h, SpaceSpec(2.0, 1))
            assert res["kind"] == "exact"
            assert abs(res["lower"] - spec.q ** (-h / 2)) <= 1e-9


def test_hilbert_norm_dimension_independent(fields):
    spec = fields["Q2"]
    mat = transform_matrix(spec, 1)
    base = np.linalg.svd(mat, compute_uv=False)[0]
    for d in (1, 2, 4, 8):
        sv = np.linalg.svd(np.kron(mat, np.eye(d)), compute_uv=False)[0]
        assert abs(sv - base) <= 1e-9


def test_l1_witness_reaches_one(fields):
    res = transform_norm(fields["Q2"], 1, SpaceSpec(1.0, 2), iters=300, seed=0)
    assert res["lower"] == pytest.approx(1.0, abs=1e-9)
    assert res["upper"] == 1.0
    assert res["kind"] == "bracket"


@pytest.mark.parametrize("name", ["Q2", "Q3", "F4((t))"])
@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("p", [1.0, 1.5])
def test_structured_starts_close_the_bracket_when_d_covers_the_ring(fields, name, h, p):
    # with d = 16 >= q^h the delta-diagonal start attains the interpolation
    # bound q^(-h(1-1/p)), so the bracket closes with no search step
    res = transform_norm(fields[name], h, SpaceSpec(p, 16), iters=0)
    assert abs(res["lower"] - res["upper"]) <= 1e-12
    assert res["converged"] and res["bracket_consistent"]


def test_lp_bracket_orders(fields):
    res = transform_norm(fields["Q3"], 1, SpaceSpec(1.5, 3), iters=400, seed=1)
    assert res["lower"] <= res["upper"] * (1 + 1e-9)
    assert res["upper"] == pytest.approx(3 ** (-1 / 3))


def test_fft_hilbert_exact_example(fields):
    rep = check_fft_lemma(fields["Q2"], 1, 2, 0, space=SpaceSpec(2.0, 1))
    assert rep.status == "pass"
    assert rep.margins["rhs_coefficient"] == pytest.approx(0.5)
    assert rep.margins["max_ratio"] <= 1 + 1e-8


def test_fft_hilbert_grid(fields):
    for name in ("Q2", "Q3"):
        spec = fields[name]
        for n, k in ((2, 0), (3, 0), (3, 1)):
            rep = check_fft_lemma(spec, 1, n, k, space=SpaceSpec(2.0, 1))
            assert rep.status == "pass", (name, n, k)


def test_fft_rejects_ill_typed_shift(fields):
    with pytest.raises(ValueError):
        check_fft_lemma(fields["Q2"], 1, 2, 1)


def test_fft_rejects_an_unknown_strategy(fields):
    # a misspelt "exhaustive" must not turn the exact check into a search
    with pytest.raises(ValueError, match="unknown strategy"):
        check_fft_lemma(fields["Q2"], 1, 2, strategy="exhaustiv")


def test_fft_lp_random(fields):
    rep = check_fft_lemma(fields["Q2"], 1, 2, 0, space=SpaceSpec(1.5, 2),
                          strategy="random", trials=800, seed=7)
    assert rep.status == "pass"
    assert rep.margins["max_ratio"] <= 1 + 1e-8


def _search_operator(spec, n, k):
    # the operator and decay coefficient check_fft_lemma searches at p = 1.5
    if k:
        return shifted_difference_operator(spec, n, k, 1)[0]
    return line_operator(spec, n, characters_pairing(spec, 1)[1])


@pytest.mark.parametrize("name,n,k,d,m", [("Q3", 2, 0, 3, 64), ("Q2", 3, 1, 2, 37),
                                          ("Q2", 3, 0, 1, 5), ("Q3", 3, 1, 9, 11)])
def test_fft_ratios_match_per_family_bit_for_bit(fields, name, n, k, d, m):
    spec = fields[name]
    mat = _search_operator(spec, n, k)
    rng = np.random.default_rng(3)
    fams = (rng.standard_normal((m, mat.shape[1], d))
            + 1j * rng.standard_normal((m, mat.shape[1], d)))
    fams[m // 2] = 0.0
    for p in (1.5, 2.0, 1.0):
        got = _fft_ratios(mat, fams, p, 0.7)
        assert got.shape == (m,)
        assert got[m // 2] == 0.0
        assert got.tolist() == [_fft_ratio(mat, fam, p, 0.7) for fam in fams]


def _per_family_search(spec, h, n, k, space, trials, seed):
    # check_fft_lemma's search, scoring one family at a time
    mat = _search_operator(spec, n, k)
    coeff = fft_rhs_coefficient(spec, h, n, k, space)
    rng = np.random.default_rng(seed)
    cols = mat.shape[1]
    best, best_fam, done = 0.0, None, 0
    while done < trials:
        m = min(64, trials - done)
        fams = (rng.standard_normal((m, cols, space.d))
                + 1j * rng.standard_normal((m, cols, space.d)))
        for fam in fams:
            r = _fft_ratio(mat, fam, space.p, coeff)
            if r > best:
                best, best_fam = r, fam
        done += m
    step = 0.5
    for _ in range(trials // 4):
        idx = (rng.integers(cols), rng.integers(space.d))
        cand = best_fam.copy()
        cand[idx] += step * (rng.standard_normal() + 1j * rng.standard_normal())
        r = _fft_ratio(mat, cand, space.p, coeff)
        if r > best:
            best, best_fam = r, cand
        else:
            step *= 0.998
    return best


@pytest.mark.parametrize("name", ["Q2", "Q3"])
@pytest.mark.parametrize("k", [0, 1])
def test_batched_search_matches_per_family_loop(fields, name, k):
    spec, n, space = fields[name], 2 + k, SpaceSpec(1.5, 3)
    rep = check_fft_lemma(spec, 1, n, k, space=space, strategy="random",
                          trials=150, seed=5)
    assert rep.margins["max_ratio"] == _per_family_search(spec, 1, n, k, space, 150, 5)


def test_sign_table_is_shared_and_read_only():
    for n in (1, 4, 12):
        table = _sign_table(n)
        assert table is _sign_table(n)
        assert table.tolist() == [list(s) for s in itertools.product((1.0, -1.0), repeat=n)]
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


def test_rewrite_identity_exact(fields):
    rng = np.random.default_rng(11)
    for name, n, k, eps0 in (("Q3", 3, 1, 2), ("Q2", 3, 1, 1), ("Q2", 4, 1, 1)):
        spec = fields[name]
        ring = residue_ring(spec, n)
        nx = len(ring.pi_multiples(k))
        ny = len(ring.pi_multiples(2 * k))
        xi = rng.standard_normal((nx * ny, 2)) + 1j * rng.standard_normal((nx * ny, 2))
        _, full, reduced = shifted_rewrite_families(spec, n, k, xi, eps0_code=eps0)
        assert abs(full - reduced) <= 1e-12 * max(1.0, abs(full))


def test_c2_bounds_and_agreement(fields):
    for name in ("Q2", "Q3", "Q5", "F4((t))"):
        spec = fields[name]
        q = spec.q
        for eps0 in range(1, q):
            a = c2_constant(spec, eps0)
            b = c2_constant_direct(spec, eps0)
            assert a == pytest.approx(b, abs=1e-9)
            assert a <= (2 * (q - 1)) ** 2 + 1e-9
        # codes index the character matrix directly, so a non-code is refused
        for eps0 in (0, q, -1):
            for c2 in (c2_constant, c2_constant_direct):
                with pytest.raises(ValueError):
                    c2(spec, eps0)


def test_rhs_coefficient_examples(fields):
    # q=2, h=1, n=2, k=0, hilbert: q^(2h-2) e^(-2(n/h-1) alpha) = 1/2
    coeff = fft_rhs_coefficient(fields["Q2"], 1, 2, 0, SpaceSpec(2.0, 1))
    assert coeff == pytest.approx(0.5)


def test_type_constant_hilbert_is_one():
    res = estimate_type_constant(SpaceSpec(2.0, 5), 2.0, 7, trials=25, seed=0)
    assert res["max_ratio"] == pytest.approx(1.0, abs=1e-9)


def test_type_constant_l1_growth():
    for n in (4, 9):
        vecs = np.eye(n, n, dtype=complex)
        ratio = type_ratio(vecs, 1.0, 2.0)
        assert ratio == pytest.approx(math.sqrt(n))


def test_type_constant_validation():
    for p in (0.5, float("nan")):
        with pytest.raises(ValueError):
            estimate_type_constant(SpaceSpec(1.0, 2), p, 3)
