"""Valuation arithmetic, residue rings, and the canonical section."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4lab.exactfield import (
    EQUAL,
    MIXED,
    FieldConfigError,
    FieldSpec,
    IntResidueRing,
    LaurentElem,
    NonIntegralError,
    PadicElem,
    PolyResidueRing,
    make_field,
    parse_element,
    parse_field,
    reduce_mod,
    residue_ring,
    two_valuation,
)
from sp4lab.fourier import characters_pairing
from sp4lab.gfq import gf, poly_mul, poly_trim
from conftest import FIELD_NAMES, random_element
from test_gfq import oracle_add, oracle_gcd, oracle_mul

INF = math.inf


def test_make_field_examples():
    spec = make_field(MIXED, 3, 1)
    assert (spec.p, spec.q) == (3, 3)
    spec = make_field(EQUAL, 2, 2)
    assert spec.q == 4
    with pytest.raises(FieldConfigError):
        make_field(MIXED, 4, 1)
    with pytest.raises(FieldConfigError):
        make_field(MIXED, 3, 2)
    with pytest.raises(FieldConfigError):
        make_field(EQUAL, 7, 5)  # no stored irreducible


def test_parse_field_grammar():
    assert str(parse_field("Q3")) == "Q3"
    assert str(parse_field("F4((t))")) == "F4((t))"
    assert parse_field("F9((t))").f == 2
    for bad in ("q3", "Q4", "F6((t))", "F4", "Zp", "F4((T))"):
        with pytest.raises(FieldConfigError):
            parse_field(bad)


def test_valuation_examples(fields):
    assert fields["Q2"].integer(8).valuation() == 3
    f3 = parse_field("F3((t))")
    x = f3.pi(-2) * (f3.one() + f3.pi(1))
    assert x.valuation() == -2
    assert fields["Q3"].zero().valuation() == INF


def test_two_valuation(fields):
    assert two_valuation(fields["Q2"]) == 1
    assert two_valuation(fields["Q5"]) == 0
    assert two_valuation(fields["F3((t))"]) == 0
    with pytest.raises(FieldConfigError):
        two_valuation(fields["F2((t))"])
    with pytest.raises(FieldConfigError):
        two_valuation(fields["F4((t))"])


def test_valuation_axioms_bulk(fields):
    rnd = random.Random(1)
    for name in FIELD_NAMES:
        spec = fields[name]
        for _ in range(10_000 // len(FIELD_NAMES) + 1):
            x = random_element(spec, rnd)
            y = random_element(spec, rnd)
            if not (x.is_zero() or y.is_zero()):
                assert (x * y).valuation() == x.valuation() + y.valuation()
            s = x + y
            assert s.valuation() >= min(x.valuation(), y.valuation())
            if x.valuation() != y.valuation():
                assert s.valuation() == min(x.valuation(), y.valuation())


@settings(max_examples=150, deadline=None)
@given(num=st.integers(-10 ** 6, 10 ** 6), den=st.integers(1, 10 ** 4),
       shift=st.integers(-8, 8))
def test_padic_mul_add_hypothesis(num, den, shift):
    spec = parse_field("Q3")
    x = spec.rational(num, den).shift(shift)
    y = spec.rational(den, 7)
    assert ((x + y) - y) == x
    if not x.is_zero():
        assert (x * y / x) == y
        assert (x / x) == spec.one()


def test_reduce_section_roundtrip_exhaustive(fields):
    for name in ("Q2", "Q3", "F2((t))", "F4((t))"):
        spec = fields[name]
        if spec.q > 4:
            continue
        for n in range(1, 5):
            ring = residue_ring(spec, n)
            for rep in ring.elements():
                lift = ring.section(rep)
                assert lift.is_integral()
                assert lift.reduce(ring) == rep
                if spec.kind == MIXED:
                    assert 0 <= rep < spec.p ** n
                else:
                    assert len(rep) <= n


def test_reduce_examples(fields):
    q3 = fields["Q3"]
    ring = residue_ring(q3, 1)
    assert q3.integer(5).reduce(ring) == 2
    assert ring.section(2) == q3.integer(2)
    f2 = fields["F2((t))"]
    ring2 = residue_ring(f2, 2)
    e = f2.one() + f2.pi(1) + f2.pi(3)
    assert e.reduce(ring2) == (1, 1)
    assert ring2.section((1, 1)).to_str() == "1+t"
    with pytest.raises(NonIntegralError):
        reduce_mod(q3.rational(1, 3), 2)


def test_ring_arithmetic_unit_inverse(fields):
    for name in FIELD_NAMES:
        spec = fields[name]
        ring = residue_ring(spec, 3)
        for rep in ring.elements():
            if ring.is_unit(rep):
                assert ring.mul(rep, ring.inv(rep)) == ring.one
            else:
                with pytest.raises(ZeroDivisionError):
                    ring.inv(rep)
            break  # one unit and one non-unit per field suffice here
        assert ring.mul(ring.shift(ring.one, 1), ring.shift(ring.one, 2)) == \
            ring.shift(ring.one, 3)


def test_pi_multiples(fields):
    spec = fields["Q3"]
    ring = residue_ring(spec, 3)
    assert len(ring.pi_multiples(1)) == 9
    assert all(ring.valuation(r) >= 1 for r in ring.pi_multiples(1))
    assert ring.pi_multiples(5) == (0,)
    f4 = fields["F4((t))"]
    ring = residue_ring(f4, 2)
    assert len(ring.pi_multiples(1)) == 4
    assert all(r == () or r[0] == 0 for r in ring.pi_multiples(1))


CONTRACT_FIELDS = ("Q2", "Q3", "Q5", "F2((t))", "F3((t))", "F4((t))", "F8((t))",
                   "F9((t))")


def _enumeration_oracle(spec, n):
    """The classes of O/pi^n in enumeration order: range(p^n), or every
    coefficient tuple in itertools.product order, trimmed."""
    if spec.kind == MIXED:
        return tuple(range(spec.p ** n))
    return tuple(poly_trim(c) for c in itertools.product(range(spec.q), repeat=n))


@pytest.mark.parametrize("name", CONTRACT_FIELDS)
def test_residue_ring_contract(name):
    spec = parse_field(name)
    for n in (1, 2, 3):
        ring = residue_ring(spec, n)
        assert type(ring) is (IntResidueRing if spec.kind == MIXED else PolyResidueRing)
        oracle = _enumeration_oracle(spec, n)
        assert tuple(ring.elements()) == oracle
        for k in range(n + 2):
            view = ring.pi_multiples(k)
            want = tuple(r for r in oracle if ring.valuation(r) >= min(k, n))
            assert tuple(view) == want, (name, n, k)
            size = len(want)
            assert len(view) == size
            assert [view[r] for r in range(-size, size)] == list(want + want)
            for bad in (size, -size - 1):
                with pytest.raises(IndexError):
                    view[bad]
            for sl in (slice(None, 4), slice(1, None, 2), slice(None, None, -1),
                       slice(-3, -1)):
                assert tuple(view[sl]) == want[sl]
            assert view.index(want[-1]) == size - 1
        for code in range(spec.q):
            assert ring.residue_code(ring.embed_residue_code(code)) == code


def _character_oracle(spec, n):
    """The character pairing matrix by the direct double loop over both
    kinds of residue ring."""
    elems = _enumeration_oracle(spec, n)
    mat = np.empty((len(elems), len(elems)), dtype=complex)
    if spec.kind == MIXED:
        mod = spec.p ** n
        root = 2.0 * math.pi / mod
        for bi, b in enumerate(elems):
            for ai, a in enumerate(elems):
                mat[bi, ai] = cmath.exp(1j * root * ((a * b) % mod))
    else:
        k = spec.residue_gf
        root = 2.0 * math.pi / spec.p
        for bi, b in enumerate(elems):
            for ai, a in enumerate(elems):
                prod = poly_trim(poly_mul(k, a, b)[:n])
                coeff = prod[n - 1] if len(prod) >= n else 0
                mat[bi, ai] = cmath.exp(1j * root * k.trace_to_prime(coeff))
    return mat


@pytest.mark.parametrize("name,depths", [("Q2", (1, 2, 3)), ("Q3", (1, 2)),
                                         ("F2((t))", (1, 2)), ("F3((t))", (1, 2)),
                                         ("F4((t))", (1, 2))])
def test_character_table_bit_identical_to_double_loop(name, depths):
    spec = parse_field(name)
    for n in depths:
        assert np.array_equal(characters_pairing(spec, n).matrix,
                              _character_oracle(spec, n)), (name, n)


def test_element_serialization_roundtrip(fields):
    rnd = random.Random(9)
    for name in FIELD_NAMES:
        spec = fields[name]
        for _ in range(60):
            x = random_element(spec, rnd)
            assert parse_element(spec, x.to_str()) == x


def test_norm_convention(fields):
    # |x| = q^(-v); |0| = 0 by convention (valuation +inf)
    from fractions import Fraction
    from sp4lab.exactfield import valuation_and_norm
    q3 = fields["Q3"]
    assert q3.pi(2).valuation() == 2
    assert q3.pi(-1).valuation() == -1
    assert q3.zero().valuation() == INF
    assert valuation_and_norm(fields["Q2"].integer(8)) == (3, Fraction(1, 8))
    assert valuation_and_norm(q3.pi(-2)) == (-2, 9)
    v, norm = valuation_and_norm(q3.zero())
    assert v == INF and norm == 0


# ---------------------------------------------------------------------------
# Laurent elements stay in lowest terms


def _cross_equal(x, y):
    """Equality by cross-multiplication, which needs no canonical form."""
    if not x.num or not y.num:
        return x.num == y.num
    k = x.spec.residue_gf
    return x.v == y.v and poly_mul(k, x.num, y.den) == poly_mul(k, y.num, x.den)


def _assert_lowest_terms(x):
    if not x.num:
        assert (x.v, x.num, x.den) == (0, (), (1,))
        return
    assert x.num[0] != 0 and x.num[-1] != 0
    assert x.den[0] == 1 and x.den[-1] != 0
    assert oracle_gcd(x.spec.residue_gf, x.num, x.den) == (1,)


@st.composite
def laurent_triples(draw):
    """Three elements of one F_q((t)) whose raw fractions share a common factor."""
    spec = parse_field(draw(st.sampled_from(["F2((t))", "F3((t))", "F4((t))"])))
    k = spec.residue_gf
    poly = st.lists(st.integers(0, k.q - 1), min_size=1, max_size=4).map(poly_trim)
    common = draw(poly.filter(bool))

    def element():
        num = poly_mul(k, draw(poly), common)
        den = poly_mul(k, draw(poly.filter(bool)), common)
        return LaurentElem(spec, draw(st.integers(-4, 4)), num, den)

    return spec, element(), element(), element()


@settings(max_examples=300, deadline=None)
@given(laurent_triples())
def test_laurent_lowest_terms_hypothesis(triple):
    spec, x, y, z = triple
    results = [x, y, z, x + y, x - y, x * y, parse_element(spec, x.to_str())]
    if not y.is_zero():
        results += [x / y, (x * y) / y, (x + z) / y]
    for r in results:
        _assert_lowest_terms(r)
    for a in results:
        for b in results:
            assert (a == b) == _cross_equal(a, b)
            if a == b:
                assert hash(a) == hash(b)
    assert (x + y) - y == x
    if not y.is_zero():
        assert (x * y) / y == x
    assert parse_element(spec, x.to_str()) == x


@st.composite
def polynomial_pairs(draw):
    """Two polynomial elements (den == (1,)) of one F_q((t))."""
    spec = parse_field(draw(st.sampled_from(["F2((t))", "F3((t))", "F4((t))"])))
    k = spec.residue_gf
    poly = st.lists(st.integers(0, k.q - 1), max_size=12).map(poly_trim)

    def element():
        num = draw(poly)
        if not num:
            return spec.zero()
        return LaurentElem(spec, draw(st.integers(-3, 3)), num, (1,))

    return spec, element(), element()


def _fields(x):
    return x.v, x.num, x.den


@settings(max_examples=300, deadline=None)
@given(polynomial_pairs())
def test_polynomial_fast_path_matches_normalised(pair):
    spec, x, y = pair
    k = spec.residue_gf

    def shifted(z, v):
        return (0,) * (z.v - v) + z.num

    def normalised(v, num):
        return LaurentElem(spec, v, num, (1,)) if num else spec.zero()

    assert _fields(-x) == _fields(normalised(x.v, tuple(k.neg(c) for c in x.num)))
    if x.is_zero() or y.is_zero():
        return
    assert _fields(x * y) == _fields(normalised(x.v + y.v, oracle_mul(k, x.num, y.num)))
    v = min(x.v, y.v)
    neg_y = tuple(k.neg(c) for c in shifted(y, v))
    assert _fields(x + y) == _fields(normalised(v, oracle_add(k, shifted(x, v),
                                                              shifted(y, v))))
    assert _fields(x - y) == _fields(normalised(v, oracle_add(k, shifted(x, v), neg_y)))


@st.composite
def integral_padic_triples(draw):
    """Two elements of one Q_p with den == 1, and one with any den."""
    spec = parse_field(draw(st.sampled_from(["Q2", "Q3", "Q5"])))

    def element(den=1):
        num = draw(st.integers(-10 ** 6, 10 ** 6))
        return spec.rational(num, den).shift(draw(st.integers(-4, 4)))

    return spec, element(), element(), element(draw(st.integers(1, 10 ** 4)))


def _padic_normalised(spec, fr):
    """The element of value fr from the normalising constructor, p stripped by hand."""
    num, den, v = fr.numerator, fr.denominator, 0
    while num and num % spec.p == 0:
        num, v = num // spec.p, v + 1
    while den % spec.p == 0:
        den, v = den // spec.p, v - 1
    return PadicElem(spec, v, num, den)


def _same(x, y):
    assert _fields(x) == _fields(y)
    assert x == y and hash(x) == hash(y)


@settings(max_examples=300, deadline=None)
@given(integral_padic_triples())
def test_integral_padic_fast_path_matches_normalised(triple):
    spec, x, y, w = triple
    fx, fy, fw = x.as_fraction(), y.as_fraction(), w.as_fraction()
    _same(x * y, _padic_normalised(spec, fx * fy))
    _same(x + y, _padic_normalised(spec, fx + fy))
    _same(x - y, _padic_normalised(spec, fx - fy))
    _same(-x, _padic_normalised(spec, -fx))
    _same(x * w, _padic_normalised(spec, fx * fw))
    _same(x + w, _padic_normalised(spec, fx + fw))
    if y.num:
        assert y - y is spec.zero()
    assert x * spec.zero() is spec.zero() and spec.zero() * w is spec.zero()


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["Q2", "Q3", "Q5", "F2((t))", "F4((t))"]),
       seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-5, 5))
def test_monomial_products_are_shifts(name, seed, k):
    spec = parse_field(name)
    x = random_element(spec, random.Random(seed))
    cls = PadicElem if spec.kind == MIXED else LaurentElem
    expected = cls(spec, x.v + k, x.num, x.den) if x.num else spec.zero()
    for r in (spec.pi(k) * x, x * spec.pi(k), x.shift(k)):
        _same(r, expected)
    assert x.shift(0) is x
    _same(x * spec.one(), x)
    _same(spec.one() * x, x)
    assert x * spec.zero() is spec.zero() and spec.zero() * x is spec.zero()


OPERAND_KINDS = ("zero", "monomial", "integral", "general")


@st.composite
def operand_pairs(draw):
    """Two elements of one field, each a zero, a power of the uniformizer,
    an integral (polynomial) element or a general fraction."""
    spec = parse_field(draw(st.sampled_from(
        ["Q2", "Q3", "Q5", "F2((t))", "F3((t))", "F4((t))"])))
    k = spec.residue_gf

    def poly(unit_constant):
        c = draw(st.lists(st.integers(0, k.q - 1), min_size=1, max_size=4))
        if unit_constant:
            c[0] = draw(st.integers(1, k.q - 1))
        return poly_trim(c)

    def element(kind):
        v = draw(st.integers(-4, 4))
        if kind == "zero":
            return spec.zero()
        if kind == "monomial":
            return spec.pi(v)
        if spec.kind == MIXED:
            num = draw(st.integers(-60, 60).filter(bool))
            den = 1 if kind == "integral" else draw(st.integers(2, 60))
            return spec.rational(num, den).shift(v)
        if kind == "integral":
            return LaurentElem(spec, v, poly(True), (1,))
        num = poly(False)
        return LaurentElem(spec, v, num, poly(True)) if num else spec.zero()

    kinds = st.sampled_from(OPERAND_KINDS)
    return spec, element(draw(kinds)), element(draw(kinds))


def _schoolbook(spec, v, num_factors, den_factors):
    """num/den * pi^v from the normalising constructor, the numerator and
    denominator multiplied out by the schoolbook products."""
    if spec.kind == MIXED:
        return PadicElem(spec, v, math.prod(num_factors), math.prod(den_factors))
    k = spec.residue_gf
    return LaurentElem(spec, v, oracle_mul(k, *num_factors), oracle_mul(k, *den_factors))


@settings(max_examples=400, deadline=None)
@given(operand_pairs())
def test_shared_product_and_quotient_match_schoolbook(pair):
    spec, x, y = pair
    expected = _schoolbook(spec, x.v + y.v, (x.num, y.num), (x.den, y.den))
    _same(x * y, expected)
    _same(y * x, expected)
    if y.num:
        _same(x / y, _schoolbook(spec, x.v - y.v, (x.num, y.den), (x.den, y.num)))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


# ---------------------------------------------------------------------------
# equality, hashing and the shared constants


def test_padic_hash_is_the_hash_of_its_value(fields):
    q3 = fields["Q3"]
    five = q3.integer(5)
    assert five == 5 and hash(five) == hash(5)
    assert len({five, 5}) == 1
    assert q3.rational(9, 2) == Fraction(9, 2)
    assert len({q3.rational(9, 2), Fraction(9, 2), q3.rational(18, 4)}) == 1
    rnd = random.Random(4)
    for name in ("Q2", "Q3", "Q5"):
        for _ in range(60):
            x = random_element(fields[name], rnd)
            fr = x.as_fraction()
            assert x == fr and hash(x) == hash(fr)
            if fr.denominator == 1:
                assert hash(x) == hash(int(fr))


def test_padic_equality_is_transitive_across_fields(fields):
    a, b = fields["Q3"].integer(5), fields["Q5"].integer(5)
    assert a == 5 and 5 == b and a == b
    assert len({a, b, 5}) == len({5, a, b}) == 1
    assert fields["Q3"].rational(7, 3) == fields["Q2"].rational(7, 3) != a
    with pytest.raises(TypeError, match="different fields"):
        a + b


def test_laurent_never_equals_an_int(fields):
    f2 = fields["F2((t))"]
    one = f2.one()
    assert f2.integer(3) == one  # 3 and 1 have one image in F_2((t))
    assert not one == 3 and one != 1 and not 1 == one
    assert len({one, 1, 3}) == 3
    assert f2.zero() != 0


def test_integers_are_shared_and_same_field_operands_pass_through(fields):
    q3 = fields["Q3"]
    assert q3.integer(7) is q3.integer(7)
    assert q3.zero() is q3.integer(0) and q3.one() is q3.integer(1)
    x = q3.rational(2, 9)
    assert x + 0 is x and x * 1 == x and x - 0 is x
    # int and Fraction operands coerce, on either side
    assert 1 - x == q3.rational(7, 9) == x - 1 + 2 * (1 - x) + 0
    assert 3 * x == x * 3 == q3.rational(2, 3) == x * Fraction(3)
    assert x - Fraction(1, 9) == q3.rational(1, 9) == Fraction(5, 9) - x - x
    # a zero on either side of a same-field operation
    zero = q3.zero()
    assert x + zero is x and zero + x is x and x - zero is x
    assert zero - x == -x and (zero - x).spec is q3
    assert x * zero is zero and zero * x is zero and x - x is zero
    # an equal spec that is not the interned one still coerces by value
    twin = FieldSpec(MIXED, 3, 1)
    assert twin is not q3
    y = twin.integer(1)
    for result, value in ((x + y, q3.rational(11, 9)), (y + x, q3.rational(11, 9)),
                          (x - y, q3.rational(-7, 9)), (y - x, q3.rational(7, 9)),
                          (x * y, x), (y * x, x)):
        assert result == value
    assert (x + y).spec is q3 and (x - y).spec is q3 and (y - x).spec is twin
    f2 = fields["F2((t))"]
    assert (f2.pi(1) - FieldSpec(EQUAL, 2, 1).one()).spec is f2
    with pytest.raises(TypeError, match="different fields"):
        x + fields["Q5"].one()
    with pytest.raises(TypeError, match="different fields"):
        x - fields["Q5"].one()
    with pytest.raises(TypeError, match="different fields"):
        f2.pi(1) * fields["Q2"].one()
    with pytest.raises(TypeError, match="different fields"):
        fields["Q2"].one() * f2.pi(1)
    with pytest.raises(TypeError, match="cannot coerce"):
        f2.pi(1) - Fraction(1, 2)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(FIELD_NAMES), seed=st.integers(0, 2 ** 32 - 1),
       zeros=st.tuples(st.booleans(), st.booleans()))
def test_difference_is_sum_with_negation(fields, name, seed, zeros):
    spec = fields[name]
    rnd = random.Random(seed)
    x, y = (spec.zero() if zero else random_element(spec, rnd) for zero in zeros)
    assert x - y == x + (-y)
    assert y - x == -(x - y)


@pytest.mark.parametrize("f", [1, 2, 3])
def test_char2_add_sub_match_digitwise_sum(f):
    k = gf(2, f)

    def digitwise(a, b):
        s, mult = 0, 1
        for _ in range(f):
            s += (a % 2 + b % 2) % 2 * mult
            a //= 2
            b //= 2
            mult *= 2
        return s

    for a in range(k.q):
        for b in range(k.q):
            assert k.add(a, b) == digitwise(a, b)
            assert k.sub(a, b) == digitwise(a, k.neg(b)) == k.add(a, k.neg(b))
