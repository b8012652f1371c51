"""Polynomial kernels over F_q against schoolbook tuple oracles.

The oracles below are plain coefficient loops through ``GF.mul``,
``GF.add``, ``GF.sub`` and ``GF.inv``; they share no code path with the
kernels under test (table rows, XOR, the packed F2[t] gcd).
"""

import contextlib
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4lab.gfq import GF, gf, poly_divmod, poly_gcd, poly_mul, poly_trim

FIELDS = [gf(2), gf(2, 2), gf(2, 3), gf(3), gf(5)]


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def oracle_mul(k, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = k.add(out[i + j], k.mul(x, y))
    return tuple(out)


def oracle_divmod(k, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    inv_lead = k.inv(b[-1])
    db = len(b) - 1
    quot = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        c = k.mul(a[-1], inv_lead)
        pos = len(a) - 1 - db
        quot[pos] = c
        for i in range(db + 1):
            a[pos + i] = k.sub(a[pos + i], k.mul(c, b[i]))
        while a and a[-1] == 0:
            a.pop()
    return _trim(quot), _trim(a)


def oracle_gcd(k, a, b):
    while b:
        _, a = oracle_divmod(k, a, b)
        a, b = b, a
    if a:
        c = k.inv(a[-1])
        a = tuple(k.mul(x, c) for x in a)  # monic
    return a


def oracle_add(k, a, b):
    n = max(len(a), len(b))
    a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
    return _trim(k.add(x, y) for x, y in zip(a, b))


@st.composite
def field_and_polys(draw, count=2):
    k = draw(st.sampled_from(FIELDS))
    coef = st.integers(0, k.q - 1)
    poly = st.one_of(
        st.sampled_from([(), (1,)]),
        coef.map(lambda c: poly_trim((c,))),
        st.lists(coef, max_size=50).map(poly_trim),
    )
    return (k,) + tuple(draw(poly) for _ in range(count))


@settings(max_examples=400, deadline=None)
@given(field_and_polys())
def test_mul_matches_oracle(case):
    k, a, b = case
    prod = poly_mul(k, a, b)
    assert isinstance(prod, tuple)
    assert prod == oracle_mul(k, a, b) == poly_mul(k, b, a)


@settings(max_examples=400, deadline=None)
@given(field_and_polys())
def test_divmod_matches_oracle(case):
    k, a, b = case
    if not b:
        return
    quot, rem = poly_divmod(k, a, b)
    assert (quot, rem) == oracle_divmod(k, a, b)
    assert isinstance(quot, tuple) and isinstance(rem, tuple)
    assert len(rem) < len(b)
    assert oracle_add(k, oracle_mul(k, quot, b), rem) == a


@settings(max_examples=400, deadline=None)
@given(field_and_polys(count=3))
def test_gcd_matches_oracle(case):
    k, a, b, c = case
    # a shared factor c makes nontrivial gcds common
    a, b = oracle_mul(k, a, c), oracle_mul(k, b, c)
    g = poly_gcd(k, a, b)
    assert isinstance(g, tuple)
    assert g == oracle_gcd(k, a, b)
    if not (a or b):
        assert g == ()
        return
    assert g[-1] == 1
    for x in (a, b):
        assert oracle_divmod(k, x, g)[1] == ()
    assert oracle_divmod(k, g, c)[1] == ()  # the shared factor divides the gcd


def test_kernel_edge_cases():
    for k in FIELDS:
        for a in ((), (1,), (k.q - 1,), (0, 1), tuple(range(k.q)) + (1,)):
            a = poly_trim(a)
            assert poly_mul(k, a, (1,)) == a == poly_mul(k, (1,), a)
            assert poly_mul(k, a, ()) == () == poly_mul(k, (), a)
            assert poly_gcd(k, a, ()) == oracle_gcd(k, a, ())
            assert poly_gcd(k, (), a) == oracle_gcd(k, (), a)
            if a:
                assert poly_divmod(k, a, a) == ((1,), ())
                assert poly_divmod(k, (), a) == ((), ())


# ---------------------------------------------------------------------------
# a faulty field kernel must make division fail, not loop


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the main thread once seconds have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class _SubAdds(GF):
    """F_p whose sub adds, so no division step cancels a leading term."""

    __slots__ = ()

    def sub(self, a, b):
        return self.add(a, b)


def _table_without_row_one(p, f):
    """A copy of F_q whose multiplication table sends 1 * y to 0."""
    k = GF(p, f)
    k._mul = (k._mul[0], (0,) * k.q) + k._mul[2:]
    return k


@pytest.mark.parametrize("k", [_SubAdds(3, 1), _SubAdds(5, 1),
                               _table_without_row_one(2, 2), _table_without_row_one(2, 1)])
def test_divmod_fails_on_a_faulty_kernel(k):
    # t^2 divided by t + 1: the first step's leading coefficient is 1
    with _deadline(5):
        with pytest.raises(AssertionError, match="step at degree 2"):
            poly_divmod(k, (0, 0, 1), (1, 1))


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2)])
def test_add_sub_neg_match_digitwise_arithmetic(p, f):
    k = gf(p, f)

    def digits(code):
        return [code // p ** i % p for i in range(f)]

    def code(ds):
        return sum(d % p * p ** i for i, d in enumerate(ds))

    for a in range(k.q):
        assert k.neg(a) == code([-x for x in digits(a)])
        for b in range(k.q):
            s = k.add(a, b)
            assert s == code([x + y for x, y in zip(digits(a), digits(b))])
            assert k.sub(a, b) == code([x - y for x, y in zip(digits(a), digits(b))])
            assert k.sub(s, b) == a
