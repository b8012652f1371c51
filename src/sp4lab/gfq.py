"""Small finite fields F_q (q = p^f) and dense polynomial arithmetic over them.

Field elements are encoded as integers in ``range(q)``: the code
``c0 + c1*p + ... + c_{f-1}*p^(f-1)`` stands for the polynomial-basis
coordinates ``(c0, .., c_{f-1})`` with respect to a fixed irreducible
modulus.  For prime q the code is just the residue itself.  Polynomials
over F_q are tuples of codes, little-endian, with no trailing zeros
(``()`` is the zero polynomial); every function here takes and returns
that shape.  The kernels read whole rows of the multiplication table
and add by XOR in characteristic 2; ``poly_mul`` by a constant is one
table row.  For q = 2 alone, ``poly_gcd`` packs its operands into ints
and runs Euclid by shift-and-XOR, so its steps make no ``poly_divmod``
calls.

Only the handful of small fields the verifiers need are supported; the
modulus table below pins one irreducible per (p, f) so that arithmetic
is reproducible across runs.
"""

import functools

# Fixed irreducible moduli (little-endian coefficient tuples, degree f).
IRREDUCIBLE = {
    (2, 2): (1, 1, 1),      # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),   # x^3 + x + 1
    (3, 2): (1, 0, 1),      # x^2 + 1
    (5, 2): (2, 0, 1),      # x^2 + 2
}


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class GF:
    """Arithmetic tables for F_q, q = p^f.

    All operations work on integer codes in range(q).  Tables are tiny
    (q <= 25 in practice) so everything is precomputed at construction.
    """

    __slots__ = ("p", "f", "q", "modulus", "_add", "_mul", "_inv", "_neg", "_trace")

    def __init__(self, p, f):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if f < 1:
            raise ValueError("extension degree must be >= 1")
        if f > 1 and (p, f) not in IRREDUCIBLE:
            raise ValueError(f"no stored irreducible polynomial for q = {p}^{f}")
        self.p = p
        self.f = f
        self.q = p ** f
        self.modulus = IRREDUCIBLE.get((p, f))
        self._build_tables()

    def _coeffs(self, code):
        p, f = self.p, self.f
        out = []
        for _ in range(f):
            code, r = divmod(code, p)
            out.append(r)
        return tuple(out)

    def _code(self, coeffs):
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + (c % self.p)
        return code

    def _build_tables(self):
        p, f, q = self.p, self.f, self.q
        coeffs = [self._coeffs(a) for a in range(q)]
        self._add = tuple(tuple(self._code(tuple(x + y for x, y in zip(ca, cb)))
                                for cb in coeffs) for ca in coeffs)
        self._neg = tuple(self._code(tuple(-c for c in ca)) for ca in coeffs)
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            ca = coeffs[a]
            for b in range(a, q):
                cb = coeffs[b]
                prod = [0] * (2 * f - 1)
                for i, x in enumerate(ca):
                    if x:
                        for j, y in enumerate(cb):
                            prod[i + j] = (prod[i + j] + x * y) % p
                if f > 1:
                    mod = self.modulus
                    for k in range(2 * f - 2, f - 1, -1):
                        c = prod[k]
                        if c:
                            prod[k] = 0
                            for i in range(f):
                                prod[k - f + i] = (prod[k - f + i] - c * mod[i]) % p
                code = self._code(tuple(prod[:f]))
                mul[a][b] = code
                mul[b][a] = code
        self._mul = tuple(tuple(row) for row in mul)
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    inv[a] = b
                    break
            else:
                raise AssertionError(f"modulus for q={q} is not irreducible")
        self._inv = tuple(inv)
        # trace to the prime field: a + a^p + ... + a^(p^(f-1))
        trace = []
        for a in range(q):
            t, x = 0, a
            for _ in range(f):
                t = self.add(t, x)
                x = self.power(x, p)
            assert t < p, "trace landed outside the prime subfield"
            trace.append(t)
        self._trace = tuple(trace)

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in finite field")
        return self._inv[a]

    def power(self, a, n):
        r = 1
        while n:
            if n & 1:
                r = self._mul[r][a]
            a = self._mul[a][a]
            n >>= 1
        return r

    def trace_to_prime(self, a):
        """Absolute trace F_q -> F_p, returned as an int in range(p)."""
        return self._trace[a]

    def from_int(self, n):
        """Image of the rational integer n in F_q (via the prime subfield)."""
        return n % self.p


@functools.lru_cache(maxsize=None)
def gf(p, f=1):
    return GF(p, f)


# ---------------------------------------------------------------------------
# dense polynomials over F_q: little-endian tuples of codes, no trailing zeros

ZERO_POLY = ()
ONE_POLY = (1,)


def poly_trim(c):
    i = len(c)
    while i and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def poly_add(k, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = k.add(out[i], x)
    return poly_trim(out)


def poly_neg(k, a):
    return tuple(k.neg(x) for x in a)


def poly_sub(k, a, b):
    return poly_add(k, a, poly_neg(k, b))


def poly_mul(k, a, b):
    if not a or not b:
        return ZERO_POLY
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        # a constant factor maps a through one row of the table
        c = b[0]
        if c == 1:
            return a
        row = k._mul[c]
        return tuple([row[x] for x in a])
    out = [0] * (len(a) + len(b) - 1)
    table = k._mul
    if k.p == 2:
        for i, x in enumerate(a):
            if x:
                row = table[x]
                for j, y in enumerate(b):
                    out[i + j] ^= row[y]
    else:
        add = k.add
        for i, x in enumerate(a):
            if x:
                row = table[x]
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = add(out[i + j], row[y])
    return tuple(out)


def poly_scale(k, a, c):
    if c == 0:
        return ZERO_POLY
    return tuple(k.mul(x, c) for x in a)


def poly_divmod(k, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    table = k._mul
    inv_lead = k.inv(b[-1])
    db = len(b) - 1
    quot = [0] * max(0, len(a) - db)
    char2 = k.p == 2
    while len(a) > db:
        top = len(a) - 1
        c = table[a[top]][inv_lead]
        pos = top - db
        quot[pos] = c
        row = table[c]
        if char2:
            for i, y in enumerate(b):
                a[pos + i] ^= row[y]
        else:
            for i, y in enumerate(b):
                a[pos + i] = k.sub(a[pos + i], row[y])
        if a[top]:
            # a faulty table or sub would otherwise repeat this step forever
            raise AssertionError(f"poly_divmod: the step at degree {top} left "
                                 f"leading coefficient {a[top]}, not 0")
        while a and a[-1] == 0:
            a.pop()
    return poly_trim(quot), poly_trim(a)


def poly_gcd(k, a, b):
    """Monic gcd of a and b; the zero polynomial only when both are zero."""
    if k.q == 2:
        return _unpack2(_gcd2(_pack2(a), _pack2(b)))
    while b:
        _, a = poly_divmod(k, a, b)
        a, b = b, a
    if a:
        a = poly_scale(k, a, k.inv(a[-1]))  # monic
    return a


# F2[t] packed into ints (bit i is the coefficient of t^i), used only
# inside poly_gcd: Euclid by shift-and-XOR (Brent, Gaudry, Thome and
# Zimmermann, "Faster multiplication in GF(2)[x]", ANTS 2008).

_UNPACK2 = bytes.maketrans(b"01", b"\x00\x01")


def _pack2(a):
    n = 0
    for c in reversed(a):
        n = (n << 1) | c
    return n


def _unpack2(n):
    if n <= 1:
        return ONE_POLY if n else ZERO_POLY
    return tuple(bin(n)[:1:-1].encode().translate(_UNPACK2))  # digits, low first


def _gcd2(a, b):
    while b:
        db = b.bit_length()
        da = a.bit_length()
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length()
        a, b = b, a
    return a


def poly_series_inv(k, a, n):
    """Inverse of a modulo t^n; requires a[0] to be a unit."""
    if not a or a[0] == 0:
        raise ZeroDivisionError("series inverse needs a unit constant term")
    inv0 = k.inv(a[0])
    out = [inv0] + [0] * (n - 1)
    for i in range(1, n):
        s = 0
        for j in range(max(0, i - len(a) + 1), i):
            if a[i - j]:
                s = k.add(s, k.mul(out[j], a[i - j]))
        out[i] = k.neg(k.mul(s, inv0))
    return poly_trim(out)


def poly_t_valuation(a):
    """Index of the lowest nonzero coefficient; None for the zero polynomial."""
    for i, c in enumerate(a):
        if c:
            return i
    return None
