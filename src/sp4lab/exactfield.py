"""Exact arithmetic in a global model of a non-archimedean local field.

Two kinds of field are supported, and both stay exact forever:

* mixed characteristic: the model is Q with the p-adic valuation; an
  element is ``num/den * p^v`` with num, den coprime integers prime to
  p and den > 0;
* equal characteristic: the model is F_q(t) with the t-adic valuation;
  an element is ``num/den * t^v`` with num, den coprime polynomials over
  F_q, num[0] != 0 and den[0] == 1.

Both kinds are kept in lowest terms, and zero is ``num/den = 0/1`` with
v = 0, so each value has exactly one representation: equality within
one field compares (v, num, den) field by field.  A p-adic element
equals every int, Fraction or p-adic element (of any Q_p) of the same
rational value and hashes as that value, so equality is transitive and
sets and dicts may mix them; arithmetic across two fields still raises
TypeError.  A Laurent element never equals an int:
F_q((t)) sends every n congruent mod p to one element, and no hash could
agree with all of them.  ``FieldSpec.integer`` memoises the image of n,
so equal small constants are one shared (immutable) object.

Products and quotients follow one skeleton for both kinds, written once
in ``_FieldElem``; a kind supplies only its unit numerator (1, or the
polynomial 1) and ``_times``, the product of two numerators.  A product
with a zero factor is the memoised ``spec.zero()``; a product with a pure
power of the uniformizer (num == den == 1) is a shift of the other
factor, and ``shift(0)`` is the element itself; a product of two integral
elements (den == 1) is built without normalising, since the product of
two p-free integers, or of two polynomials with nonzero constant terms,
is already in lowest terms over 1; every other product and quotient goes
through the normalising constructor.  Sums stay with each kind: integral
sums skip the gcd, since a p- (t-) stripped sum over 1 is in lowest
terms, and a zero sum is the memoised zero.  A difference x - y is one
signed sum, with no negated copy of y (in characteristic 2 it is the
sum).  An operand of the same class over the same ``FieldSpec`` object
skips coercion; ints, Fractions and elements over an equal but distinct
spec still go through ``_coerce``.

The uniformizer is p respectively t, the residue field has q elements,
and ``|x| = q^(-v(x))``.  A residue ring O/pi^n is one of two classes,
picked once by ``residue_ring``: ``IntResidueRing`` (Z/p^n, the ints in
[0, p^n)) or ``PolyResidueRing`` (F_q[t]/t^n, truncated polynomials).
Its ``elements()`` and ``pi_multiples(k)`` are index views that decode
a class from its index on demand, a ``range`` respectively a
``PolyView``, so a sampled draw from q^n classes builds none of them.
The canonical section lifts the digit / truncation representatives back
into the field.
"""

import functools
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from sp4lab.gfq import (
    ONE_POLY,
    gf,
    is_prime,
    poly_add,
    poly_mul,
    poly_neg,
    poly_series_inv,
    poly_sub,
    poly_t_valuation,
    poly_trim,
    poly_gcd,
    poly_divmod,
    poly_scale,
)

INF = math.inf

MIXED = "mixed"
EQUAL = "equal"


class FieldConfigError(ValueError):
    """Invalid field description (bad prime, unsupported q, bad grammar)."""


class NonIntegralError(ValueError):
    """Reduction mod pi^n was asked of an element with negative valuation."""


@dataclass(frozen=True)
class FieldSpec:
    """A validated local-field description: kind, residue characteristic, degree."""

    kind: str
    p: int
    f: int

    @property
    def q(self):
        return self.p ** self.f

    @functools.cached_property
    def residue_gf(self):
        return gf(self.p, self.f)

    # -- element constructors ------------------------------------------------

    @functools.cached_property
    def _integers(self):
        return {}

    def zero(self):
        return self.integer(0)

    def one(self):
        return self.integer(1)

    def integer(self, n):
        """Image of the rational integer n, built once per (spec, n)."""
        x = self._integers.get(n)
        if x is None:
            if self.kind == MIXED:
                x = _padic_from_fraction(self, Fraction(n))
            else:
                c = self.residue_gf.from_int(n)
                x = LaurentElem(self, 0, (c,) if c else (), (1,))
            self._integers[n] = x
        return x

    def rational(self, num, den=1):
        if self.kind != MIXED:
            raise FieldConfigError("rational literals only make sense in mixed characteristic")
        return _padic_from_fraction(self, Fraction(num, den))

    def pi(self, k=1):
        """pi^k as a field element."""
        if self.kind == MIXED:
            return PadicElem(self, k, 1, 1, normalize=False)
        return LaurentElem(self, k, ONE_POLY, ONE_POLY, normalize=False)

    def from_residue_code(self, code):
        """Embed a residue-field element (integer code) as a canonical lift."""
        ring = residue_ring(self, 1)
        return ring.section(ring.embed_residue_code(code))

    def __str__(self):
        if self.kind == MIXED:
            return f"Q{self.p}"
        return f"F{self.q}((t))"


def make_field(kind, p, f=1):
    """Validated FieldSpec; kind is "mixed" or "equal"."""
    if kind not in (MIXED, EQUAL):
        raise FieldConfigError(f"unknown field kind {kind!r}")
    if not is_prime(p):
        raise FieldConfigError(f"{p} is not prime")
    if f < 1:
        raise FieldConfigError("residue degree must be >= 1")
    if kind == MIXED and f != 1:
        raise FieldConfigError("mixed characteristic supports residue field F_p only (f = 1)")
    if kind == EQUAL:
        try:
            gf(p, f)
        except ValueError as exc:
            raise FieldConfigError(str(exc)) from exc
    return _cached_spec(kind, p, f)


@functools.lru_cache(maxsize=None)
def _cached_spec(kind, p, f):
    return FieldSpec(kind, p, f)


def parse_field(text):
    """Parse the CLI field grammar: Q<p> or F<q>((t)), case sensitive."""
    if text.startswith("Q") and text[1:].isdigit():
        p = int(text[1:])
        if not is_prime(p):
            raise FieldConfigError(f"bad field {text!r}: {p} is not prime")
        return make_field(MIXED, p, 1)
    if text.startswith("F") and text.endswith("((t))"):
        mid = text[1:-5]
        if mid.isdigit():
            q = int(mid)
            for p in range(2, q + 1):
                if q % p == 0:
                    f = 0
                    m = q
                    while m % p == 0:
                        m //= p
                        f += 1
                    if m == 1 and is_prime(p):
                        return make_field(EQUAL, p, f)
                    break
            raise FieldConfigError(f"bad field {text!r}: {q} is not a prime power")
    raise FieldConfigError(f"cannot parse field spec {text!r} (expected e.g. Q3 or F4((t)))")


def two_valuation(spec):
    """Valuation of the element 2; undefined in equal characteristic 2."""
    if spec.kind == EQUAL:
        if spec.p == 2:
            raise FieldConfigError("v0 undefined in characteristic 2 (2 = 0)")
        return 0
    return 1 if spec.p == 2 else 0


# ---------------------------------------------------------------------------
# elements


def _strip_p(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _padic_from_fraction(spec, fr):
    if fr == 0:
        return PadicElem(spec, 0, 0, 1)
    p = spec.p
    vn, num = _strip_p(fr.numerator, p)
    vd, den = _strip_p(fr.denominator, p)
    # a Fraction is in lowest terms with den > 0, and so are its p-free parts
    return PadicElem(spec, vn - vd, num, den, normalize=False)


class _FieldElem:
    """num/den * pi^v in lowest terms; a false num encodes zero.

    Each value has exactly one representation, so equality and hashing
    within one field compare the fields directly.  Subclasses supply
    ``_unit`` and ``_times`` for the shared product and quotient, the
    constructor and sum, the serialization, ``_coercible``, the foreign
    types ``==`` coerces, and ``_eq_across_fields``; a subclass that
    coerces a type also hashes like it.
    """

    __slots__ = ("spec", "v", "num", "den")

    def is_zero(self):
        return not self.num

    def valuation(self):
        return INF if not self.num else self.v

    def is_integral(self):
        return not self.num or self.v >= 0

    def is_unit(self):
        return bool(self.num) and self.v == 0

    def shift(self, k):
        """Multiply by pi^k."""
        if not self.num or not k:
            return self
        return type(self)(self.spec, self.v + k, self.num, self.den, normalize=False)

    def __mul__(self, other):
        if type(other) is not type(self) or other.spec is not self.spec:
            other = _coerce(self.spec, other)
        if not self.num or not other.num:
            return self.spec.zero()
        unit = self._unit
        if other.num == unit == other.den:
            return self.shift(other.v)
        if self.num == unit == self.den:
            return other.shift(self.v)
        num = self._times(self.num, other.num)
        if self.den == unit == other.den:
            return type(self)(self.spec, self.v + other.v, num, unit, normalize=False)
        return type(self)(self.spec, self.v + other.v, num,
                          self._times(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not type(self) or other.spec is not self.spec:
            other = _coerce(self.spec, other)
        if not other.num:
            raise ZeroDivisionError("division by zero field element")
        if not self.num:
            return self
        return type(self)(self.spec, self.v - other.v, self._times(self.num, other.den),
                          self._times(self.den, other.num))

    def __sub__(self, other):
        return self._sum(other, True)

    def __rsub__(self, other):
        # only a left operand that is not an element of this class gets here
        return _coerce(self.spec, other)._sum(self, True)

    def __rtruediv__(self, other):
        return _coerce(self.spec, other) / self

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            if not isinstance(other, self._coercible):
                return NotImplemented
            other = _coerce(self.spec, other)
        elif not (self.spec is other.spec or self.spec == other.spec):
            return self._eq_across_fields(other)
        return self.v == other.v and self.num == other.num and self.den == other.den

    def _eq_across_fields(self, other):
        return False

    def __hash__(self):
        return hash((self.v, self.num, self.den))

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"{type(self).__name__}({self.spec}, {self.to_str()})"

    def reduce(self, ring):
        """Canonical representative mod pi^n; needs valuation >= 0."""
        if not self.num:
            return ring.zero
        if self.v < 0:
            raise NonIntegralError(f"{self} has valuation {self.v} < 0")
        if self.v >= ring.n:
            return ring.zero
        return self._reduce_integral(ring)


class PadicElem(_FieldElem):
    """num/den * p^v with p-free, coprime num and den > 0; num == 0 encodes zero.

    The constructor cancels the gcd of num and den and makes den positive;
    ``normalize=False`` skips that work for callers whose inputs already
    meet the invariant.
    """

    __slots__ = ()

    _coercible = (int, Fraction)
    _unit = 1
    _times = staticmethod(operator.mul)

    def __init__(self, spec, v, num, den, normalize=True):
        if num == 0:
            v, num, den = 0, 0, 1
        elif normalize:
            g = math.gcd(num, den)
            if g > 1:
                num //= g
                den //= g
            if den < 0:
                num, den = -num, -den
        self.spec = spec
        self.v = v
        self.num = num
        self.den = den

    def _sum(self, other, negate=False):
        """self + other, or self - other as one signed sum when negate."""
        if type(other) is not PadicElem or other.spec is not self.spec:
            other = _coerce(self.spec, other)
        if other.num == 0:
            return self
        if self.num == 0:
            return -other if negate else other
        p = self.spec.p
        v = min(self.v, other.v)
        integral = self.den == 1 == other.den
        a = self.num if integral else self.num * other.den
        if self.v > v:
            a *= p ** (self.v - v)
        b = other.num if integral else other.num * self.den
        if other.v > v:
            b *= p ** (other.v - v)
        s = a - b if negate else a + b
        if s == 0:
            return self.spec.zero()
        dv, s = _strip_p(s, p)
        if integral:
            return PadicElem(self.spec, v + dv, s, 1, normalize=False)
        return PadicElem(self.spec, v + dv, s, self.den * other.den)

    __add__ = __radd__ = _sum

    def __neg__(self):
        return PadicElem(self.spec, self.v, -self.num, self.den, normalize=False)

    def _eq_across_fields(self, other):
        # every Q_p is modelled on Q, so elements of two of them are equal
        # when their rational values are, as their hashes say
        return self.as_fraction() == other.as_fraction()

    def __hash__(self):
        # the hash of the rational value, so equal ints and Fractions agree
        return hash(self.as_fraction())

    def as_fraction(self):
        p = self.spec.p
        if self.v >= 0:
            return Fraction(self.num * p ** self.v, self.den)
        return Fraction(self.num, self.den * p ** (-self.v))

    def to_str(self):
        fr = self.as_fraction()
        return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"

    def _reduce_integral(self, ring):
        m = ring.size
        return (self.num * pow(self.den, -1, m) * pow(self.spec.p, self.v, m)) % m


class LaurentElem(_FieldElem):
    """num/den * t^v with num, den in F_q[t] coprime, num[0] != 0, den[0] == 1.

    The constructor cancels t-powers and the gcd of num and den and scales
    den to constant term 1, so every element is kept in lowest terms.
    ``normalize=False`` skips that work for callers whose inputs already
    meet the invariant.  In characteristic 2, -x is x.
    """

    __slots__ = ()

    _coercible = ()
    _unit = ONE_POLY

    def _times(self, a, b):
        return poly_mul(self.spec.residue_gf, a, b)

    def __init__(self, spec, v, num, den, normalize=True):
        if normalize and num:
            k = spec.residue_gf
            dv = poly_t_valuation(den)
            if dv:
                den = den[dv:]
                v -= dv
            nv = poly_t_valuation(num)
            if nv:
                num = num[nv:]
                v += nv
            if len(den) > 1:
                g = poly_gcd(k, num, den)
                if len(g) > 1:
                    num, _ = poly_divmod(k, num, g)
                    den, _ = poly_divmod(k, den, g)
            if den[0] != 1:
                c = k.inv(den[0])
                num = poly_scale(k, num, c)
                den = poly_scale(k, den, c)
        if not num:
            v, num, den = 0, (), (1,)
        self.spec = spec
        self.v = v
        self.num = num
        self.den = den

    def _sum(self, other, negate=False):
        """self + other, or self - other as one signed sum when negate (in
        characteristic 2 a difference is a sum)."""
        if type(other) is not LaurentElem or other.spec is not self.spec:
            other = _coerce(self.spec, other)
        if not other.num:
            return self
        if not self.num:
            return -other if negate else other
        k = self.spec.residue_gf
        v = min(self.v, other.v)
        polynomial = self.den == ONE_POLY == other.den
        a = self.num if polynomial else poly_mul(k, self.num, other.den)
        if self.v > v:
            a = (0,) * (self.v - v) + a
        b = other.num if polynomial else poly_mul(k, other.num, self.den)
        if other.v > v:
            b = (0,) * (other.v - v) + b
        num = poly_sub(k, a, b) if negate and k.p != 2 else poly_add(k, a, b)
        if not num:
            return self.spec.zero()
        den = ONE_POLY if polynomial else poly_mul(k, self.den, other.den)
        return LaurentElem(self.spec, v, num, den)

    __add__ = __radd__ = _sum

    def __neg__(self):
        k = self.spec.residue_gf
        if k.p == 2:
            return self
        return LaurentElem(self.spec, self.v, poly_neg(k, self.num), self.den,
                           normalize=False)

    def to_str(self):
        if not self.num:
            return "0"
        num, den = self.num, self.den
        if self.v >= 0:
            num = (0,) * self.v + num
        else:
            den = (0,) * (-self.v) + den
        ns, ds = _poly_str(num), _poly_str(den)
        if den == (1,):
            return ns
        return f"({ns})/({ds})"

    def _reduce_integral(self, ring):
        n = ring.n
        k = self.spec.residue_gf
        inv = poly_series_inv(k, self.den, n)
        prod = poly_mul(k, self.num, inv)
        shifted = (0,) * self.v + prod
        return poly_trim(shifted[:n])


def _coerce(spec, x):
    if isinstance(x, _FieldElem):
        if x.spec is spec or x.spec == spec:
            return x
        raise TypeError("mixing elements of different fields")
    if isinstance(x, int):
        return spec.integer(x)
    if isinstance(x, Fraction) and spec.kind == MIXED:
        return _padic_from_fraction(spec, x)
    raise TypeError(f"cannot coerce {x!r} into {spec}")


def _poly_str(c):
    if not c:
        return "0"
    terms = []
    for i, x in enumerate(c):
        if not x:
            continue
        if i == 0:
            terms.append(str(x))
        elif i == 1:
            terms.append("t" if x == 1 else f"{x}*t")
        else:
            terms.append(f"t^{i}" if x == 1 else f"{x}*t^{i}")
    return "+".join(terms)


def parse_element(spec, text):
    """Parse the serialization produced by FieldElem.to_str()."""
    text = text.strip()
    if spec.kind == MIXED:
        try:
            return _padic_from_fraction(spec, Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldConfigError(f"bad rational literal {text!r}") from exc
    if "/" in text:
        ns, ds = text.split("/", 1)
    else:
        ns, ds = text, "1"
    num, nv = _parse_poly(spec, ns)
    den, dv = _parse_poly(spec, ds)
    if not den:
        raise FieldConfigError(f"zero denominator in {text!r}")
    if not num:
        return spec.zero()
    return LaurentElem(spec, nv - dv, num, den)


def _parse_poly(spec, text):
    k = spec.residue_gf
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    text = text.replace("-", "+-")
    coeffs = {}
    for term in text.split("+"):
        term = term.strip()
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:].strip()
        if "t" in term:
            cpart, _, epart = term.partition("t")
            cpart = cpart.rstrip("*").strip()
            c = int(cpart) if cpart else 1
            epart = epart.lstrip("^").strip()
            e = int(epart) if epart else 1
        else:
            c, e = int(term), 0
        code = c % k.q if c >= 0 else k.neg((-c) % k.q)
        if neg:
            code = k.neg(code)
        coeffs[e] = k.add(coeffs.get(e, 0), code)
    if not coeffs:
        return (), 0
    deg = max(coeffs)
    raw = poly_trim(tuple(coeffs.get(i, 0) for i in range(deg + 1)))
    v = poly_t_valuation(raw)
    if v is None:
        return (), 0
    return raw[v:], v


# ---------------------------------------------------------------------------
# residue rings O/pi^n


class ResidueRing:
    """O/pi^n with canonical representatives and exact ring arithmetic.

    ``residue_ring`` picks one of two subclasses, once per (spec, n), so no
    ring method tests the field's kind: ``IntResidueRing`` for Z/p^n, whose
    representatives are the ints in [0, p^n), and ``PolyResidueRing`` for
    F_q[t]/t^n, whose representatives are the polynomials of degree < n
    (little-endian tuples of residue-field codes).  Both supply the same
    arithmetic, the index views ``elements()`` and ``pi_multiples(k)``, the
    residue-code embedding and its inverse, the character pairing and the
    ``_lift`` behind the canonical ``section``.
    """

    __slots__ = ("spec", "n", "size", "_section_cache")

    def __init__(self, spec, n):
        if n < 1:
            raise ValueError("residue level must be >= 1")
        self.spec = spec
        self.n = n
        self.size = spec.q ** n
        self._section_cache = {}

    def inv(self, a):
        if self.valuation(a) != 0:
            raise ZeroDivisionError("inverse of a non-unit in O/pi^n")
        return self._unit_inv(a)

    def is_unit(self, a):
        return self.valuation(a) == 0

    def elements(self):
        """All classes, as an index view in enumeration order."""
        return self.pi_multiples(0)

    def section(self, rep):
        """Canonical lift O/pi^n -> O (digit respectively truncation section)."""
        cached = self._section_cache.get(rep)
        if cached is None:
            cached = self._section_cache[rep] = self._lift(rep)
        return cached

    def __repr__(self):
        return f"ResidueRing({self.spec}, {self.n})"


class IntResidueRing(ResidueRing):
    """Z/p^n: representatives are the ints in [0, p^n)."""

    __slots__ = ()

    zero, one = 0, 1

    def add(self, a, b):
        return (a + b) % self.size

    def sub(self, a, b):
        return (a - b) % self.size

    def neg(self, a):
        return (-a) % self.size

    def mul(self, a, b):
        return (a * b) % self.size

    def _unit_inv(self, a):
        return pow(a, -1, self.size)

    def shift(self, a, k):
        """Multiply by pi^k (k >= 0)."""
        return (a * self.spec.p ** k) % self.size

    def valuation(self, a):
        """pi-adic valuation of the class, capped at n (n for the zero class)."""
        return _strip_p(a, self.spec.p)[0] if a else self.n

    def pi_multiples(self, k):
        """The classes of pi^k O/pi^n as a range (the zero class alone once k >= n)."""
        return range(0, self.size, self.spec.p ** k) if k < self.n else (0,)

    def element_at(self, index):
        """Deterministic index -> representative map (for seeded sampling)."""
        return index % self.size

    def embed_residue_code(self, code):
        """Image in this ring of a residue-field element given by its code."""
        return code % self.size

    def residue_code(self, rep):
        """Code of the residue of a class; inverts ``embed_residue_code``."""
        return rep % self.spec.p

    def character(self, b, a):
        """(root, index) with chi_b(a) = exp(i * root * index)."""
        return 2.0 * math.pi / self.size, (a * b) % self.size

    def _lift(self, rep):
        return _padic_from_fraction(self.spec, Fraction(rep))

    def to_str(self, rep):
        return str(rep)


class PolyResidueRing(ResidueRing):
    """F_q[t]/t^n: representatives are little-endian coefficient tuples of
    degree < n, without trailing zeros."""

    __slots__ = ()

    zero, one = (), (1,)

    def add(self, a, b):
        return poly_add(self.spec.residue_gf, a, b)

    def sub(self, a, b):
        return poly_sub(self.spec.residue_gf, a, b)

    def neg(self, a):
        return poly_neg(self.spec.residue_gf, a)

    def mul(self, a, b):
        return poly_trim(poly_mul(self.spec.residue_gf, a, b)[:self.n])

    def _unit_inv(self, a):
        return poly_trim(poly_series_inv(self.spec.residue_gf, a, self.n)[:self.n])

    def shift(self, a, k):
        """Multiply by t^k (k >= 0)."""
        return poly_trim(((0,) * k + a)[:self.n])

    def valuation(self, a):
        """t-adic valuation of the class, capped at n (n for the zero class)."""
        v = poly_t_valuation(a)
        return self.n if v is None else v

    def pi_multiples(self, k):
        """The classes of t^k O/t^n as a ``PolyView``."""
        return PolyView(self.spec.q, k, self.n)

    def element_at(self, index):
        """Deterministic index -> representative map (for seeded sampling):
        the base-q digits of index, least significant at t^0."""
        q = self.spec.q
        coeffs = []
        for _ in range(self.n):
            index, r = divmod(index, q)
            coeffs.append(r)
        return poly_trim(coeffs)

    def embed_residue_code(self, code):
        """Image in this ring of a residue-field element given by its code."""
        return (code,) if code else ()

    def residue_code(self, rep):
        """Code of the residue of a class; inverts ``embed_residue_code``."""
        return rep[0] if rep else 0

    def character(self, b, a):
        """(root, index) with chi_b(a) = exp(i * root * index): the index is
        the trace to F_p of the t^(n-1) coefficient of a b."""
        prod = self.mul(a, b)
        coeff = prod[self.n - 1] if len(prod) >= self.n else 0
        return 2.0 * math.pi / self.spec.p, self.spec.residue_gf.trace_to_prime(coeff)

    def _lift(self, rep):
        v = poly_t_valuation(rep)
        if v is None:
            return self.spec.zero()
        return LaurentElem(self.spec, v, rep[v:], (1,), normalize=False)

    def to_str(self, rep):
        return _poly_str(rep)


class PolyView(Sequence):
    """The classes of t^k F_q[t]/t^n, indexed without building them.

    Index r holds the polynomial whose coefficients at t^k, ..., t^(n-1)
    are the base-q digits of r, the most significant at t^k: the order of
    ``itertools.product`` over those coefficients.  Slices are tuples.
    """

    __slots__ = ("_q", "_k", "_m")

    def __init__(self, q, k, n):
        self._q, self._k, self._m = q, k, max(n - k, 0)

    def __len__(self):
        return self._q ** self._m

    def __getitem__(self, r):
        indices = range(self._q ** self._m)
        if isinstance(r, slice):
            return tuple(map(self.__getitem__, indices[r]))
        r = indices[r]  # a negative r counts from the end
        coeffs = [0] * (self._k + self._m)
        for i in reversed(range(self._k, len(coeffs))):
            r, coeffs[i] = divmod(r, self._q)
        return poly_trim(coeffs)

    def __iter__(self):
        pad = (0,) * self._k
        for coeffs in itertools.product(range(self._q), repeat=self._m):
            yield poly_trim(pad + coeffs)


@functools.lru_cache(maxsize=None)
def residue_ring(spec, n):
    """O/pi^n: the one place that picks the ring class for a field's kind."""
    return (IntResidueRing if spec.kind == MIXED else PolyResidueRing)(spec, n)
