"""The group Sp4(F) over an exact local-field model.

Group elements are 4x4 matrices of exact field elements.  Building one
never certifies it: the constructors here are symplectic by their form,
and so are products and inverses.  ``symplectic_check`` certifies input
against the fixed skew form J: m is symplectic iff t(m) J m = J.  Entry
(a, b) of t(m) J m is the pairing omega(c_a, c_b) of columns a and b,
omega(u, w) = u0 w3 + u1 w2 - u2 w1 - u3 w0, and omega is alternating, so
t(m) J m - J is antisymmetric with zero diagonal.  Certification
therefore evaluates only the six pairings a < b (24 products instead of
two 4x4 matrix products), and the first violated entry in row-major
order is always one of them.  The Cartan cell of an element is read
off from the two norms ||g|| (max entry norm) and ||L2 g|| (max norm
over all 36 2x2 minors, most of them decided from entry valuations
alone): for g in K D(i,j) K they equal q^i and q^(i+j), and (i, j)
with i >= j >= 0 is the cell.  An independent elementary-divisor
routine over the valuation ring backs this up in the tests.
"""

import json

from sp4lab.exactfield import INF, parse_element, residue_ring


class SymplecticError(ValueError):
    """A matrix failed exact symplectic certification.

    Carries the first violated position of t(m) J m - J.
    """

    def __init__(self, row, col, defect):
        self.row = row
        self.col = col
        self.defect = defect
        super().__init__(f"not symplectic: (t(m) J m - J)[{row + 1}][{col + 1}] = {defect}")


class InternalSoundnessError(AssertionError):
    """A group element violated an invariant the theory guarantees."""


ROWS = range(4)
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class GroupElement:
    """An element of Sp4(F) with exact entries.

    The constructor never certifies: callers pass rows that are
    symplectic by construction, and ``symplectic_check`` certifies input.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)

    def __mul__(self, other):
        if self.field != other.field:
            raise TypeError("mixing elements over different fields")
        # Sp4 is closed under products, and the arithmetic is exact
        return GroupElement(self.field, mat_mul(self.rows, other.rows))

    def inverse(self):
        """g^(-1) = -J t(g) J, written out: entry (r, c) is g[3-c][3-r],
        negated when exactly one of r, c is >= 2.

        So g^(-1) = S P t(g) P S with P the order-reversing permutation and
        S = diag(1, 1, -1, -1).  The 2x2 minor of g^(-1) on rows r1, r2 and
        columns c1, c2 is therefore +- the minor of g on rows 3-c2, 3-c1
        and columns 3-r2, 3-r1, and its entries are +- those of g: g and
        g^(-1) have the same ``norm_exponent`` and ``wedge_norm_exponent``,
        and a norm of g^(-1) is read off g without inverting it.
        """
        g = self.rows
        return GroupElement(self.field, tuple(
            tuple(-g[3 - c][3 - r] if (r >= 2) != (c >= 2) else g[3 - c][3 - r]
                  for c in ROWS) for r in ROWS))

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    __hash__ = None

    def is_integral(self):
        return all(e.is_integral() for r in self.rows for e in r)

    def reduce(self, n):
        """Entrywise reduction mod pi^n; tuple-of-tuples of ring representatives."""
        ring = residue_ring(self.field, n)
        return tuple(tuple(e.reduce(ring) for e in r) for r in self.rows)

    def to_strings(self):
        return [[e.to_str() for e in r] for r in self.rows]

    def __repr__(self):
        return f"GroupElement({self.field}, {self.to_strings()})"


def mat_mul(a, b):
    """Product of two 4x4 matrices of elements of one field.

    The nonzero entries of each row of b are collected once, and a term
    whose factor is the field's memoised one is the other factor itself.
    Each entry starts as the memoised zero, which its first term replaces.
    """
    spec = a[0][0].spec
    zero, one = spec.zero(), spec.one()
    b_rows = [[(c, y) for c, y in enumerate(row) if not y.is_zero()] for row in b]
    out = []
    for ar in a:
        acc = [zero] * 4
        for x, b_row in zip(ar, b_rows):
            if x.is_zero():
                continue
            for c, y in b_row:
                term = y if x is one else x if y is one else x * y
                prev = acc[c]
                acc[c] = term if prev is zero else prev + term
        out.append(tuple(acc))
    return tuple(out)


def _zero_one(field):
    return field.zero(), field.one()


def j_rows(field):
    z, o = _zero_one(field)
    return ((z, z, z, o),
            (z, z, o, z),
            (z, -o, z, z),
            (-o, z, z, z))


def pairing(u, w):
    """omega(u, w) = u0 w3 + u1 w2 - u2 w1 - u3 w0; terms with a zero factor are skipped."""
    pos = neg = None
    for x, y in ((u[0], w[3]), (u[1], w[2])):
        if not (x.is_zero() or y.is_zero()):
            pos = x * y if pos is None else pos + x * y
    for x, y in ((u[2], w[1]), (u[3], w[0])):
        if not (x.is_zero() or y.is_zero()):
            neg = x * y if neg is None else neg + x * y
    if neg is None:
        return u[0].spec.zero() if pos is None else pos
    return -neg if pos is None else pos - neg


def _check_symplectic(field, rows):
    # (t(m) J m)[a][b] = omega(c_a, c_b).  Both it and J are antisymmetric
    # with zero diagonal, so a defect at (b, a) below the diagonal is minus
    # the defect at (a, b), which comes first in row-major order: the six
    # pairings a < b, taken in PAIRS order, find the first violation.
    cols = tuple(zip(*rows))
    z, o = _zero_one(field)
    for a, b in PAIRS:
        form = pairing(cols[a], cols[b])
        target = o if a + b == 3 else z  # J[a][b] above the diagonal
        if not form == target:
            raise SymplecticError(a, b, (form - target).to_str())


def symplectic_check(field, rows):
    """The group element with these rows, certified; raises SymplecticError
    naming the first violated entry.  This is the one certifying
    constructor."""
    g = GroupElement(field, rows)
    _check_symplectic(field, g.rows)
    return g


def is_symplectic(field, rows):
    """``symplectic_check`` as a boolean."""
    try:
        _check_symplectic(field, tuple(tuple(r) for r in rows))
        return True
    except SymplecticError:
        return False


# ---------------------------------------------------------------------------
# named generators


def identity(field):
    z, o = _zero_one(field)
    return GroupElement(field, ((o, z, z, z), (z, o, z, z), (z, z, o, z), (z, z, z, o)))


def j_form(field):
    return GroupElement(field, j_rows(field))


def d_matrix(field, i, j):
    """diag(pi^-i, pi^-j, pi^j, pi^i)."""
    z = field.zero()
    return GroupElement(field, (
        (field.pi(-i), z, z, z),
        (z, field.pi(-j), z, z),
        (z, z, field.pi(j), z),
        (z, z, z, field.pi(i))))


def weyl_w21(field):
    z, o = _zero_one(field)
    return GroupElement(field, ((z, o, z, z), (o, z, z, z), (z, z, z, o), (z, z, o, z)))


def weyl_w32(field):
    z, o = _zero_one(field)
    return GroupElement(field, ((o, z, z, z), (z, z, o, z), (z, -o, z, z), (z, z, z, o)))


def _require_integral(name, *elems):
    for e in elems:
        if not e.is_integral():
            raise ValueError(f"{name}: parameter {e} is not integral")


def _require_unit(name, *elems):
    for e in elems:
        if not e.is_unit():
            raise ValueError(f"{name}: parameter {e} is not a unit")


def mu21(field, a):
    _require_integral("mu21", a)
    z, o = _zero_one(field)
    return GroupElement(field, ((o, z, z, z), (a, o, z, z), (z, z, o, z), (z, z, -a, o)))


def mu32(field, a):
    _require_integral("mu32", a)
    z, o = _zero_one(field)
    return GroupElement(field, ((o, z, z, z), (z, o, z, z), (z, a, o, z), (z, z, z, o)))


def mu31(field, a):
    _require_integral("mu31", a)
    z, o = _zero_one(field)
    return GroupElement(field, ((o, z, z, z), (z, o, z, z), (a, z, o, z), (z, a, z, o)))


def mu41(field, a):
    _require_integral("mu41", a)
    z, o = _zero_one(field)
    return GroupElement(field, ((o, z, z, z), (z, o, z, z), (z, z, o, z), (a, z, z, o)))


def torus(field, e, f):
    _require_unit("torus", e, f)
    z = field.zero()
    return GroupElement(field, (
        (e, z, z, z), (z, f, z, z), (z, z, 1 / f, z), (z, z, z, 1 / e)))


def unipotent_entries(a, b, c, d):
    """The entries of the unipotent B(a, b, c, d) =
    ``lower_from_params(a, b, c, d, 1, 1)`` below its unit diagonal, in
    row-major order: (a), (c, b) and (d, c - ab, -a) in rows 2, 3 and 4.

    This is the one statement of B's entries; ``lower_from_params`` and
    ``lemma_witnesses._scale`` both place them.
    """
    return a, c, b, d, c - a * b, -a


def unipotent_product(p, q):
    """The parameters of B(p) B(q): the product law of the lower unipotent
    group, B(a, b, c, d) B(a', b', c', d') = B(a + a', b + b',
    c + c' + b a', d + d' + (c - ab) a' - a c').

    From the entries of ``unipotent_entries``: B(p) B(q) is unit lower
    triangular, and row r of it is sum_k B(p)[r][k] * row k of B(q).  Its
    (2,1) entry is a + a', its (3,2) entry b + b', its (3,1) entry
    c + b a' + c' and its (4,1) entry d + (c - ab) a' - a c' + d'.  The
    other two entries are those of B at these parameters: (4,3) is
    -a - a', and (4,2) is (c - ab) - a b' + (c' - a'b'), which is
    c'' - a''b'' once b a' cancels a' b.  The law holds over any
    commutative ring, characteristic 2 included, and B is injective
    because its parameters are entries, so B(p) B(q) = B(r) exactly when
    ``unipotent_product(p, q) == r``.
    """
    a, b, c, d = p
    a2, b2, c2, d2 = q
    return a + a2, b + b2, c + c2 + b * a2, d + d2 + (c - a * b) * a2 - a * c2


def lower_from_params(field, a, b, c, d, e, f):
    """The element of the lower Borel B with parameters (a, b, c, d, e, f):
    B(a, b, c, d) times diag(e, f, 1/f, 1/e).

    It is symplectic for all a..f with e, f != 0.  Its columns are
    c0 = e (1, a, c, d), c1 = f (0, 1, b, c - ab), c2 = (0, 0, 1, -a) / f
    and c3 = (0, 0, 0, 1/e), and their six pairings are J's entries:
    omega(c0, c1) = ef ((c - ab) + ab - c) = 0,
    omega(c0, c2) = (e/f) (-a + a) = 0, omega(c0, c3) = e/e = 1,
    omega(c1, c2) = f/f = 1, and omega(c1, c3) = omega(c2, c3) = 0 term
    by term.  Any torus element diag(pi^u, pi^v, pi^-v, pi^-u) times it,
    on either side, is symplectic too.
    """
    z = field.zero()
    fi = 1 / f
    b10, b20, b21, b30, b31, b32 = unipotent_entries(a, b, c, d)
    return GroupElement(field, (
        (e, z, z, z),
        (b10 * e, f, z, z),
        (b20 * e, b21 * f, fi, z),
        (b30 * e, b31 * f, b32 * fi, 1 / e)))


def k1_embed(field, a_block):
    """diag(A, Q tA^-1 Q) for A in GL2(O); a_block is a 2x2 matrix of elements.

    It is symplectic for every invertible A.  With A = [[a, b], [c, d]]
    and det = ad - bc, its columns are c0 = (a, c, 0, 0),
    c1 = (b, d, 0, 0), c2 = (0, 0, a, -c) / det and
    c3 = (0, 0, -b, d) / det, and their six pairings are J's entries:
    omega(c0, c2) = (-ac + ca) / det = 0, omega(c0, c3) = (ad - cb) / det
    = 1, omega(c1, c2) = (-bc + da) / det = 1,
    omega(c1, c3) = (bd - db) / det = 0, and omega(c0, c1) =
    omega(c2, c3) = 0 term by term.
    """
    (a, b), (c, d) = a_block
    _require_integral("k1_embed", a, b, c, d)
    det = a * d - b * c
    _require_unit("k1_embed determinant", det)
    z = field.zero()
    # Q tA^-1 Q with Q the 2x2 antidiagonal equals [[a, -b], [-c, d]] / det
    return GroupElement(field, (
        (a, b, z, z),
        (c, d, z, z),
        (z, z, a / det, -b / det),
        (z, z, -c / det, d / det)))


def k2_embed(field, b_block):
    """Middle SL2(O) block; b_block must have determinant exactly 1."""
    (a, b), (c, d) = b_block
    _require_integral("k2_embed", a, b, c, d)
    if not (a * d - b * c == field.one()):
        raise ValueError("k2_embed: block determinant is not 1")
    z, o = _zero_one(field)
    return GroupElement(field, (
        (o, z, z, z),
        (z, a, b, z),
        (z, c, d, z),
        (z, z, z, o)))


# ---------------------------------------------------------------------------
# Cartan invariants


def norm_exponent(rows):
    """log_q ||g|| = -min entry valuation."""
    best = -INF
    for r in rows:
        for e in r:
            v = e.valuation()
            if v is not INF and -v > best:
                best = -v
    return best


def wedge_norm_exponent(rows):
    """log_q ||L2 g|| over all 36 2x2 minors, decided exactly.

    A minor ad - bc has valuation at least min(v(ad), v(bc)), and exactly
    that when v(ad) != v(bc) (ultrametric inequality); v(ad) and v(bc)
    are sums of entry valuations.  So a minor whose bound cannot beat the
    best exponent so far is skipped, one with v(ad) != v(bc) is read off
    its bound, and ad - bc is formed only on a tie that could raise the
    maximum, where the two terms may cancel.
    """
    vals = [[e.valuation() for e in r] for r in rows]
    best = -INF
    for r1, r2 in PAIRS:
        va, vb = vals[r1], vals[r2]
        for c1, c2 in PAIRS:
            vad = va[c1] + vb[c2]
            vbc = va[c2] + vb[c1]
            v = vad if vad < vbc else vbc
            # INF + n is a new float, so compare to INF with ==
            if v == INF or -v <= best:
                continue
            if vad == vbc:
                a, b = rows[r1], rows[r2]
                v = (a[c1] * b[c2] - a[c2] * b[c1]).valuation()
                if v == INF or -v <= best:
                    continue
            best = -v
    return best


def cartan_invariants(g):
    """(i, j), the norm exponents (i, i+j) and the length i+j of g.

    Aborts with InternalSoundnessError if the computed pair leaves the
    dominant cone, which no symplectic matrix can do.
    """
    i = norm_exponent(g.rows)
    ij = wedge_norm_exponent(g.rows)
    j = ij - i
    if not (0 <= j <= i):
        raise InternalSoundnessError(
            f"cartan invariants left the dominant cone: i={i}, j={j}")
    return (i, j), (i, ij), ij


def elementary_divisor_exponents(g):
    """Valuations of the elementary divisors of g over the valuation ring.

    Independent oracle for the Cartan cell: pivots on a minimal-valuation
    entry and eliminates, as in Smith reduction over a discrete valuation
    ring.  Returns the four exponents in increasing order.
    """
    rows = [list(r) for r in g.rows]
    shift = 0
    vmin = min((e.valuation() for r in rows for e in r if not e.is_zero()), default=0)
    if vmin < 0:
        shift = -vmin
        rows = [[e.shift(shift) for e in r] for r in rows]
    exps = []
    size = 4
    for step in range(size):
        pr = pc = None
        best = INF
        for r in range(step, size):
            for c in range(step, size):
                v = rows[r][c].valuation()
                if v < best:
                    best, pr, pc = v, r, c
        if pr is None:
            raise InternalSoundnessError("singular matrix in elementary divisor scan")
        rows[step], rows[pr] = rows[pr], rows[step]
        for r in range(size):
            rows[r][step], rows[r][pc] = rows[r][pc], rows[r][step]
        pivot = rows[step][step]
        for r in range(step + 1, size):
            if rows[r][step].is_zero():
                continue
            factor = rows[r][step] / pivot
            rows[r] = [rows[r][c] - factor * rows[step][c] for c in range(size)]
        for c in range(step + 1, size):
            if rows[step][c].is_zero():
                continue
            factor = rows[step][c] / pivot
            for r in range(size):
                rows[r][c] = rows[r][c] - factor * rows[r][step]
        exps.append(best - shift)
    return sorted(exps)


def cartan_from_elementary_divisors(g):
    """Cell (i, j) read from the elementary divisors (dual route)."""
    d = elementary_divisor_exponents(g)
    return (-d[0], -d[1])


# ---------------------------------------------------------------------------
# subgroup membership


def _is_zero_block(rows, rs, cs):
    return all(rows[r][c].is_zero() for r in rs for c in cs)


def subgroup_membership(g, tag):
    """Membership of g in K, or in the subgroup K1 ("K1") or K2 ("K2").

    K is Sp4(O), K1 the block-diagonal GL2(O) embedding (a, Q tA^-1 Q)
    and K2 the SL2(O) acting on the middle coordinates.  These are the
    three tags the K1/K2 factorization certifies its factors with.
    """
    rows = g.rows
    field = g.field
    if tag == "K":
        return g.is_integral()
    if tag == "K1":
        if not g.is_integral():
            return False
        if not (_is_zero_block(rows, (0, 1), (2, 3)) and _is_zero_block(rows, (2, 3), (0, 1))):
            return False
        a, b, c, d = rows[0][0], rows[0][1], rows[1][0], rows[1][1]
        det = a * d - b * c
        if not det.is_unit():
            return False
        # the lower-right block must be Q tA^-1 Q = [[a, -b], [-c, d]] / det
        # exactly; det is a unit, so entry == x / det is entry * det == x,
        # the same test without four normalising quotients
        return (rows[2][2] * det == a and rows[2][3] * det == -b
                and rows[3][2] * det == -c and rows[3][3] * det == d)
    if tag == "K2":
        if not g.is_integral():
            return False
        one = field.one()
        if not (rows[0][0] == one and rows[3][3] == one):
            return False
        if not (_is_zero_block(rows, (0,), (1, 2, 3)) and _is_zero_block(rows, (3,), (0, 1, 2))
                and _is_zero_block(rows, (1, 2), (0,)) and _is_zero_block(rows, (1, 2), (3,))):
            return False
        det = rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1]
        return det == one
    raise ValueError(f"unknown subgroup tag {tag!r}")


# ---------------------------------------------------------------------------
# serialization


def matrix_from_strings(field, data):
    """The element of a 4x4 array of entry strings, certified by
    ``symplectic_check``: the input boundary."""
    if len(data) != 4 or any(len(r) != 4 for r in data):
        raise ValueError("matrix input must be a 4x4 array of entry strings")
    rows = tuple(tuple(parse_element(field, s) for s in r) for r in data)
    return symplectic_check(field, rows)


def matrix_from_json(field, text):
    return matrix_from_strings(field, json.loads(text))
