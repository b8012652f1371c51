"""Explicit matrix witnesses for the five Weyl-chamber move lemmas.

Each lemma family pins, for a cell (i, j) and a residue tuple
(a, b, x, eps), a pair of group elements beta^-1 and alpha built from a
diagonal and a unipotent factor, such that the Cartan cell of
beta^-1 * alpha is (i, j) when eps = 0 and a shifted cell when eps is
the designated nonzero residue.  The non-spherical variants add a
compensator k1 in K whose reduction mod pi^k is constant on the
congruence-restricted tuples, with k1 * beta^-1 * alpha = g1_reference,
plus two diagonal rescalings D * g1_reference that must land in K.

Everything here is transcription.  Each family states its three
unipotent factors (of beta^-1, of alpha and of the merged matrix) by
their lower-Borel parameters (a, b, c, d) and its two diagonal factors by
their torus exponents, so beta^-1, alpha and the merged matrix are
symplectic by construction (``sp4.lower_from_params``) and none of them is
certified; the compensator k1 and g1_reference are stated entry by
entry, and the cell sweep's k1-in-K check is k1's one certificate.  Each
in-K rescaling is stated only by its eps code and the torus exponents of
its diagonal D, so the rescaled matrix is D * g1_reference and its one
per-tuple claim is that it is integral, which the exponents and the
valuations of g1_reference decide entry by entry.

The identity beta^-1 * alpha = merged matrix is decided by the product
law of the lower unipotent group (``LemmaWitness.merges``): both sides
carry the same invertible D factors and B is injective, so it holds
exactly when B(p_beta) B(p_alpha) = B(p_merged), four parameters instead
of a 4x4 product.  The multiplied-out product ``LemmaWitness.product``
stays the independent route: the tests compare it with the law's
verdict, ``sp4lab witness`` prints it, and the verifiers read it wherever
the law fails, so a slip in the factors or in the stated merged matrix
is caught either way.
The ``mutation`` hook deliberately corrupts one formula at a time; the
verifier suites must detect every catalogued corruption.
"""

import dataclasses
import functools
from typing import Optional

from sp4lab.exactfield import EQUAL, residue_ring, two_valuation
from sp4lab.sp4 import GroupElement, cartan_invariants, unipotent_entries, unipotent_product

SPHER01 = "SPHER01"
SPHER1M1 = "SPHER1M1"
NONSPHER01 = "NONSPHER01"
NONSPHER1M1 = "NONSPHER1M1"
CHAR2_02 = "CHAR2_02"

LEMMA_IDS = (SPHER01, SPHER1M1, NONSPHER01, NONSPHER1M1, CHAR2_02)

# catalogued formula corruptions for mutation testing
MUTATIONS = (
    "minor-sign-flip",      # flips the sign of the alpha (4,1) entry (01 family)
    "d-scaling-exponent",   # shifts the middle diagonal exponents of beta^-1 (01 family)
    "drop-eps1",            # drops the eps1 term from the (1,-1) compensator k1
    "wrong-n1",             # uses residue depth n1+1 in the 01 family
    "minor-row-pair",       # identity checker reads the wrong minor row pair
)


class LemmaPreconditionError(ValueError):
    """A lemma hypothesis fails for the requested parameters."""


@dataclasses.dataclass
class LemmaWitness:
    """Assembled matrices and derived scalars for one lemma instance.

    beta^-1 = D(d_beta) B(p_beta), alpha = B(p_alpha) D(d_alpha) and the
    stated merged matrix D(d_beta) B(p_merged) D(d_alpha) are kept by
    their torus exponents and lower-Borel parameters, in the notation of
    ``_scale``.  Only the merged matrix is built with the witness;
    beta^-1, alpha and their multiplied-out product are built on first
    read.
    """

    lemma: str
    field: object
    i: int
    j: int
    k_level: int
    depth: int                      # residue level (n1, j-1 or m-j-1)
    m: Optional[int]
    a: object
    b: object
    x: object
    y: object                       # derived: a x + b + pi^(depth-1) eps
    eps_code: int                   # residue-field element code
    d_beta: tuple
    p_beta: tuple
    p_alpha: tuple
    d_alpha: tuple
    p_merged: tuple
    expected_cell: Optional[tuple]
    k1: Optional[GroupElement] = None
    eps1: object = None
    a1: object = None
    a1_den: object = None             # CHAR2_02: 1 + pi a, with a1_sq = a1_den^2
    g1_reference: Optional[GroupElement] = None   # the stated k1 * beta^-1 * alpha
    # (eps_code, (u, v)) for the two in-K branches: D(u, v) * g1_reference
    # lies in K at that eps code
    scaled_branches: tuple = ()
    # the stated combined matrix, built from p_merged with the witness
    merged_reference: GroupElement = dataclasses.field(init=False)

    def __post_init__(self):
        self.merged_reference = _scale(self.field, self.d_beta, self.p_merged,
                                       self.d_alpha)

    @functools.cached_property
    def beta_inv(self):
        return _scale(self.field, self.d_beta, self.p_beta, _UNSCALED)

    @functools.cached_property
    def alpha_mat(self):
        return _scale(self.field, _UNSCALED, self.p_alpha, self.d_alpha)

    @functools.cached_property
    def product(self):
        """beta_inv * alpha_mat multiplied out from the factors.

        This is the route independent of the product law ``merges``
        reads: the tests compare the two, ``sp4lab witness`` prints it,
        and the verifiers read it wherever the law fails.
        """
        return self.beta_inv * self.alpha_mat

    @functools.cached_property
    def merges(self):
        """Whether beta_inv * alpha_mat equals merged_reference.

        Both sides are D(d_beta) (a unipotent) D(d_alpha) with the same
        invertible D factors, and B is injective, so they are equal exactly
        when B(p_beta) B(p_alpha) = B(p_merged): the product law
        ``sp4.unipotent_product`` decides it on four parameters, with no
        4x4 product.
        """
        return unipotent_product(self.p_beta, self.p_alpha) == self.p_merged

    def observed_cell(self):
        return cartan_invariants(self.product)[0]


def lemma_field_ok(lemma, spec):
    """Characteristic constraints: the (0,1) families need char(F) != 2,
    the (0,2) family needs char(F) = 2, the (1,-1) families any field."""
    char2 = spec.kind == EQUAL and spec.p == 2
    if lemma in (SPHER01, NONSPHER01):
        return not char2
    if lemma == CHAR2_02:
        return char2
    return True


def lemma_depth(lemma, spec, i, j):
    """Residue level used by the lemma's tuple space."""
    if lemma in (SPHER01, NONSPHER01):
        m = (i + j) // 2
        return 2 * m - 2 * j - two_valuation(spec)
    if lemma in (SPHER1M1, NONSPHER1M1):
        return j - 1
    m = (i + j) // 2
    return m - j - 1


def anchor_bounds(lemma, k, v0):
    """(least i - j, least j) of an anchor cell where the lemma's move is
    licensed, at congruence level k with v0 = v(2).

    This is the one statement of the move lemmas' cell hypotheses:
    ``check_preconditions`` and the zig-zag planner both read it.
    """
    return {
        SPHER01: (v0 + 1, 0),
        NONSPHER01: (2 * k + v0, 0),
        CHAR2_02: (2 if k == 0 else 4 * k + 2, 0),
        SPHER1M1: (0, 2),
        NONSPHER1M1: (-1, 2 * k + 2),
    }[lemma]


def congruence_levels(lemma, k):
    """(level of a, level of b, level of x): a tuple of the congruence
    layer k has a, x in pi^k and, for NONSPHER01 and CHAR2_02, b in
    pi^2k; level 0 is no condition."""
    return k, 2 * k if lemma in (NONSPHER01, CHAR2_02) else 0, k


def check_preconditions(lemma, spec, i, j, k_level):
    if lemma not in LEMMA_IDS:
        raise LemmaPreconditionError(f"unknown lemma id {lemma!r}")
    if not lemma_field_ok(lemma, spec):
        if lemma == CHAR2_02:
            raise LemmaPreconditionError(f"{lemma} requires characteristic 2, got {spec}")
        raise LemmaPreconditionError(f"{lemma} requires characteristic != 2, got {spec}")
    if k_level < 0:
        raise LemmaPreconditionError("congruence level must be >= 0")
    if k_level == 0 and lemma in (NONSPHER01, NONSPHER1M1):
        raise LemmaPreconditionError(f"{lemma} needs a congruence level k >= 1")
    if k_level > 0 and lemma in (SPHER01, SPHER1M1):
        raise LemmaPreconditionError(f"{lemma} is the k = 0 case; use the non-spherical variant")
    v0 = two_valuation(spec) if lemma in (SPHER01, NONSPHER01) else 0
    least_diff, least_j = anchor_bounds(lemma, k_level, v0)
    if j < least_j:
        raise LemmaPreconditionError(f"{lemma}: j = {j} < {least_j}")
    if i - j < least_diff:
        raise LemmaPreconditionError(f"{lemma}: i-j = {i - j} < {least_diff}")
    depth = lemma_depth(lemma, spec, i, j)
    if depth < 1:
        raise LemmaPreconditionError(
            f"{lemma}: residue depth {depth} < 1 at cell ({i},{j}); no residue content")
    return depth


def designated_eps_code(lemma, spec):
    """Code of the nonzero residue the in-K rescaling branch is stated for."""
    if lemma == NONSPHER01:
        # image of pi^v0 / 2 in the residue field
        v0 = two_valuation(spec)
        ring1 = residue_ring(spec, 1)
        return ring1.residue_code((spec.pi(v0) / spec.integer(2)).reduce(ring1))
    return 1


def build_witness(lemma, spec, i, j, k_level, a, b, x, eps_code,
                  section=None, mutation=None, y_override=None):
    """Assemble the witness for one residue tuple.

    a, b, x are representatives in O/pi^depth, eps_code a residue-field
    code in [0, q); y is derived as a x + b + pi^(depth-1) eps unless
    y_override (a ring representative) is given for free-y probes.
    section may replace the canonical lift with any other set-theoretic
    section of O/pi^depth.
    """
    depth = check_preconditions(lemma, spec, i, j, k_level)
    if not 0 <= eps_code < spec.q:
        raise LemmaPreconditionError(
            f"eps code {eps_code} is not a residue code in [0, {spec.q})")
    if mutation == "wrong-n1" and lemma in (SPHER01, NONSPHER01):
        depth += 1
    ring = residue_ring(spec, depth)
    sig = section if section is not None else ring.section
    if k_level > 0:
        la, lb, lx = congruence_levels(lemma, k_level)
        if ring.valuation(a) < min(la, depth) or ring.valuation(x) < min(lx, depth):
            raise LemmaPreconditionError("congruence layer needs a, x in pi^k O/pi^depth")
        if ring.valuation(b) < min(lb, depth):
            raise LemmaPreconditionError("congruence layer needs b in pi^2k O/pi^depth")
    if y_override is not None:
        y = y_override
    else:
        eps = ring.shift(ring.embed_residue_code(eps_code), depth - 1)
        y = ring.add(ring.add(ring.mul(a, x), b), eps)
    sa, sb, sx, sy = sig(a), sig(b), sig(x), sig(y)
    z, one = spec.zero(), spec.one()
    m = None if lemma in (SPHER1M1, NONSPHER1M1) else (i + j) // 2
    head = (lemma, spec, i, j, k_level, depth, m, a, b, x, y, eps_code)

    if m is None:  # the (1,-1) families
        a1 = one + sa.shift(1)
        s = sy - sa * sx - sb
        wit = LemmaWitness(
            *head, (i, 0), (a1, z, z, -sb.shift(1)), (z, z, sx, sy.shift(1) + sx),
            (-j, 0), (a1, z, sx, s.shift(1)),
            (i + 1, j - 1) if eps_code else (max(i, j), min(i, j)))
        wit.a1 = a1
        if lemma == NONSPHER1M1:
            _attach_nonspher1m1(wit, s, sx, mutation)
        return wit

    d_beta = (m, i - m + j)
    d_alpha = (j - m, j - m)
    if lemma == CHAR2_02:
        a1_den = one + sa.shift(1)
        a1_sq = a1_den * a1_den
        sb1 = sb.shift(1)
        w = sx + sy.shift(1)
        full = sb1 + w
        wit = LemmaWitness(
            *head, d_beta, (z, a1_sq, sb1, z), (z, z, w, sx * sx),
            d_alpha, (z, a1_sq, full, sx * sx),
            # other residues: only the observed cell is recorded
            {0: (i, j), 1: (i, j + 2)}.get(eps_code))
        _attach_char2(wit, a1_den, a1_sq, full, sa, sb, sx, sy)
        return wit

    if mutation == "d-scaling-exponent":
        d_beta = (m, i - m + j + 1)
    alpha_41 = sx * sx + 2 * sy
    if mutation == "minor-sign-flip":
        # the (4,1) slot is the free B-parameter d, so the corrupted
        # matrix is still symplectic and must be caught by the minor
        # identity
        alpha_41 = -alpha_41
    beta_41 = sa * sa - 2 * sb
    t = sa + sx
    wit = LemmaWitness(
        *head, d_beta, (z, one, sa, beta_41), (z, z, sx, alpha_41),
        d_alpha, (z, one, t, beta_41 + alpha_41),
        (i, j + 1) if eps_code else (i, j))
    if lemma == NONSPHER01:
        _attach_nonspher01(wit, t, sa, sb, sx, sy)
    return wit


_UNSCALED = (0, 0)


def _scale(spec, dl, params, dr):
    """D(dl) B(params) D(dr), where B(a, b, c, d) is lower_from_params(a, b,
    c, d, 1, 1) and D(u, v) = diag(pi^u, pi^v, pi^-v, pi^-u) is in the
    torus: symplectic by construction.

    With dl = (u, v) and dr = (s, w), its ten nonzero entries are written
    directly: the diagonal pi^(u+s), pi^(v+w), pi^-(v+w), pi^-(u+s), and
    below it the shifts of B's entries (``sp4.unipotent_entries``) by the
    row's exponent plus the column's: a pi^(v+s) in row 2, c pi^(s-v) and
    b pi^(w-v) in row 3, and d pi^(s-u), (c - ab) pi^(w-u) and
    -a pi^-(u+w) in row 4.
    """
    (u, v), (s, w) = dl, dr
    x10, x20, x21, x30, x31, x32 = unipotent_entries(*params)
    # one.shift(0) is the memoised one, which mat_mul multiplies by for free
    z, pi = spec.zero(), spec.one().shift
    return GroupElement(spec, (
        (pi(u + s), z, z, z),
        (x10.shift(v + s), pi(v + w), z, z),
        (x20.shift(s - v), x21.shift(w - v), pi(-v - w), z),
        (x30.shift(s - u), x31.shift(w - u), x32.shift(-u - w), pi(-u - s))))


def _attach_nonspher01(wit, t, sa, sb, sx, sy):
    spec = wit.field
    pi, z, one = spec.pi, spec.zero(), spec.one()
    i, j, m = wit.i, wit.j, wit.m
    eps1 = (2 * (sy - sa * sx - sb)).shift(-2 * m + 2 * j + 1)
    if not eps1.is_integral():
        raise LemmaPreconditionError("eps1 left the valuation ring; inconsistent tuple")
    t_k1 = t.shift(i - 2 * m + j)
    wit.k1 = GroupElement(spec, (
        (z, z, one, z),
        (z, z, -t_k1, one),
        (-one, z, -t.shift(i - 2 * m + 3 * j + 1), pi(2 * j + 1)),
        (-t_k1, -one, pi(2 * i - 2 * m + 2 * j), z)))
    wit.g1_reference = GroupElement(spec, (
        (t.shift(-i), pi(-i), pi(-i + 2 * m - 2 * j), z),
        (eps1.shift(-j - 1), z, -t.shift(-j), pi(-j)),
        ((eps1 - one).shift(j), z, -t.shift(j + 1), pi(j + 1)),
        (z, z, pi(i), z)))
    wit.eps1 = eps1
    wit.scaled_branches = ((0, (i, j)), (designated_eps_code(NONSPHER01, spec), (i, j + 1)))


def _attach_nonspher1m1(wit, s, sx, mutation):
    spec = wit.field
    pi, z, one = spec.pi, spec.zero(), spec.one()
    i, j = wit.i, wit.j
    a1 = wit.a1
    eps1 = s.shift(-j + 2)
    if not eps1.is_integral():
        raise LemmaPreconditionError("eps1 left the valuation ring; inconsistent tuple")
    a1i = one / a1
    c = a1i * a1i * eps1
    u = a1 * (one - eps1)
    ui = a1i * (one - eps1)
    entry32 = -c.shift(j - 1) - a1i * sx
    if mutation == "drop-eps1":
        entry32 = -(a1i * sx)
    wit.k1 = GroupElement(spec, (
        (z, z, z, one),
        (z, one, z, -a1.shift(i - j + 1)),
        (z, entry32, one, a1i.shift(i)),
        (-one, ui.shift(i) - sx.shift(i - j + 1),
         a1.shift(i - j + 1), pi(2 * i - j + 1))))
    wit.g1_reference = GroupElement(spec, (
        (eps1.shift(-i - 1), sx.shift(-i), -a1.shift(-i), pi(-i + j)),
        (u.shift(-j), one - (a1 * sx).shift(-j + 1),
         (a1 * a1).shift(-j + 1), -a1.shift(1)),
        (z, -c.shift(j - 1), z, a1i.shift(j)),
        (z, ui.shift(i), z, pi(i + 1))))
    wit.eps1 = eps1
    wit.scaled_branches = ((0, (i, j)), (1, (i + 1, j - 1)))


def _attach_char2(wit, a1_den, a1_sq, full, sa, sb, sx, sy):
    spec = wit.field
    pi, z, one = spec.pi, spec.zero(), spec.one()
    i, j, m = wit.i, wit.j, wit.m
    a1 = full / a1_sq
    eps1 = (sy + sa * sx + sb).shift(-m + j + 2)
    if not eps1.is_integral():
        raise LemmaPreconditionError("eps1 left the valuation ring; inconsistent tuple")
    den2 = one / a1_sq
    a1_k1 = a1.shift(i - 2 * m + j)
    wit.k1 = GroupElement(spec, (
        (z, z, one, z),
        (z, z, a1_k1, one),
        (one, z, a1.shift(i - 2 * m + 3 * j + 2), pi(2 * j + 2)),
        (a1_k1, one, den2.shift(2 * i - 2 * m + 2 * j), z)))
    e2 = eps1 * eps1 * den2
    wit.g1_reference = GroupElement(spec, (
        (full.shift(-i), a1_sq.shift(-i), pi(-i + 2 * m - 2 * j), z),
        (e2.shift(-j - 2), z, a1.shift(-j), pi(-j)),
        ((e2 + one).shift(j), z, a1.shift(j + 2), pi(j + 2)),
        (z, z, den2.shift(i), z)))
    wit.eps1 = eps1
    wit.a1 = a1
    wit.a1_den = a1_den
    wit.scaled_branches = ((0, (i, j)), (1, (i, j + 2)))


def congruence_target(lemma, spec, i, j, k_level, mutation=None):
    """Reduction mod pi^k of k1 at the zero tuple: the symbolic target that
    k1 must be congruent to on every congruence-restricted tuple.

    The zero-tuple witness is built with the same mutation as the tuples
    it is compared with, so a corrupted formula is caught on the tuples
    where it differs, not flagged on every tuple through its target.
    """
    if k_level < 1:
        raise ValueError("congruence target needs k >= 1")
    ring = residue_ring(spec, lemma_depth(lemma, spec, i, j))
    wit = build_witness(lemma, spec, i, j, k_level, ring.zero, ring.zero,
                        ring.zero, 0, mutation=mutation)
    return wit.k1.reduce(k_level)


def minor_rows34_cols12(g, mutation=None):
    """The 2x2 minor of rows 3,4 and columns 1,2 (mutation picks a wrong pair)."""
    rows = g.rows
    r1, r2 = (1, 3) if mutation == "minor-row-pair" else (2, 3)
    return rows[r1][0] * rows[r2][1] - rows[r1][1] * rows[r2][0]


def spher01_minor_value(wit):
    """The stated closed form -2 pi^(-i-2m+j) (sy - sa sx - sb)."""
    spec = wit.field
    sig = residue_ring(spec, wit.depth).section
    sa, sb, sx, sy = sig(wit.a), sig(wit.b), sig(wit.x), sig(wit.y)
    return (-2 * (sy - sa * sx - sb)).shift(-wit.i - 2 * wit.m + wit.j)


def spher1m1_norm_formula(wit):
    """max(q^i, q^(i+j-v-1)) with v the capped valuation of y - a x - b."""
    ring = residue_ring(wit.field, wit.depth)
    t = ring.sub(wit.y, ring.add(ring.mul(wit.a, wit.x), wit.b))
    v = ring.valuation(t)
    return max(wit.i, wit.i + wit.j - v - 1)


def spher01_wedge_formula(wit):
    """max(q^(i+2m-j-v), q^(i+j)) with v the capped valuation of 2(y-ax-b)."""
    spec = wit.field
    ring = residue_ring(spec, wit.depth)
    t = ring.sub(wit.y, ring.add(ring.mul(wit.a, wit.x), wit.b))
    v0 = two_valuation(spec)
    cap = 2 * (wit.m - wit.j)
    v = min(v0 + ring.valuation(t), cap)
    return max(wit.i + 2 * wit.m - wit.j - v, wit.i + wit.j)
