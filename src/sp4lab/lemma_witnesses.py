"""Explicit matrix witnesses for the five Weyl-chamber move lemmas.

Each lemma family pins, for a cell (i, j) and a residue tuple
(a, b, x, eps), a pair of group elements beta^-1 and alpha built from a
diagonal and a unipotent factor, such that the Cartan cell of
beta^-1 * alpha is (i, j) when eps = 0 and a shifted cell when eps is
the designated nonzero residue.  The non-spherical variants add a
compensator k1 in K whose reduction mod pi^k is constant on the
congruence-restricted tuples, plus two diagonal rescalings of
k1 * beta^-1 * alpha that must land in K.

Everything here is transcription: matrices are assembled entry by entry
from their reference factor form, and the product beta^-1 * alpha is
multiplied out from the factors (once per witness) independently of the
stated merged matrix, so the exhaustive verifiers can catch any slip.  The
``mutation`` hook deliberately corrupts one formula at a time; the
verifier suites must detect every catalogued corruption.
"""

import functools
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from sp4lab.exactfield import EQUAL, residue_ring, two_valuation
from sp4lab.sp4 import GroupElement, cartan_invariants, d_matrix

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


@dataclass
class LemmaWitness:
    """Assembled matrices and derived scalars for one lemma instance."""

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
    beta_inv: GroupElement
    alpha_mat: GroupElement
    merged_reference: GroupElement    # the stated combined matrix
    expected_cell: Optional[tuple]
    k1: Optional[GroupElement] = None
    eps1: object = None
    a1: object = None
    # (eps_code, scale D, reference scaled matrix) for the two in-K branches
    scaled_branches: tuple = ()
    extras: dict = dataclass_field(default_factory=dict)

    @functools.cached_property
    def product(self):
        """beta_inv * alpha_mat multiplied out from the factors, once per witness."""
        return self.beta_inv * self.alpha_mat

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


def residue_code(spec, level1_rep):
    """Integer code of a level-1 residue representative."""
    if spec.kind == EQUAL:
        return level1_rep[0] if level1_rep else 0
    return level1_rep


def designated_eps_code(lemma, spec):
    """Code of the nonzero residue the in-K rescaling branch is stated for."""
    if lemma == NONSPHER01:
        # image of pi^v0 / 2 in the residue field
        v0 = two_valuation(spec)
        elem = spec.pi(v0) / spec.integer(2)
        return residue_code(spec, elem.reduce(residue_ring(spec, 1)))
    return 1


def build_witness(lemma, spec, i, j, k_level, a, b, x, eps_code,
                  section=None, mutation=None, y_override=None):
    """Assemble the witness for one residue tuple.

    a, b, x are representatives in O/pi^depth, eps_code a residue-field
    representative; y is derived as a x + b + pi^(depth-1) eps unless
    y_override (a ring representative) is given for free-y probes.
    section may replace the canonical lift with any other set-theoretic
    section of O/pi^depth.
    """
    depth = check_preconditions(lemma, spec, i, j, k_level)
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
    eps_ring = ring.embed_residue_code(eps_code)
    if y_override is not None:
        y = y_override
    else:
        y = ring.add(ring.add(ring.mul(a, x), b), ring.shift(eps_ring, depth - 1))
    sa, sb, sx, sy = sig(a), sig(b), sig(x), sig(y)
    z, one = spec.zero(), spec.one()
    pi = spec.pi

    if lemma in (SPHER01, NONSPHER01):
        m = (i + j) // 2
        d_beta = (m, i - m + j, -i + m - j, -m)
        if mutation == "d-scaling-exponent":
            d_beta = (m, i - m + j + 1, -i + m - j - 1, -m)
        u_beta = ((one, z, z, z),
                  (z, one, z, z),
                  (sa, one, one, z),
                  (sa * sa - 2 * sb, sa, z, one))
        beta_inv = GroupElement(spec, _scale(d_beta, u_beta, _UNSCALED))
        alpha_41 = sx * sx + 2 * sy
        if mutation == "minor-sign-flip":
            # the (4,1) slot is the free parameter of this unipotent shape,
            # so the corrupted matrix is still symplectic and must be caught
            # by the minor identity, not by certification
            alpha_41 = -alpha_41
        u_alpha = ((one, z, z, z),
                   (z, one, z, z),
                   (sx, z, one, z),
                   (alpha_41, sx, z, one))
        d_alpha = (j - m, j - m, m - j, m - j)
        alpha_mat = GroupElement(spec, _scale(_UNSCALED, u_alpha, d_alpha))
        t = sa + sx
        u_merged = ((one, z, z, z),
                    (z, one, z, z),
                    (t, one, one, z),
                    (sa * sa - 2 * sb + alpha_41, t, z, one))
        merged = GroupElement(spec, _scale(d_beta, u_merged, d_alpha),
                              certify=False)
        expected = (i, j) if _eps_is_zero(ring, eps_ring) else (i, j + 1)
        wit = LemmaWitness(lemma, spec, i, j, k_level, depth, m, a, b, x, y,
                           eps_code, beta_inv, alpha_mat, merged, expected)
        if lemma == NONSPHER01:
            _attach_nonspher01(wit, t, sa, sb, sx, sy)
        return wit

    if lemma in (SPHER1M1, NONSPHER1M1):
        a1 = one + pi(1) * sa
        d_beta = (i, 0, 0, -i)
        u_beta = ((one, z, z, z),
                  (a1, one, z, z),
                  (z, z, one, z),
                  (-(pi(1) * sb), z, -a1, one))
        beta_inv = GroupElement(spec, _scale(d_beta, u_beta, _UNSCALED))
        u_alpha = ((one, z, z, z),
                   (z, one, z, z),
                   (sx, z, one, z),
                   (pi(1) * sy + sx, sx, z, one))
        d_alpha = (-j, 0, 0, j)
        alpha_mat = GroupElement(spec, _scale(_UNSCALED, u_alpha, d_alpha))
        s = sy - sa * sx - sb
        u_merged = ((one, z, z, z),
                    (a1, one, z, z),
                    (sx, z, one, z),
                    (pi(1) * s, sx, -a1, one))
        merged = GroupElement(spec, _scale(d_beta, u_merged, d_alpha),
                              certify=False)
        if _eps_is_zero(ring, eps_ring):
            expected = (max(i, j), min(i, j))
        else:
            expected = (i + 1, j - 1)
        wit = LemmaWitness(lemma, spec, i, j, k_level, depth, None, a, b, x, y,
                           eps_code, beta_inv, alpha_mat, merged, expected, a1=a1)
        if lemma == NONSPHER1M1:
            _attach_nonspher1m1(wit, s, sx, mutation)
        return wit

    # CHAR2_02
    m = (i + j) // 2
    a1_den = one + pi(1) * sa
    d_beta = (m, i - m + j, -i + m - j, -m)
    u_beta = ((one, z, z, z),
              (z, one, z, z),
              (pi(1) * sb, a1_den * a1_den, one, z),
              (z, pi(1) * sb, z, one))
    beta_inv = GroupElement(spec, _scale(d_beta, u_beta, _UNSCALED))
    w = sx + pi(1) * sy
    u_alpha = ((one, z, z, z),
               (z, one, z, z),
               (w, z, one, z),
               (sx * sx, w, z, one))
    d_alpha = (j - m, j - m, m - j, m - j)
    alpha_mat = GroupElement(spec, _scale(_UNSCALED, u_alpha, d_alpha))
    full = pi(1) * sb + sx + pi(1) * sy
    u_merged = ((one, z, z, z),
                (z, one, z, z),
                (full, a1_den * a1_den, one, z),
                (sx * sx, full, z, one))
    merged = GroupElement(spec, _scale(d_beta, u_merged, d_alpha),
                          certify=False)
    if _eps_is_zero(ring, eps_ring):
        expected = (i, j)
    elif eps_ring == ring.embed_residue_code(1):
        expected = (i, j + 2)
    else:
        expected = None  # only record the observed cell for other residues
    wit = LemmaWitness(CHAR2_02, spec, i, j, k_level, depth, m, a, b, x, y,
                       eps_code, beta_inv, alpha_mat, merged, expected)
    _attach_char2(wit, a1_den, full, sa, sb, sx, sy)
    return wit


def _eps_is_zero(ring, eps_ring):
    return ring.valuation(eps_ring) >= ring.n


_UNSCALED = (0, 0, 0, 0)


def _scale(dl, u, dr):
    """diag(pi^dl) * u * diag(pi^dr); diagonal factors are given by their
    pi-exponents, so each entry is a shift."""
    return tuple(tuple(x.shift(dl[r] + dr[c]) for c, x in enumerate(u[r]))
                 for r in range(4))


def _attach_nonspher01(wit, t, sa, sb, sx, sy):
    spec = wit.field
    pi, z, one = spec.pi, spec.zero(), spec.one()
    i, j, m = wit.i, wit.j, wit.m
    eps1 = 2 * pi(-2 * m + 2 * j + 1) * (sy - sa * sx - sb)
    if not eps1.is_integral():
        raise LemmaPreconditionError("eps1 left the valuation ring; inconsistent tuple")
    k1 = GroupElement(spec, (
        (z, z, one, z),
        (z, z, -(pi(i - 2 * m + j) * t), one),
        (-one, z, -(pi(i - 2 * m + 3 * j + 1) * t), pi(2 * j + 1)),
        (-(pi(i - 2 * m + j) * t), -one, pi(2 * i - 2 * m + 2 * j), z)))
    g1_reference = GroupElement(spec, (
        (pi(-i) * t, pi(-i), pi(-i + 2 * m - 2 * j), z),
        (pi(-j - 1) * eps1, z, -(pi(-j) * t), pi(-j)),
        (pi(j) * (eps1 - one), z, -(pi(j + 1) * t), pi(j + 1)),
        (z, z, pi(i), z)), certify=False)
    scale0 = d_matrix(spec, -i, -j)
    reference0 = ((t, one, pi(2 * m - 2 * j), z),
                (pi(-1) * eps1, z, -t, one),
                (eps1 - one, z, -(pi(1) * t), pi(1)),
                (z, z, one, z))
    scale1 = d_matrix(spec, -i, -(j + 1))
    reference1 = ((t, one, pi(2 * m - 2 * j), z),
                (eps1, z, -(pi(1) * t), pi(1)),
                (pi(-1) * (eps1 - one), z, -t, one),
                (z, z, one, z))
    wit.k1 = k1
    wit.eps1 = eps1
    wit.scaled_branches = (
        (0, scale0, reference0),
        (designated_eps_code(NONSPHER01, spec), scale1, reference1))
    wit.extras["g1_reference"] = g1_reference


def _attach_nonspher1m1(wit, s, sx, mutation):
    spec = wit.field
    pi, z, one = spec.pi, spec.zero(), spec.one()
    i, j = wit.i, wit.j
    a1 = wit.a1
    eps1 = pi(-j + 2) * s
    if not eps1.is_integral():
        raise LemmaPreconditionError("eps1 left the valuation ring; inconsistent tuple")
    a1i = one / a1
    entry32 = -(pi(j - 1) * a1i * a1i * eps1) - a1i * sx
    if mutation == "drop-eps1":
        entry32 = -(a1i * sx)
    k1 = GroupElement(spec, (
        (z, z, z, one),
        (z, one, z, -(pi(i - j + 1) * a1)),
        (z, entry32, one, pi(i) * a1i),
        (-one, pi(i) * a1i * (one - eps1) - pi(i - j + 1) * sx,
         pi(i - j + 1) * a1, pi(2 * i - j + 1))), certify=mutation != "drop-eps1")
    g1_reference = GroupElement(spec, (
        (pi(-i - 1) * eps1, pi(-i) * sx, -(pi(-i) * a1), pi(-i + j)),
        (pi(-j) * a1 * (one - eps1), one - pi(-j + 1) * a1 * sx,
         pi(-j + 1) * a1 * a1, -(pi(1) * a1)),
        (z, -(pi(j - 1) * a1i * a1i * eps1), z, pi(j) * a1i),
        (z, pi(i) * a1i * (one - eps1), z, pi(i + 1))), certify=False)
    scale0 = d_matrix(spec, -i, -j)
    reference0 = ((pi(-1) * eps1, sx, -a1, pi(j)),
                (a1 * (one - eps1), pi(j) - pi(1) * a1 * sx, pi(1) * a1 * a1,
                 -(pi(j + 1) * a1)),
                (z, -(pi(-1) * a1i * a1i * eps1), z, a1i),
                (z, a1i * (one - eps1), z, pi(1)))
    scale1 = d_matrix(spec, -(i + 1), -(j - 1))
    reference1 = ((eps1, pi(1) * sx, -(pi(1) * a1), pi(j + 1)),
                (pi(-1) * a1 * (one - eps1), pi(j - 1) - a1 * sx, a1 * a1,
                 -(pi(j) * a1)),
                (z, -(a1i * a1i * eps1), z, pi(1) * a1i),
                (z, pi(-1) * a1i * (one - eps1), z, one))
    wit.k1 = k1
    wit.eps1 = eps1
    wit.scaled_branches = ((0, scale0, reference0), (1, scale1, reference1))
    wit.extras["g1_reference"] = g1_reference


def _attach_char2(wit, a1_den, full, sa, sb, sx, sy):
    spec = wit.field
    pi, z, one = spec.pi, spec.zero(), spec.one()
    i, j, m = wit.i, wit.j, wit.m
    a1 = full / (a1_den * a1_den)
    eps1 = pi(-m + j + 2) * (sy + sa * sx + sb)
    if not eps1.is_integral():
        raise LemmaPreconditionError("eps1 left the valuation ring; inconsistent tuple")
    den2 = one / (a1_den * a1_den)
    k1 = GroupElement(spec, (
        (z, z, one, z),
        (z, z, pi(i - 2 * m + j) * a1, one),
        (one, z, pi(i - 2 * m + 3 * j + 2) * a1, pi(2 * j + 2)),
        (pi(i - 2 * m + j) * a1, one, pi(2 * i - 2 * m + 2 * j) * den2, z)))
    e2 = eps1 * eps1 * den2
    g1_reference = GroupElement(spec, (
        (pi(-i) * full, pi(-i) * a1_den * a1_den, pi(-i + 2 * m - 2 * j), z),
        (pi(-j - 2) * e2, z, pi(-j) * a1, pi(-j)),
        (pi(j) * e2 + pi(j), z, pi(j + 2) * a1, pi(j + 2)),
        (z, z, pi(i) * den2, z)), certify=False)
    scale0 = d_matrix(spec, -i, -j)
    reference0 = ((full, a1_den * a1_den, pi(2 * m - 2 * j), z),
                (pi(-2) * e2, z, a1, one),
                (e2 + one, z, pi(2) * a1, pi(2)),
                (z, z, den2, z))
    scale1 = d_matrix(spec, -i, -(j + 2))
    reference1 = ((full, a1_den * a1_den, pi(2 * m - 2 * j), z),
                (e2, z, pi(2) * a1, pi(2)),
                (pi(-2) * (e2 + one), z, a1, one),
                (z, z, den2, z))
    wit.k1 = k1
    wit.eps1 = eps1
    wit.a1 = a1
    wit.extras["a1_den"] = a1_den
    wit.extras["g1_reference"] = g1_reference
    wit.scaled_branches = ((0, scale0, reference0), (1, scale1, reference1))


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
    return -2 * spec.pi(-wit.i - 2 * wit.m + wit.j) * (sy - sa * sx - sb)


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
