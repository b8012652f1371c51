"""Explicit matrix witnesses for the five Weyl-chamber move lemmas.

Each lemma family pins, for a cell (i, j) and a residue tuple
(a, b, x, eps), a pair of group elements beta^-1 and alpha built from a
diagonal and a unipotent factor, such that the Cartan cell of
beta^-1 * alpha is (i, j) when eps = 0 and a shifted cell when eps is
the designated nonzero residue.  The non-spherical variants add a
compensator k1 in K whose reduction mod pi^k is constant on the
congruence-restricted tuples, with k1 * beta^-1 * alpha = g1_reference,
plus two diagonal rescalings D * g1_reference that must land in K.

Everything here is transcription, and every lemma-specific decision is
made here.  ``build_witness`` is the tuple step: it checks the hypotheses
and the tuple's congruence layer, derives y, lifts a, b, x, y once,
passes in the lemma's designated eps code (``designated_eps_code``,
computed once per lemma and field) and checks that eps1 is integral, a
claim about the tuple rather than the family.  ``family_witness`` is the
family itself: pure ring arithmetic over those four lifts, with no
hypothesis check and no residue ring, so the free-y probes re-evaluate it
at each y without repeating the tuple step.  Each family states its three
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

Each family also states, on its witness, the displayed identities of its
lemma's proof: the closed form of a minor, the norm and the wedge-norm
exponents of beta^-1, alpha and their product, eps1's residue, the
squared-unit bound and the free-y probe.  The identity sweep
(``verifiers.cells``) walks whichever a witness states, in one fixed
order, and names no lemma.  ``LEAST_LEVEL`` is the one statement of the
congruence level each lemma is stated at.

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
from sp4lab.sp4 import (GroupElement, cartan_invariants, norm_exponent, unipotent_entries,
                        unipotent_product, wedge_norm_exponent)

SPHER01 = "SPHER01"
SPHER1M1 = "SPHER1M1"
NONSPHER01 = "NONSPHER01"
NONSPHER1M1 = "NONSPHER1M1"
CHAR2_02 = "CHAR2_02"

LEMMA_IDS = (SPHER01, SPHER1M1, NONSPHER01, NONSPHER1M1, CHAR2_02)

# the least congruence level k each lemma is stated at; the spherical
# lemmas are the k = 0 case alone
LEAST_LEVEL = {SPHER01: 0, SPHER1M1: 0, NONSPHER01: 1, NONSPHER1M1: 1, CHAR2_02: 0}

# catalogued formula corruptions for mutation testing
MUTATIONS = (
    "minor-sign-flip",      # flips the sign of the alpha (4,1) entry (01 family)
    "d-scaling-exponent",   # shifts the middle diagonal exponents of beta^-1 (01 family)
    "drop-eps1",            # drops the eps1 term from the (1,-1) compensator k1
    "wrong-n1",             # uses residue depth n1+1 in the 01 family
    "minor-row-pair",       # identity checker reads the wrong minor row pair
)


class _cached:
    """``functools.cached_property`` without its lock: on Python 3.11 that
    takes a class-wide RLock at every first read, which cost the cell
    sweeps 2-5% of their time on a 2-vCPU Xeon host."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, wit, owner=None):
        if wit is None:
            return self
        value = wit.__dict__[self.name] = self.func(wit)
        return value


class LemmaPreconditionError(ValueError):
    """A lemma hypothesis fails for the requested parameters."""


@dataclasses.dataclass
class LemmaWitness:
    """Assembled matrices and derived scalars for one lemma instance.

    beta^-1 = D(d_beta) B(p_beta), alpha = B(p_alpha) D(d_alpha) and the
    stated merged matrix D(d_beta) B(p_merged) D(d_alpha) are kept by
    their torus exponents and lower-Borel parameters, in the notation of
    ``_scale``, and each is built on first read, as is their
    multiplied-out product.

    The fields after scaled_branches are the displayed identities the
    lemma states, None where it states none.  eps1's identity is stated by
    eps_code and eps0: eps1 reduces to eps_code / eps0 mod pi.
    """

    lemma: str
    field: object
    i: int
    j: int
    depth: int                      # residue level (n1, j-1 or m-j-1)
    m: Optional[int]
    sa: object                      # the lifts of a, b, x and y to O
    sb: object
    sx: object
    sy: object
    eps_code: int                   # residue-field element code
    eps0: int                       # the designated nonzero code (``designated_eps_code``)
    d_beta: tuple
    p_beta: tuple
    p_alpha: tuple
    d_alpha: tuple
    expected_cell: Optional[tuple]
    p_merged: Optional[tuple] = None  # the (1,-1) families set it from s
    k1: Optional[GroupElement] = None
    eps1: object = None
    a1: object = None
    a1_den: object = None             # CHAR2_02: 1 + pi a, with a1_sq = a1_den^2
    g1_reference: Optional[GroupElement] = None   # the stated k1 * beta^-1 * alpha
    # (eps_code, (u, v)) for the two in-K branches: D(u, v) * g1_reference
    # lies in K at that eps code
    scaled_branches: tuple = ()
    # the closed form of the rows 3,4 x columns 1,2 minor of beta^-1 alpha,
    # as a function of the witness, so it is formed only where it is checked
    minor_formula: object = None
    product_norm: Optional[int] = None  # norm exponent of beta^-1 alpha
    beta_wedge: Optional[int] = None  # wedge-norm exponents of beta^-1, alpha
    alpha_wedge: Optional[int] = None  # and beta^-1 alpha
    product_wedge: Optional[int] = None
    unit_sq: object = None            # a unit square plus one, of valuation >= 2
    free_y: Optional[tuple] = None    # (norm, formula, check name) at every y

    @_cached
    def s(self):
        """The offset s = y - a x - b of the lifted tuple, the one place it
        is formed; in characteristic 2 it is y + a x + b."""
        return self.sy - self.sa * self.sx - self.sb

    @_cached
    def merged_reference(self):
        """The stated combined matrix D(d_beta) B(p_merged) D(d_alpha)."""
        return _scale(self.field, self.d_beta, self.p_merged, self.d_alpha)

    @_cached
    def beta_inv(self):
        return _scale(self.field, self.d_beta, self.p_beta, _UNSCALED)

    @_cached
    def alpha_mat(self):
        return _scale(self.field, _UNSCALED, self.p_alpha, self.d_alpha)

    @_cached
    def product(self):
        """beta_inv * alpha_mat multiplied out from the factors.

        This is the route independent of the product law ``merges``
        reads: the tests compare the two, ``sp4lab witness`` prints it,
        and the verifiers read it wherever the law fails.
        """
        return self.beta_inv * self.alpha_mat

    @_cached
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
    if k_level < LEAST_LEVEL[lemma]:
        raise LemmaPreconditionError(
            f"{lemma} needs a congruence level k >= {LEAST_LEVEL[lemma]}")
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


@functools.lru_cache(maxsize=None)
def designated_eps_code(lemma, spec):
    """Code of the nonzero residue the in-K rescaling branch and eps1's
    residue are stated for, computed once per (lemma, field)."""
    if lemma == NONSPHER01:
        # image of pi^v0 / 2 in the residue field
        v0 = two_valuation(spec)
        ring1 = residue_ring(spec, 1)
        return ring1.residue_code((spec.pi(v0) / spec.integer(2)).reduce(ring1))
    return 1


def build_witness(lemma, spec, i, j, k_level, a, b, x, eps_code, mutation=None):
    """Assemble the witness for one residue tuple.

    a, b, x are representatives in O/pi^depth and eps_code a residue-field
    code in [0, q).  This is the tuple step: it checks the lemma's
    hypotheses and the tuple's congruence layer, derives
    y = a x + b + pi^(depth-1) eps, evaluates ``family_witness`` at the
    canonical lifts of a, b, x and y with the lemma's designated eps code,
    and checks that the witness's eps1 is integral.
    """
    depth = check_preconditions(lemma, spec, i, j, k_level)
    if not 0 <= eps_code < spec.q:
        raise LemmaPreconditionError(
            f"eps code {eps_code} is not a residue code in [0, {spec.q})")
    if mutation == "wrong-n1" and lemma in (SPHER01, NONSPHER01):
        depth += 1
    ring = residue_ring(spec, depth)
    if k_level > 0:
        la, lb, lx = congruence_levels(lemma, k_level)
        if ring.valuation(a) < min(la, depth) or ring.valuation(x) < min(lx, depth):
            raise LemmaPreconditionError("congruence layer needs a, x in pi^k O/pi^depth")
        if ring.valuation(b) < min(lb, depth):
            raise LemmaPreconditionError("congruence layer needs b in pi^2k O/pi^depth")
    eps = ring.shift(ring.embed_residue_code(eps_code), depth - 1)
    y = ring.add(ring.add(ring.mul(a, x), b), eps)
    sig = ring.section
    wit = family_witness(lemma, spec, i, j, depth, sig(a), sig(b), sig(x), sig(y),
                         eps_code=eps_code, eps0=designated_eps_code(lemma, spec),
                         mutation=mutation)
    if wit.eps1 is not None and not wit.eps1.is_integral():
        raise LemmaPreconditionError("eps1 left the valuation ring; inconsistent tuple")
    return wit


def family_witness(lemma, spec, i, j, depth, sa, sb, sx, sy, *, eps_code, eps0,
                   mutation=None):
    """The lemma family's witness at the lifted tuple (sa, sb, sx, sy).

    Pure ring arithmetic: every matrix, scalar and stated identity of the
    witness is a function of these four elements of O, so any section's
    lifts and any y may be passed.  eps_code only selects the expected
    cell, the in-K branch and eps1's residue; eps0 is the lemma's
    designated nonzero code.  No hypothesis is checked here, eps1's
    integrality included: ``build_witness`` checks them.
    """
    z, one = spec.zero(), spec.one()
    m = None if lemma in (SPHER1M1, NONSPHER1M1) else (i + j) // 2
    head = (lemma, spec, i, j, depth, m, sa, sb, sx, sy, eps_code, eps0)

    if m is None:  # the (1,-1) families
        a1 = one + sa.shift(1)
        wit = LemmaWitness(
            *head, (i, 0), (a1, z, z, -sb.shift(1)), (z, z, sx, sy.shift(1) + sx),
            (-j, 0), (i + 1, j - 1) if eps_code else (max(i, j), min(i, j)), a1=a1)
        wit.p_merged = (a1, z, sx, wit.s.shift(1))
        if lemma == SPHER1M1:
            wit.beta_wedge, wit.alpha_wedge, wit.product_wedge = i, j, i + j
            wit.free_y = _NORM_PROBE
        else:
            _attach_nonspher1m1(wit, mutation)
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
            *head, d_beta, (z, a1_sq, sb1, z), (z, z, w, sx * sx), d_alpha,
            # other residues: only the observed cell is recorded
            {0: (i, j), eps0: (i, j + 2)}.get(eps_code),
            p_merged=(z, a1_sq, full, sx * sx), beta_wedge=i + j, alpha_wedge=2 * m - 2 * j)
        _attach_char2(wit, a1_den, a1_sq, full)
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
        *head, d_beta, (z, one, sa, beta_41), (z, z, sx, alpha_41), d_alpha,
        (i, j + 1) if eps_code else (i, j),
        p_merged=(z, one, t, beta_41 + alpha_41))
    if lemma == SPHER01:
        wit.minor_formula = spher01_minor_value
        wit.product_norm, wit.beta_wedge, wit.alpha_wedge = i, i + j, 2 * m - 2 * j
        wit.free_y = _WEDGE_PROBE
    else:
        _attach_nonspher01(wit, t)
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


def _attach_nonspher01(wit, t):
    spec = wit.field
    pi, z, one = spec.pi, spec.zero(), spec.one()
    i, j, m = wit.i, wit.j, wit.m
    eps1 = (2 * wit.s).shift(-2 * m + 2 * j + 1)
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
    wit.scaled_branches = ((0, (i, j)), (wit.eps0, (i, j + 1)))


def _attach_nonspher1m1(wit, mutation):
    spec = wit.field
    pi, z, one = spec.pi, spec.zero(), spec.one()
    i, j, sx = wit.i, wit.j, wit.sx
    a1 = wit.a1
    eps1 = wit.s.shift(-j + 2)
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
    wit.scaled_branches = ((0, (i, j)), (wit.eps0, (i + 1, j - 1)))


def _attach_char2(wit, a1_den, a1_sq, full):
    spec = wit.field
    pi, z, one = spec.pi, spec.zero(), spec.one()
    i, j, m = wit.i, wit.j, wit.m
    a1 = full / a1_sq
    eps1 = wit.s.shift(-m + j + 2)
    den2 = one / a1_sq
    a1_k1 = a1.shift(i - 2 * m + j)
    wit.k1 = GroupElement(spec, (
        (z, z, one, z),
        (z, z, a1_k1, one),
        (one, z, a1.shift(i - 2 * m + 3 * j + 2), pi(2 * j + 2)),
        (a1_k1, one, den2.shift(2 * i - 2 * m + 2 * j), z)))
    e2 = eps1 * eps1 * den2
    unit = e2 + one                 # (eps1 / (1 + pi a))^2 + 1
    wit.g1_reference = GroupElement(spec, (
        (full.shift(-i), a1_sq.shift(-i), pi(-i + 2 * m - 2 * j), z),
        (e2.shift(-j - 2), z, a1.shift(-j), pi(-j)),
        (unit.shift(j), z, a1.shift(j + 2), pi(j + 2)),
        (z, z, den2.shift(i), z)))
    wit.eps1 = eps1
    wit.a1 = a1
    wit.a1_den = a1_den
    wit.scaled_branches = ((0, (i, j)), (wit.eps0, (i, j + 2)))
    if wit.eps_code == wit.eps0:
        wit.unit_sq = unit


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
    """The stated closed form -2 pi^(-i-2m+j) s, s = y - a x - b."""
    return (-2 * wit.s).shift(-wit.i - 2 * wit.m + wit.j)


def spher1m1_norm_formula(wit):
    """max(q^i, q^(i+j-v-1)) with v the valuation of s = y - a x - b.

    v is read uncapped: wherever v >= depth = j - 1 the second term is at
    most i, so capping v at the depth would change nothing, and s = 0
    (v infinite) gives i through the max.
    """
    return max(wit.i, wit.i + wit.j - wit.s.valuation() - 1)


def spher01_wedge_formula(wit):
    """max(q^(i+2m-j-v), q^(i+j)) with v the valuation of 2 s.

    v is read uncapped: wherever v > 2(m - j), which includes every
    v(s) > depth = 2m - 2j - v(2), the first term is below i + j, so
    capping v at 2(m - j) or at the depth would change nothing, and s = 0
    (v infinite) gives i + j through the max.
    """
    v = two_valuation(wit.field) + wit.s.valuation()
    return max(wit.i + 2 * wit.m - wit.j - v, wit.i + wit.j)


# (norm, formula, check name) of the free-y probes the (0,1) and (1,-1)
# spherical lemmas state: for every y of O/pi^depth the norm of
# beta^-1 alpha must follow the formula
_WEDGE_PROBE = (wedge_norm_exponent, spher01_wedge_formula, "wedge-max-formula")
_NORM_PROBE = (norm_exponent, spher1m1_norm_formula, "norm-max-formula")
