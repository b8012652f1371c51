"""Factorization of K = Sp4(O) into alternating K1/K2 factors.

The primary route factors g = b1 w b2 with b1, b2 lower triangular in K
and w one of the eight monomial Weyl representatives, then expands each
lower-triangular factor through the stated product of root elements
mu21 mu32 mu31 mu41 and a torus factor, and each Weyl word through w21
and w32.  The b1 w b2 factorization can genuinely fail over O (an upper
unipotent with entries in pi O is in no such cell), so a fallback first
solves the factorization over the residue field, lifts it, and peels
the remaining principal-congruence part h as l * u with u upper
unipotent; u is returned to lower-triangular form by conjugating with
the antidiagonal Weyl element, which is itself a w21/w32 word.  Both
routes reconstruct g exactly and stay within 30 alternating blocks.

``_finish`` is the one certificate of a factorization: every merged
factor passes its K1/K2 membership test and the exact product of the
factors equals g (so g is symplectic, whatever built it).  No step before
it re-tests what it has already decided:

- U(s) g is in the w-staircase once ``_solve_staircase_exact`` returns s:
  ``_solve_single`` verifies rows 1 and 3 and the reduced system of row 2,
  and u = -(r0 + q0 v)/p0 turns each p u + q v + r into its reduced form.
- L^-1 h is unipotent upper triangular in ``symplectic_lu``: L has h's
  first column, f and b make m = L^-1 h send e2 to e2 + (h01/e) e1 up to
  a fourth coordinate omega(h e1, h e2) = 0, and then the pairings with
  e1 and m e2 force m e3 = (*, *, 1, 0) and m e4 = (*, *, -h01/e, 1).
- h = n b2^-1 = I mod pi in the fallback: n mod pi is lower triangular,
  by the residue solve, and b2 lifts exactly its parameters.

``sp4.lower_from_params`` (its docstring pairs the columns) and
``sampling.lift_symplectic`` (its repairs set all six pairings) are
symplectic by construction and skip certification.
"""

import functools
import itertools
import types
from dataclasses import dataclass

from sp4lab.exactfield import residue_ring
from sp4lab.sp4 import (
    GroupElement,
    identity,
    j_form,
    lower_from_params,
    mu21,
    mu32,
    subgroup_membership,
    torus,
    weyl_w21,
    weyl_w32,
)

K1 = "K1"
K2 = "K2"


class DecompositionError(ValueError):
    pass


@dataclass
class FactorList:
    """Alternating K1/K2 factors with exact product equal to the input."""

    factors: list          # [(tag, GroupElement)]
    block_count: int
    route: str             # identity | paper | fallback
    weyl_pattern: tuple = None

    def product(self, field):
        return _word_product(field, self.factors)


def _word_product(field, word):
    """Exact product of the elements of a [(tag, GroupElement)] word."""
    if not word:
        return identity(field)
    acc = word[0][1]
    for _, g in word[1:]:
        acc = acc * g
    return acc


def _merge_factors(field, factors):
    one = identity(field)
    merged = []
    for tag, g in factors:
        if g == one:
            continue
        if merged and merged[-1][0] == tag:
            merged[-1] = (tag, merged[-1][1] * g)
            if merged[-1][1] == one:
                merged.pop()
        else:
            merged.append((tag, g))
    return merged


def block_count_of(factors):
    if not factors:
        return 0
    r = len(factors)
    lead = 1 if factors[0][0] == K2 else 0
    return (r + lead + 1) // 2


# ---------------------------------------------------------------------------
# lower-triangular subgroup B: parameters (a, b, c, d, e, f)


def lower_params(g):
    """Extract (a, b, c, d, e, f) from an element g of Sp4; raises if g is not in B.

    A lower-triangular element of Sp4 always has the form ``lower_from_params`` builds.
    """
    rows = g.rows
    for r in range(4):
        for c in range(r + 1, 4):
            if not rows[r][c].is_zero():
                raise DecompositionError("matrix is not lower triangular")
    e, f = rows[0][0], rows[1][1]
    if not (e.is_unit() and f.is_unit()):
        raise DecompositionError("diagonal of a B element must be a unit pair")
    a = rows[1][0] / e
    b = rows[2][1] / f
    c = rows[2][0] / e
    d = rows[3][0] / e
    for val in (a, b, c, d):
        if not val.is_integral():
            raise DecompositionError("B parameters must be integral")
    return a, b, c, d, e, f


def _mu41_word(field, u):
    if u.is_zero():
        return []
    return [(K1, weyl_w21(field)), (K2, mu32(field, u)), (K1, weyl_w21(field))]


def _mu31_word(field, c):
    if c.is_zero():
        return []
    one = field.one()
    word = [(K1, mu21(field, -c)), (K2, mu32(field, one)),
            (K1, mu21(field, c)), (K2, mu32(field, -one))]
    word += _mu41_word(field, -(c * c))
    return word


def expand_lower(g):
    """Write g in B as the reference mu-product times a torus factor."""
    field = g.field
    a, b, c, d, e, f = lower_params(g)
    word = []
    if not a.is_zero():
        word.append((K1, mu21(field, a)))
    if not b.is_zero():
        word.append((K2, mu32(field, b)))
    word += _mu31_word(field, c)
    word += _mu41_word(field, a * c + d)
    if not (e == field.one() and f == field.one()):
        word.append((K1, torus(field, e, f)))
    return word


# ---------------------------------------------------------------------------
# Weyl representatives as shortest w21/w32 words


def _pattern(rows):
    pat = []
    for r in range(4):
        nz = [c for c in range(4) if not rows[r][c].is_zero()]
        if len(nz) != 1:
            return None
        pat.append(nz[0])
    return tuple(pat)


@functools.lru_cache(maxsize=None)
def weyl_reps(field):
    """pattern -> (element, word) for the eight Weyl permutations.

    Built once per field, in the order both decomposition routes try the
    patterns: shortest word first, then by pattern.  The mapping is
    read-only and the words are tuples, so callers share it.
    """
    gens = ((K1, weyl_w21(field)), (K2, weyl_w32(field)))
    reps = {}
    frontier = [(identity(field), ())]
    reps[(0, 1, 2, 3)] = (identity(field), ())
    for _ in range(4):
        nxt = []
        for g, word in frontier:
            for tag, h in gens:
                g2 = g * h
                pat = _pattern(g2.rows)
                if pat not in reps:
                    reps[pat] = (g2, word + ((tag, h),))
                    nxt.append(reps[pat])
        frontier = nxt
    assert len(reps) == 8, "Weyl representative search must find 8 patterns"
    return types.MappingProxyType(
        dict(sorted(reps.items(), key=lambda kv: (len(kv[1][1]), kv[0]))))


def j_word(field):
    w1, w2 = weyl_w21(field), weyl_w32(field)
    word = [(K1, w1), (K2, w2), (K1, w1), (K2, w2)]
    return word


def j_inverse_word(field):
    w1, w2 = weyl_w21(field), weyl_w32(field)
    neg_w1 = GroupElement(field, tuple(tuple(-e for e in r) for r in w1.rows),
                          certify=False)
    return [(K1, neg_w1), (K2, w2), (K1, w1), (K2, w2)]


# ---------------------------------------------------------------------------
# staircase solves: U(s) g supported like w * (lower)


def _solve_single(field, eqs):
    """s with coef*s + rhs = 0 for all (coef, rhs); zero when unconstrained."""
    pivot = None
    for coef, rhs in eqs:
        if not coef.is_zero():
            if pivot is None or coef.valuation() < pivot[0].valuation():
                pivot = (coef, rhs)
    if pivot is None:
        if any(not rhs.is_zero() for _, rhs in eqs):
            return None
        return field.zero()
    s = -(pivot[1] / pivot[0])
    for coef, rhs in eqs:
        if not (coef * s + rhs).is_zero():
            return None
    return s


def _solve_pair(field, eqs):
    """(u, v) with p*u + q*v + r = 0 for all (p, q, r); zeros when free."""
    zero = field.zero()
    pivot = None
    for p, q, r in eqs:
        if not p.is_zero():
            if pivot is None or p.valuation() < pivot[0].valuation():
                pivot = (p, q, r)
    if pivot is None:
        v = _solve_single(field, [(q, r) for _, q, r in eqs])
        if v is None:
            return None
        return zero, v
    p0, q0, r0 = pivot
    reduced = []
    for p, q, r in eqs:
        # u = -(r0 + q0 v)/p0 substituted into p*u + q*v + r = 0
        reduced.append((q - p * q0 / p0, r - p * r0 / p0))
    v = _solve_single(field, reduced)
    if v is None:
        return None
    return -(r0 + q0 * v) / p0, v


def _solve_staircase_exact(g, pat):
    """Integral parameters s with U(s) g in the w-staircase, or None."""
    field = g.field
    rows = g.rows
    for c in range(pat[0] + 1, 4):
        if not rows[0][c].is_zero():
            return None
    sa = _solve_single(field, [(rows[0][c], rows[1][c])
                               for c in range(pat[1] + 1, 4)])
    if sa is None or not sa.is_integral():
        return None
    pair = _solve_pair(field, [(rows[0][c], rows[1][c], rows[2][c])
                               for c in range(pat[2] + 1, 4)])
    if pair is None:
        return None
    sc, sb = pair
    if not (sb.is_integral() and sc.is_integral()):
        return None
    t = sc - sa * sb
    eqs = []
    for c in range(pat[3] + 1, 4):
        eqs.append((rows[0][c], t * rows[1][c] - sa * rows[2][c] + rows[3][c]))
    sd = _solve_single(field, eqs)
    if sd is None or not sd.is_integral():
        return None
    return sa, sb, sc, sd


# ---------------------------------------------------------------------------
# residue-level Bruhat solve (always succeeds over the residue field)


def _residue_unipotent_rows(ring, s, g):
    sa, sb, sc, sd = s
    r1 = g[0]
    r2 = tuple(ring.add(ring.mul(sa, r1[c]), g[1][c]) for c in range(4))
    r3 = tuple(ring.add(ring.add(ring.mul(sc, r1[c]), ring.mul(sb, g[1][c])),
                        g[2][c]) for c in range(4))
    t = ring.sub(sc, ring.mul(sa, sb))
    r4 = tuple(ring.add(ring.sub(ring.add(ring.mul(sd, r1[c]),
                                          ring.mul(t, g[1][c])),
                                 ring.mul(sa, g[2][c])), g[3][c])
               for c in range(4))
    return (r1, r2, r3, r4)


def _residue_staircase_ok(rows, pat, ring):
    for r in range(4):
        for c in range(pat[r] + 1, 4):
            if rows[r][c] != ring.zero:
                return False
    return True


def _solve_staircase_residue(spec, gbar, patterns):
    ring = residue_ring(spec, 1)
    elems = ring.elements()
    for pat in patterns:
        for s in itertools.product(elems, repeat=4):
            if _residue_staircase_ok(_residue_unipotent_rows(ring, s, gbar), pat, ring):
                return pat, s
    raise DecompositionError("residue Bruhat factorization not found (impossible)")


# ---------------------------------------------------------------------------
# congruence-part LU: h = l * u with h = I mod pi


def symplectic_lu(h):
    """h = lower * upper with lower in B and upper unipotent upper triangular."""
    field = h.field
    rows = h.rows
    e = rows[0][0]
    if not e.is_unit():
        raise DecompositionError("LU pivot is not a unit")
    a = rows[1][0] / e
    c = rows[2][0] / e
    d = rows[3][0] / e
    f = rows[1][1] - a * rows[0][1]
    if not f.is_unit():
        raise DecompositionError("LU second pivot is not a unit")
    b = (rows[2][1] - c * rows[0][1]) / f
    lower = lower_from_params(field, a, b, c, d, e, f)
    return lower, lower.inverse() * h


# ---------------------------------------------------------------------------
# driver


def decompose_k1k2(g):
    """Alternating K1/K2 factorization of g in K, exact product preserved."""
    field = g.field
    if not subgroup_membership(g, "K"):
        raise DecompositionError("decomposition input must lie in K")
    if g == identity(field):
        return FactorList([], 0, "identity")
    reps = weyl_reps(field)
    for pat, (w_elem, word) in reps.items():
        s = _solve_staircase_exact(g, pat)
        if s is None:
            continue
        u = lower_from_params(field, *s, field.one(), field.one())
        m = u * g
        b2 = w_elem.inverse() * m
        try:
            factors = expand_lower(u.inverse()) + list(word) + expand_lower(b2)
        except DecompositionError:
            continue
        return _finish(g, factors, "direct", pat)
    return _fallback(g, reps)


def _fallback(g, reps):
    field = g.field
    gbar = g.reduce(1)
    pat, sbar = _solve_staircase_residue(field, gbar, reps)
    ring1 = residue_ring(field, 1)
    s = tuple(ring1.section(x) for x in sbar)
    u1 = lower_from_params(field, *s, field.one(), field.one())
    m = u1 * g
    w_elem, word = reps[pat]
    n = w_elem.inverse() * m
    nbar = n.reduce(1)
    e = ring1.section(nbar[0][0])
    f = ring1.section(nbar[1][1])
    a = ring1.section(ring1.mul(nbar[1][0], ring1.inv(nbar[0][0])))
    b = ring1.section(ring1.mul(nbar[2][1], ring1.inv(nbar[1][1])))
    c = ring1.section(ring1.mul(nbar[2][0], ring1.inv(nbar[0][0])))
    d = ring1.section(ring1.mul(nbar[3][0], ring1.inv(nbar[0][0])))
    b2 = lower_from_params(field, a, b, c, d, e, f)
    lower, upper = symplectic_lu(n * b2.inverse())
    jm = j_form(field)
    lprime = jm * upper * jm.inverse()
    factors = (expand_lower(u1.inverse()) + list(word) + expand_lower(lower)
               + j_inverse_word(field) + expand_lower(lprime)
               + j_word(field) + expand_lower(b2))
    return _finish(g, factors, "fallback", pat)


def _finish(g, factors, route, pat):
    field = g.field
    merged = _merge_factors(field, factors)
    for tag, x in merged:
        if not subgroup_membership(x, tag):
            raise DecompositionError(f"factor failed {tag} membership check")
    if not _word_product(field, merged) == g:
        raise DecompositionError("factor product does not reconstruct the input")
    return FactorList(merged, block_count_of(merged), route, pat)
