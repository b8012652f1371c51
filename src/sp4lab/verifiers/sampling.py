"""Exactly uniform sampling of Sp4 over residue rings, with exact lifts.

A symplectic matrix over O/pi^n is assembled column by column: first
column uniform unimodular, fourth column uniform on the affine set
pairing to 1, second and third columns uniform on the rank-2 kernel of
the first two pairings.  Every choice set is a coset of a free module,
so the output is exactly uniform and the same routine enumerates the
whole group at level 1 for small q.

Any residue-level symplectic matrix lifts to an exact element of
Sp4(O): lift entries through the canonical section, then repair the six
pairings with corrections of valuation >= n.  The lift reduces back to
its input, which makes residue-level sampling double as Haar sampling
on K at finite depth.
"""

import itertools

from sp4lab.exactfield import residue_ring
from sp4lab.sp4 import GroupElement, pairing


def _pair_ring(ring, u, v):
    """The skew pairing t(u) J v over the residue ring."""
    a = ring.add(ring.mul(u[0], v[3]), ring.mul(u[1], v[2]))
    b = ring.add(ring.mul(u[2], v[1]), ring.mul(u[3], v[0]))
    return ring.sub(a, b)


def _form_covector(ring, c):
    """w with <c, v> = sum w_k v_k."""
    return (ring.neg(c[3]), ring.neg(c[2]), c[1], c[0])


def _kernel_basis(ring, w1, w4):
    """Free basis of the joint kernel of two residue covectors that are
    independent mod pi."""
    p1 = next(k for k in range(4) if ring.is_unit(w1[k]))
    inv1 = ring.inv(w1[p1])
    lam = ring.mul(w4[p1], inv1)
    w4p = tuple(ring.sub(w4[k], ring.mul(lam, w1[k])) for k in range(4))
    p2 = next(k for k in range(4) if k != p1 and ring.is_unit(w4p[k]))
    inv4 = ring.inv(w4p[p2])
    mu = ring.mul(w1[p2], inv4)
    w1p = tuple(ring.sub(w1[k], ring.mul(mu, w4p[k])) for k in range(4))
    free = [k for k in range(4) if k not in (p1, p2)]
    basis = []
    for t in free:
        vec = [ring.zero] * 4
        vec[t] = ring.one
        vec[p2] = ring.neg(ring.mul(w4p[t], inv4))
        vec[p1] = ring.neg(ring.mul(ring.add(w1p[t],
                                             ring.mul(w1p[p2], vec[p2])), inv1))
        basis.append(tuple(vec))
    return basis


def _solve_pairing_one(ring, w, free_values):
    """v with sum w_k v_k = 1, free coordinates prescribed."""
    pivot = next(k for k in range(4) if ring.is_unit(w[k]))
    v = [None] * 4
    others = [k for k in range(4) if k != pivot]
    for k, val in zip(others, free_values):
        v[k] = val
    acc = ring.zero
    for k in others:
        acc = ring.add(acc, ring.mul(w[k], v[k]))
    v[pivot] = ring.mul(ring.sub(ring.one, acc), ring.inv(w[pivot]))
    return tuple(v)


def _columns_to_rows(cols):
    return tuple(tuple(cols[c][r] for c in range(4)) for r in range(4))


def _complete_columns(ring, c1, c4_free, uv, r_free):
    w1 = _form_covector(ring, c1)
    c4 = _solve_pairing_one(ring, w1, c4_free)
    w4 = _form_covector(ring, c4)
    k_s, k_t = _kernel_basis(ring, w1, w4)
    u, v = uv
    c2 = tuple(ring.add(ring.mul(u, k_s[k]), ring.mul(v, k_t[k])) for k in range(4))
    beta = _pair_ring(ring, k_s, k_t)
    beta_inv = ring.inv(beta)
    if ring.is_unit(u):
        s = r_free
        t = ring.mul(ring.inv(u), ring.add(beta_inv, ring.mul(v, r_free)))
    else:
        t = r_free
        s = ring.mul(ring.inv(v), ring.sub(ring.mul(u, r_free), beta_inv))
    c3 = tuple(ring.add(ring.mul(s, k_s[k]), ring.mul(t, k_t[k])) for k in range(4))
    return _columns_to_rows((c1, c2, c3, c4))


def sample_symplectic_residue(spec, n, rng):
    """Uniform element of Sp4(O/pi^n) as a 4x4 tuple of representatives."""
    ring = residue_ring(spec, n)
    size = ring.size
    while True:
        c1 = tuple(ring.element_at(rng.randrange(size)) for _ in range(4))
        if any(ring.is_unit(x) for x in c1):
            break
    c4_free = tuple(ring.element_at(rng.randrange(size)) for _ in range(3))
    while True:
        u = ring.element_at(rng.randrange(size))
        v = ring.element_at(rng.randrange(size))
        if ring.is_unit(u) or ring.is_unit(v):
            break
    r = ring.element_at(rng.randrange(size))
    return _complete_columns(ring, c1, c4_free, (u, v), r)


def enumerate_symplectic_residue(spec, n=1):
    """Deterministic enumeration of Sp4(O/pi^n); intended for small sizes
    (level 1, q = 2 gives the 720 elements)."""
    ring = residue_ring(spec, n)
    elems = ring.elements()
    unimodular4 = [c for c in itertools.product(elems, repeat=4)
                   if any(ring.is_unit(x) for x in c)]
    uv_pairs = [(u, v) for u in elems for v in elems
                if ring.is_unit(u) or ring.is_unit(v)]
    for c1 in unimodular4:
        for c4_free in itertools.product(elems, repeat=3):
            for uv in uv_pairs:
                for r in elems:
                    yield _complete_columns(ring, c1, c4_free, uv, r)


def symplectic_group_order(q, n=1):
    return q ** (10 * (n - 1)) * q ** 4 * (q ** 2 - 1) * (q ** 4 - 1)


def lift_symplectic(spec, n, reps):
    """Exact element of Sp4(O) reducing to the given residue matrix."""
    ring = residue_ring(spec, n)
    cols = [[ring.section(reps[r][c]) for r in range(4)] for c in range(4)]
    c1, c2, c3, c4 = cols
    u = pairing(c1, c4)
    if not u.is_unit():
        raise ValueError("input is not symplectic at the given depth")
    c4 = [x / u for x in c4]
    mu = -pairing(c1, c2)
    lam = pairing(c4, c2)
    c2 = [c2[k] + lam * c1[k] + mu * c4[k] for k in range(4)]
    mu2 = -pairing(c1, c3)
    lam2 = pairing(c4, c3)
    c3 = [c3[k] + lam2 * c1[k] + mu2 * c4[k] for k in range(4)]
    u2 = pairing(c2, c3)
    if not u2.is_unit():
        raise ValueError("input is not symplectic at the given depth")
    c3 = [x / u2 for x in c3]
    # the repairs set all six column pairings to those of J exactly
    g = GroupElement(spec, _columns_to_rows((c1, c2, c3, c4)))
    if g.reduce(n) != tuple(tuple(r) for r in reps):
        raise AssertionError("symplectic lift failed to reduce to its input")
    return g


def random_k_element(spec, depth, rng):
    """Haar-uniform element of K at the given depth, lifted exactly."""
    return lift_symplectic(spec, depth, sample_symplectic_residue(spec, depth, rng))
