"""Finite-ring Fourier operator, its norms, and the line-averaging inequality.

The transform T on functions O/pi^h -> E is (T f)(chi) = E_a chi(a) f(a),
with expectation-normalized norms on both source and target.  With that
convention the Hilbert-space operator norm is exactly q^(-h/2),
independent of the coefficient dimension d; for other l_p the norm is
reported as a bracket [search lower bound, interpolation upper bound].
The search starts from the delta-diagonal family f(a) = e_a, whose ratio
is q^(-h(1-1/p)) when d >= q^h, so for p <= 2 the bracket closes there
(at p = 1 the family is a norm-1 witness).  When d < q^h the family
reaches only d^(1/p-1/2) q^(-h/2), sqrt(d/q^h) at p = 1, and the bracket
stays open: at p = 1 and 1.5 with d <= 8 the search never exceeded that
value over Q2, Q3, Q5 and F4((t)) at h = 1, 2 (two seeds each).

The line-averaging check evaluates, for families xi indexed by
O/pi^n x O/pi^n, the averaged squared norm of character-twisted sums
over the lines y = a x + b + pi^(n-1) eps and compares it with the
decay bound q^(2h-2) exp(-2(n/h-1) alpha); the shifted variant for
congruence level k restricts indices to pi^k and pi^2k multiples,
replaces the character twist by a difference at a designated residue,
and carries the character-sum constant C2.  Both operators come from
one builder, ``_averaging_operator``: row (a, b) averages over x the
weighted values xi_{x, a x + b + s} at a list of (shift s, weight) taps,
one tap per eps weighted by chi(eps) for the line operator, and +1 at
pi^(n-1) eps0 and -1 at 0 for the shifted difference.  For Hilbert
coefficients the left-hand supremum is an exact largest singular value.

Every other supremum, the transform norm's lower end and the
line-averaging ratio alike, comes from one search, ``_search``: optional
structured starts, random families scored 64 at a time, then coordinate
ascent from the best family found.
"""

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from sp4lab.exactfield import residue_ring
from sp4lab.verifiers.reports import VerificationReport

PAIRING_TOL = 1e-10  # orthogonality defect allowed per character, relative
FFT_TOL = 1e-8       # a line-averaging ratio above 1 + FFT_TOL is a violation
EXACT_SIGNS = 12     # type ratios average over all signs up to this many vectors
MC_SIGNS = 4096      # and over this many random sign vectors beyond


@dataclass(frozen=True)
class SpaceSpec:
    """Coefficient space: l_p^d (hilbert means p = 2)."""

    p: float
    d: int

    def __post_init__(self):
        if not self.p >= 1:  # NaN fails this test too
            raise ValueError(f"space exponent must satisfy p >= 1, got {self.p}")
        if self.d < 1:
            raise ValueError("space dimension must be >= 1")

    @property
    def is_hilbert(self):
        return self.p == 2

    def __str__(self):
        p = int(self.p) if float(self.p).is_integer() else self.p
        return f"l{p}:{self.d}"


def parse_space(text):
    """Parse the space grammar l<p>:<d> (e.g. l2:4, l1.5:3); hilbert:<d> ok.

    A malformed spec raises a ValueError that names it."""
    text = text.strip()
    name, colon, d_part = text.partition(":")
    try:
        if name == "hilbert":
            return SpaceSpec(2.0, int(d_part) if colon else 1)
        if not name.startswith("l") or not colon:
            raise ValueError("expected like l2:4")
        return SpaceSpec(float(name[1:]), int(d_part))
    except ValueError as exc:
        raise ValueError(f"bad space spec {text!r}: {exc}") from None


def lp_norms(mat, p):
    """Row-wise l_p norms of a complex matrix (rows are vectors in E)."""
    a = np.abs(mat)
    if p == 2:
        return np.sqrt((a * a).sum(axis=-1))
    if math.isinf(p):
        return a.max(axis=-1)
    return (a ** p).sum(axis=-1) ** (1.0 / p)


# ---------------------------------------------------------------------------
# characters


def characters_pairing(spec, n):
    """All characters of O/pi^n as a complex pairing matrix.

    Entry [b, a] is the value at a of the character indexed by b, both
    indexed in ``residue_ring(spec, n).elements()`` order.  The pairing is
    perfect, which is certified here by direct orthogonality sums.  At
    level 1 the class of residue code c has index c, and row 1 is
    nontrivial: chi_1(a) = exp(2 pi i tr(a) / p), and the trace onto F_p
    is surjective.
    """
    ring = residue_ring(spec, n)
    elems = ring.elements()
    size = len(elems)
    mat = np.empty((size, size), dtype=complex)
    for bi, b in enumerate(elems):
        for ai, a in enumerate(elems):
            root, index = ring.character(b, a)
            mat[bi, ai] = cmath.exp(1j * root * index)
    defect = float(np.abs(mat @ mat.conj().T - size * np.eye(size)).max())
    if defect > PAIRING_TOL * size:
        raise AssertionError(f"character pairing is not perfect (defect {defect})")
    return mat


def c2_constant(spec, eps0_code=1):
    """C2 = (sum over nontrivial chi of |chi-bar(eps0) - 1|)^2, computed from
    the level-1 character matrix."""
    _check_eps0(spec, eps0_code)
    total = 0.0
    for value in characters_pairing(spec, 1)[:, eps0_code]:
        total += float(abs(np.conj(value) - 1.0))
    return total ** 2


def c2_constant_direct(spec, eps0_code=1):
    """Direct l1-of-coefficients evaluation of the same constant: expand
    f = q delta_eps0 - q delta_0 over the characters and sum |f_chi|."""
    _check_eps0(spec, eps0_code)
    q = spec.q
    f = np.zeros(q, dtype=complex)
    f[eps0_code] = q
    f[0] = -q
    coeffs = (characters_pairing(spec, 1).conj() @ f) / q  # f_chi = E_eps f(eps) chi-bar(eps)
    total = float(np.abs(coeffs).sum())
    return total ** 2


# ---------------------------------------------------------------------------
# transform norm


def transform_matrix(spec, h):
    """Matrix of T against expectation-normalized bases: chi(a)/|R|."""
    mat = characters_pairing(spec, h)
    return mat / mat.shape[0]


def transform_upper_bound(spec, h, space):
    """Valid upper bound on ||T (x) 1_E||: interpolation against the l1
    witness bound 1 and the exact Hilbert value."""
    p = space.p
    if p <= 2:
        return spec.q ** (-h * (1.0 - 1.0 / p))
    return spec.q ** (-h / p)


def transform_norm(spec, h, space, iters=2000, seed=0):
    """[lower, upper] bracket for ||T (x) 1_E|| with a certificate kind.

    Hilbert spaces get the exact operator norm, the largest singular
    value of the normalized transform (lower == upper, analytically
    q^(-h/2)); other spaces get the interpolation upper bound and, as the
    lower bound, ``_search`` from the structured starts (the
    delta-diagonal family, the constant family and single spikes) with
    max(1, iters // 50) random families and ``iters`` ascent steps.
    """
    if h < 1:
        raise ValueError(f"the transform needs a residue level h >= 1, got {h}")
    if iters < 0:
        raise ValueError(f"the search needs iters >= 0 steps, got {iters}")
    mat = transform_matrix(spec, h)
    if space.is_hilbert:
        value = float(np.linalg.svd(mat, compute_uv=False)[0])
        return {"lower": value, "upper": value, "kind": "exact",
                "analytic": spec.q ** (-h / 2.0)}
    upper = transform_upper_bound(spec, h, space)
    size, d = mat.shape[1], space.d
    starts = [np.eye(size, d, dtype=complex), np.ones((size, d), dtype=complex)]
    for a in range(min(size, d)):
        spike = np.zeros((size, d), dtype=complex)
        spike[a, a] = 1.0
        starts.append(spike)
    ratio, _, last_improvement = _search(mat, space, 1.0, np.random.default_rng(seed),
                                         max(1, iters // 50), iters, np.stack(starts))
    best = math.sqrt(ratio)
    # converged: the ascent plateaued, or the bracket is already tight
    converged = (iters - last_improvement > iters // 5
                 or best >= upper * (1 - 1e-6))
    bracket_ok = best <= upper * (1 + 1e-9)
    return {"lower": best, "upper": upper, "kind": "bracket",
            "converged": converged, "bracket_consistent": bracket_ok}


# ---------------------------------------------------------------------------
# line-averaging inequality


def _index_map(elems):
    return {e: k for k, e in enumerate(elems)}


def _averaging_operator(ring, a_dom, b_dom, x_dom, y_dom, taps):
    """Matrix of xi -> sum_x sum_(s, w) w xi_{x, a x + b + s} over the
    (shift, weight) taps, acting (a,b)-indexed <- (x,y)-indexed.

    Each x fills its own block of columns, taps with distinct shifts fill
    distinct entries, and taps that share a shift are added in tap order,
    so the order of the loops changes no bit of the matrix.
    """
    y_idx = _index_map(y_dom)
    nb, ny = len(b_dom), len(y_dom)
    mat = np.zeros((len(a_dom) * nb, len(x_dom) * ny), dtype=complex)
    for ai, a in enumerate(a_dom):
        for xi, x in enumerate(x_dom):
            ax = ring.mul(a, x)
            for bi, b in enumerate(b_dom):
                base = ring.add(ax, b)
                row = ai * nb + bi
                for shift, weight in taps:
                    mat[row, xi * ny + y_idx[ring.add(base, shift)]] += weight
    return mat


def line_operator(spec, n, chi_row):
    """Matrix of xi -> E_{x, eps} chi(eps) xi_{x, a x + b + pi^(n-1) eps},
    acting (a,b)-indexed <- (x,y)-indexed."""
    ring = residue_ring(spec, n)
    elems = ring.elements()
    weight = 1.0 / (len(elems) * spec.q)
    # a level-1 representative is already canonical at level n
    taps = [(ring.shift(eps, n - 1), weight * chi)
            for eps, chi in zip(residue_ring(spec, 1).elements(), chi_row)]
    return _averaging_operator(ring, elems, elems, elems, elems, taps)


def _check_eps0(spec, eps0_code):
    if not 1 <= eps0_code < spec.q:
        raise ValueError(f"eps0 code {eps0_code} is not a residue code in [1, {spec.q})")


def shifted_difference_operator(spec, n, k, eps0_code):
    """Matrix of xi -> E_x (xi_{x, ax+b+pi^(n-1) eps0} - xi_{x, ax+b}) on the
    congruence-restricted index sets; returns (matrix, x_dom, y_dom).

    eps0 must be a nonzero residue code: at code 0 the two taps cancel and
    the operator is zero, so any identity about it would hold vacuously.
    """
    _check_eps0(spec, eps0_code)
    ring = residue_ring(spec, n)
    x_dom = ring.pi_multiples(k)
    y_dom = ring.pi_multiples(2 * k)
    weight = 1.0 / len(x_dom)
    taps = ((ring.shift(ring.embed_residue_code(eps0_code), n - 1), weight),
            (ring.zero, -weight))
    return _averaging_operator(ring, x_dom, y_dom, x_dom, y_dom, taps), x_dom, y_dom


def fft_rhs_coefficient(spec, h, n, k, space, eps0_code=1):
    """The decay coefficient the averaged left side must stay below."""
    alpha = -math.log(transform_upper_bound(spec, h, space))
    base = spec.q ** (2 * h - 2)
    if k == 0:
        return base * math.exp(-2.0 * (n / h - 1.0) * alpha)
    c2 = c2_constant(spec, eps0_code)
    return c2 * base * math.exp(-2.0 * ((n - 2 * k) / h - 1.0) * alpha)


def check_fft_lemma(spec, h, n, k=0, eps0_code=1, space=SpaceSpec(2.0, 1),
                    strategy=None, trials=10000, seed=0):
    """Verify LHS <= RHS for the line-averaging inequality.

    ``strategy`` defaults to "exhaustive" for a Hilbert space and to
    "random" otherwise; "exhaustive" needs a Hilbert space.  It is the
    exact route: the supremum of LHS / E||xi||^2 is the top singular
    value squared of the line operator (weighted), compared directly
    against the decay coefficient.  "random" runs ``_search`` with no
    structured start, ``trials`` random families and ``trials // 4``
    ascent steps.  The line operator twists by the row-1 character,
    which is nontrivial.  Any ratio above 1 + FFT_TOL is reported as a
    violation.
    """
    if h < 1:
        raise ValueError(f"the decay exponent needs h >= 1, got {h}")
    if n < 1:
        raise ValueError(f"the line operator needs a residue level n >= 1, got {n}")
    if k < 0 or k > n // 2:
        raise ValueError("congruence level must satisfy 0 <= k <= n/2")
    if k > 0 and n < 2 * k + 1:
        raise ValueError("shifted variant needs n >= 2k+1 for a well-typed shift")
    if spec.q ** (4 * n - 6 * k) > 8_000_000:
        raise ValueError("operator too large; reduce n (dense matrix route)")
    _check_eps0(spec, eps0_code)
    if strategy is None:
        strategy = "exhaustive" if space.is_hilbert else "random"
    if strategy not in ("exhaustive", "random"):
        raise ValueError(f"unknown strategy {strategy!r} (exhaustive or random)")
    if strategy == "exhaustive" and not space.is_hilbert:
        raise ValueError(f"the exhaustive strategy needs a Hilbert space, not {space}")
    if strategy == "random" and trials < 1:
        raise ValueError(f"the random strategy needs trials >= 1, got {trials}")
    params = {"field": str(spec), "h": h, "n": n, "k": k, "space": str(space),
              "strategy": strategy}
    report = VerificationReport(task=f"fft:{spec}:h{h}:n{n}:k{k}:{space}",
                                params=params, seed=seed)
    if k == 0:
        mat = line_operator(spec, n, characters_pairing(spec, 1)[1])
    else:
        mat, _, _ = shifted_difference_operator(spec, n, k, eps0_code)
    coeff = float(fft_rhs_coefficient(spec, h, n, k, space, eps0_code))
    report.margins["rhs_coefficient"] = coeff
    if strategy == "exhaustive":
        sv = np.linalg.svd(mat, compute_uv=False)
        # index sets on both sides have equal cardinality, so the mean
        # normalizations cancel and the supremum is the squared top value
        sup = float(sv[0] ** 2) * mat.shape[1] / mat.shape[0]
        ratio = sup / coeff
        report.margins["lhs_sup"] = sup
        report.margins["max_ratio"] = ratio
        report.cases_total = report.cases_run = 1
        if ratio > 1 + FFT_TOL:
            report.record_violation({"check": "fft-inequality", "ratio": ratio})
        return report.done()
    best, best_fam, _ = _search(mat, space, coeff, np.random.default_rng(seed),
                                trials, trials // 4)
    report.cases_total = report.cases_run = trials + trials // 4
    report.margins["max_ratio"] = best
    if best > 1 + FFT_TOL:
        report.record_violation({
            "check": "fft-inequality", "ratio": best,
            "family": [[str(z) for z in row] for row in best_fam.tolist()]})
    return report.done()


def _search(mat, space, coeff, rng, draws, steps, starts=None):
    """Largest ``_fft_ratio`` found; returns (ratio, family, last improving step).

    The (m, cols, d) stack of starts is scored first, then ``draws``
    random families, drawn and scored 64 at a time by one stacked product
    (``_fft_ratios``); a stack's first maximum replaces the best family
    only when it is strictly greater, as a family-by-family scan would
    decide.  If nothing scores above 0 the constant family is the best.
    Then ``steps`` coordinate-ascent steps each perturb one entry of the
    best family, and the step shrinks by 0.998 at every step that does
    not improve.  The last improving step is 0 when none improves.
    """
    cols, d = mat.shape[1], space.d
    best, best_fam = 0.0, None
    batches = (rng.standard_normal((m, cols, d)) + 1j * rng.standard_normal((m, cols, d))
               for m in (min(64, draws - done) for done in range(0, draws, 64)))
    for fams in itertools.chain([] if starts is None else [starts], batches):
        ratios = _fft_ratios(mat, fams, space.p, coeff)
        top = int(np.argmax(ratios))
        if ratios[top] > best:
            best, best_fam = float(ratios[top]), fams[top]
    if best_fam is None:
        best_fam = np.ones((cols, d), dtype=complex)
        best = _fft_ratio(mat, best_fam, space.p, coeff)
    step, last_improvement = 0.5, 0
    for it in range(steps):
        idx = (rng.integers(cols), rng.integers(d))
        cand = best_fam.copy()
        cand[idx] += step * (rng.standard_normal() + 1j * rng.standard_normal())
        r = _fft_ratio(mat, cand, space.p, coeff)
        if r > best:
            best, best_fam, last_improvement = r, cand, it
        else:
            step *= 0.998
    return best, best_fam, last_improvement


def _fft_ratio(mat, fam, p, coeff):
    """||T f||^2 / (coeff ||f||^2) in the expectation-normalized l2(., l_p^d) norms."""
    out = mat @ fam
    lhs = float(np.mean(lp_norms(out, p) ** 2))
    den = float(np.mean(lp_norms(fam, p) ** 2))
    if den == 0.0:
        return 0.0
    return lhs / (coeff * den)


def _fft_ratios(mat, fams, p, coeff):
    """``_fft_ratio`` of every family of an (m, cols, d) stack, bit for bit.

    The stacked product multiplies each family by the same BLAS call as
    ``mat @ fam``, and the norms and means reduce the same contiguous
    axes, so every ratio is the one the per-family call gives; a zero
    family scores 0.0.
    """
    lhs = np.mean(lp_norms(mat @ fams, p) ** 2, axis=-1)
    den = np.mean(lp_norms(fams, p) ** 2, axis=-1)
    zero = den == 0.0
    return np.where(zero, 0.0, lhs / (coeff * np.where(zero, 1.0, den)))


@functools.lru_cache(maxsize=4)
def _rewrite_operators(spec, n, k, eps0_code):
    """The shifted-difference matrices at depths n and n - 2k, built once
    per (spec, n, k, eps0_code) and shared read-only across trials."""
    mats = (shifted_difference_operator(spec, n, k, eps0_code)[0],
            shifted_difference_operator(spec, n - 2 * k, 0, eps0_code)[0])
    for mat in mats:
        mat.flags.writeable = False
    return mats


def shifted_rewrite_families(spec, n, k, xi, eps0_code=1):
    """The averaged reindexing that reduces the shifted variant to depth
    n - 2k: xi'_{x1,y1} = E_z xi_{pi^k (s(x1)+z), pi^2k y1}.

    xi is indexed over (x in pi^k O/pi^n) x (y in pi^2k O/pi^n) as a
    complex array; returns (xi_prime, lhs_shifted, lhs_reduced) where the
    two left-hand sides agree exactly.  Averaging over the fiber z makes
    the construction independent of the chosen section.
    """
    ring = residue_ring(spec, n)
    small = residue_ring(spec, n - 2 * k)
    x_dom = ring.pi_multiples(k)
    y_dom = ring.pi_multiples(2 * k)
    x_idx = _index_map(x_dom)
    y_idx = _index_map(y_dom)
    small_elems = small.elements()
    d = xi.shape[-1]
    xi_prime = np.zeros((len(small_elems), len(small_elems), d), dtype=complex)
    z_count = spec.q ** k
    # a depth n-2k representative is already canonical at depth n
    for x1i, x1 in enumerate(small_elems):
        for z_i in range(z_count):
            z = ring.shift(ring.element_at(z_i), n - 2 * k)
            xval = ring.shift(ring.add(x1, z), k)
            for y1i, y1 in enumerate(small_elems):
                yval = ring.shift(y1, 2 * k)
                xi_prime[x1i, y1i] += xi[x_idx[xval] * len(y_dom) + y_idx[yval]]
        xi_prime[x1i] /= z_count
    mat, mat2 = _rewrite_operators(spec, n, k, eps0_code)
    flat = xi.reshape(len(x_dom) * len(y_dom), d)
    lhs_full = float(np.mean(lp_norms(mat @ flat, 2) ** 2))
    flat2 = xi_prime.reshape(len(small_elems) * len(small_elems), d)
    lhs_reduced = float(np.mean(lp_norms(mat2 @ flat2, 2) ** 2))
    return xi_prime, lhs_full, lhs_reduced


# ---------------------------------------------------------------------------
# type-constant estimator


def estimate_type_constant(space, p_exp, n_vectors, trials=100, seed=0):
    """Max observed ratio of the sign average against the p-sum bound.

    For each trial draws n vectors in the space and computes
    (E_signs ||sum eps_i x_i||^2)^(1/2) / (sum ||x_i||^p)^(1/p); sign
    expectations are exact up to EXACT_SIGNS vectors and Monte Carlo
    beyond.  The supremum over all data is a lower bound for the type-p
    constant of the space.
    """
    if not p_exp >= 1:  # NaN fails this test too
        raise ValueError(f"type exponent must satisfy p >= 1, got {p_exp}")
    if n_vectors < 1 or trials < 0:
        raise ValueError("a type estimate needs n_vectors >= 1 and trials >= 0, "
                         f"got {n_vectors} and {trials}")
    rng = np.random.default_rng(seed)
    best = 0.0
    best_desc = None
    d = space.d
    structured = []
    if n_vectors <= d:
        structured.append(np.eye(n_vectors, d, dtype=complex))
    structured.append(np.ones((n_vectors, d), dtype=complex))
    for trial in range(trials + len(structured)):
        if trial < len(structured):
            vecs = structured[trial]
            label = f"structured-{trial}"
        else:
            vecs = rng.standard_normal((n_vectors, d)) + 1j * rng.standard_normal((n_vectors, d))
            label = f"random-{trial - len(structured)}"
        ratio = type_ratio(vecs, space.p, p_exp, rng)
        if ratio > best:
            best, best_desc = ratio, label
    return {"max_ratio": best, "witness": best_desc,
            "n_vectors": n_vectors, "space": str(space), "p": p_exp}


@functools.lru_cache(maxsize=None)
def _sign_table(n):
    """All 2^n sign vectors in ``itertools.product`` order, as a read-only
    (2^n, n) array built once per n and shared by every caller."""
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    signs.flags.writeable = False
    return signs


def type_ratio(vecs, space_p, p_exp, rng=None):
    """(E_signs ||sum eps_i x_i||^2)^(1/2) / (sum ||x_i||^p)^(1/p).

    Up to EXACT_SIGNS vectors the expectation runs over the exact table
    ``_sign_table(n)``, built once per n; beyond that over MC_SIGNS sign
    vectors drawn from rng.
    """
    n = vecs.shape[0]
    if n <= EXACT_SIGNS:
        signs = _sign_table(n)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        signs = rng.choice((1.0, -1.0), size=(MC_SIGNS, n))
    sums = signs @ vecs
    mean_sq = float(np.mean(lp_norms(sums, space_p) ** 2))
    denom = float((lp_norms(vecs, space_p) ** p_exp).sum() ** (1.0 / p_exp))
    if denom == 0.0:
        return 0.0
    return math.sqrt(mean_sq) / denom
