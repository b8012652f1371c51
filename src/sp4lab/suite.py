"""Suite profiles: named bundles of verification tasks with parameter grids.

Every lemma-level claim in scope is reachable from at least one task;
the quick profile is a representative sub-grid sized for minutes, the
full profile runs the complete acceptance grids.  Task seeds derive
deterministically from the suite seed and the task id, so rerunning a
suite with the same seed reproduces every report byte for byte apart
from timing fields.
"""

import traceback
import zlib
from fractions import Fraction

from sp4lab import zigzag as zz
from sp4lab.exactfield import parse_field, residue_ring, two_valuation
from sp4lab import lemma_witnesses as lw
from sp4lab.fourier import (
    SpaceSpec,
    c2_constant,
    c2_constant_direct,
    check_fft_lemma,
    estimate_type_constant,
    shifted_rewrite_families,
    transform_norm,
)
from sp4lab.sp4 import d_matrix, identity
from sp4lab.verifiers.averaging import (
    dihedral_4_standard,
    symmetric_3_standard,
    verify_averaging,
)
from sp4lab.verifiers.cells import case_count, verify_cell_lemma, verify_witness_identities
from sp4lab.verifiers.decompose import decompose_k1k2
from sp4lab.verifiers.parity import parity_depth_profile, parity_volumes
from sp4lab.verifiers.reports import VerificationReport
from sp4lab.verifiers.sampling import (
    enumerate_symplectic_residue,
    lift_symplectic,
    random_k_element,
)

QUICK_EXHAUSTIVE_CAP = 25_000
FULL_EXHAUSTIVE_CAP = 250_000


def task_seed(global_seed, task_id):
    return (int(global_seed) ^ zlib.crc32(task_id.encode())) & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# task runners (top-level functions so they stay picklable)


def run_cells(params, seed, mutation):
    spec = parse_field(params["field"])
    total = case_count(params["lemma"], spec, params["i"], params["j"], params["k"])
    mode = "exhaustive" if total <= params.get("cap", QUICK_EXHAUSTIVE_CAP) else "sample"
    return verify_cell_lemma(params["lemma"], spec, params["i"], params["j"],
                             params["k"], mode=mode,
                             sample_n=params.get("sample_n", 1500),
                             seed=seed, mutation=mutation)


def run_identities(params, seed, mutation):
    spec = parse_field(params["field"])
    return verify_witness_identities(params["lemma"], spec, params["i"],
                                     params["j"], sample_n=params.get("n", 400),
                                     seed=seed, mutation=mutation)


def _decompose_report(params, seed, elements):
    """Decompose every K element of ``elements`` and tally routes and block counts."""
    report = VerificationReport(task="", params=dict(params), seed=seed)
    routes = {}
    max_blocks = 0
    for g in elements:
        fl = decompose_k1k2(g)
        routes[fl.route] = routes.get(fl.route, 0) + 1
        max_blocks = max(max_blocks, fl.block_count)
        if fl.block_count > 30:
            report.record_violation({"check": "block-count", "blocks": fl.block_count})
        report.cases_run += 1
    report.cases_total = report.cases_run
    report.margins["max_block_count"] = max_blocks
    report.margins["routes"] = routes
    return report.done()


def run_decompose_sweep(params, seed, mutation):
    spec = parse_field(params["field"])
    return _decompose_report(params, seed, (
        lift_symplectic(spec, 1, reps) for reps in enumerate_symplectic_residue(spec, 1)))


def run_decompose_random(params, seed, mutation):
    import random as _random
    spec = parse_field(params["field"])
    rng = _random.Random(seed)
    return _decompose_report(params, seed, (
        random_k_element(spec, params["depth"], rng) for _ in range(params["n"])))


def run_averaging(params, seed, mutation):
    group = symmetric_3_standard() if params["group"] == "S3" else dihedral_4_standard()
    return verify_averaging(group, repeats=params.get("N", 2),
                            trials=params.get("trials", 1000), seed=seed)


def run_fourier_norm(params, seed, mutation):
    spec = parse_field(params["field"])
    report = VerificationReport(task="", params=dict(params), seed=seed)
    worst = 0.0
    for h in params["h_values"]:
        analytic = spec.q ** (-h / 2.0)
        for d in params["dims"]:
            res = transform_norm(spec, h, SpaceSpec(2.0, d))
            dev = abs(res["lower"] - analytic)
            worst = max(worst, dev)
            if dev > 1e-9:
                report.record_violation({"check": "hilbert-norm", "h": h, "d": d,
                                         "deviation": dev})
            report.cases_run += 1
    report.cases_total = report.cases_run
    report.margins["max_deviation"] = worst
    return report.done()


def run_fft(params, seed, mutation):
    spec = parse_field(params["field"])
    space = SpaceSpec(params.get("p", 2.0), params.get("d", 1))
    return check_fft_lemma(spec, params["h"], params["n"], params.get("k", 0),
                           eps0_code=params.get("eps0", 1), space=space,
                           strategy=params.get("strategy"),
                           trials=params.get("trials", 2000), seed=seed)


def run_fft_rewrite(params, seed, mutation):
    import numpy as np
    spec = parse_field(params["field"])
    n, k = params["n"], params["k"]
    report = VerificationReport(task="", params=dict(params), seed=seed)
    ring = residue_ring(spec, n)
    nx = len(ring.pi_multiples(k))
    ny = len(ring.pi_multiples(2 * k))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(params.get("trials", 20)):
        xi = (rng.standard_normal((nx * ny, params.get("d", 2)))
              + 1j * rng.standard_normal((nx * ny, params.get("d", 2))))
        _, full, reduced = shifted_rewrite_families(spec, n, k, xi,
                                                    eps0_code=params.get("eps0", 1))
        diff = abs(full - reduced) / max(1.0, abs(full))
        worst = max(worst, diff)
        if diff > 1e-12:
            report.record_violation({"check": "rewrite-identity", "diff": diff})
        report.cases_run += 1
    report.cases_total = report.cases_run
    report.margins["max_relative_diff"] = worst
    return report.done()


def run_c2(params, seed, mutation):
    spec = parse_field(params["field"])
    report = VerificationReport(task="", params=dict(params), seed=seed)
    q = spec.q
    for eps0 in range(1, q):
        via_chars = c2_constant(spec, eps0)
        direct = c2_constant_direct(spec, eps0)
        bound = (2 * (q - 1)) ** 2
        if abs(via_chars - direct) > 1e-9 or via_chars > bound + 1e-9:
            report.record_violation({"check": "c2", "eps0": eps0,
                                     "chars": via_chars, "direct": direct})
        report.cases_run += 1
    report.cases_total = report.cases_run
    return report.done()


def run_type_constant(params, seed, mutation):
    report = VerificationReport(task="", params=dict(params), seed=seed)
    space = SpaceSpec(params["space_p"], params["d"])
    res = estimate_type_constant(space, params["p"], params["n_vectors"],
                                 trials=params.get("trials", 50), seed=seed)
    report.margins.update(res)
    expect = params.get("expect")
    if expect == "hilbert-one" and abs(res["max_ratio"] - 1.0) > 1e-9:
        report.record_violation({"check": "hilbert-type", "ratio": res["max_ratio"]})
    if expect == "l1-growth" and res["max_ratio"] < params["n_vectors"] ** 0.5 - 1e-9:
        report.record_violation({"check": "l1-growth", "ratio": res["max_ratio"]})
    report.cases_total = report.cases_run = params.get("trials", 50)
    return report.done()


def run_parity(params, seed, mutation):
    spec = parse_field(params["field"])
    if params.get("g") == "identity":
        g = identity(spec)
    else:
        i, j = params["g"]
        g = d_matrix(spec, i, j)
    return parity_volumes(g, params["depth"], mode=params.get("mode", "exhaustive"),
                          sample_n=params.get("sample_n", 2000), seed=seed)


def run_parity_monotone(params, seed, mutation):
    spec = parse_field(params["field"])
    report = VerificationReport(task="", params=dict(params), seed=seed)
    i, j = params["g"]
    g = d_matrix(spec, i, j)
    profile = parity_depth_profile(g, params["depth"], sample_n=params.get("sample_n", 800),
                                   seed=seed)
    report.margins["decided_profile"] = profile
    for a, b in zip(profile, profile[1:]):
        if b < a:
            report.record_violation({"check": "decided-mass-monotone", "profile": profile})
            break
    report.cases_total = report.cases_run = params.get("sample_n", 800)
    return report.done()


def run_zigzag_plan(params, seed, mutation):
    report = VerificationReport(task="", params=dict(params), seed=seed)
    regime = zz.Regime.named(params["regime"], params.get("v0", 0),
                             params.get("klevel", 0))
    budget = params["max_length"]
    blocked = []
    planned = 0
    for i in range(0, budget + 1):
        for j in range(0, i + 1):
            if i + j > budget:
                break
            try:
                zz.plan_path((i, j), regime)
            except zz.PlannerError as exc:
                blocked.append(((i, j), exc.hypothesis))
                continue
            planned += 1
    allowed = {tuple(c) for c in params.get("allowed_blocked", [])}
    for cell, why in blocked:
        if cell not in allowed:
            report.record_violation({"check": "unexpected-blocked",
                                     "cell": list(cell), "why": why})
    report.cases_total = report.cases_run = planned + len(blocked)
    report.margins["planned"] = planned
    report.margins["blocked"] = [list(c) for c, _ in blocked]
    return report.done()


def run_zigzag_ledger(params, seed, mutation):
    report = VerificationReport(task="", params=dict(params), seed=seed)
    regime = zz.Regime.named(params["regime"], params.get("v0", 0),
                             params.get("klevel", 0))
    h = params["h"]
    alphas = [alpha for alpha in params["alphas"] for _ in params["betas"]]
    rates = [(Fraction(alpha), h,
              zz.beta_limit(regime, Fraction(alpha), h) * Fraction(beta_frac), 0)
             for alpha in params["alphas"] for beta_frac in params["betas"]]
    results = zz.ledger_sweep(regime, rates, max_length=params["max_length"],
                              stride=params.get("stride", 11))
    sup = 0.0
    for alpha, res in zip(alphas, results):
        sup = max(sup, res["sup_constant"])
        report.cases_run += 1
        if not (res["sup_constant"] < float("inf")):
            report.record_violation({"check": "ledger-finite", "alpha": alpha})
    report.cases_total = report.cases_run
    report.margins["sup_constant"] = sup
    return report.done()


RUNNERS = {
    "cells": run_cells,
    "identities": run_identities,
    "decompose-sweep": run_decompose_sweep,
    "decompose-random": run_decompose_random,
    "averaging": run_averaging,
    "fourier-norm": run_fourier_norm,
    "fft": run_fft,
    "fft-rewrite": run_fft_rewrite,
    "c2": run_c2,
    "type-constant": run_type_constant,
    "parity": run_parity,
    "parity-monotone": run_parity_monotone,
    "zigzag-plan": run_zigzag_plan,
    "zigzag-ledger": run_zigzag_ledger,
}


def _cells_grid(lemma, fields, pairs, k=0, cap=QUICK_EXHAUSTIVE_CAP, sample_n=1500):
    tasks = []
    for f in fields:
        for (i, j) in pairs:
            tid = f"cells:{lemma}:{f}:{i},{j},k{k}"
            tasks.append((tid, "cells", {"lemma": lemma, "field": f, "i": i,
                                         "j": j, "k": k, "cap": cap,
                                         "sample_n": sample_n}))
    return tasks


def _licensed(lemma, spec, i, j, k=0):
    """Whether the lemma's hypotheses hold at cell (i, j), level k."""
    try:
        lw.check_preconditions(lemma, spec, i, j, k)
    except lw.LemmaPreconditionError:
        return False
    return True


def spher01_pairs(field_name, max_len=8):
    spec = parse_field(field_name)
    return [(i, j) for i in range(max_len + 1) for j in range(i + 1)
            if i + j <= max_len and _licensed(lw.SPHER01, spec, i, j)]


def spher1m1_pairs(max_len=8, j_range=(2, 4)):
    return [(i, j) for j in range(j_range[0], j_range[1] + 1)
            for i in range(j, max_len + 1) if i + j <= 2 * max_len]


def char2_pairs(field_name, diffs=(2, 3, 4, 5, 6), j_values=(0, 1, 2)):
    spec = parse_field(field_name)
    return [(j + dd, j) for dd in diffs for j in j_values
            if _licensed(lw.CHAR2_02, spec, j + dd, j)]


def quick_profile():
    tasks = []
    tasks += _cells_grid(lw.SPHER01, ["Q3"], [(3, 1), (5, 2), (4, 1)])
    tasks += _cells_grid(lw.SPHER01, ["Q5"], [(3, 1)], sample_n=600)
    tasks += _cells_grid(lw.SPHER1M1, ["Q3"], [(4, 2), (3, 3)])
    tasks += _cells_grid(lw.SPHER1M1, ["F2((t))"], [(5, 3)])
    tasks += _cells_grid(lw.SPHER1M1, ["F4((t))"], [(4, 2)])
    tasks += _cells_grid(lw.NONSPHER01, ["Q3"], [(4, 1)], k=1)
    tasks += _cells_grid(lw.NONSPHER01, ["Q2"], [(5, 1)], k=1)
    tasks += _cells_grid(lw.NONSPHER1M1, ["Q3"], [(4, 4), (3, 4)], k=1)
    tasks += _cells_grid(lw.CHAR2_02, ["F2((t))"], [(5, 1), (7, 1)])
    tasks += _cells_grid(lw.CHAR2_02, ["F4((t))"], [(5, 1)])
    tasks += _cells_grid(lw.CHAR2_02, ["F2((t))"], [(11, 1)], k=1)
    tasks += [
        ("identities:SPHER01:Q3:4,1", "identities",
         {"lemma": lw.SPHER01, "field": "Q3", "i": 4, "j": 1, "n": 300}),
        ("identities:SPHER1M1:Q3:3,3", "identities",
         {"lemma": lw.SPHER1M1, "field": "Q3", "i": 3, "j": 3, "n": 300}),
        ("identities:NONSPHER01:Q3:4,1", "identities",
         {"lemma": lw.NONSPHER01, "field": "Q3", "i": 4, "j": 1, "n": 200}),
        ("identities:NONSPHER1M1:Q3:4,4", "identities",
         {"lemma": lw.NONSPHER1M1, "field": "Q3", "i": 4, "j": 4, "n": 200}),
        ("identities:CHAR2_02:F2((t)):6,2", "identities",
         {"lemma": lw.CHAR2_02, "field": "F2((t))", "i": 6, "j": 2, "n": 200}),
        ("decompose:sweep:F2((t))", "decompose-sweep", {"field": "F2((t))"}),
        ("decompose:random:Q3:d2", "decompose-random",
         {"field": "Q3", "depth": 2, "n": 60}),
        ("decompose:random:F2((t)):d3", "decompose-random",
         {"field": "F2((t))", "depth": 3, "n": 60}),
        ("averaging:S3", "averaging", {"group": "S3", "N": 2, "trials": 500}),
        ("averaging:D4", "averaging", {"group": "D4", "N": 2, "trials": 500}),
        ("fourier-norm:Q2", "fourier-norm",
         {"field": "Q2", "h_values": [1, 2], "dims": [1, 2, 4]}),
        ("fourier-norm:Q3", "fourier-norm",
         {"field": "Q3", "h_values": [1, 2], "dims": [1, 2, 4]}),
        ("fft:Q2:h1:n2:k0:l2", "fft", {"field": "Q2", "h": 1, "n": 2, "k": 0}),
        ("fft:Q2:h1:n3:k1:l2", "fft", {"field": "Q2", "h": 1, "n": 3, "k": 1}),
        ("fft:Q3:h1:n2:k0:l2", "fft", {"field": "Q3", "h": 1, "n": 2, "k": 0}),
        ("fft:Q3:h1:n3:k1:l2", "fft", {"field": "Q3", "h": 1, "n": 3, "k": 1}),
        ("fft:Q2:h1:n2:k0:l1.5", "fft",
         {"field": "Q2", "h": 1, "n": 2, "k": 0, "p": 1.5, "d": 2,
          "strategy": "random", "trials": 1500}),
        ("fft-rewrite:Q3:n3:k1", "fft-rewrite",
         {"field": "Q3", "n": 3, "k": 1, "trials": 10, "eps0": 2}),
        ("fft-rewrite:Q2:n3:k1", "fft-rewrite",
         {"field": "Q2", "n": 3, "k": 1, "trials": 10}),
        ("c2:Q3", "c2", {"field": "Q3"}),
        ("c2:F4((t))", "c2", {"field": "F4((t))"}),
        ("type-constant:hilbert", "type-constant",
         {"space_p": 2.0, "d": 4, "p": 2.0, "n_vectors": 6, "trials": 30,
          "expect": "hilbert-one"}),
        ("type-constant:l1", "type-constant",
         {"space_p": 1.0, "d": 9, "p": 2.0, "n_vectors": 9, "trials": 10,
          "expect": "l1-growth"}),
        ("parity:id:depth1", "parity",
         {"field": "F2((t))", "g": "identity", "depth": 1}),
        ("parity:D10:depth3", "parity",
         {"field": "F2((t))", "g": [1, 0], "depth": 3, "mode": "sample",
          "sample_n": 1200}),
        ("parity-monotone:D10", "parity-monotone",
         {"field": "F2((t))", "g": [1, 0], "depth": 4, "sample_n": 500}),
        ("zigzag:plan:char-ne2", "zigzag-plan",
         {"regime": "char-ne2", "v0": 0, "max_length": 120,
          "allowed_blocked": [[0, 0], [1, 0], [1, 1]]}),
        ("zigzag:plan:char2", "zigzag-plan",
         {"regime": "char2", "max_length": 120,
          "allowed_blocked": [[0, 0], [1, 0], [1, 1], [2, 1]]}),
        ("zigzag:ledger:char-ne2", "zigzag-ledger",
         {"regime": "char-ne2", "v0": 0, "h": 1, "alphas": ["0.7"],
          "betas": ["0", "9/10"], "max_length": 120}),
        ("zigzag:ledger:char2", "zigzag-ledger",
         {"regime": "char2", "h": 1, "alphas": ["0.7"],
          "betas": ["0", "9/10"], "max_length": 120}),
    ]
    return tasks


def full_profile():
    tasks = []
    for f in ("Q3", "Q5"):
        tasks += _cells_grid(lw.SPHER01, [f], spher01_pairs(f),
                             cap=FULL_EXHAUSTIVE_CAP, sample_n=2000)
    for f in ("Q3", "Q5", "F2((t))", "F4((t))"):
        cap = FULL_EXHAUSTIVE_CAP if f in ("Q3", "F2((t))") else 20_000
        tasks += _cells_grid(lw.SPHER1M1, [f], spher1m1_pairs(), cap=cap,
                             sample_n=2000)
    for f in ("F2((t))", "F4((t))"):
        tasks += _cells_grid(lw.CHAR2_02, [f], char2_pairs(f),
                             cap=FULL_EXHAUSTIVE_CAP, sample_n=2000)
    # non-spherical congruence layers at their hypothesis thresholds
    for f in ("Q3", "Q5", "Q2"):
        v0 = two_valuation(parse_field(f))
        for k in (1, 2):
            j = 1
            i = j + lw.anchor_bounds(lw.NONSPHER01, k, v0)[0]
            tasks += _cells_grid(lw.NONSPHER01, [f], [(i, j)], k=k,
                                 cap=FULL_EXHAUSTIVE_CAP, sample_n=2000)
    for f in ("Q2", "Q3", "Q5", "F2((t))", "F4((t))"):
        for k in (1, 2):
            least_diff, j = lw.anchor_bounds(lw.NONSPHER1M1, k, 0)  # v0-free
            tasks += _cells_grid(lw.NONSPHER1M1, [f], [(j, j), (j + least_diff, j)],
                                 k=k, cap=FULL_EXHAUSTIVE_CAP, sample_n=2000)
    for f in ("F2((t))", "F4((t))"):
        for k in (1, 2):
            j = 1
            i = j + lw.anchor_bounds(lw.CHAR2_02, k, 0)[0]
            if _licensed(lw.CHAR2_02, parse_field(f), i, j, k):
                tasks += _cells_grid(lw.CHAR2_02, [f], [(i, j)], k=k,
                                     cap=FULL_EXHAUSTIVE_CAP, sample_n=2000)
    for lemma, f, i, j in ((lw.SPHER01, "Q3", 4, 1), (lw.SPHER01, "Q5", 3, 1),
                           (lw.SPHER1M1, "Q3", 3, 3), (lw.SPHER1M1, "F2((t))", 4, 2),
                           (lw.NONSPHER01, "Q3", 4, 1), (lw.NONSPHER1M1, "Q3", 4, 4),
                           (lw.CHAR2_02, "F2((t))", 6, 2)):
        tasks.append((f"identities:{lemma}:{f}:{i},{j}", "identities",
                      {"lemma": lemma, "field": f, "i": i, "j": j, "n": 1000}))
    tasks += [
        ("decompose:sweep:F2((t))", "decompose-sweep", {"field": "F2((t))"}),
        ("decompose:random:Q2:d3", "decompose-random",
         {"field": "Q2", "depth": 3, "n": 1000}),
        ("decompose:random:Q3:d3", "decompose-random",
         {"field": "Q3", "depth": 3, "n": 1000}),
        ("averaging:S3", "averaging", {"group": "S3", "N": 2, "trials": 1000}),
        ("averaging:D4", "averaging", {"group": "D4", "N": 2, "trials": 1000}),
        ("fourier-norm:Q2", "fourier-norm",
         {"field": "Q2", "h_values": [1, 2], "dims": [1, 2, 4, 8]}),
        ("fourier-norm:Q3", "fourier-norm",
         {"field": "Q3", "h_values": [1, 2], "dims": [1, 2, 4, 8]}),
    ]
    for f in ("Q2", "Q3"):
        for n in (2, 3):
            for k in (0, 1):
                if k and n < 2 * k + 1:
                    continue
                tasks.append((f"fft:{f}:h1:n{n}:k{k}:l2", "fft",
                              {"field": f, "h": 1, "n": n, "k": k}))
                tasks.append((f"fft:{f}:h1:n{n}:k{k}:l1.5", "fft",
                              {"field": f, "h": 1, "n": n, "k": k, "p": 1.5,
                               "d": 3, "strategy": "random", "trials": 10000}))
    tasks += [
        ("fft-rewrite:Q3:n3:k1", "fft-rewrite",
         {"field": "Q3", "n": 3, "k": 1, "trials": 40, "eps0": 2}),
        ("fft-rewrite:Q2:n4:k1", "fft-rewrite",
         {"field": "Q2", "n": 4, "k": 1, "trials": 40}),
        ("c2:Q2", "c2", {"field": "Q2"}),
        ("c2:Q3", "c2", {"field": "Q3"}),
        ("c2:Q5", "c2", {"field": "Q5"}),
        ("c2:F4((t))", "c2", {"field": "F4((t))"}),
        ("type-constant:hilbert", "type-constant",
         {"space_p": 2.0, "d": 6, "p": 2.0, "n_vectors": 8, "trials": 100,
          "expect": "hilbert-one"}),
        ("type-constant:l1", "type-constant",
         {"space_p": 1.0, "d": 12, "p": 2.0, "n_vectors": 12, "trials": 30,
          "expect": "l1-growth"}),
        ("parity:id:depth1", "parity",
         {"field": "F2((t))", "g": "identity", "depth": 1}),
        ("parity:D10:depth5", "parity",
         {"field": "F2((t))", "g": [1, 0], "depth": 5, "mode": "sample",
          "sample_n": 10000}),
        ("parity-monotone:D10", "parity-monotone",
         {"field": "F2((t))", "g": [1, 0], "depth": 5, "sample_n": 2000}),
        ("zigzag:plan:char-ne2", "zigzag-plan",
         {"regime": "char-ne2", "v0": 0, "max_length": 300,
          "allowed_blocked": [[0, 0], [1, 0], [1, 1]]}),
        ("zigzag:plan:char-ne2-v1", "zigzag-plan",
         {"regime": "char-ne2", "v0": 1, "max_length": 300,
          "allowed_blocked": [[0, 0], [1, 0], [1, 1], [2, 0], [2, 1]]}),
        ("zigzag:plan:char2", "zigzag-plan",
         {"regime": "char2", "max_length": 300,
          "allowed_blocked": [[0, 0], [1, 0], [1, 1], [2, 1]]}),
        ("zigzag:ledger:char-ne2", "zigzag-ledger",
         {"regime": "char-ne2", "v0": 0, "h": 1, "alphas": ["3/10", "7/10"],
          "betas": ["0", "9/10"], "max_length": 300}),
        ("zigzag:ledger:char-ne2-h2", "zigzag-ledger",
         {"regime": "char-ne2", "v0": 0, "h": 2, "alphas": ["7/10"],
          "betas": ["0", "9/10"], "max_length": 300}),
        ("zigzag:ledger:char2", "zigzag-ledger",
         {"regime": "char2", "h": 1, "alphas": ["3/10", "7/10"],
          "betas": ["0", "9/10"], "max_length": 300}),
    ]
    return tasks


PROFILES = {
    "quick": quick_profile,
    "full": full_profile,
}


def profile_tasks(name):
    try:
        factory = PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown suite profile {name!r}") from None
    tasks = list(factory())
    seen = set()
    for tid, _, _ in tasks:
        if tid in seen:
            raise ValueError(f"duplicate task id {tid!r} in suite profile {name!r}")
        seen.add(tid)
    return sorted(tasks)


def run_task(task, global_seed, mutation=None):
    tid, runner_name, params = task
    runner = RUNNERS[runner_name]
    seed = task_seed(global_seed, tid)
    report = runner(params, seed, mutation)
    report.task = tid
    if mutation:
        report.params = dict(report.params)
        report.params["mutation"] = mutation
    return report


def run_task_reported(task, global_seed, mutation=None):
    """``run_task``, with an exception turned into a violated report.

    The suite command runs every task through this, serially or in a
    worker pool, so a task that raises costs its own report only: the
    report carries cases_run 0 and one counterexample naming the
    exception, and the traceback goes to stderr.  ``run_task`` itself
    still raises.
    """
    try:
        return run_task(task, global_seed, mutation)
    except Exception as exc:
        traceback.print_exc()
        tid, _, params = task
        report = VerificationReport(task=tid, params=dict(params),
                                    seed=task_seed(global_seed, tid))
        if mutation:
            report.params["mutation"] = mutation
        report.record_violation({"check": "exception", "type": type(exc).__name__,
                                 "detail": str(exc)})
        return report.done()
