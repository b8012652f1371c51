"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s); the
assertions enforce the stated tolerances, tuple counts, and wall-clock
budgets.  Exhaustive enumeration is used whenever the tuple space fits
the per-task budget and seeded sampling beyond it, with the enumeration
strategy recorded in each report.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from sp4lab import lemma_witnesses as lw
from sp4lab import sp4
from sp4lab import zigzag as zz
from sp4lab.exactfield import parse_field, residue_ring, two_valuation
from sp4lab.fourier import SpaceSpec, check_fft_lemma, shifted_rewrite_families, transform_norm
from sp4lab.suite import char2_pairs, spher01_pairs, spher1m1_pairs
from sp4lab.verifiers.averaging import (
    dihedral_4_standard,
    symmetric_3_standard,
    verify_averaging,
)
from sp4lab.verifiers.cells import case_count, verify_cell_lemma, verify_witness_identities
from sp4lab.verifiers.decompose import decompose_k1k2
from sp4lab.verifiers.parity import parity_depth_profile, parity_volumes
from sp4lab.verifiers.sampling import (
    enumerate_symplectic_residue,
    lift_symplectic,
    random_k_element,
)

CLI = [sys.executable, "-m", "sp4lab.cli"]


def _announce(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


def _run_cells(lemma, field_name, pairs, k=0, cap=25_000, sample_n=1200):
    spec = parse_field(field_name)
    reports = []
    for (i, j) in pairs:
        total = case_count(lemma, spec, i, j, k)
        if total <= cap:
            rep = verify_cell_lemma(lemma, spec, i, j, k, mode="exhaustive")
        else:
            rep = verify_cell_lemma(lemma, spec, i, j, k, mode="sample",
                                    sample_n=sample_n, seed=977 + i * 31 + j)
        assert rep.status == "pass", (lemma, field_name, i, j, rep.counterexamples[:3])
        reports.append(rep)
    return reports


def test_criterion_1_cell_suites():
    t0 = time.time()
    runs = 0
    for field_name in ("Q3", "Q5"):
        pairs = spher01_pairs(field_name)
        assert pairs, "hypothesis-satisfying cells must exist"
        runs += len(_run_cells(lw.SPHER01, field_name, pairs))
    for field_name in ("Q3", "F2((t))", "F4((t))"):
        cap = 25_000 if not field_name.startswith("F4") else 4000
        runs += len(_run_cells(lw.SPHER1M1, field_name, spher1m1_pairs(),
                               cap=cap))
    for field_name in ("F2((t))", "F4((t))"):
        spec = parse_field(field_name)
        pairs = char2_pairs(field_name)
        # gaps 2 and 3 leave no residue content (depth m-j-1 = 0): the
        # builder must reject them, and the verified sweep covers 4..6
        assert all(i - j >= 4 for i, j in pairs)
        for gap in (2, 3):
            with pytest.raises(lw.LemmaPreconditionError):
                lw.check_preconditions(lw.CHAR2_02, spec, gap + 1, 1, 0)
        runs += len(_run_cells(lw.CHAR2_02, field_name, pairs, cap=8000))
    elapsed = time.time() - t0
    _announce(1, "cell-claim suites", elapsed < 60,
              f"({runs} cell tasks, zero counterexamples, {elapsed:.0f}s)")


def test_criterion_2_nonspherical_layers():
    t0 = time.time()
    runs = 0
    for field_name in ("Q2", "Q3", "Q5"):
        spec = parse_field(field_name)
        v0 = two_valuation(spec)
        for k in (1, 2):
            i, j = 1 + 2 * k + v0, 1
            runs += len(_run_cells(lw.NONSPHER01, field_name, [(i, j)], k=k))
    for field_name in ("Q2", "Q3", "Q5", "F2((t))", "F4((t))"):
        cap = 20_000 if "F4" not in field_name else 4000
        for k in (1, 2):
            j = 2 * k + 2
            runs += len(_run_cells(lw.NONSPHER1M1, field_name,
                                   [(j, j), (j - 1, j)], k=k, cap=cap))
    for field_name in ("F2((t))", "F4((t))"):
        for k in (1, 2):
            j = 1
            i = j + 4 * k + 2
            runs += len(_run_cells(lw.CHAR2_02, field_name, [(i, j)], k=k))
    elapsed = time.time() - t0
    _announce(2, "non-spherical layers", True,
              f"({runs} membership/congruence tasks, {elapsed:.0f}s)")


def test_criterion_3_identities_and_mutations():
    t0 = time.time()
    for lemma, field_name, i, j in ((lw.SPHER01, "Q3", 4, 1),
                                    (lw.SPHER1M1, "Q3", 3, 3),
                                    (lw.NONSPHER01, "Q3", 4, 1),
                                    (lw.NONSPHER1M1, "Q3", 4, 4),
                                    (lw.CHAR2_02, "F2((t))", 6, 2)):
        rep = verify_witness_identities(lemma, parse_field(field_name), i, j,
                                        sample_n=1000, seed=31)
        assert rep.status == "pass", (lemma, rep.counterexamples[:2])
        assert rep.cases_run == 1000
    caught = {}
    for mutation in lw.MUTATIONS:
        hit = False
        for argv in (
            ["verify", "SPHER01", "--field", "Q3", "--i", "3", "--j", "1",
             "--checks", "both", "--n", "300", "--mutation", mutation],
            ["verify", "NONSPHER1M1", "--field", "Q3", "--i", "4", "--j", "4",
             "--k", "1", "--checks", "both", "--n", "300", "--mutation", mutation],
        ):
            res = subprocess.run(CLI + argv, capture_output=True, text=True)
            if res.returncode == 1:
                hit = True
                break
        caught[mutation] = hit
    assert all(caught.values()), caught
    _announce(3, "exact identity layer + mutation sensitivity", True,
              f"(5 lemmas x 1000 tuples; mutations caught: {sorted(caught)}; "
              f"{time.time() - t0:.0f}s)")


def test_criterion_4_generation_lemma():
    t0 = time.time()
    f2 = parse_field("F2((t))")
    max_blocks = 0
    count = 0
    for reps in enumerate_symplectic_residue(f2, 1):
        g = lift_symplectic(f2, 1, reps)
        fl = decompose_k1k2(g)
        assert fl.block_count <= 30
        max_blocks = max(max_blocks, fl.block_count)
        count += 1
    assert count == 720
    rnd = random.Random(2024)
    for field_name in ("F2((t))", "Q3"):
        spec = parse_field(field_name)
        for _ in range(500):
            depth = rnd.randrange(1, 4)
            g = random_k_element(spec, depth, rnd)
            fl = decompose_k1k2(g)
            assert fl.block_count <= 30
            max_blocks = max(max_blocks, fl.block_count)
    _announce(4, "K1/K2 generation", True,
              f"(720 + 1000 elements, max blocks {max_blocks} <= 30, "
              f"{time.time() - t0:.0f}s)")


def test_criterion_5_averaging_lemma():
    for builder in (symmetric_3_standard, dihedral_4_standard):
        rep = verify_averaging(builder(), trials=1000, seed=12)
        assert rep.status == "pass", rep.counterexamples[:2]
    _announce(5, "averaging inequality", True, "(2 groups x 1000 trials)")


def test_criterion_6_fourier():
    t0 = time.time()
    for field_name in ("Q2", "Q3"):
        spec = parse_field(field_name)
        for h in (1, 2):
            for d in (1, 2, 4):
                res = transform_norm(spec, h, SpaceSpec(2.0, d))
                assert abs(res["lower"] - spec.q ** (-h / 2)) <= 1e-9
    worst = 0.0
    for field_name in ("Q2", "Q3"):
        spec = parse_field(field_name)
        for n in (2, 3):
            for k in (0, 1):
                if k == 1 and n < 2 * k + 1:
                    continue  # the shifted index needs n >= 2k+1
                rep = check_fft_lemma(spec, 1, n, k, space=SpaceSpec(2.0, 1))
                assert rep.status == "pass"
                worst = max(worst, rep.margins["max_ratio"])
                for p in (1.5, 2.0):
                    rep = check_fft_lemma(spec, 1, n, k, space=SpaceSpec(p, 2),
                                          strategy="random", trials=10_000,
                                          seed=88)
                    assert rep.status == "pass", (field_name, n, k, p)
                    worst = max(worst, rep.margins["max_ratio"])
    assert worst <= 1 + 1e-8
    rng = np.random.default_rng(3)
    for field_name, n, k, eps0 in (("Q2", 3, 1, 1), ("Q3", 3, 1, 2)):
        spec = parse_field(field_name)
        ring = residue_ring(spec, n)
        nx, ny = len(ring.pi_multiples(k)), len(ring.pi_multiples(2 * k))
        xi = rng.standard_normal((nx * ny, 2)) + 1j * rng.standard_normal((nx * ny, 2))
        _, full, reduced = shifted_rewrite_families(spec, n, k, xi, eps0_code=eps0)
        assert abs(full - reduced) <= 1e-12 * max(1.0, abs(full))
    elapsed = time.time() - t0
    _announce(6, "Fourier operator", elapsed < 90,
              f"(max LHS/RHS ratio {worst:.6f}, {elapsed:.0f}s)")


def test_criterion_7_zigzag():
    t0 = time.time()
    budget = 300
    expected_blocked = {
        zz.CHAR_NE2: {(0, 0), (1, 0), (1, 1)},
        zz.CHAR_2: {(0, 0), (1, 0), (1, 1), (2, 1)},
    }
    for regime in (zz.Regime(zz.CHAR_NE2, v0=0), zz.Regime(zz.CHAR_2)):
        blocked = set()
        planned = 0
        for i in range(0, budget + 1):
            for j in range(0, i + 1):
                if i + j > budget:
                    break
                try:
                    path = zz.plan_path((i, j), regime)
                except zz.PlannerError:
                    blocked.add((i, j))
                    continue
                planned += 1
                zz.validate_path(path)
                if regime.kind == zz.CHAR_2:
                    assert len({(a + b) % 2 for a, b in path.cells}) == 1
        assert blocked == expected_blocked[regime.kind], regime
        # blocked cells are certified unreachable, not planner gaps
        for cell in blocked:
            assert zz._bfs_route(regime, cell,
                                 lambda c: c[0] == 2 * c[1] and zz._tail_exists(regime, c),
                                 60) is None
    rates = {}
    for regime, beta in ((zz.Regime(zz.CHAR_NE2, v0=0), "1/10"),
                         (zz.Regime(zz.CHAR_2), "2/25")):
        [res] = zz.ledger_sweep(regime, [(Fraction("7/10"), 1, Fraction(beta), 0)],
                                max_length=300, stride=13)
        assert math.isfinite(res["sup_constant"])
        rates[regime.kind] = res["rate"]
    assert rates[zz.CHAR_NE2] == str(Fraction(7, 10) - Fraction(2, 10))
    assert rates[zz.CHAR_2] == str(Fraction(7, 20) - Fraction(4, 25))
    elapsed = time.time() - t0
    _announce(7, "zig-zag planner and ledger", elapsed < 60,
              f"(all starts i+j <= 300, rates {rates}, {elapsed:.0f}s)")


def test_criterion_8_parity_volumes():
    f2 = parse_field("F2((t))")
    rep = parity_volumes(sp4.identity(f2), 1, mode="exhaustive")
    assert rep.status == "pass"
    even = rep.margins["decided_even"]
    odd = rep.margins["decided_odd"]
    und = rep.margins["undecided"]
    assert even + odd + und == 720
    assert Fraction(even, 720) + Fraction(odd, 720) <= 1
    ring = residue_ring(f2, 1)
    degenerate = sum(
        1 for reps in enumerate_symplectic_residue(f2, 1)
        if all(ring.sub(ring.mul(reps[r1][0], reps[r2][1]),
                        ring.mul(reps[r1][1], reps[r2][0])) == ring.zero
               for r1 in range(4) for r2 in range(r1 + 1, 4)))
    assert und == degenerate
    a_lo, a_hi = (Fraction(s) for s in rep.margins["alpha_interval"])
    b_lo, b_hi = (Fraction(s) for s in rep.margins["beta_interval"])
    assert a_lo + b_hi == 1 and a_hi + b_lo == 1
    g = sp4.d_matrix(f2, 1, 0)
    profile = parity_depth_profile(g, 5, sample_n=1200, seed=77)
    assert all(b >= a for a, b in zip(profile, profile[1:]))
    _announce(8, "parity volumes", True,
              f"(undecided == degenerate == {degenerate}; "
              f"decided profile {['%.3f' % p for p in profile]})")


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    outs = []
    for run_idx in (0, 1):
        out = tmp_path / f"suite{run_idx}.jsonl"
        res = subprocess.run(
            CLI + ["suite", "--profile", "quick", "--seed", "20240601",
                   "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ))
        assert res.returncode == 0, res.stderr[-500:]
        outs.append(out.read_text())

    def strip(text):
        rows = []
        for line in text.strip().splitlines():
            d = json.loads(line)
            d.pop("elapsed_ms", None)
            rows.append(json.dumps(d, sort_keys=True))
        return "\n".join(rows)

    assert strip(outs[0]) == strip(outs[1])
    _announce(9, "seeded determinism", True,
              f"(two quick-suite runs byte-identical modulo timing, "
              f"{time.time() - t0:.0f}s)")
