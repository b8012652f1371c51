"""Report-stream contract: at a fixed seed, reports repeat byte for byte.

A handful of cheap tasks runs through ``suite.run_task`` and each report,
without its timing field, is compared with its line in a golden JSONL
file.  A speed-up of certification, coercion or element arithmetic must
leave every line as it is.

``PYTHONPATH=src python tests/test_report_stream.py --write`` appends the
lines of cases added to the end of ``CASES`` since the golden file was
written, and never rewrites an existing line; run it on the tree before
the change the new cases are meant to pin.  To regenerate the whole file
for a deliberate change of the report format, delete it first.
"""

import json
import pathlib
import sys

from sp4lab import lemma_witnesses as lw
from sp4lab.suite import run_task

GOLDEN = pathlib.Path(__file__).parent / "data" / "report_stream_seed42.jsonl"
SEED = 42


def _cells(lemma, field, i, j, k=0, cap=25_000, sample_n=1500):
    return (f"cells:{lemma}:{field}:{i},{j},k{k}", "cells",
            {"lemma": lemma, "field": field, "i": i, "j": j, "k": k,
             "cap": cap, "sample_n": sample_n})


# (task, mutation): one cell sweep per lemma over Q3 and F2((t)) where the
# lemma applies, one identities task and two mutated replays
CASES = (
    (_cells(lw.SPHER01, "Q3", 3, 1, cap=0, sample_n=200), None),
    (_cells(lw.SPHER1M1, "Q3", 2, 2), None),
    (_cells(lw.SPHER1M1, "F2((t))", 4, 2), None),
    (_cells(lw.NONSPHER01, "Q3", 3, 1, k=1), None),
    (_cells(lw.NONSPHER1M1, "Q3", 4, 4, k=1, cap=0, sample_n=60), None),
    (_cells(lw.NONSPHER1M1, "F2((t))", 4, 4, k=1, cap=0, sample_n=40), None),
    (_cells(lw.CHAR2_02, "F2((t))", 5, 1), None),
    (("identities:NONSPHER1M1:Q3:4,4", "identities",
      {"lemma": lw.NONSPHER1M1, "field": "Q3", "i": 4, "j": 4, "n": 30}), None),
    (_cells(lw.NONSPHER1M1, "Q3", 4, 4, k=1, cap=0, sample_n=60), "drop-eps1"),
    (_cells(lw.SPHER01, "Q3", 3, 1, cap=0, sample_n=100), "minor-sign-flip"),
    # exact parity, decomposition, planner and F4((t)) runners
    (("parity:id:depth1", "parity",
      {"field": "F2((t))", "g": "identity", "depth": 1}), None),
    (("parity:D10:depth3", "parity",
      {"field": "F2((t))", "g": [1, 0], "depth": 3, "mode": "sample",
       "sample_n": 20}), None),
    (("parity-monotone:D10", "parity-monotone",
      {"field": "F2((t))", "g": [1, 0], "depth": 3, "sample_n": 20}), None),
    (("decompose:random:Q3:d2", "decompose-random",
      {"field": "Q3", "depth": 2, "n": 4}), None),
    (("decompose:random:F2((t)):d2", "decompose-random",
      {"field": "F2((t))", "depth": 2, "n": 3}), None),
    (("zigzag:plan:char2", "zigzag-plan",
      {"regime": "char2", "max_length": 24,
       "allowed_blocked": [[0, 0], [1, 0], [1, 1], [2, 1]]}), None),
    (("zigzag:plan:char-ne2-v1", "zigzag-plan",
      {"regime": "char-ne2", "v0": 1, "max_length": 24,
       "allowed_blocked": [[0, 0], [1, 0], [1, 1], [2, 0], [2, 1]]}), None),
    (_cells(lw.SPHER1M1, "F4((t))", 3, 2), None),
    # ledger exponents, planner bounds at k = 1 and averaging counts
    (("zigzag:ledger:char-ne2", "zigzag-ledger",
      {"regime": "char-ne2", "v0": 0, "h": 1, "alphas": ["7/10"],
       "betas": ["0", "9/10"], "max_length": 40}), None),
    (("zigzag:ledger:char2", "zigzag-ledger",
      {"regime": "char2", "h": 1, "alphas": ["7/10"],
       "betas": ["0", "9/10"], "max_length": 40}), None),
    (("zigzag:plan:char-ne2-k1", "zigzag-plan",
      {"regime": "char-ne2", "v0": 0, "klevel": 1, "max_length": 24,
       "allowed_blocked": [[0, 0], [1, 0], [1, 1], [2, 0], [2, 1], [2, 2],
                           [3, 0], [3, 1], [3, 2], [3, 3],
                           [4, 0], [4, 1], [4, 2], [4, 3]]}), None),
    (("zigzag:plan:char2-k1", "zigzag-plan",
      {"regime": "char2", "klevel": 1, "max_length": 24,
       "allowed_blocked": [[0, 0], [1, 0], [1, 1], [2, 0], [2, 1], [2, 2],
                           [3, 0], [3, 1], [3, 2], [3, 3],
                           [4, 0], [4, 1], [4, 2], [4, 3], [4, 4],
                           [5, 0], [5, 1], [5, 2], [5, 3], [5, 4], [5, 5],
                           [6, 0], [6, 1], [6, 2], [6, 3], [6, 4], [6, 5],
                           [7, 0], [7, 1], [7, 2], [7, 3], [7, 4],
                           [8, 1], [8, 3]]}), None),
    (("averaging:S3", "averaging", {"group": "S3", "N": 2, "trials": 40}), None),
    (("averaging:D4", "averaging", {"group": "D4", "N": 2, "trials": 40}), None),
    # the diagonal exponents of the (0,1) family, the free-y wedge sweep,
    # NONSPHER01 over Q2 and Q5 and the char-2 identities
    (_cells(lw.SPHER01, "Q3", 3, 1, cap=0, sample_n=100), "d-scaling-exponent"),
    (_cells(lw.SPHER01, "Q3", 3, 1, cap=0, sample_n=100), "wrong-n1"),
    (("identities:SPHER01:Q3:4,1", "identities",
      {"lemma": lw.SPHER01, "field": "Q3", "i": 4, "j": 1, "n": 40}), None),
    (_cells(lw.NONSPHER01, "Q2", 5, 1, k=1), None),
    (_cells(lw.NONSPHER01, "Q5", 3, 1, k=1), None),
    (("identities:CHAR2_02:F2((t)):6,2", "identities",
      {"lemma": lw.CHAR2_02, "field": "F2((t))", "i": 6, "j": 2, "n": 30}), None),
    # the line-averaging operators at k = 0 and k > 0, the l1.5 search, the
    # depth-reduction rewrite, the transform norm and an h = 2 ledger
    (("fft:Q2:h1:n2:k0:l2", "fft", {"field": "Q2", "h": 1, "n": 2, "k": 0}), None),
    (("fft:Q3:h1:n3:k1:l2", "fft", {"field": "Q3", "h": 1, "n": 3, "k": 1}), None),
    (("fft:Q2:h1:n2:k0:l1.5", "fft",
      {"field": "Q2", "h": 1, "n": 2, "k": 0, "p": 1.5, "d": 2,
       "strategy": "random", "trials": 200}), None),
    (("fft-rewrite:Q3:n3:k1", "fft-rewrite",
      {"field": "Q3", "n": 3, "k": 1, "trials": 10, "eps0": 2}), None),
    (("fourier-norm:Q2", "fourier-norm",
      {"field": "Q2", "h_values": [1, 2], "dims": [1, 2, 4]}), None),
    (("zigzag:ledger:char-ne2-h2", "zigzag-ledger",
      {"regime": "char-ne2", "v0": 0, "h": 2, "alphas": ["7/10"],
       "betas": ["0", "9/10"], "max_length": 40}), None),
    # ledgers at h = 3 with a beta strictly inside the admissible range, in
    # char 2, at v0 = 1 and at congruence level 1
    (("zigzag:ledger:char2-h3", "zigzag-ledger",
      {"regime": "char2", "h": 3, "alphas": ["1/3", "7/10"],
       "betas": ["0", "1/2", "9/10"], "max_length": 40}), None),
    (("zigzag:ledger:char-ne2-v1-h3", "zigzag-ledger",
      {"regime": "char-ne2", "v0": 1, "h": 3, "alphas": ["1/3", "7/10"],
       "betas": ["0", "1/2", "9/10"], "max_length": 40}), None),
    (("zigzag:ledger:char-ne2-k1-h3", "zigzag-ledger",
      {"regime": "char-ne2", "v0": 0, "klevel": 1, "h": 3,
       "alphas": ["1/3", "7/10"], "betas": ["0", "1/2", "9/10"],
       "max_length": 40}), None),
    (("zigzag:ledger:char2-k1-h3", "zigzag-ledger",
      {"regime": "char2", "klevel": 1, "h": 3, "alphas": ["1/3", "7/10"],
       "betas": ["0", "1/2", "9/10"], "max_length": 40}), None),
    # the unpinned eps cells of CHAR2_02 over F4((t)), the SPHER1M1 and
    # NONSPHER01 identities and two mutated identity replays
    (_cells(lw.CHAR2_02, "F4((t))", 5, 1), None),
    (("identities:SPHER1M1:Q3:3,3", "identities",
      {"lemma": lw.SPHER1M1, "field": "Q3", "i": 3, "j": 3, "n": 30}), None),
    (("identities:NONSPHER01:Q3:4,1", "identities",
      {"lemma": lw.NONSPHER01, "field": "Q3", "i": 4, "j": 1, "n": 30}), None),
    (("identities:SPHER01:Q3:4,1", "identities",
      {"lemma": lw.SPHER01, "field": "Q3", "i": 4, "j": 1, "n": 40}), "minor-row-pair"),
    (("identities:NONSPHER1M1:Q3:4,4", "identities",
      {"lemma": lw.NONSPHER1M1, "field": "Q3", "i": 4, "j": 4, "n": 30}), "drop-eps1"),
    # the equal-characteristic residue code of NONSPHER01's designated eps,
    # and a sampled draw from a depth-2 polynomial domain with q > 2
    (_cells(lw.NONSPHER01, "F3((t))", 4, 1, k=1), None),
    (_cells(lw.SPHER1M1, "F4((t))", 4, 3, cap=0, sample_n=40), None),
    # the batched l1.5 search over four full batches of 64 and a partial
    # one before its ascent, the exact sign tables at 8 and 12 vectors and
    # the Monte-Carlo signs at 13
    (("fft:Q3:h1:n2:k0:l1.5", "fft",
      {"field": "Q3", "h": 1, "n": 2, "k": 0, "p": 1.5, "d": 3,
       "strategy": "random", "trials": 300}), None),
    (("fft:Q2:h1:n3:k1:l1.5", "fft",
      {"field": "Q2", "h": 1, "n": 3, "k": 1, "p": 1.5, "d": 3,
       "strategy": "random", "trials": 300}), None),
    (("type-constant:hilbert", "type-constant",
      {"space_p": 2.0, "d": 6, "p": 2.0, "n_vectors": 8, "trials": 20,
       "expect": "hilbert-one"}), None),
    (("type-constant:l1", "type-constant",
      {"space_p": 1.0, "d": 12, "p": 2.0, "n_vectors": 12, "trials": 6,
       "expect": "l1-growth"}), None),
    (("type-constant:hilbert:mc", "type-constant",
      {"space_p": 2.0, "d": 4, "p": 2.0, "n_vectors": 13, "trials": 6}), None),
    # the 720-element K1/K2 sweep, and depth-3 random elements over Q2 and
    # F2((t)) that take both the direct and the fallback route
    (("decompose:sweep:F2((t))", "decompose-sweep", {"field": "F2((t))"}), None),
    (("decompose:random:Q2:d3", "decompose-random",
      {"field": "Q2", "depth": 3, "n": 8}), None),
    (("decompose:random:F2((t)):d3", "decompose-random",
      {"field": "F2((t))", "depth": 3, "n": 8}), None),
    # each route under the mutations it was not yet replayed with: the
    # identities under d-scaling-exponent and wrong-n1, a cell sweep under
    # minor-row-pair (two of the three are blind to their mutation, see
    # BLIND)
    (("identities:SPHER01:Q3:4,1", "identities",
      {"lemma": lw.SPHER01, "field": "Q3", "i": 4, "j": 1, "n": 20}), "d-scaling-exponent"),
    (("identities:SPHER01:Q3:4,1", "identities",
      {"lemma": lw.SPHER01, "field": "Q3", "i": 4, "j": 1, "n": 20}), "wrong-n1"),
    (_cells(lw.SPHER01, "Q3", 3, 1, cap=0, sample_n=100), "minor-row-pair"),
    # the char-2 compensator and its in-K rescalings at congruence level 1
    (_cells(lw.CHAR2_02, "F2((t))", 7, 1, k=1), None),
    (_cells(lw.CHAR2_02, "F4((t))", 7, 1, k=1), None),
    # the SPHER01 identities, free-y probe included, under the alpha (4,1)
    # sign flip
    (("identities:SPHER01:Q3:4,1", "identities",
      {"lemma": lw.SPHER01, "field": "Q3", "i": 4, "j": 1, "n": 20}), "minor-sign-flip"),
    # NONSPHER01's identities and cells under the three (0,1)-family
    # mutations: the eps1 reduction, the g1 reference and the cell
    (("identities:NONSPHER01:Q3:4,1", "identities",
      {"lemma": lw.NONSPHER01, "field": "Q3", "i": 4, "j": 1, "n": 30}), "minor-sign-flip"),
    (("identities:NONSPHER01:Q3:4,1", "identities",
      {"lemma": lw.NONSPHER01, "field": "Q3", "i": 4, "j": 1, "n": 30}), "d-scaling-exponent"),
    (("identities:NONSPHER01:Q3:4,1", "identities",
      {"lemma": lw.NONSPHER01, "field": "Q3", "i": 4, "j": 1, "n": 30}), "wrong-n1"),
    (_cells(lw.NONSPHER01, "Q3", 3, 1, k=1), "minor-sign-flip"),
    (_cells(lw.NONSPHER01, "Q3", 3, 1, k=1), "d-scaling-exponent"),
    (_cells(lw.NONSPHER01, "Q3", 3, 1, k=1), "wrong-n1"),
)

# (task, mutation) pairs whose replay passes: the SPHER01 identities
# rebuild every quantity at the wrong depth consistently, and cell sweeps
# read no minor
BLIND = {("identities:SPHER01:Q3:4,1", "wrong-n1"),
         ("cells:SPHER01:Q3:3,1,k0", "minor-row-pair")}


def stream(cases=CASES):
    """One JSON line per case, the report without ``elapsed_ms``."""
    lines = []
    for task, mutation in cases:
        d = run_task(task, SEED, mutation=mutation).to_dict()
        del d["elapsed_ms"]
        lines.append(json.dumps(d, sort_keys=True))
    return lines


def test_report_stream_matches_golden():
    expected = GOLDEN.read_text().splitlines()
    got = stream()
    assert len(got) == len(expected)
    for case, g, e in zip(CASES, got, expected):
        assert g == e, case[0]
    for ((name, _runner, _params), mutation), line in zip(CASES, got):
        caught = mutation and (name, mutation) not in BLIND
        assert json.loads(line)["status"] == ("violated" if caught else "pass")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_report_stream.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    written = GOLDEN.read_text().splitlines() if GOLDEN.exists() else []
    with GOLDEN.open("a") as out:
        for line in stream(CASES[len(written):]):
            out.write(line + "\n")
