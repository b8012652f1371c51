"""Witness contract: at fixed inputs, every built matrix repeats byte for byte.

``build_witness`` assembles beta^-1, alpha, the merged reference, the
compensator k1, g1_reference and the two scaled references of each
lemma family.  Each case below dumps all of them as entry strings,
together with every field ``sp4lab witness`` emits, and compares the
dump with its line in a golden JSONL file.  The cases cover each lemma
at a small legal cell, eps codes 0, 1 and 2 where q > 2, and each
mutation that changes a builder on the lemmas it changes; a build that
raises is pinned by its exception.

``PYTHONPATH=src python tests/test_witness_golden.py --write`` rewrites
the golden file; run it on the tree before a change the file is meant
to pin.
"""

import json
import pathlib
import sys

from sp4lab import lemma_witnesses as lw
from sp4lab.exactfield import parse_field, residue_ring
from sp4lab.sp4 import GroupElement
from sp4lab.verifiers.cells import tuple_space

GOLDEN = pathlib.Path(__file__).parent / "data" / "witness_golden.jsonl"

# (lemma, field, i, j, k)
CELLS = (
    (lw.SPHER01, "Q3", 3, 1, 0),
    (lw.SPHER01, "Q2", 4, 1, 0),
    (lw.SPHER1M1, "Q3", 3, 3, 0),
    (lw.SPHER1M1, "F4((t))", 4, 3, 0),
    (lw.NONSPHER01, "Q3", 3, 1, 1),
    (lw.NONSPHER01, "Q2", 5, 1, 1),
    (lw.NONSPHER1M1, "Q3", 4, 4, 1),
    (lw.NONSPHER1M1, "F2((t))", 4, 4, 1),
    (lw.CHAR2_02, "F4((t))", 5, 1, 0),
    (lw.CHAR2_02, "F2((t))", 7, 1, 1),
)

# the builder mutations and the lemmas whose builders they change
MUTATED = {
    "d-scaling-exponent": (lw.SPHER01, lw.NONSPHER01),
    "minor-sign-flip": (lw.SPHER01, lw.NONSPHER01),
    "wrong-n1": (lw.SPHER01, lw.NONSPHER01),
    "drop-eps1": (lw.NONSPHER1M1,),
}


def cases():
    """(lemma, field, i, j, k, a, b, x, eps, mutation), in golden-file order."""
    out = []
    for mutation in (None, *MUTATED):
        for lemma, field, i, j, k in CELLS:
            if mutation is not None and lemma not in MUTATED[mutation]:
                continue
            spec = parse_field(field)
            a_dom, b_dom, x_dom, _ = tuple_space(lemma, spec, i, j, k)
            for eps in range(min(spec.q, 3)):
                out.append((lemma, field, i, j, k, a_dom[-1], b_dom[-1],
                            x_dom[-1], eps, mutation))
    return out


def _strings(value):
    if isinstance(value, GroupElement):
        return value.to_strings()
    if isinstance(value, tuple):
        return [_strings(v) for v in value]
    return value.to_str()


def dump(lemma, field, i, j, k, a, b, x, eps, mutation):
    spec = parse_field(field)
    ring = residue_ring(spec, lw.lemma_depth(lemma, spec, i, j))
    out = {"case": [lemma, field, i, j, k, ring.to_str(a), ring.to_str(b),
                    ring.to_str(x), eps, mutation]}
    try:
        wit = lw.build_witness(lemma, spec, i, j, k, a, b, x, eps,
                               mutation=mutation)
        out.update({
            "depth": wit.depth, "m": wit.m,
            "y": residue_ring(spec, wit.depth).to_str(wit.y),
            "beta_inv": _strings(wit.beta_inv),
            "alpha_mat": _strings(wit.alpha_mat),
            "merged_reference": _strings(wit.merged_reference),
            "product": _strings(wit.product),
            "expected_cell": list(wit.expected_cell) if wit.expected_cell else None,
            "observed_cell": list(wit.observed_cell()),
        })
        for name in ("k1", "eps1", "a1"):
            value = getattr(wit, name)
            if value is not None:
                out[name] = _strings(value)
        for name, value in sorted(wit.extras.items()):
            out[name] = _strings(value)
        out["scaled_branches"] = [[code, _strings(scale), _strings(reference)]
                                  for code, scale, reference in wit.scaled_branches]
        if k > 0:
            ring_k = residue_ring(spec, k)
            target = lw.congruence_target(lemma, spec, i, j, k, mutation)
            out["k1_target"] = [[ring_k.to_str(e) for e in row] for row in target]
    except lw.LemmaPreconditionError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    return json.dumps(out, sort_keys=True)


def test_witnesses_match_golden():
    expected = GOLDEN.read_text().splitlines()
    got = [dump(*case) for case in cases()]
    assert len(got) == len(expected)
    for case, g, e in zip(cases(), got, expected):
        assert g == e, case


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_witness_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(dump(*case) + "\n" for case in cases()))
