"""Decomposition contract: at fixed inputs, every factor list repeats byte for byte.

``decompose_k1k2`` picks a route (direct or fallback) and returns the
merged alternating K1/K2 factors.  Each case below dumps the route, the
block count and every factor as (tag, entry strings), and compares the
dump with its line in a golden JSONL file.  The cases are seeded
``random_k_element`` inputs over Q2, Q3, Q5 and F2/F3/F4((t)) at depths
1-3, chosen so that more than half take the fallback, and the ``k2_embed``
element whose b1 w b2 factorization fails over O.

``PYTHONPATH=src python tests/test_decompose_golden.py --write`` rewrites
the golden file; run it on the tree before a change the file is meant
to pin.
"""

import json
import pathlib
import random
import sys

from sp4lab import sp4
from sp4lab.exactfield import parse_field
from sp4lab.verifiers.decompose import decompose_k1k2
from sp4lab.verifiers.sampling import random_k_element

GOLDEN = pathlib.Path(__file__).parent / "data" / "decompose_golden.jsonl"

# (field, depth, seed) of random_k_element(field, depth, Random(seed))
CASES = (
    ("Q2", 1, 1), ("Q2", 2, 1), ("Q2", 2, 3), ("Q2", 3, 2), ("Q2", 3, 6),
    ("Q3", 1, 1), ("Q3", 2, 1), ("Q3", 2, 2), ("Q3", 3, 1), ("Q3", 3, 7),
    ("Q5", 1, 1), ("Q5", 1, 7), ("Q5", 2, 1), ("Q5", 3, 6),
    ("F2((t))", 1, 1), ("F2((t))", 2, 1), ("F2((t))", 2, 3),
    ("F2((t))", 3, 1), ("F2((t))", 3, 2),
    ("F3((t))", 1, 1), ("F3((t))", 2, 1), ("F3((t))", 2, 2),
    ("F3((t))", 3, 1), ("F3((t))", 3, 4),
    ("F4((t))", 1, 1), ("F4((t))", 2, 1), ("F4((t))", 2, 5),
    ("F4((t))", 3, 2), ("F4((t))", 3, 3),
)


def _k2_embed_case():
    q3 = parse_field("Q3")
    return sp4.k2_embed(q3, ((q3.one(), q3.pi(1)), (q3.zero(), q3.one())))


def inputs():
    """(case label, K element), in golden-file order."""
    out = []
    for field, depth, seed in CASES:
        g = random_k_element(parse_field(field), depth, random.Random(seed))
        out.append(([field, depth, seed], g))
    out.append((["Q3", "k2_embed(1, pi; 0, 1)"], _k2_embed_case()))
    return out


def dump(case, g):
    fl = decompose_k1k2(g)
    return json.dumps({
        "case": case, "route": fl.route, "block_count": fl.block_count,
        "factors": [[tag, x.to_strings()] for tag, x in fl.factors],
    }, sort_keys=True)


def test_factor_lists_match_golden():
    expected = GOLDEN.read_text().splitlines()
    cases = inputs()
    assert len(cases) == len(expected)
    for (case, g), e in zip(cases, expected):
        assert dump(case, g) == e, case
    routes = [json.loads(line)["route"] for line in expected]
    assert routes.count("fallback") >= 12 and routes.count("direct") >= 12


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_decompose_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(dump(*case) + "\n" for case in inputs()))
