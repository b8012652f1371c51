"""Quick-profile contract: the user's suite command repeats byte for byte.

``sp4lab suite --profile quick --seed 42 --threads 2`` runs through the
pool dispatch and the CLI's report emission.  Each line it prints,
without its timing field, is compared with its line in a golden JSONL
file, so a change of any task, of the task order or of the summary
shows here.

``PYTHONPATH=src python tests/test_quick_profile.py --write`` rewrites
the golden file; run it on the tree before a change the file is meant
to pin.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "quick_profile_seed42.jsonl"
COMMAND = ["suite", "--profile", "quick", "--seed", "42", "--threads", "2"]


def stream():
    """(exit code, the suite's lines without ``elapsed_ms``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "sp4lab.cli"] + COMMAND, cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    lines = []
    for line in proc.stdout.splitlines():
        d = json.loads(line)
        d.pop("elapsed_ms", None)
        lines.append(json.dumps(d, sort_keys=True))
    return proc.returncode, lines


def test_quick_profile_matches_golden():
    expected = GOLDEN.read_text().splitlines()
    code, got = stream()
    assert code == 0
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_quick_profile.py --write")
    code, lines = stream()
    if code != 0:
        sys.exit(f"the quick profile exited {code}; not writing")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(line + "\n" for line in lines))
