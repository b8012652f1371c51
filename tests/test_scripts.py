"""Every script under scripts/ runs to exit 0 at its smallest size."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

SMALLEST_ARGS = {
    "code_lines.py": ["scripts"],
    "fourier_norm_sweep.py": ["--fields", "Q2", "--h-values", "1",
                              "--exponents", "1.5", "2.0", "--dim", "1",
                              "--iters", "100"],
    "parity_depth_scan.py": ["--max-depth", "2", "--samples", "5"],
    "zigzag_ledger_sweep.py": ["--grid", "20", "--h-values", "1",
                               "--alphas", "3/10", "--beta-fractions", "0"],
}


def test_every_script_has_a_smoke_run():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(SMALLEST_ARGS)


def _run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(SCRIPTS / script)] + args,
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", sorted(SMALLEST_ARGS))
def test_script_runs(script):
    proc = _run_script(script, SMALLEST_ARGS[script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_ledger_sweep_table_pinned():
    proc = _run_script("zigzag_ledger_sweep.py", ["--grid", "40"])
    assert proc.returncode == 0, proc.stderr
    golden = ROOT / "tests" / "data" / "zigzag_ledger_sweep_grid40.txt"
    assert proc.stdout == golden.read_text()
