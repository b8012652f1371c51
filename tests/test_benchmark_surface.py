"""The benchmark harness in ``perfbench/`` reads ``src/`` by name: every
name it imports must resolve, and its tracer must install and probe every
layer.  A rename in ``src/`` that breaks either fails here, in tier-1."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _resolves(module, name):
    try:
        if hasattr(importlib.import_module(module), name):
            return True
        # a name may also be a submodule that nothing has imported yet
        importlib.import_module(f"{module}.{name}")
        return True
    except ImportError:
        return False


def test_every_name_perfbench_imports_resolves():
    seen, missing = 0, []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sp4lab":
                for alias in node.names:
                    seen += 1
                    if not _resolves(node.module, alias.name):
                        missing.append(f"{path.name}: from {node.module} import {alias.name}")
    assert seen > 10
    assert missing == []


def test_tracer_installs_and_probes_every_layer():
    code = (
        "import json, tracer\n"
        "tr = tracer.Tracer()\n"
        "tracer.install(tr)\n"
        "tracer.layer_probe()\n"
        "metrics = tracer.layer_metrics(tracer.merge([tr.snapshot()]), 0, 0, 0)\n"
        "print(json.dumps({'metrics': sorted(metrics),\n"
        "                  'names': [name for name, _unit in tracer.PER_LAYER]}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PERFBENCH), str(ROOT / "src")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, cwd=ROOT)
    assert res.returncode == 0, res.stderr[-2000:]
    out = json.loads(res.stdout)
    assert len(out["names"]) == len(set(out["names"])) == 43
    assert out["metrics"] == sorted(out["names"])
