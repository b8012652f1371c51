#!/usr/bin/env python3
"""Single-site mutation scan of the move-lemma witness families.

Copies the ``src`` directory of a source tree to a temporary directory,
so the tree itself is never edited.  For each single-site mutant of the
scanned functions of ``sp4lab/lemma_witnesses.py`` it rewrites that one
module in the copy and runs

    sp4lab suite --profile quick --seed 42 --threads 2

once, one process at a time.  The suite exits 0 when every claim holds,
so a mutant is caught when it exits non-zero (or runs past the timeout).
The scan prints one line per mutant, then the caught fraction of the
mutants not judged equivalent.  ``mutation_equivalents.txt`` beside this
script lists the mutants judged equivalent, one per line as
``<mutant id> -- <reason>``.

The scanned functions are the tuple step (``build_witness`` and
``designated_eps_code``), ``family_witness`` and every module function it
calls, ``_scale``, the offset ``LemmaWitness.s`` and the free-y formulas;
names a tree does not define are skipped.  The operators are: an int
literal raised by 1, a unary minus dropped, and + and - swapped.  Sites
that run only under a catalogued mutation (the body of an ``if`` whose
test reads ``mutation``) are left alone, since the suite runs without one.

    python3 scripts/mutation_scan.py .
    python3 scripts/mutation_scan.py /path/to/other/tree --limit 10
"""

import argparse
import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

MODULE = pathlib.Path("sp4lab") / "lemma_witnesses.py"
# spher01_minor_value is stored, not called, by family_witness;
# _offset_valuation is scanned in the older trees that still define it,
# so that scores compare across trees
ROOTS = ("build_witness", "designated_eps_code", "family_witness", "_scale",
         "LemmaWitness.s", "spher01_minor_value", "_offset_valuation",
         "spher1m1_norm_formula", "spher01_wedge_formula")
SUITE = ["suite", "--profile", "quick", "--seed", "42", "--threads", "2"]
EQUIVALENTS = pathlib.Path(__file__).with_name("mutation_equivalents.txt")


def _functions(tree):
    """Name -> def node of the module's functions and of its classes' methods."""
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    defs[f"{node.name}.{item.name}"] = item
    return defs


def _targets(defs):
    """The scanned function names, in source order: the roots and the
    module functions family_witness calls, directly or not."""
    names, todo = set(), ["family_witness"]
    while todo:
        name = todo.pop()
        if name in names or name not in defs:
            continue
        names.add(name)
        todo += [n.func.id for n in ast.walk(defs[name])
                 if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    names.update(n for n in ROOTS if n in defs)
    return sorted(names, key=lambda n: defs[n].lineno)


def _reads_mutation(test):
    return any(isinstance(n, ast.Name) and n.id == "mutation" for n in ast.walk(test))


def _walk(node, parent=None):
    """(node, parent) in source order, skipping the mutation-only branches."""
    yield node, parent
    if isinstance(node, (ast.If, ast.IfExp)) and _reads_mutation(node.test):
        orelse = node.orelse if isinstance(node, ast.If) else [node.orelse]
        children = [node.test] + orelse
    else:
        children = ast.iter_child_nodes(node)
    for child in children:
        yield from _walk(child, node)


def _sites(func):
    """(node, parent, operator, text) of each mutable site of a function body."""
    for node, parent in _walk(func):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, parent, "int+1", ast.unparse(parent)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            yield node, parent, "drop-minus", ast.unparse(node)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.Add, ast.Sub)):
            yield node, parent, "+->-" if isinstance(node.op, ast.Add) else "-->+", ast.unparse(node)


def mutants(source):
    """(mutant id, function name, index of the site in that function) in scan order."""
    defs = _functions(ast.parse(source))
    out = []
    for name in _targets(defs):
        seen = {}
        for index, (_node, _parent, op, text) in enumerate(_sites(defs[name])):
            mid = f"{name}: {op} `{text}`"
            seen[mid] = seen.get(mid, 0) + 1
            out.append((mid if seen[mid] == 1 else f"{mid} #{seen[mid]}", name, index))
    return out


def mutate(source, name, index):
    """The module source with the index-th site of the named function mutated."""
    tree = ast.parse(source)
    node, parent, _op, _text = list(_sites(_functions(tree)[name]))[index]
    if isinstance(node, ast.Constant):
        node.value += 1
    elif isinstance(node, ast.UnaryOp):
        # -e becomes e in the parent's slot
        for field, value in ast.iter_fields(parent):
            if value is node:
                setattr(parent, field, node.operand)
            elif isinstance(value, list) and node in value:
                value[value.index(node)] = node.operand
    else:
        node.op = ast.Sub() if isinstance(node.op, ast.Add) else ast.Add()
    return ast.unparse(tree)


def load_equivalents(path=EQUIVALENTS):
    judged = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            mid, _, reason = line.partition(" -- ")
            judged[mid.strip()] = reason.strip()
    return judged


def run_suite(src, timeout):
    """(status, seconds) of one quick-profile run over the package in src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "sp4lab.cli"] + SUITE
    t0 = time.perf_counter()
    try:
        code = subprocess.run(cmd, cwd=src, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - t0
    status = {0: "survived", 1: "caught"}.get(code, f"crashed({code})")
    return status, time.perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", help="source tree holding src/sp4lab")
    ap.add_argument("--limit", type=int, default=None, help="scan only the first N mutants")
    args = ap.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        ap.error("--limit must be at least 1")
    src = pathlib.Path(args.tree).resolve() / "src"
    if not (src / MODULE).is_file():
        ap.error(f"{src / MODULE} does not exist")
    judged = load_equivalents()
    with tempfile.TemporaryDirectory(prefix="mutation-scan-") as tmp:
        copy = pathlib.Path(tmp) / "src"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = copy / MODULE
        source = target.read_text()
        # the unmutated module goes through the same unparse as every mutant
        target.write_text(ast.unparse(ast.parse(source)))
        status, base = run_suite(copy, 600)
        if status != "survived":
            print(f"the unmutated suite did not pass ({status}); nothing to scan")
            return 2
        print(f"unmutated suite passed in {base:.1f} s")
        scan = mutants(source)[:args.limit]
        caught, survivors, contradicted = 0, [], []
        for mid, name, index in scan:
            target.write_text(mutate(source, name, index))
            status, secs = run_suite(copy, max(60.0, 20 * base))
            print(f"{status:<10} {secs:5.1f} s  {mid}", flush=True)
            if mid in judged:
                if status != "survived":
                    contradicted.append(mid)
            elif status == "survived":
                survivors.append(mid)
            else:
                caught += 1
    live = len(scan) - sum(mid in judged for mid, _, _ in scan)
    print(f"{len(scan)} mutants, {len(scan) - live} judged equivalent")
    if live:
        print(f"caught {caught} of {live} non-equivalent mutants ({100 * caught / live:.1f}%)")
    for mid in survivors:
        print(f"survivor: {mid}")
    for mid in contradicted:
        print(f"judged equivalent but caught: {mid}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
