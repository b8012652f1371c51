"""Self-test of the benchmark; run from the checkout root:

    python3 perfbench/selftest.py

It runs every workload at its tiny size, untraced and traced, and checks
that each prints every metric BENCHMARK.json names, with its unit; that two
traced runs at one seed give the same element-level counts; that the gate
fails stub reports whose cases_run falls short, whose stream changes at a
repeated seed, or whose mutation replay comes back pass; that no run
leaves a process running; and that the benchmark refuses to run where the
program's sources are missing.  Exit
code 0 means every check held.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

FAILURES = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def run_bench(workload, trace, seed=5):
    """Run the benchmark at its tiny size in a process group of its own;
    (completed process, pids of its group still running when it exited).
    Its output goes to files, not pipes, so that waiting for it does not
    also wait for a process that holds a copy of its pipes."""
    import executor
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, text=True,
                                process_group=0)
        # a plain wait returns at once when the run exits; a timed one
        # polls, and could miss a process that outlives the run briefly
        timer = threading.Timer(170, executor.kill_group, (proc.pid,))
        timer.start()
        try:
            proc.wait()
            left = executor.group_members(proc.pid)
        finally:
            timer.cancel()
            executor.end_group(proc)
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(cmd, proc.returncode, out.read(),
                                           err.read()), left


def last_json(res):
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_workloads(bench):
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            res, left = run_bench(w, trace)
            check(not left, f"{w} trace {trace}: leaves no process running ({left})")
            out = last_json(res)
            check(res.returncode == 0 and out is not None,
                  f"{w} trace {trace}: exits 0 with a result ({res.stderr[-200:]})")
            if out is None:
                continue
            check(set(out) == {"correct", "attempted", "failed", "metrics"},
                  f"{w} trace {trace}: result has exactly its four keys")
            check(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                  f"{w} trace {trace}: every operation passed the gate")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            check(got == want[trace], f"{w} trace {trace}: every metric with its unit")
            check(all(isinstance(v["value"], (int, float)) for v in out["metrics"].values()),
                  f"{w} trace {trace}: every value is a number")


def check_counts_repeat():
    runs = [last_json(run_bench("k-char2", 1, seed=9)[0]) for _ in range(2)]
    keys = [k for k in runs[0]["metrics"]
            if k.split(".")[0] in ("gfq", "exactfield") and not k.endswith("_s")]
    same = all(runs[0]["metrics"][k] == runs[1]["metrics"][k] for k in keys)
    check(same and keys, f"element-level counts repeat at one seed ({len(keys)} counts)")


def check_gate():
    import gate
    import workloads
    Task = workloads.Task
    task = Task("cells:SPHER1M1:Q3:4,2,k0:ex", "cells",
                {"lemma": "SPHER1M1", "field": "Q3", "i": 4, "j": 2, "k": 0,
                 "cap": 10 ** 6, "sample_n": 0})
    good = {"task": task.task_id, "status": "pass", "cases_run": 81,
            "margins": {}, "elapsed_ms": 1.0}

    g = gate.Gate().check([task], [good], 1)
    check(g.failed == 0 and g.attempted == 1, "gate passes a complete report")
    g.check([task], [dict(good, elapsed_ms=7.0)], 1)
    check(g.failed == 0, "gate ignores elapsed_ms when comparing repeated seeds")
    g.check([task], [dict(good, margins={"x": 1})], 1)
    check(g.failed == 1, "gate fails a report that changed at a repeated seed")

    g = gate.Gate().check([task], [dict(good, cases_run=80)], 1)
    check(g.failed == 1 and g.failed / g.attempted > 0,
          "gate fails a report whose cases_run falls short")
    g = gate.Gate().check([task], [None], 1)
    check(g.failed == 1, "gate fails a missing report")

    replay = [t for t in workloads.cells_mixed(tiny=True) if t.mutation]
    passing = [{"task": t.task_id, "status": "pass", "margins": {}, "elapsed_ms": 0.0,
                "cases_run": t.params.get("sample_n") or t.params.get("n")}
               for t in replay]
    g = gate.Gate().check(replay, passing, 1)
    check(g.failed == 1 and g.failed / g.attempted > 0,
          "gate fails a mutation replay that comes back pass")
    caught = [dict(passing[0], status="violated")] + passing[1:]
    g = gate.Gate().check(replay, caught, 1)
    check(g.failed == 0, "gate passes a mutation replay with a violated report")

    plan = [t for t in workloads.analytic(tiny=True) if t.runner == "zigzag-plan"][0]
    n = gate.expected_cases(plan)
    rep = {"task": plan.task_id, "status": "pass", "cases_run": n, "elapsed_ms": 0.0,
           "margins": {"planned": n - 1, "blocked": [[0, 0]]}}
    g = gate.Gate().check([plan], [rep], 1)
    check(g.failed == 1, "gate fails blocked planner starts that differ from acceptance")


def check_bare_directory():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analytic",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             capture_output=True, text=True, cwd=bare, timeout=170)
        check(res.returncode != 0 and not res.stdout.strip(),
              "refuses to run without the program's sources, printing no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_gate()
    check_bare_directory()
    check_workloads(bench)
    check_counts_repeat()
    print(f"{len(FAILURES)} failed check(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
