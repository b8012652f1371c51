"""sp4lab benchmark: time to a fully verified result, per workload.

Run from the checkout root:

    python3 perfbench/run.py --workload cells-mixed --seed 1 --seconds 20 --trace 0

Workloads: cells-mixed, k-char2, analytic (task batches run by spawned
worker processes through ``sp4lab.suite.run_task``) and suite-quick (the
``sp4lab suite --profile quick`` command line on a slice of the profile).
One iteration runs the workload's whole batch and gates every report.  The
pool workers first run the workload's tiny batch, untimed, to fill their
caches; timed iterations then run until ``--seconds`` have passed, at least
three.  Iterations alternate between two input seeds derived from
``--seed``, so every report is also compared with the report of the same
input one iteration pair earlier.  Times are normalised to a nominal host
speed (speed.py); the raw times go to the run's record.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of one traced iteration (see tracer.py).  Details of every run, with the
host description, go to ``.perfbench/`` in the checkout.  The exit code is
0 when every operation passed the gate, 1 when one failed and 2 when the
program's sources are not in ``src/``.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
MAX_WORKERS = 2
SETUP_PROBES = 11
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cases_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("parallel_efficiency", "ratio"),
)


def parse_args(argv):
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny task batches, for the benchmark's self-test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def pin_environment(src):
    """Re-execute under the pinned environment unless already running in it."""
    want = dict(PINNED_ENV, PYTHONPATH=src)
    if any(os.environ.get(k) != v for k, v in want.items()):
        os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, **want})


def host_description(workers):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform(),
            "workers": workers, "pinned_env": PINNED_ENV}


# ---------------------------------------------------------------------------
# measurement


def make_runner(workload, src, outdir, workers, tiny, trace=False, static=False):
    import executor
    import workloads
    if workload == "suite-quick":
        pattern = workloads.SUITE_QUICK_PATTERN_TINY if tiny else workloads.SUITE_QUICK_PATTERN
        return executor.CliRunner(outdir, pattern, workers, trace)
    return executor.PoolRunner(workers, src, trace, static)


def run_iteration(runner, tasks, gate, seed):
    it = runner.iteration(tasks, seed)
    gate.check(tasks, it.reports, seed)
    return it


def cases_of(it):
    return sum(r.get("cases_run", 0) for r in it.reports if r)


def measure_setup(workload, tiny):
    """Wall times from process start to the first task being ready, each
    normalised by the reference speed the probe measures right after, and
    the same times before normalisation."""
    import executor
    import speed
    samples, raw = [], []
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "setup", workload,
           "1" if tiny else "0"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, process_group=0)
        try:
            with proc.stdout:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                rest = proc.stdout.read().split()
        finally:
            executor.end_group(proc)
        if line.strip() != "ready" or proc.returncode != 0 or len(rest) != 1:
            raise RuntimeError(f"set-up probe failed for {workload}")
        samples.append(speed.normalise(elapsed, float(rest[0])))
        raw.append(elapsed)
    return samples, raw


def warm_up(runner, args, ctx):
    """Fill the caches of persistent workers with the workload's tiny batch."""
    import workloads
    if runner.persistent:
        run_iteration(runner, workloads.batch(args.workload, tiny=True), ctx["gate"],
                      workloads.input_seed(args.seed, 2))


def measured_run(args, ctx):
    """Timed iterations until --seconds have passed, at least three."""
    import workloads
    runner = make_runner(args.workload, ctx["src"], ctx["outdir"], ctx["workers"],
                         args.tiny)
    timed = []
    try:
        warm_up(runner, args, ctx)
        start = time.perf_counter()
        while len(timed) < 3 or time.perf_counter() - start < args.seconds:
            seed = workloads.input_seed(args.seed, len(timed) % 2)
            timed.append(run_iteration(runner, ctx["tasks"], ctx["gate"], seed))
    finally:
        runner.close()
    setup, raw_setup = measure_setup(args.workload, args.tiny)
    w = ctx["workers"]
    samples = {
        "setup_s": setup,
        "wall_s": [it.wall_norm_s for it in timed],
        "cases_per_s": [cases_of(it) / it.wall_norm_s for it in timed],
        "peak_rss_mb": [max(it.peak_rss_kb for it in timed) / 1024.0],
        "parallel_efficiency": [it.busy_s / (it.wall_s * w) for it in timed],
    }
    raw = {"raw_wall_s": [it.wall_s for it in timed],
           "unit_s": [it.unit_s for it in timed], "raw_setup_s": raw_setup}
    return samples, END_TO_END, raw


def layer_probe_snapshot():
    import executor
    code, out, err = executor.run_command(
        [sys.executable, os.path.join(HERE, "probe.py"), "layers"], timeout=120)
    if code != 0:
        raise RuntimeError(f"layer probe exited {code}: {err[-300:]}")
    return json.loads(out)


def traced_run(args, ctx):
    """Untraced and traced runs of the same iterations, on fresh workers with
    a fixed task-to-worker assignment, so the traced counts repeat exactly."""
    import tracer
    import workloads
    seed = workloads.input_seed(args.seed, 1)
    tasks, gate, w = ctx["tasks"], ctx["gate"], ctx["workers"]

    plain = make_runner(args.workload, ctx["src"], ctx["outdir"], w, args.tiny,
                        static=True)
    walls = []
    try:
        warm_up(plain, args, ctx)
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds / 2:
            walls.append(run_iteration(plain, tasks, gate, seed).wall_norm_s)
    finally:
        plain.close()

    traced = make_runner(args.workload, ctx["src"], ctx["outdir"], w, args.tiny,
                         trace=True, static=True)
    try:
        warm_up(traced, args, ctx)
        if traced.persistent:
            traced.collect()  # drop what the warm-up recorded
        it = run_iteration(traced, tasks, gate, seed)
    finally:
        traced.close()

    snap = tracer.merge(it.snapshots + [layer_probe_snapshot()])
    values = tracer.layer_metrics(snap, busy_s=it.busy_s,
                                  idle_s=max(0.0, w * it.wall_s - it.busy_s),
                                  overhead_ratio=it.wall_norm_s / statistics.median(walls))
    samples = {name: [values[name]] for name, _ in tracer.PER_LAYER}
    spans = {name: {"calls": c, "total_s": t, "self_s": s}
             for name, (c, t, s) in sorted(snap["spans"].items())}
    extra = {"spans": spans, "span_log": snap["log"],
             "untraced_wall_norm_s": walls, "traced_wall_norm_s": it.wall_norm_s}
    return samples, tracer.PER_LAYER, extra


# ---------------------------------------------------------------------------
# reporting


def summary(values):
    vals = sorted(values)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "min": vals[0], "max": vals[-1], "n": len(vals)}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sp4lab", "__init__.py")):
        print(f"error: no sp4lab sources under {src}; run from the checkout root",
              file=sys.stderr)
        return 2
    pin_environment(src)
    sys.path.insert(0, src)
    import sp4lab
    if os.path.dirname(os.path.abspath(sp4lab.__file__)) != os.path.join(src, "sp4lab"):
        print(f"error: sp4lab imported from {sp4lab.__file__}, not {src}", file=sys.stderr)
        return 2

    import gate as gate_mod
    import workloads
    outdir = os.path.join(root, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    workers = min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    if args.workload == "suite-quick":
        tasks = workloads.suite_quick_tasks(args.tiny)
    else:
        tasks = workloads.batch(args.workload, args.tiny)
    ctx = {"src": src, "outdir": outdir, "workers": workers, "tasks": tasks,
           "gate": gate_mod.Gate()}
    host = host_description(workers)

    # on SIGTERM, leave through the clean-up below rather than at once
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import executor
    try:
        if args.trace:
            samples, metric_units, extra = traced_run(args, ctx)
        else:
            samples, metric_units, extra = measured_run(args, ctx)
    finally:
        executor.reap_children()
    gate = ctx["gate"]
    stats = {name: dict(summary(samples[name]), unit=unit) for name, unit in metric_units}

    fail_frac = gate.failed / gate.attempted
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    for name, s in stats.items():
        print(f"  {name:38} {s['median']:.6g} {s['unit']:7} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, max {s['max']:.6g}, n={s['n']}]")
    print(f"  {'fail_frac':38} {fail_frac:.6g} ratio   "
          f"[{gate.failed} failed of {gate.attempted} operations]")
    if "raw_wall_s" in extra:
        raw = summary(extra["raw_wall_s"])
        print(f"  {'(wall time before normalisation)':38} {raw['median']:.6g} s       "
              f"[q1 {raw['q1']:.6g}, q3 {raw['q3']:.6g}, n={raw['n']}]")
    for problem in gate.problems[:20]:
        print(f"  FAIL {problem}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "metrics": stats,
              "fail_frac": fail_frac, "attempted": gate.attempted,
              "failed": gate.failed, "problems": gate.problems, **extra}
    out = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {name: {"value": s["median"], "unit": s["unit"]}
                          for name, s in stats.items()}}
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
