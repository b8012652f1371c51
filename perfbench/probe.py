"""Subprocess entry points of the benchmark.

    probe.py setup <workload> <tiny 0|1>
        import what a worker of the workload imports, build its task list and
        the first task's field tables, then print "ready" (the parent times
        process start to that line) and the seconds per host-speed reference
        unit measured right after;
    probe.py cli <prefix> <trace 0|1> -- <sp4lab arguments>
        run the sp4lab command line, timing each task with host-speed
        reference units inside it (and tracing every layer when asked);
        each process writes its record to <prefix>.<pid>.json;
    probe.py layers
        print the trace snapshot of the layer-coverage probe as JSON.

The working directory is the checkout root; the program is imported from
its src directory.
"""

import functools
import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# reference work the set-up probe times right after it is ready, on the CPU
# it ran on, to give the host speed its start-up ran at
SETUP_CAL_S = 0.05


def setup(workload, tiny):
    import workloads
    if workload == "suite-quick":
        import sp4lab.cli  # noqa: F401  (the CLI process imports every layer)
        tasks = workloads.suite_quick_tasks(tiny)
    else:
        import sp4lab.suite  # noqa: F401  (what a pool worker imports)
        tasks = workloads.batch(workload, tiny)
    from sp4lab.exactfield import parse_field, residue_ring
    field = tasks[0].params.get("field")
    if field:
        spec = parse_field(field)
        spec.residue_gf  # noqa: B018  (builds the F_q tables)
        residue_ring(spec, 1).elements()
    print("ready", flush=True)
    import speed
    elapsed, units = speed.sample(SETUP_CAL_S)
    print(elapsed / units, flush=True)


def _dump(path, record):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    os.replace(tmp, path)


def cli(prefix, trace, argv):
    import speed
    import tracer as tracer_mod
    tr = None
    if trace:
        tr = tracer_mod.Tracer()
        tracer_mod.install(tr)
    from sp4lab import cli as sp4lab_cli, suite

    state = {"pid": os.getpid(), "tasks": []}
    inner = suite.run_task

    def dump():
        _dump(f"{prefix}.{os.getpid()}.json",
              {"tasks": state["tasks"], "snapshot": tr.snapshot() if tr else None})

    # pool workers fork from this process: each starts afresh and rewrites
    # its record after every task, since the pool ends them without
    # running exit handlers
    @functools.wraps(inner)
    def run_task(*args, **kwargs):
        if os.getpid() != state["pid"]:
            state["pid"], state["tasks"] = os.getpid(), []
            if tr:
                tr.reset()
        try:
            return clock.run(inner, *args, **kwargs)
        finally:
            state["tasks"].append(clock.last)
            dump()

    tracer_mod._rebind(inner, run_task)
    speed.warm_up()  # before the pool forks, so its workers start warm
    clock = speed.Clock()
    pid = os.getpid()
    try:
        return sp4lab_cli.main(argv)
    finally:
        if os.getpid() == pid:
            dump()


def layers():
    import tracer as tracer_mod
    tr = tracer_mod.Tracer()
    tracer_mod.install(tr)
    tracer_mod.layer_probe()
    snap = tr.snapshot()
    snap["log"] = []
    print(json.dumps(snap))


def main(argv):
    if argv[:1] == ["setup"]:
        setup(argv[1], argv[2] == "1")
        return 0
    if argv[:1] == ["cli"] and argv[3:4] == ["--"]:
        return cli(argv[1], argv[2] == "1", argv[4:])
    if argv == ["layers"]:
        layers()
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
