"""Runners that execute one workload iteration and time it.

``PoolRunner`` keeps spawned worker processes alive across iterations and
hands each free worker the next task (closed loop: a worker asks for more
only after its previous task finished).  ``CliRunner`` runs the ``sp4lab
suite`` command as a fresh process per iteration and reads its report
stream back.  In both, the process that runs a task times units of the
host-speed reference (speed.py) inside it, so every iteration carries the
host speed it ran at.

Every process the benchmark starts is waited for before it exits: pool
workers are joined (and killed if they do not stop), the resource-tracker
helper that ``multiprocessing`` starts beside spawned workers is stopped,
and each command runs in a process group of its own, which is emptied
before the command counts as finished.
"""

import glob
import json
import multiprocessing as mp
import os
import resource
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 150
GROUP_GRACE_S = 5.0   # a finished command's group may take this long to empty
KILL_WAIT_S = 10.0    # then it is killed, and given this long to go


@dataclass
class Iteration:
    wall_s: float         # dispatch to last report, reference units taken out
    reports: list         # report dict per task, in task order (None if missing)
    busy_s: float         # summed time the workers spent in tasks, units aside
    unit_s: float         # seconds per reference unit while the tasks ran
    peak_rss_kb: int = 0  # largest peak resident set of a worker process
    snapshots: list = field(default_factory=list)

    @property
    def wall_norm_s(self):
        return speed.normalise(self.wall_s, self.unit_s)


# ---------------------------------------------------------------------------
# worker side


def _worker_main(conn, src, trace):
    sys.path.insert(0, src)
    tracer = None
    if trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
    from sp4lab import suite
    speed.warm_up()
    clock = speed.Clock()
    conn.send("ready")
    while True:
        msg = conn.recv()
        if msg is None:
            break
        if msg == "collect":
            conn.send(tracer.snapshot())
            tracer.reset()
            continue
        idx, task, seed, mutation = msg
        try:
            rep = clock.run(suite.run_task, task, seed, mutation).to_dict()
        except Exception:  # reported to the gate as a failed task
            rep = {"task": task[0], "error": traceback.format_exc(limit=3)}
        conn.send((idx, rep, clock.last,
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
    conn.close()


# ---------------------------------------------------------------------------
# process lifetimes


def _processes():
    """(pid, state, parent pid, process group) of every visible process."""
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            yield int(name), fields[0], int(fields[1]), int(fields[2])
        except (OSError, IndexError, ValueError):
            continue


def group_members(pgid):
    """Pids of the processes in group ``pgid`` that have not ended."""
    return [pid for pid, state, _, group in _processes()
            if group == pgid and state != "Z"]


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def end_group(proc):
    """Wait for ``proc``, started with ``process_group=0``, and for every
    process it left in its group; kill what is left after the grace time."""
    deadline = time.monotonic() + GROUP_GRACE_S
    try:
        proc.wait(timeout=GROUP_GRACE_S)
    except subprocess.TimeoutExpired:
        pass
    while group_members(proc.pid):
        if time.monotonic() > deadline:
            kill_group(proc.pid)
            if time.monotonic() > deadline + KILL_WAIT_S:
                raise RuntimeError(f"process group {proc.pid} did not end")
        time.sleep(0.01)
    proc.wait()


def run_command(cmd, timeout):
    """Run ``cmd`` in a process group of its own; (returncode, stdout, stderr)
    once the command and everything it started have ended."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, process_group=0)
    try:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            kill_group(proc.pid)
            out, err = proc.communicate()
    finally:
        end_group(proc)
    return proc.returncode, out, err


def stop_resource_tracker():
    """Stop the helper process ``multiprocessing`` starts beside spawned
    workers; left alone it outlives the benchmark by a moment."""
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


def reap_children():
    """Kill and wait for any child process still running."""
    me = os.getpid()
    for pid, _, ppid, _ in list(_processes()):
        if ppid == me:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


# ---------------------------------------------------------------------------
# dispatching side


def _static_plan(tasks, workers):
    """Longest-first greedy assignment of task indices to workers by cost."""
    loads = [0.0] * workers
    plan = [[] for _ in range(workers)]
    for idx, task in enumerate(tasks):
        w = loads.index(min(loads))
        plan[w].append(idx)
        loads[w] += task.cost
    return plan


class PoolRunner:
    """Worker processes started with the spawn method, one task at a time each."""

    persistent = True  # workers keep their caches from one iteration to the next

    def __init__(self, workers, src, trace=False, static=False):
        ctx = mp.get_context("spawn")
        self.static = static
        self.trace = trace
        self.conns, self.procs = [], []
        try:
            for _ in range(workers):
                parent, child = ctx.Pipe()
                proc = ctx.Process(target=_worker_main, args=(child, src, trace),
                                   daemon=True)
                self.conns.append(parent)
                self.procs.append(proc)
                proc.start()
                child.close()
            for conn in self.conns:
                if conn.recv() != "ready":
                    raise RuntimeError("worker failed to start")
        except BaseException:
            self.close()
            raise

    def iteration(self, tasks, seed):
        n = len(self.conns)
        if self.static:
            queues = _static_plan(tasks, n)
        else:
            queues = [list(range(len(tasks)))] * n  # one queue shared by all
        reports = [None] * len(tasks)
        timings = [[] for _ in range(n)]
        peak = 0
        pending = {}

        def feed(w):
            q = queues[w]
            if q:
                idx = q.pop(0)
                t = tasks[idx]
                self.conns[w].send((idx, t.suite_task, seed, t.mutation))
                pending[w] = idx

        start = time.perf_counter()
        for w in range(n):
            feed(w)
        while pending:
            for conn in wait([self.conns[w] for w in pending]):
                w = self.conns.index(conn)
                idx, rep, timing, rss = conn.recv()
                del pending[w]
                reports[idx] = rep
                timings[w].append(timing)
                peak = max(peak, rss)
                feed(w)
        wall = time.perf_counter() - start
        busy, unit_s, cal_s = speed.combine(timings)
        snapshots = self.collect() if self.trace else []
        return Iteration(wall - cal_s, reports, busy, unit_s, peak, snapshots)

    def collect(self):
        out = []
        for conn in self.conns:
            conn.send("collect")
            out.append(conn.recv())
        return out

    def close(self):
        for conn in self.conns:
            try:
                conn.send(None)
            except (OSError, ValueError):
                pass
        for conn, proc in zip(self.conns, self.procs):
            if proc.pid is not None:
                proc.join(timeout=10)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
            conn.close()
        stop_resource_tracker()


class CliRunner:
    """``sp4lab suite --profile quick`` as a fresh process per iteration.

    The command runs under ``probe.py cli``, which only adds the timing of
    each task, a calibration slice after it and, when tracing, the tracer.
    """

    persistent = False

    def __init__(self, outdir, pattern, threads, trace=False):
        self.outdir = outdir
        self.pattern = pattern
        self.threads = threads
        self.trace = trace

    def iteration(self, tasks, seed):
        out = os.path.join(self.outdir, "suite-quick.jsonl")
        prefix = os.path.join(self.outdir, "cli-run")
        for stale in glob.glob(prefix + ".*.json") + [out]:
            if os.path.exists(stale):
                os.remove(stale)
        cmd = [sys.executable, os.path.join(HERE, "probe.py"), "cli", prefix,
               "1" if self.trace else "0", "--",
               "suite", "--profile", "quick", "--threads", str(self.threads),
               "--seed", str(seed), "--tasks", self.pattern, "--out", out]
        start = time.perf_counter()
        returncode, _, stderr = run_command(cmd, CLI_TIMEOUT_S)
        wall = time.perf_counter() - start
        by_task = {}
        if returncode == 0:
            with open(out, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    if "task" in rec:
                        by_task[rec["task"]] = rec
        else:
            err = f"sp4lab suite exited {returncode}: {stderr[-300:]}"
            by_task = {t.task_id: {"error": err} for t in tasks}
        reports = [by_task.get(t.task_id) for t in tasks]
        timings, snapshots = [], []
        for path in sorted(glob.glob(prefix + ".*.json")):
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
            os.remove(path)
            timings.append(rec["tasks"])
            if rec["snapshot"] is not None:
                snapshots.append(rec["snapshot"])
        busy, unit_s, cal_s = speed.combine(timings)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return Iteration(wall - cal_s, reports, busy, unit_s, peak, snapshots)

    def close(self):
        pass
