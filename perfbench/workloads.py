"""Workload definitions: the task batch one iteration of each workload runs.

A task is the suite's own tuple ``(task_id, runner, params)`` plus the
mutation it replays (or None), a cost estimate in seconds on one core
(used only to order dispatch, longest first) and the operation it belongs
to.  An operation is what the correctness gate counts: a plain task is its
own operation, and the tasks replaying one catalogued mutation form one
operation that passes when at least one of their reports is violated.

Every batch is a pure function of (workload, input seed, size), so two
iterations with the same input seed run identical inputs.
"""

import zlib
from dataclasses import dataclass, field

MUTATIONS = ("minor-sign-flip", "d-scaling-exponent", "drop-eps1", "wrong-n1",
             "minor-row-pair")

WORKLOADS = ("cells-mixed", "k-char2", "analytic", "suite-quick")

# quick-profile slice the CLI workload selects with --tasks: the exact
# char-2 cells, the Q2 non-spherical cells, character sums, the Fourier
# checks, averaging and the zig-zag planner and ledger (19 of 46 tasks)
SUITE_QUICK_PATTERN = "*[2g]:*"
SUITE_QUICK_PATTERN_TINY = "c2:*"


@dataclass(frozen=True)
class Task:
    task_id: str
    runner: str
    params: dict = field(hash=False)
    mutation: object = None
    cost: float = 0.1
    op: str = ""

    @property
    def suite_task(self):
        return (self.task_id, self.runner, self.params)

    @property
    def op_id(self):
        return self.op or self.task_id


def input_seed(seed, phase):
    """Seed handed to the suite: timed iterations alternate phases 0 and 1,
    the warm-up iteration uses phase 2."""
    return zlib.crc32(f"perfbench:{seed}:{phase}".encode()) & 0x7FFFFFFF


def _cells(lemma, fld, i, j, k=0, sample_n=None, cost=0.1, mutation=None, op=""):
    # cap 0 forces the suite runner into sample mode; a large cap makes it
    # enumerate the whole tuple space
    params = {"lemma": lemma, "field": fld, "i": i, "j": j, "k": k,
              "cap": 0 if sample_n else 10 ** 6, "sample_n": sample_n or 0}
    prefix = f"mut:{mutation}:" if mutation else ""
    mode = f"s{sample_n}" if sample_n else "ex"
    return Task(f"{prefix}cells:{lemma}:{fld}:{i},{j},k{k}:{mode}", "cells", params,
                mutation, cost, op)


def _identities(lemma, fld, i, j, n, cost=0.1, mutation=None, op=""):
    prefix = f"mut:{mutation}:" if mutation else ""
    return Task(f"{prefix}identities:{lemma}:{fld}:{i},{j}:n{n}", "identities",
                {"lemma": lemma, "field": fld, "i": i, "j": j, "n": n},
                mutation, cost, op)


def _mutation_replays(n):
    """Both replays of acceptance criterion 3, per catalogued mutation."""
    tasks = []
    for m in MUTATIONS:
        op = f"mutation:{m}"
        tasks += [
            _cells("SPHER01", "Q3", 3, 1, sample_n=n, cost=0.03, mutation=m, op=op),
            _identities("SPHER01", "Q3", 3, 1, n, cost=0.2, mutation=m, op=op),
            _cells("NONSPHER1M1", "Q3", 4, 4, k=1, sample_n=n, cost=0.06,
                   mutation=m, op=op),
            _identities("NONSPHER1M1", "Q3", 4, 4, n, cost=0.04, mutation=m, op=op),
        ]
    return tasks


def cells_mixed(tiny=False):
    if tiny:
        return [
            _cells("SPHER1M1", "Q3", 4, 2),
            _cells("NONSPHER1M1", "Q3", 4, 4, k=1, sample_n=5),
            _identities("SPHER01", "Q3", 4, 1, 3),
        ] + [t for t in _mutation_replays(3) if t.mutation == MUTATIONS[0]]
    return [
        # exhaustive sweeps
        _cells("SPHER1M1", "Q3", 4, 2, cost=0.07),
        _cells("NONSPHER01", "Q3", 4, 1, k=1, cost=0.04),
        _cells("NONSPHER01", "Q2", 5, 1, k=1, cost=0.12),
        _cells("NONSPHER01", "Q5", 3, 1, k=1, cost=0.2),
        _cells("NONSPHER01", "Q3", 6, 1, k=2, cost=0.5),
        _cells("NONSPHER1M1", "Q2", 4, 4, k=1, cost=0.38),
        # sampled sweeps where the tuple space is too large
        _cells("SPHER01", "Q3", 3, 1, sample_n=300, cost=0.33),
        _cells("SPHER01", "Q3", 5, 2, sample_n=150, cost=0.15),
        _cells("SPHER01", "Q5", 3, 1, sample_n=150, cost=0.14),
        _cells("SPHER1M1", "Q3", 3, 3, sample_n=150, cost=0.14),
        _cells("NONSPHER1M1", "Q3", 4, 4, k=1, sample_n=150, cost=0.3),
        _cells("NONSPHER1M1", "Q3", 3, 4, k=1, sample_n=150, cost=0.27),
        _cells("NONSPHER1M1", "Q5", 4, 4, k=1, sample_n=100, cost=0.19),
        _cells("NONSPHER1M1", "Q3", 6, 6, k=2, sample_n=100, cost=0.15),
        # witness identities
        _identities("SPHER01", "Q3", 4, 1, 40, cost=0.25),
        _identities("SPHER1M1", "Q3", 3, 3, 40, cost=0.2),
        _identities("NONSPHER01", "Q3", 4, 1, 100, cost=0.1),
        _identities("NONSPHER1M1", "Q3", 4, 4, 100, cost=0.11),
    ] + _mutation_replays(25)


def k_char2(tiny=False):
    f2, f4 = "F2((t))", "F4((t))"
    if tiny:
        return [
            Task("parity:id:F2:depth1", "parity",
                 {"field": f2, "g": "identity", "depth": 1}, cost=0.8),
            Task("parity:D10:F2:depth3:s5", "parity",
                 {"field": f2, "g": [1, 0], "depth": 3, "mode": "sample",
                  "sample_n": 5}),
            Task("decompose:random:F2:d2", "decompose-random",
                 {"field": f2, "depth": 2, "n": 2}),
            _cells("CHAR2_02", f2, 5, 1),
        ]
    tasks = [
        Task("decompose:sweep:F2", "decompose-sweep", {"field": f2}, cost=5.2),
        Task("parity:id:F2:depth1", "parity",
             {"field": f2, "g": "identity", "depth": 1}, cost=0.76),
        Task("parity-monotone:D10:F2:depth5", "parity-monotone",
             {"field": f2, "g": [1, 0], "depth": 5, "sample_n": 30}, cost=0.8),
        Task("parity:D10:F4:depth2:s25", "parity",
             {"field": f4, "g": [1, 0], "depth": 2, "mode": "sample",
              "sample_n": 25}, cost=0.4),
        _cells("CHAR2_02", f2, 5, 1, cost=0.06),
        _cells("CHAR2_02", f2, 7, 1, cost=0.57),
        _cells("CHAR2_02", f4, 5, 1, sample_n=60, cost=0.3),
        _cells("CHAR2_02", f2, 7, 1, k=1, cost=0.03),
        _cells("CHAR2_02", f4, 7, 1, k=1, cost=0.31),
        _identities("CHAR2_02", f2, 6, 2, 60, cost=0.19),
    ]
    for depth, n, cost in ((3, 60, 0.5), (4, 30, 0.5), (5, 25, 0.55)):
        tasks.append(Task(f"parity:D10:F2:depth{depth}:s{n}", "parity",
                          {"field": f2, "g": [1, 0], "depth": depth,
                           "mode": "sample", "sample_n": n}, cost=cost))
    for fld, depth, n, cost in ((f2, 1, 20, 0.13), (f2, 2, 6, 0.25), (f2, 3, 6, 0.4),
                                (f4, 2, 3, 0.55)):
        tag = fld[:2]
        tasks.append(Task(f"decompose:random:{tag}:d{depth}", "decompose-random",
                          {"field": fld, "depth": depth, "n": n}, cost=cost))
    return tasks


# blocked start cells of the planner, as acceptance criterion 7 and the full
# profile state them; keyed by (regime, v0)
ACCEPTANCE_BLOCKED = {
    ("char-ne2", 0): [[0, 0], [1, 0], [1, 1]],
    ("char-ne2", 1): [[0, 0], [1, 0], [1, 1], [2, 0], [2, 1]],
    ("char2", 0): [[0, 0], [1, 0], [1, 1], [2, 1]],
}


def analytic(tiny=False):
    max_length = 20 if tiny else 150
    tasks = []
    for regime, v0, cost in (("char-ne2", 0, 0.7), ("char-ne2", 1, 1.25),
                             ("char2", 0, 1.1)):
        tasks.append(Task(f"zigzag:plan:{regime}:v{v0}:L{max_length}", "zigzag-plan",
                          {"regime": regime, "v0": v0, "max_length": max_length,
                           "allowed_blocked": ACCEPTANCE_BLOCKED[(regime, v0)]},
                          cost=cost))
    for regime, cost in (("char-ne2", 1.2), ("char2", 0.7)):
        tasks.append(Task(f"zigzag:ledger:{regime}:L{max_length}", "zigzag-ledger",
                          {"regime": regime, "v0": 0, "h": 1, "alphas": ["7/10"],
                           "betas": ["0", "9/10"], "max_length": max_length,
                           "stride": 11}, cost=cost))
    trials = 40 if tiny else 2000
    for fld, n, k, cost in (("Q2", 2, 0, 0.06), ("Q2", 3, 0, 0.1), ("Q2", 3, 1, 0.08),
                            ("Q3", 2, 0, 0.13), ("Q3", 3, 1, 0.1)):
        tasks.append(Task(f"fft:{fld}:h1:n{n}:k{k}:l1.5:d3", "fft",
                          {"field": fld, "h": 1, "n": n, "k": k, "p": 1.5, "d": 3,
                           "strategy": "random", "trials": trials}, cost=cost))
    tasks += [
        Task("type-constant:hilbert", "type-constant",
             {"space_p": 2.0, "d": 6, "p": 2.0, "n_vectors": 8,
              "trials": 10 if tiny else 100, "expect": "hilbert-one"}, cost=0.06),
        Task("type-constant:l1", "type-constant",
             {"space_p": 1.0, "d": 12, "p": 2.0, "n_vectors": 12,
              "trials": 3 if tiny else 30, "expect": "l1-growth"}, cost=0.25),
    ]
    return tasks


BATCHES = {"cells-mixed": cells_mixed, "k-char2": k_char2, "analytic": analytic}


def batch(workload, tiny=False):
    """Tasks of one iteration, longest estimated cost first."""
    tasks = BATCHES[workload](tiny)
    return sorted(tasks, key=lambda t: (-t.cost, t.task_id))


def suite_quick_tasks(tiny=False):
    """The quick-profile tasks the CLI workload selects, as the CLI does."""
    import fnmatch

    from sp4lab import suite
    pattern = SUITE_QUICK_PATTERN_TINY if tiny else SUITE_QUICK_PATTERN
    return [Task(tid, runner, params) for tid, runner, params
            in suite.profile_tasks("quick") if fnmatch.fnmatch(tid, pattern)]
