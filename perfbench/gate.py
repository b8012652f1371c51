"""Correctness gate: every report of an iteration is checked before it counts.

An operation fails when a report of it has an unexpected status, ran fewer
or more cases than its task's own parameters imply, breaks a domain
invariant, differs from the report of an earlier iteration with the same
input seed (timing fields aside), or is missing.  The gate needs only the
task tuples and the report dicts, so it can be fed stub reports.
"""

import json
from collections import OrderedDict

PASS = "pass"
VIOLATED = "violated"


def expected_cases(task):
    """Cases a report of this task must have run, from the task's parameters."""
    from sp4lab.exactfield import parse_field
    from sp4lab.verifiers import symplectic_group_order
    from sp4lab.verifiers.cells import case_count

    runner, p = task.runner, task.params
    if runner == "cells":
        total = case_count(p["lemma"], parse_field(p["field"]), p["i"], p["j"], p["k"])
        return total if total <= p.get("cap", 25_000) else p.get("sample_n", 1500)
    if runner == "identities":
        return p.get("n", 400)
    if runner == "decompose-sweep":
        return symplectic_group_order(parse_field(p["field"]).q, 1)
    if runner == "decompose-random":
        return p["n"]
    if runner == "averaging":
        return p.get("trials", 1000) + 1
    if runner == "fourier-norm":
        return len(p["h_values"]) * len(p["dims"])
    if runner == "fft":
        if p.get("p", 2.0) == 2.0 and p.get("strategy", "exhaustive") == "exhaustive":
            return 1
        trials = p.get("trials", 2000)
        return trials + trials // 4
    if runner == "fft-rewrite":
        return p.get("trials", 20)
    if runner == "c2":
        return parse_field(p["field"]).q - 1
    if runner == "type-constant":
        return p.get("trials", 50)
    if runner == "parity":
        if p.get("mode", "exhaustive") == "exhaustive":
            return symplectic_group_order(parse_field(p["field"]).q, p["depth"])
        return p.get("sample_n", 2000)
    if runner == "parity-monotone":
        return p.get("sample_n", 800)
    if runner == "zigzag-plan":
        n = p["max_length"]
        return sum(min(i, n - i) + 1 for i in range(n + 1))
    if runner == "zigzag-ledger":
        return len(p["alphas"]) * len(p["betas"])
    raise ValueError(f"no case count known for runner {runner!r}")


def invariant_problems(task, rep):
    """Domain invariants the report's margins must satisfy."""
    runner, m = task.runner, rep.get("margins", {})
    problems = []
    if runner in ("decompose-sweep", "decompose-random"):
        if not m.get("max_block_count", 99) <= 30:
            problems.append(f"max_block_count {m.get('max_block_count')} > 30")
    elif runner == "parity":
        mass = m.get("decided_even", 0) + m.get("decided_odd", 0) + m.get("undecided", 0)
        if mass != rep["cases_run"]:
            problems.append(f"parity mass {mass} != {rep['cases_run']} classes")
    elif runner == "parity-monotone":
        prof = m.get("decided_profile", [])
        if len(prof) != task.params["depth"] or any(b < a for a, b in zip(prof, prof[1:])):
            problems.append(f"decided profile {prof} not monotone over all depths")
    elif runner == "zigzag-plan":
        blocked = sorted(map(tuple, m.get("blocked", [])))
        want = sorted(map(tuple, task.params["allowed_blocked"]))
        if blocked != want:
            problems.append(f"blocked starts {blocked} != acceptance set {want}")
        if m.get("planned", 0) + len(blocked) != rep["cases_run"]:
            problems.append("planned + blocked != starts")
    return problems


def report_problems(task, rep):
    """Everything wrong with one report, status aside."""
    if "error" in rep:
        return [f"raised: {rep['error']}"]
    problems = []
    want = expected_cases(task)
    if rep.get("cases_run") != want:
        problems.append(f"cases_run {rep.get('cases_run')} != {want}")
    return problems + invariant_problems(task, rep)


def canonical(rep):
    """The report without its timing field, as comparable text."""
    return json.dumps({k: v for k, v in rep.items() if k != "elapsed_ms"}, sort_keys=True)


class Gate:
    """Checks iterations and remembers the first stream of each input seed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._streams = {}

    def check(self, tasks, reports, input_seed):
        """Gate one iteration; reports[i] belongs to tasks[i] (None if missing)."""
        ops = OrderedDict()
        for task, rep in zip(tasks, reports):
            ops.setdefault(task.op_id, []).append((task, rep))
        stream = self._streams.setdefault(input_seed, {})
        first = not stream
        for op, members in ops.items():
            problems = []
            for task, rep in members:
                if rep is None:
                    problems.append(f"{task.task_id}: no report")
                    continue
                problems += [f"{task.task_id}: {p}" for p in report_problems(task, rep)]
                text = canonical(rep)
                if first:
                    stream[task.task_id] = text
                elif stream.get(task.task_id) != text:
                    problems.append(f"{task.task_id}: report differs from the earlier "
                                    f"run at input seed {input_seed}")
                if task.mutation is None and rep.get("status") != PASS:
                    problems.append(f"{task.task_id}: status {rep.get('status')}")
            if any(t.mutation for t, _ in members):
                if not any(r and r.get("status") == VIOLATED for _, r in members):
                    problems.append(f"{op}: mutation replay came back pass")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += problems
        return self
