"""Verification reports: outcome records for exhaustive and sampled checks.

Reports merge associatively (counts add, counterexample lists
concatenate), so enumeration spaces can be partitioned into disjoint
tuple ranges, verified independently, and recombined.
"""

import json
import time
from dataclasses import dataclass, field


MAX_COUNTEREXAMPLES = 25

PASS = "pass"
VIOLATED = "violated"
UNDECIDED = "undecided"


class BudgetExceededError(RuntimeError):
    """Exhaustive enumeration would overrun the case budget; use sample mode."""


@dataclass
class VerificationReport:
    task: str
    params: dict
    status: str = PASS
    cases_total: int = 0
    cases_run: int = 0
    counterexamples: list = field(default_factory=list)
    margins: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0
    seed: object = None
    opened: float = field(default_factory=time.perf_counter, compare=False, repr=False)

    def done(self):
        """Stamp ``elapsed_ms`` with the time since the report was opened; returns the report."""
        self.elapsed_ms = round((time.perf_counter() - self.opened) * 1000.0, 3)
        return self

    def record_violation(self, info):
        self.status = VIOLATED
        if len(self.counterexamples) < MAX_COUNTEREXAMPLES:
            self.counterexamples.append(info)

    def to_dict(self):
        return {
            "task": self.task,
            "params": self.params,
            "status": self.status,
            "cases_total": self.cases_total,
            "cases_run": self.cases_run,
            "counterexamples": self.counterexamples,
            "margins": self.margins,
            "elapsed_ms": self.elapsed_ms,
            "seed": self.seed,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def merge_reports(a, b):
    """Associative merge of two partition reports for the same task."""
    if a.task != b.task:
        raise ValueError("cannot merge reports for different tasks")
    out = VerificationReport(a.task, dict(a.params))
    out.cases_total = a.cases_total + b.cases_total
    out.cases_run = a.cases_run + b.cases_run
    out.counterexamples = (a.counterexamples + b.counterexamples)[:MAX_COUNTEREXAMPLES]
    if VIOLATED in (a.status, b.status):
        out.status = VIOLATED
    elif UNDECIDED in (a.status, b.status):
        out.status = UNDECIDED
    else:
        out.status = PASS
    out.margins = dict(a.margins)
    for key, val in b.margins.items():
        if key in out.margins and isinstance(val, (int, float)):
            out.margins[key] = max(out.margins[key], val)
        else:
            out.margins[key] = val
    out.elapsed_ms = a.elapsed_ms + b.elapsed_ms
    out.seed = a.seed if a.seed is not None else b.seed
    return out
