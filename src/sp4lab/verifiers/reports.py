"""Verification reports: outcome records for exhaustive and sampled checks.

One report covers one whole task: its tuple count, the cases it ran,
its first counterexamples and its margins.
"""

import time
from dataclasses import dataclass, field


MAX_COUNTEREXAMPLES = 25

PASS = "pass"
VIOLATED = "violated"


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

