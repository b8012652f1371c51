"""Per-layer tracing from outside the program.

``install`` rebinds the public functions of every layer, at each module
attribute their callers look them up by, to wrappers that record spans or
counts in a ``Tracer``.  Coarse calls get spans (count, total and self
time, where self time is the span minus the time its child spans cover);
element-level arithmetic is only counted, so those figures repeat exactly
for fixed inputs.  Nothing is written while tracing: a worker hands its
``snapshot`` to the dispatching process, which merges snapshots and
derives the per-layer metrics with ``layer_metrics``.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

# spans kept verbatim (name, depth, start, end) for the trace file
SPAN_LOG_LIMIT = 20_000
SPAN_LOG_DEPTH = 1

# (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    ("gfq.poly_mul.calls", "count"),
    ("gfq.poly_mul.coef_ops", "count"),
    ("gfq.poly_divmod.calls", "count"),
    ("exactfield.elem_ops", "count"),
    ("exactfield.coerce.calls", "count"),
    ("exactfield.padic.max_bits", "bits"),
    ("exactfield.laurent.max_degree", "degree"),
    ("exactfield.reduce.calls", "count"),
    ("exactfield.section.hit_ratio", "ratio"),
    ("sp4.mat_mul.calls", "count"),
    ("sp4.mat_mul.self_s", "s"),
    ("sp4.certify.calls", "count"),
    ("sp4.certify.self_s", "s"),
    ("sp4.cartan.calls", "count"),
    ("sp4.cartan.self_s", "s"),
    ("lemma_witnesses.build.calls", "count"),
    ("lemma_witnesses.build.self_s", "s"),
    ("verifiers.cells.tuples", "count"),
    ("verifiers.cells.self_s", "s"),
    ("verifiers.sampling.sample.self_s", "s"),
    ("verifiers.sampling.lift.calls", "count"),
    ("verifiers.sampling.lift.self_s", "s"),
    ("verifiers.parity.classified", "count"),
    ("verifiers.parity.wedge.self_s", "s"),
    ("verifiers.parity.decided_ratio", "ratio"),
    ("verifiers.decompose.calls", "count"),
    ("verifiers.decompose.self_s", "s"),
    ("verifiers.decompose.fallback_ratio", "ratio"),
    ("verifiers.averaging.self_s", "s"),
    ("verifiers.reports.counterexamples", "count"),
    ("fourier.check_fft.calls", "count"),
    ("fourier.operator_build.self_s", "s"),
    ("fourier.check_fft.self_s", "s"),
    ("zigzag.plan.calls", "count"),
    ("zigzag.plan.self_s", "s"),
    ("zigzag.validate.self_s", "s"),
    ("zigzag.ledger.self_s", "s"),
    ("zigzag.bfs_fallback_ratio", "ratio"),
    ("suite.worker.busy_s", "s"),
    ("suite.worker.idle_s", "s"),
    ("cli.emit.bytes", "bytes"),
    ("cli.emit.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Spans, counts and maxima of one process, kept in memory."""

    def __init__(self):
        self.spans = {}                 # name -> [calls, total_s, self_s]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.log = []                   # [name, depth, start, end]
        self.stack = []                 # child time covered, per open span
        self.in_elem_op = False

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()
        self.log.clear()

    def snapshot(self):
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts), "maxima": dict(self.maxima),
                "log": list(self.log)}

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, on_result=None):
        spans, stack, log, clock = self.spans, self.stack, self.log, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = len(stack)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                covered = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - covered
                if depth <= SPAN_LOG_DEPTH and len(log) < SPAN_LOG_LIMIT:
                    log.append([name, depth, start, end])
            if on_result is not None:
                on_result(self, result, fn, args, kwargs)
            return result

        return traced

    def count(self, name, fn, extra=None):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            if extra is not None:
                extra(self, args)
            return fn(*args, **kwargs)

        return counted

    def elem_op(self, fn, max_key, size):
        """Count one field operation; nested operations (a sub built from an
        add) count once, at the outermost call."""
        counts, maxima = self.counts, self.maxima

        @functools.wraps(fn)
        def op(a, b):
            if self.in_elem_op:
                return fn(a, b)
            self.in_elem_op = True
            try:
                r = fn(a, b)
            finally:
                self.in_elem_op = False
            counts["exactfield.elem_ops"] += 1
            if r is not NotImplemented:
                s = size(r)
                if s > maxima[max_key]:
                    maxima[max_key] = s
            return r

        return op


# ---------------------------------------------------------------------------
# result hooks


def _bound(fn, args, kwargs):
    b = inspect.signature(fn).bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _tuples(tr, rep, fn, args, kwargs):
    tr.counts["verifiers.cells.tuples"] += rep.cases_run


def _parity_volumes(tr, rep, fn, args, kwargs):
    m = rep.margins
    tr.counts["verifiers.parity.classified"] += rep.cases_run
    tr.counts["verifiers.parity.decided"] += m["decided_even"] + m["decided_odd"]


def _parity_profile(tr, profile, fn, args, kwargs):
    n = _bound(fn, args, kwargs)["sample_n"]
    tr.counts["verifiers.parity.classified"] += n * len(profile)
    tr.counts["verifiers.parity.decided"] += round(sum(profile) * n)


def _decompose(tr, fl, fn, args, kwargs):
    tr.counts["verifiers.decompose.fallback"] += fl.route == "fallback"


def _plan(tr, path, fn, args, kwargs):
    tr.counts["zigzag.bfs_fallback"] += bool(path.notes.get("bfs_fallback"))


def _coef_ops(tr, args):
    _, a, b = args
    tr.counts["gfq.poly_mul.coef_ops"] += (len(a) - a.count(0)) * (len(b) - b.count(0))


def _emit_bytes(tr, args):
    import json
    tr.counts["cli.emit.bytes"] += len(json.dumps(args[1], sort_keys=True)) + 1


def _section_lookup(tr, args):
    ring, rep = args
    tr.counts["exactfield.section.lookups"] += 1
    tr.counts["exactfield.section.hits"] += rep in ring._section_cache


def _padic_bits(x):
    return max(x.num.bit_length(), x.den.bit_length())


def _laurent_degree(x):
    return max(len(x.num), len(x.den)) - 1


# ---------------------------------------------------------------------------
# installation


def _rebind(original, replacement):
    """Point every sp4lab module attribute bound to original at replacement."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "sp4lab" or modname.startswith("sp4lab.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def install(tracer):
    """Wrap every layer's public entry points; call once per process."""
    import sp4lab.cli  # noqa: F401  (imports every layer)
    from sp4lab import cli, exactfield as ef, fourier, gfq, sp4, suite
    from sp4lab import lemma_witnesses as lw, zigzag as zz
    from sp4lab.verifiers import averaging, cells, decompose, parity, reports, sampling

    spans = (
        (sp4.mat_mul, "sp4.mat_mul", None),
        (sp4._check_symplectic, "sp4.certify", None),
        (sp4.cartan_invariants, "sp4.cartan", None),
        (lw.build_witness, "lemma_witnesses.build", None),
        (cells.verify_cell_lemma, "verifiers.cells", _tuples),
        (cells.verify_witness_identities, "verifiers.cells", _tuples),
        (sampling.sample_symplectic_residue, "verifiers.sampling.sample", None),
        (sampling.lift_symplectic, "verifiers.sampling.lift", None),
        (parity.wedge_valuation, "verifiers.parity.wedge", None),
        (parity.parity_volumes, "verifiers.parity", _parity_volumes),
        (parity.parity_depth_profile, "verifiers.parity", _parity_profile),
        (decompose.decompose_k1k2, "verifiers.decompose", _decompose),
        (averaging.verify_averaging, "verifiers.averaging", None),
        (fourier.check_fft_lemma, "fourier.check_fft", None),
        (fourier.characters_pairing, "fourier.operator_build", None),
        (fourier.line_operator, "fourier.operator_build", None),
        (fourier.shifted_difference_operator, "fourier.operator_build", None),
        (zz.plan_path, "zigzag.plan", _plan),
        (zz.validate_path, "zigzag.validate", None),
        (zz.ledger_sweep, "zigzag.ledger", None),
        (zz.bound_ledger, "zigzag.ledger", None),
        (suite.run_task, "suite.run_task", None),
    )
    for fn, name, hook in spans:
        _rebind(fn, tracer.span(name, fn, hook))
    _rebind(gfq.poly_mul, tracer.count("gfq.poly_mul.calls", gfq.poly_mul, _coef_ops))
    _rebind(gfq.poly_divmod, tracer.count("gfq.poly_divmod.calls", gfq.poly_divmod))
    _rebind(ef._coerce, tracer.count("exactfield.coerce.calls", ef._coerce))

    for cls, max_key, size in ((ef.PadicElem, "exactfield.padic.max_bits", _padic_bits),
                               (ef.LaurentElem, "exactfield.laurent.max_degree",
                                _laurent_degree)):
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__"):
            setattr(cls, attr, tracer.elem_op(getattr(cls, attr), max_key, size))
        cls.reduce = tracer.count("exactfield.reduce.calls", cls.reduce)
    ef.ResidueRing.section = tracer.count("exactfield.section.calls",
                                          ef.ResidueRing.section, _section_lookup)
    reports.VerificationReport.record_violation = tracer.count(
        "verifiers.reports.counterexamples", reports.VerificationReport.record_violation)
    cli.Emitter.emit = tracer.count(
        "cli.emit.calls", tracer.span("cli.emit", cli.Emitter.emit), _emit_bytes)


# ---------------------------------------------------------------------------
# merging and metrics


def merge(snapshots):
    out = {"spans": {}, "counts": defaultdict(int), "maxima": defaultdict(int), "log": []}
    for snap in snapshots:
        for name, (calls, total, self_s) in snap["spans"].items():
            rec = out["spans"].setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, val in snap["counts"].items():
            out["counts"][name] += val
        for name, val in snap["maxima"].items():
            out["maxima"][name] = max(out["maxima"][name], val)
        out["log"] += snap["log"]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(snap, busy_s, idle_s, overhead_ratio):
    """Every PER_LAYER metric from a merged snapshot, as {name: value}."""
    spans, counts, maxima = snap["spans"], snap["counts"], snap["maxima"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    values = {
        "gfq.poly_mul.calls": counts["gfq.poly_mul.calls"],
        "gfq.poly_mul.coef_ops": counts["gfq.poly_mul.coef_ops"],
        "gfq.poly_divmod.calls": counts["gfq.poly_divmod.calls"],
        "exactfield.elem_ops": counts["exactfield.elem_ops"],
        "exactfield.coerce.calls": counts["exactfield.coerce.calls"],
        "exactfield.padic.max_bits": maxima["exactfield.padic.max_bits"],
        "exactfield.laurent.max_degree": maxima["exactfield.laurent.max_degree"],
        "exactfield.reduce.calls": counts["exactfield.reduce.calls"],
        "exactfield.section.hit_ratio": _ratio(counts["exactfield.section.hits"],
                                               counts["exactfield.section.lookups"]),
        "verifiers.cells.tuples": counts["verifiers.cells.tuples"],
        "verifiers.parity.classified": counts["verifiers.parity.classified"],
        "verifiers.parity.decided_ratio": _ratio(counts["verifiers.parity.decided"],
                                                 counts["verifiers.parity.classified"]),
        "verifiers.decompose.fallback_ratio": _ratio(
            counts["verifiers.decompose.fallback"], calls("verifiers.decompose")),
        "verifiers.reports.counterexamples": counts["verifiers.reports.counterexamples"],
        "zigzag.bfs_fallback_ratio": _ratio(counts["zigzag.bfs_fallback"],
                                            calls("zigzag.plan")),
        "suite.worker.busy_s": busy_s,
        "suite.worker.idle_s": idle_s,
        "cli.emit.bytes": counts["cli.emit.bytes"],
        "trace.overhead_ratio": overhead_ratio,
    }
    for metric, _unit in PER_LAYER:
        if metric in values:
            continue
        layer, _, kind = metric.rpartition(".")
        values[metric] = calls(layer) if kind == "calls" else self_s(layer)
    return values


# ---------------------------------------------------------------------------
# layer-coverage probe


def layer_probe():
    """One small call into every layer.

    Traced runs add the probe's figures to each workload's, so that every
    per-layer metric is measured on every workload, also where the
    workload itself never enters that layer.
    """
    import os
    import random
    from fractions import Fraction

    from sp4lab import cli, suite
    from sp4lab import zigzag as zz
    from sp4lab.exactfield import parse_element, parse_field, residue_ring
    from sp4lab.fourier import SpaceSpec, check_fft_lemma
    from sp4lab.sp4 import cartan_invariants, d_matrix, identity
    from sp4lab.verifiers import (decompose_k1k2, parity_volumes, random_k_element,
                                  symmetric_3_standard, verify_averaging,
                                  verify_cell_lemma)

    q3, f2 = parse_field("Q3"), parse_field("F2((t))")
    x = parse_element(f2, "(1+t)/(1+t+t^2)")
    (x * x + x / (x + 1)).to_str()
    y = parse_element(q3, "5/4")
    (y * y - y / 2).reduce(residue_ring(q3, 2))
    cartan_invariants(d_matrix(q3, 3, 1) * identity(q3))
    verify_cell_lemma("SPHER1M1", q3, 4, 2, mode="sample", sample_n=2, seed=1)
    verify_cell_lemma("SPHER01", q3, 3, 1, mode="sample", sample_n=1, seed=1,
                      mutation="minor-sign-flip")
    rng = random.Random(1)
    decompose_k1k2(random_k_element(f2, 1, rng))
    parity_volumes(d_matrix(f2, 1, 0), 2, mode="sample", sample_n=2, seed=1)
    verify_averaging(symmetric_3_standard(), trials=2, seed=1)
    check_fft_lemma(q3, 1, 2, 0, space=SpaceSpec(2.0, 1))
    regime = zz.Regime(zz.CHAR_NE2, v0=0)
    zz.bound_ledger(zz.plan_path((5, 1), regime), Fraction(7, 10), 1, Fraction(0))
    rep = suite.run_task(("c2:Q3", "c2", {"field": "Q3"}), 1)
    emitter = cli.Emitter("json", os.devnull)
    try:
        emitter.emit(rep.to_dict())
    finally:
        emitter.close()
