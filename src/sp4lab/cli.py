"""Command-line front end: single verifications, suites, JSON report streams.

Exit codes: 0 when everything passed, 1 when any check was violated (a
suite task that raises counts as violated), 2 on usage or configuration
errors.  Reports stream as
JSON lines; --format text renders one human-readable line per report.
Global options may also come from a key=value config file and, for the
worker count, the SP4LAB_THREADS environment variable; command-line
flags win.
"""

import argparse
import fnmatch
import json
import os
import sys
from fractions import Fraction

from sp4lab import suite as suite_mod
from sp4lab import zigzag as zz
from sp4lab.exactfield import (
    FieldConfigError,
    parse_element,
    parse_field,
    residue_ring,
    two_valuation,
)
from sp4lab import lemma_witnesses as lw
from sp4lab.fourier import (
    check_fft_lemma,
    estimate_type_constant,
    parse_space,
    transform_norm,
)
from sp4lab.sp4 import (
    SymplecticError,
    cartan_invariants,
    d_matrix,
    identity,
    matrix_from_json,
)
from sp4lab.verifiers.cells import verify_cell_lemma, verify_witness_identities
from sp4lab.verifiers.decompose import decompose_k1k2
from sp4lab.verifiers.parity import parity_volumes
from sp4lab.verifiers.reports import PASS, BudgetExceededError

USAGE_ERROR = 2
CHECK_FAILED = 1


CONFIG_KEYS = ("field", "format", "out", "seed", "threads")


class CliError(Exception):
    pass


def _load_config(path):
    conf = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"bad config line {line!r} (expected key=value)")
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise CliError(f"unknown config key {key!r}; "
                               f"known: {', '.join(CONFIG_KEYS)}")
            conf[key] = val.strip()
    return conf


def _int_setting(text, source):
    """An integer setting read outside argparse; a malformed one names its
    source."""
    try:
        return int(text)
    except ValueError:
        raise CliError(f"{source} must be an integer, not {text!r}") from None


def _resolve_options(args):
    conf = {}
    config_path = getattr(args, "config", None)
    if config_path:
        conf = _load_config(config_path)
    field = getattr(args, "field", None) or conf.get("field", "Q3")
    fmt = getattr(args, "format", None) or conf.get("format", "json")
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = _int_setting(conf.get("seed", 0), "config key 'seed'")
    threads = getattr(args, "threads", None)
    if threads is None:
        env = os.environ.get("SP4LAB_THREADS")
        if env is not None:
            threads = _int_setting(env, "SP4LAB_THREADS")
        elif "threads" in conf:
            threads = _int_setting(conf["threads"], "config key 'threads'")
        else:
            threads = 1
    out = getattr(args, "out", None) or conf.get("out")
    if fmt not in ("json", "text"):
        raise CliError(f"unknown format {fmt!r}")
    if threads < 1:
        raise CliError(f"worker count must be at least 1, not {threads}")
    return field, fmt, seed, threads, out


class Emitter:
    def __init__(self, fmt, out_path):
        self.fmt = fmt
        self.fh = open(out_path, "w", encoding="utf-8") if out_path else sys.stdout
        self.owned = out_path is not None

    def emit(self, obj):
        if self.fmt == "json":
            self.fh.write(json.dumps(obj, sort_keys=True) + "\n")
        else:
            self.fh.write(_render_text(obj) + "\n")
        self.fh.flush()

    def close(self):
        if self.owned:
            self.fh.close()


def _render_text(obj):
    if "status" in obj and "task" in obj:
        extra = ""
        if obj.get("counterexamples"):
            first = obj["counterexamples"][0]
            extra = f"  first-counterexample={first}"
        return (f"[{obj['status'].upper():9}] {obj['task']}  "
                f"cases={obj.get('cases_run', 0)}/{obj.get('cases_total', 0)}"
                f"  {obj.get('elapsed_ms', 0):.0f}ms{extra}")
    return json.dumps(obj, sort_keys=True)


def _read_matrix_arg(field, text):
    if text == "-":
        text = sys.stdin.read()
    elif text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            text = fh.read()
    return matrix_from_json(field, text)


def _ring_rep(spec, depth, text):
    elem = parse_element(spec, text)
    return elem.reduce(residue_ring(spec, depth))


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_field_info(args, emitter, field, seed, threads):
    spec = parse_field(field)
    info = {"field": str(spec), "kind": spec.kind, "p": spec.p, "f": spec.f,
            "q": spec.q, "uniformizer": "p" if spec.kind == "mixed" else "t"}
    try:
        info["v0"] = two_valuation(spec)
    except FieldConfigError as exc:
        info["v0"] = str(exc)
    emitter.emit(info)
    return 0


def cmd_cartan(args, emitter, field, seed, threads):
    spec = parse_field(field)
    g = _read_matrix_arg(spec, args.matrix)
    (i, j), (e1, e2), length = cartan_invariants(g)
    emitter.emit({"cell": [i, j], "norm_exponent": e1, "wedge_exponent": e2,
                  "length": length})
    return 0


def cmd_witness(args, emitter, field, seed, threads):
    spec = parse_field(field)
    depth = lw.check_preconditions(args.lemma, spec, args.i, args.j, args.k)
    a = _ring_rep(spec, depth, args.a)
    b = _ring_rep(spec, depth, args.b)
    x = _ring_rep(spec, depth, args.x)
    wit = lw.build_witness(args.lemma, spec, args.i, args.j, args.k, a, b, x,
                           args.eps)
    ring = residue_ring(spec, depth)
    dump = {
        "lemma": wit.lemma, "field": str(spec), "i": wit.i, "j": wit.j,
        "k": args.k, "depth": wit.depth, "m": wit.m,
        "a": ring.to_str(a), "b": ring.to_str(b), "x": ring.to_str(x),
        "y": ring.to_str(wit.sy.reduce(ring)), "eps": args.eps,
        "beta_inv": wit.beta_inv.to_strings(),
        "alpha_mat": wit.alpha_mat.to_strings(),
        "product": wit.product.to_strings(),
        "expected_cell": list(wit.expected_cell) if wit.expected_cell else None,
        "observed_cell": list(wit.observed_cell()),
    }
    if wit.k1 is not None:
        dump["k1"] = wit.k1.to_strings()
        dump["eps1"] = wit.eps1.to_str()
    if wit.a1 is not None:
        dump["a1"] = wit.a1.to_str()
    emitter.emit(dump)
    return 0


def cmd_verify(args, emitter, field, seed, threads):
    spec = parse_field(field)
    # every check runs before any report is written, so a usage error
    # raised by a later check leaves no report ahead of it
    reports = []
    if args.checks in ("cells", "both"):
        reports.append(verify_cell_lemma(
            args.lemma, spec, args.i, args.j, args.k, mode=args.mode,
            sample_n=args.n, seed=seed, mutation=args.mutation))
    if args.checks in ("identities", "both"):
        reports.append(verify_witness_identities(
            args.lemma, spec, args.i, args.j, sample_n=args.n, seed=seed,
            mutation=args.mutation))
    status = 0
    for rep in reports:
        emitter.emit(rep.to_dict())
        status = max(status, 0 if rep.status == PASS else CHECK_FAILED)
    return status


def cmd_decompose(args, emitter, field, seed, threads):
    spec = parse_field(field)
    g = _read_matrix_arg(spec, args.matrix)
    fl = decompose_k1k2(g)
    emitter.emit({
        "route": fl.route,
        "block_count": fl.block_count,
        "factors": [{"tag": tag, "matrix": x.to_strings()} for tag, x in fl.factors],
    })
    return 0


def cmd_parity(args, emitter, field, seed, threads):
    spec = parse_field(field)
    if args.d:
        g = d_matrix(spec, *args.d)
    elif args.matrix:
        g = _read_matrix_arg(spec, args.matrix)
    else:
        g = identity(spec)
    rep = parity_volumes(g, args.depth, mode=args.mode, sample_n=args.n,
                         seed=seed)
    emitter.emit(rep.to_dict())
    return 0 if rep.status == PASS else CHECK_FAILED


def cmd_fourier_norm(args, emitter, field, seed, threads):
    spec = parse_field(field)
    space = parse_space(args.space)
    res = transform_norm(spec, args.h, space, iters=args.iters, seed=seed)
    res["field"] = str(spec)
    res["h"] = args.h
    res["space"] = str(space)
    emitter.emit(res)
    return 0


def cmd_fft_check(args, emitter, field, seed, threads):
    spec = parse_field(field)
    space = parse_space(args.space)
    rep = check_fft_lemma(spec, args.h, args.n, args.k, eps0_code=args.eps0,
                          space=space, strategy=args.strategy,
                          trials=args.trials, seed=seed)
    emitter.emit(rep.to_dict())
    return 0 if rep.status == PASS else CHECK_FAILED


def cmd_type_const(args, emitter, field, seed, threads):
    space = parse_space(args.space)
    res = estimate_type_constant(space, args.p, args.n_vectors,
                                 trials=args.trials, seed=seed)
    emitter.emit(res)
    return 0


def cmd_zigzag(args, emitter, field, seed, threads):
    sweep = args.zigzag_cmd == "bound" and not args.start
    regime = zz.Regime.named(args.regime, args.v0, args.k)
    if sweep:
        rate = (args.alpha, args.h, args.beta, args.C)
        emitter.emit(zz.ledger_sweep(regime, [rate], max_length=args.grid)[0])
        return 0
    path = zz.plan_path(args.start, regime)
    if args.zigzag_cmd == "plan":
        emitter.emit({
            "start": list(args.start),
            "cells": [list(c) for c in path.cells],
            "moves": [{"delta": list(m.delta), "anchor": list(m.anchor),
                       "reversed": m.reversed_, "lemma": m.lemma(regime)}
                      for m in path.moves],
            "diagonal": path.notes["diagonal"],
            "approach_len": path.approach_len,
            "notes": {k: v for k, v in path.notes.items() if k != "diagonal"},
        })
        return 0
    res = zz.bound_ledger(path, args.alpha, args.h, args.beta, args.C)
    emitter.emit({"start": list(args.start), "total": res["total"],
                  "tail_sum": res["tail_sum"],
                  "closed_form": res["closed_form"],
                  "implied_constant": res["implied_constant"],
                  "rate": str(res["rate"]),
                  "ledger": res["rows"]})
    return 0


def cmd_suite(args, emitter, field, seed, threads):
    try:
        tasks = suite_mod.profile_tasks(args.profile)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.mutation and args.mutation not in lw.MUTATIONS:
        raise CliError(f"unknown mutation {args.mutation!r}; "
                       f"catalogued: {', '.join(lw.MUTATIONS)}")
    if args.tasks:
        tasks = [t for t in tasks if fnmatch.fnmatch(t[0], args.tasks)]
        if not tasks:
            raise CliError(f"no tasks match pattern {args.tasks!r}")
    workers = min(threads, len(tasks))
    if workers > 1:
        import multiprocessing as mp
        with mp.Pool(workers) as pool:
            # one task per dispatch: task costs differ by orders of magnitude,
            # and multi-task chunks leave one worker idle behind the last chunk
            reports = pool.starmap(
                suite_mod.run_task_reported,
                [(t, seed, args.mutation) for t in tasks], chunksize=1)
    else:
        reports = [suite_mod.run_task_reported(t, seed, args.mutation) for t in tasks]
    reports.sort(key=lambda r: r.task)
    worst = PASS
    # every report is pass or violated; the undecided count stays 0 so the
    # summary keeps its keys
    counts = {"pass": 0, "violated": 0, "undecided": 0}
    for rep in reports:
        emitter.emit(rep.to_dict())
        counts[rep.status] += 1
        if rep.status != PASS:
            worst = rep.status
    emitter.emit({"summary": counts, "profile": args.profile, "seed": seed,
                  "mutation": args.mutation,
                  "status": "pass" if worst == PASS else worst})
    return 0 if worst == PASS else CHECK_FAILED


COMMANDS = {
    "field-info": cmd_field_info,
    "cartan": cmd_cartan,
    "witness": cmd_witness,
    "verify": cmd_verify,
    "decompose": cmd_decompose,
    "parity": cmd_parity,
    "fourier-norm": cmd_fourier_norm,
    "fft-check": cmd_fft_check,
    "type-const": cmd_type_const,
    "zigzag": cmd_zigzag,
    "suite": cmd_suite,
}


# ---------------------------------------------------------------------------
# argument parsing


def _cell(text):
    """argparse type of a cell 'i,j': a pair of ints."""
    try:
        i, j = (int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a cell 'i,j', got {text!r}") from None
    return i, j


def _global_options():
    # SUPPRESS keeps a subcommand's copy of an unset option from clobbering
    # a value parsed before the subcommand name
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--field", help="field spec, e.g. Q3 or F4((t))")
    shared.add_argument("--format", choices=("json", "text"))
    shared.add_argument("--seed", type=int)
    shared.add_argument("--threads", type=int)
    shared.add_argument("--out", help="write the report stream to this path")
    shared.add_argument("--config", help="key=value config file")
    return shared


def build_parser():
    shared = _global_options()
    parser = argparse.ArgumentParser(
        prog="sp4lab",
        description="exact verifiers for the Sp4 Cartan/valuation substrate",
        parents=[shared])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        return sub.add_parser(name, parents=[shared], **kwargs)

    add("field-info")

    p = add("cartan")
    p.add_argument("--matrix", required=True,
                   help="JSON 4x4 entry-string array, @file, or - for stdin")

    p = add("witness")
    p.add_argument("--lemma", required=True, choices=lw.LEMMA_IDS)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--a", default="0")
    p.add_argument("--b", default="0")
    p.add_argument("--x", default="0")
    p.add_argument("--eps", type=int, default=0, help="residue code in [0, q)")

    p = add("verify")
    p.add_argument("lemma", choices=lw.LEMMA_IDS)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--checks", choices=("cells", "identities", "both"),
                   default="cells")
    p.add_argument("--mutation", choices=lw.MUTATIONS)

    p = add("decompose")
    p.add_argument("--matrix", required=True)

    p = add("parity")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--n", type=int, default=10000)
    g_source = p.add_mutually_exclusive_group()
    g_source.add_argument("--d", type=_cell, help="use g = D(i,j), as 'i,j'")
    g_source.add_argument("--matrix")

    p = add("fourier-norm")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--space", default="l2:1")
    p.add_argument("--iters", type=int, default=2000)

    p = add("fft-check")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--eps0", type=int, default=1)
    p.add_argument("--space", default="l2:1")
    p.add_argument("--strategy", choices=("exhaustive", "random"),
                   help="default: exhaustive for l2, random otherwise")
    p.add_argument("--trials", type=int, default=5000)

    p = add("type-const")
    p.add_argument("--space", default="l2:4")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--n-vectors", type=int, default=8)
    p.add_argument("--trials", type=int, default=100)

    p = add("zigzag")
    zsub = p.add_subparsers(dest="zigzag_cmd", required=True)
    pp = zsub.add_parser("plan", parents=[shared])
    pp.add_argument("--start", type=_cell, required=True, help="start cell as 'i,j'")
    pp.add_argument("--regime", choices=("char-ne2", "char2"), default="char-ne2")
    pp.add_argument("--v0", type=int, default=0)
    pp.add_argument("--k", type=int, default=0)
    pb = zsub.add_parser("bound", parents=[shared])
    pb.add_argument("--alpha", type=Fraction, required=True)
    pb.add_argument("--h", type=int, default=1)
    pb.add_argument("--beta", type=Fraction, default=Fraction(0))
    pb.add_argument("--C", type=Fraction, default=Fraction(0))
    pb.add_argument("--start", type=_cell)
    pb.add_argument("--grid", type=int, default=120)
    pb.add_argument("--regime", choices=("char-ne2", "char2"), default="char-ne2")
    pb.add_argument("--v0", type=int, default=0)
    pb.add_argument("--k", type=int, default=0)

    p = add("suite")
    p.add_argument("--profile", default="quick")
    p.add_argument("--mutation")
    p.add_argument("--tasks", help="fnmatch pattern restricting task ids")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    emitter = None
    try:
        field, fmt, seed, threads, out = _resolve_options(args)
        emitter = Emitter(fmt, out)
        return COMMANDS[args.command](args, emitter, field, seed, threads)
    except (CliError, FieldConfigError, lw.LemmaPreconditionError,
            BudgetExceededError, SymplecticError, zz.PlannerError,
            zz.InadmissibleRateError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if emitter is not None:
            emitter.close()


if __name__ == "__main__":
    sys.exit(main())
