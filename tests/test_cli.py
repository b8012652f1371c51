"""Command-line surface: exit codes, determinism, config precedence."""

import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "sp4lab.cli"]
DATA = pathlib.Path(__file__).parent / "data"


def run(*args, env_extra=None, stdin=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=env, input=stdin)


def jsonl(text):
    return [json.loads(line) for line in text.strip().splitlines() if line]


def test_field_info_and_usage_errors():
    res = run("field-info", "--field", "F4((t))")
    assert res.returncode == 0
    assert json.loads(res.stdout)["q"] == 4
    res = run("field-info", "--field", "Q4")
    assert res.returncode == 2
    res = run("suite", "--profile", "nonexistent")
    assert res.returncode == 2
    res = run("suite", "--profile", "quick", "--mutation", "bogus")
    assert res.returncode == 2
    res = run("no-such-command")
    assert res.returncode == 2


def test_cartan_roundtrip_via_stdin():
    mat = json.dumps([["1", "0", "0", "0"], ["0", "1", "0", "0"],
                      ["0", "0", "1", "0"], ["0", "0", "0", "1"]])
    res = run("cartan", "--field", "Q3", "--matrix", "-", stdin=mat)
    assert res.returncode == 0
    assert json.loads(res.stdout)["cell"] == [0, 0]
    bad = json.dumps([["1", "0", "0", "0"], ["0", "1", "0", "0"],
                      ["0", "0", "1", "0"], ["0", "0", "0", "3"]])
    res = run("cartan", "--field", "Q3", "--matrix", "-", stdin=bad)
    assert res.returncode == 2
    assert "not symplectic" in res.stderr


def test_witness_command():
    res = run("witness", "--field", "Q3", "--lemma", "SPHER01",
              "--i", "3", "--j", "1", "--eps", "1")
    assert res.returncode == 0
    dump = json.loads(res.stdout)
    assert dump["expected_cell"] == [3, 2] == dump["observed_cell"]
    res = run("witness", "--field", "Q2", "--lemma", "SPHER01",
              "--i", "2", "--j", "1")
    assert res.returncode == 2
    # --eps is a residue code in [0, q)
    for field, lemma, i, j, eps in (("Q3", "SPHER01", "3", "1", "3"),
                                    ("F4((t))", "SPHER1M1", "4", "3", "5")):
        res = run("witness", "--field", field, "--lemma", lemma,
                  "--i", i, "--j", j, "--eps", eps)
        assert res.returncode == 2
        assert "not a residue code" in res.stderr


def test_witness_names_the_failed_hypothesis():
    # the residues are read at the lemma's depth only once its cell
    # hypotheses hold, so the error names the hypothesis that failed
    for lemma, i, j, message in (("SPHER01", "1", "0", "residue depth 0 < 1"),
                                 ("SPHER1M1", "3", "0", "SPHER1M1: j = 0 < 2")):
        res = run("witness", "--field", "Q3", "--lemma", lemma,
                  "--i", i, "--j", j)
        assert res.returncode == 2
        assert message in res.stderr
        assert "residue level" not in res.stderr


def _capped(nbytes):
    """preexec_fn capping the child's address space, so an enumeration that
    outgrows it fails with MemoryError instead of exhausting the host."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (nbytes, nbytes))
    return cap


def test_over_budget_sweep_exits_before_building_domains():
    # 5^12 residues per domain at depth 12: too many to build under the cap
    res = subprocess.run(
        CLI + ["verify", "SPHER01", "--field", "Q5", "--i", "12", "--j", "0"],
        capture_output=True, text=True, preexec_fn=_capped(512 << 20))
    assert res.returncode == 2, res.stderr[-400:]
    assert "exceed the enumeration budget" in res.stderr
    res = subprocess.run(
        [sys.executable, "-c",
         "from sp4lab.exactfield import parse_field\n"
         "from sp4lab.verifiers.cells import case_count\n"
         "print(case_count('SPHER01', parse_field('Q5'), 12, 0, 0))"],
        capture_output=True, text=True, preexec_fn=_capped(512 << 20))
    assert res.returncode == 0, res.stderr[-400:]
    assert int(res.stdout) == 5 ** 37


def test_sampled_sweep_builds_no_domain():
    # 5^12 and 4^12 residues per domain: each draw is decoded from its index
    for lemma, field, i, j in (("SPHER01", "Q5", "12", "0"),
                               ("SPHER1M1", "F4((t))", "13", "13")):
        res = subprocess.run(
            CLI + ["verify", lemma, "--field", field, "--i", i, "--j", j,
                   "--mode", "sample", "--n", "10"],
            capture_output=True, text=True, preexec_fn=_capped(512 << 20))
        assert res.returncode == 0, res.stderr[-400:]
        assert jsonl(res.stdout)[0]["cases_run"] == 10
    # a domain of 5^60 classes is too long for len(): a usage error, not a crash
    res = run("verify", "SPHER01", "--field", "Q5", "--i", "60", "--j", "0",
              "--mode", "sample", "--n", "10")
    assert res.returncode == 2, res.stderr[-400:]
    assert "too long to index" in res.stderr


def test_verify_command_exit_codes():
    res = run("verify", "SPHER01", "--field", "Q3", "--i", "3", "--j", "1")
    assert res.returncode == 0
    assert jsonl(res.stdout)[0]["status"] == "pass"
    res = run("verify", "SPHER01", "--field", "Q3", "--i", "3", "--j", "1",
              "--checks", "identities", "--n", "60",
              "--mutation", "minor-row-pair")
    assert res.returncode == 1
    assert jsonl(res.stdout)[0]["status"] == "violated"


@pytest.mark.parametrize("args", [
    ["verify", "SPHER01", "--field", "Q3", "--i", "3", "--j", "1",
     "--mode", "sample", "--n", "0"],
    ["verify", "SPHER01", "--field", "Q3", "--i", "3", "--j", "1",
     "--checks", "identities", "--n", "-3"],
    ["fft-check", "--field", "Q2", "--h", "1", "--n", "2", "--space", "l1.5:2",
     "--trials", "0"],
    ["parity", "--field", "F2((t))", "--depth", "2", "--mode", "sample", "--n", "0"],
    # the exhaustive cell sweep needs no count, but the identities do
    ["verify", "SPHER01", "--field", "Q3", "--i", "3", "--j", "1",
     "--checks", "both", "--n", "-3"],
    # --trials 0 still scores the structured families; -2 scored none
    ["type-const", "--space", "l2:4", "--p", "2", "--n-vectors", "0"],
    ["type-const", "--space", "l2:4", "--p", "2", "--trials", "-2"],
])
def test_sample_size_below_one_is_a_usage_error(args):
    # a sample of no draws would check nothing and pass vacuously
    _assert_usage_error(args)


# rejected by argparse itself; args[-2] is the flag its error names
ARGPARSE_ERRORS = [
    # g comes from --d or from --matrix, not both: --d won unread
    ["parity", "--field", "F2((t))", "--depth", "1", "--d", "1,0",
     "--matrix", "not json"],
    # a cell is 'i,j'; these failed to unpack, naming no flag
    ["parity", "--field", "F2((t))", "--depth", "1", "--d", "1"],
    ["zigzag", "plan", "--start", "9"],
    ["zigzag", "plan", "--start", "9,2,1"],
    ["zigzag", "bound", "--alpha", "7/10", "--start", "9,x"],
    # a rate is a Fraction; these reached Fraction() unnamed
    ["zigzag", "bound", "--alpha", "abc"],
    ["zigzag", "bound", "--alpha", "7/10", "--start", "9,2", "--beta", "x"],
    ["zigzag", "bound", "--alpha", "7/10", "--start", "9,2", "--C", "1e"],
]


@pytest.mark.parametrize("args", [
    # the decay rate is n / h; h < 1 crashed or reported `violated`
    ["fft-check", "--field", "Q2", "--n", "2", "--h", "0"],
    ["fft-check", "--field", "Q2", "--n", "2", "--h", "-1"],
    # no start on the grid: a sup over nothing read 0.0
    ["zigzag", "bound", "--alpha", "0.7", "--grid", "1"],
    # v(2) >= 0 in every local field
    ["zigzag", "plan", "--start", "9,2", "--v0", "-1"],
    # and in characteristic 2 it is 0: the char2 regime read no v0
    ["zigzag", "plan", "--start", "9,2", "--regime", "char2", "--v0", "-1"],
    ["zigzag", "bound", "--alpha", "7/10", "--grid", "30", "--regime", "char2",
     "--v0", "3"],
    # the transform on O/pi^h needs h >= 1, and the error names h
    ["fourier-norm", "--field", "Q2", "--space", "l2:2", "--h", "0"],
    ["fourier-norm", "--field", "Q2", "--space", "l1.5:2", "--h", "-1"],
    *ARGPARSE_ERRORS,
    # the line operator lives on O/pi^n, and the error names n
    ["fft-check", "--field", "Q2", "--h", "1", "--n", "0"],
])
def test_input_outside_the_claims_domain_is_a_usage_error(args):
    if args in ARGPARSE_ERRORS:
        # argparse prints its usage, then an error line that names the flag
        res = run(*args)
        assert res.returncode == 2, res.stderr[-400:]
        assert res.stdout == ""
        assert f"error: argument {args[-2]}: " in res.stderr.splitlines()[-1]
        assert "Traceback" not in res.stderr
    else:
        _assert_usage_error(args)


def _assert_usage_error(args, names=None, env_extra=None):
    """args exit 2 with one error line naming names (default: the last arg)."""
    res = run(*args, env_extra=env_extra)
    assert res.returncode == 2, res.stderr[-400:]
    assert res.stdout == ""
    assert res.stderr.startswith("error:")
    assert (args[-1] if names is None else names) in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("config, env, names", [
    (None, {"SP4LAB_THREADS": "abc"}, "SP4LAB_THREADS"),
    ("seed=x", None, "config key 'seed'"),
    ("threads=2.5", None, "config key 'threads'"),
])
def test_malformed_number_outside_argparse_names_its_source(tmp_path, config, env,
                                                           names):
    # these reached int() and printed only its message
    args = ["field-info"]
    if config is not None:
        path = tmp_path / "sp4lab.conf"
        path.write_text(config + "\n")
        args += ["--config", str(path)]
    _assert_usage_error(args, names=names, env_extra=env)


def test_decompose_command():
    mat = json.dumps([["1", "0", "0", "0"], ["0", "1", "0", "0"],
                      ["0", "0", "1", "0"], ["3", "0", "0", "1"]])
    res = run("decompose", "--field", "Q3", "--matrix", mat)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["block_count"] == 2
    assert [f["tag"] for f in out["factors"]] == ["K1", "K2", "K1"]


def test_zigzag_commands():
    res = run("zigzag", "plan", "--start", "9,2")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["cells"][:3] == [[9, 2], [9, 3], [9, 4]]
    res = run("zigzag", "bound", "--alpha", "0.7", "--beta", "0.1",
              "--start", "12,3")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["rate"] == "1/2"
    res = run("zigzag", "bound", "--alpha", "0.4", "--beta", "0.3",
              "--start", "12,3")
    assert res.returncode == 2  # inadmissible rates


@pytest.mark.parametrize("args", [["--start", "19,0"], ["--grid", "40"]])
def test_zigzag_bound_underflow_is_a_usage_error(args):
    # exp(2c - rate * i_start) = exp(-760) is 0.0 in floating point
    res = run("zigzag", "bound", "--alpha", "40", "--beta", "0", *args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == ("error: closed form exp(-760) underflows to 0.0 "
                          "at start (19, 0)\n")


@pytest.mark.parametrize("golden, args", [
    ("zigzag_bound_40_7.jsonl", ["--start", "40,7"]),
    ("zigzag_bound_sweep_grid40.jsonl", ["--grid", "40"]),
])
def test_zigzag_bound_output_pinned(golden, args):
    # one ledger with its rows and one sweep, both with C != 0, byte for byte
    res = run("zigzag", "bound", "--alpha", "7/10", "--beta", "1/10", "--C", "1/3", *args)
    assert res.returncode == 0, res.stderr
    assert res.stdout == (DATA / golden).read_text()


def test_parity_and_fourier_commands():
    res = run("parity", "--field", "F2((t))", "--depth", "1")
    assert res.returncode == 0
    assert json.loads(res.stdout)["status"] == "pass"
    res = run("parity", "--field", "Q3", "--depth", "1")
    assert res.returncode == 2
    res = run("fourier-norm", "--field", "Q2", "--h", "1", "--space", "l2:1")
    assert res.returncode == 0
    assert json.loads(res.stdout)["lower"] == pytest.approx(2 ** -0.5)
    res = run("fft-check", "--field", "Q2", "--h", "1", "--n", "2")
    assert res.returncode == 0
    # --eps0 is a nonzero residue code in [1, q)
    for field, eps0 in (("Q3", "0"), ("Q3", "3"), ("Q3", "4"), ("F4((t))", "7")):
        res = run("fft-check", "--field", field, "--h", "1", "--n", "3", "--k", "1",
                  "--eps0", eps0)
        assert res.returncode == 2, (field, eps0)
        assert res.stderr.startswith("error:") and "not a residue code" in res.stderr
    res = run("type-const", "--space", "l2:4", "--p", "2.0", "--trials", "5")
    assert res.returncode == 0
    res = run("type-const", "--space", "l2:4", "--p", "0.5")
    assert res.returncode == 2


def test_fft_check_strategy_follows_the_space():
    res = run("fft-check", "--field", "Q2", "--h", "1", "--n", "2")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["params"]["strategy"] == "exhaustive" and rep["cases_run"] == 1
    args = ("fft-check", "--field", "Q2", "--h", "1", "--n", "2",
            "--space", "l1.5:2", "--trials", "100")
    res = run(*args)
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["params"]["strategy"] == "random" and rep["cases_run"] == 125
    res = run(*args, "--strategy", "exhaustive")
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and "Hilbert" in res.stderr


def test_unknown_config_key_is_a_usage_error(tmp_path):
    for line in ("feild=Q5", "thread=2"):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"seed=3\n{line}\n")
        res = run("field-info", "--config", str(conf))
        assert res.returncode == 2, line
        assert res.stdout == ""
        key = line.split("=")[0]
        assert f"unknown config key {key!r}" in res.stderr
        assert "field, format, out, seed, threads" in res.stderr


def test_config_file_and_env_precedence(tmp_path):
    conf = tmp_path / "sp4lab.conf"
    conf.write_text("field=Q5\nformat=json\nseed=9\n")
    res = run("field-info", "--config", str(conf))
    assert json.loads(res.stdout)["field"] == "Q5"
    # flags override config
    res = run("field-info", "--config", str(conf), "--field", "Q2")
    assert json.loads(res.stdout)["field"] == "Q2"
    # env threads accepted
    res = run("suite", "--profile", "quick", "--tasks", "averaging:*",
              env_extra={"SP4LAB_THREADS": "2"})
    assert res.returncode == 0


def test_text_format_renders_lines():
    res = run("verify", "SPHER01", "--field", "Q3", "--i", "3", "--j", "1",
              "--format", "text")
    assert res.returncode == 0
    assert res.stdout.startswith("[PASS")


def test_out_file(tmp_path):
    out = tmp_path / "rep.jsonl"
    res = run("verify", "SPHER01", "--field", "Q3", "--i", "3", "--j", "1",
              "--out", str(out))
    assert res.returncode == 0
    assert jsonl(out.read_text())[0]["status"] == "pass"


def test_suite_subset_deterministic_and_thread_invariant():
    pattern = "fft*"
    base = run("suite", "--profile", "quick", "--seed", "5", "--tasks", pattern)
    again = run("suite", "--profile", "quick", "--seed", "5", "--tasks", pattern)
    threaded = run("suite", "--profile", "quick", "--seed", "5",
                   "--tasks", pattern, "--threads", "2")

    def strip(text):
        rows = []
        for d in jsonl(text):
            d.pop("elapsed_ms", None)
            rows.append(json.dumps(d, sort_keys=True))
        return rows

    assert strip(base.stdout) == strip(again.stdout) == strip(threaded.stdout)
    assert base.returncode == 0


def test_worker_count_below_one_is_a_usage_error(monkeypatch, tmp_path):
    from sp4lab import cli

    out = str(tmp_path / "rep.jsonl")
    args = ["suite", "--profile", "quick", "--tasks", "c2:Q3", "--out", out]
    assert cli.main(args + ["--threads", "0"]) == 2
    assert cli.main(args + ["--threads", "-3"]) == 2
    conf = tmp_path / "sp4lab.conf"
    conf.write_text("threads=0\n")
    assert cli.main(args + ["--config", str(conf)]) == 2
    monkeypatch.setenv("SP4LAB_THREADS", "0")
    assert cli.main(args) == 2
    assert cli.main(args + ["--threads", "1"]) == 0


def test_suite_starts_no_more_workers_than_tasks(monkeypatch, tmp_path):
    import multiprocessing

    from sp4lab import cli

    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args, chunksize=None):
            return [fn(*a) for a in args]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    out = tmp_path / "rep.jsonl"
    code = cli.main(["suite", "--profile", "quick", "--tasks", "c2:*",
                     "--threads", "8", "--out", str(out)])
    assert code == 0
    assert sizes == [2]
    assert [r["task"] for r in jsonl(out.read_text())[:-1]] == ["c2:F4((t))", "c2:Q3"]
    # a single selected task runs in the calling process
    assert cli.main(["suite", "--profile", "quick", "--tasks", "c2:Q3",
                     "--threads", "8", "--out", str(out)]) == 0
    assert sizes == [2]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_suite_reports_a_raising_task_as_violated(monkeypatch, tmp_path, threads):
    from sp4lab import cli, suite

    def boom(params, seed, mutation):
        raise ValueError("injected fault")

    monkeypatch.setitem(suite.RUNNERS, "c2", boom)
    out = tmp_path / "rep.jsonl"
    code = cli.main(["suite", "--profile", "quick", "--seed", "3", "--tasks", "[ac][v2]*",
                     "--threads", threads, "--out", str(out)])
    assert code == 1
    rows = jsonl(out.read_text())
    summary = rows.pop()
    assert summary["summary"] == {"pass": 2, "violated": 2, "undecided": 0}
    assert summary["status"] == "violated"
    assert [(r["task"], r["status"]) for r in rows] == [
        ("averaging:D4", "pass"), ("averaging:S3", "pass"),
        ("c2:F4((t))", "violated"), ("c2:Q3", "violated")]
    for r in rows[2:]:
        assert r["cases_run"] == 0
        assert r["counterexamples"] == [
            {"check": "exception", "type": "ValueError", "detail": "injected fault"}]
    # a usage error is still a usage error
    assert cli.main(["suite", "--profile", "nonexistent", "--out", str(out)]) == 2
