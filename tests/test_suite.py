"""Suite profiles: coverage manifest, seeds, and report plumbing."""

import pytest

from sp4lab import lemma_witnesses as lw
from sp4lab import suite
from sp4lab.suite import RUNNERS, profile_tasks, run_task, task_seed


def _coverage(tasks):
    lemmas_cells = set()
    lemmas_idents = set()
    runners = set()
    for tid, runner, params in tasks:
        runners.add(runner)
        if runner == "cells":
            lemmas_cells.add((params["lemma"], params["k"] > 0))
        if runner == "identities":
            lemmas_idents.add(params["lemma"])
    return lemmas_cells, lemmas_idents, runners


@pytest.mark.parametrize("profile", ["quick", "full"])
def test_every_claim_reachable_from_some_task(profile):
    tasks = profile_tasks(profile)
    cells, idents, runners = _coverage(tasks)
    # every move lemma has a cell suite, the non-spherical ones at k > 0
    covered_lemmas = {lemma for lemma, _ in cells}
    assert covered_lemmas == set(lw.LEMMA_IDS)
    assert (lw.NONSPHER01, True) in cells
    assert (lw.NONSPHER1M1, True) in cells
    assert (lw.CHAR2_02, False) in cells
    # displayed-identity checks for all five lemma families
    assert idents == set(lw.LEMMA_IDS)
    # every other claim family has a dedicated runner in the profile
    assert {"decompose-sweep", "decompose-random", "averaging",
            "fourier-norm", "fft", "fft-rewrite", "c2", "type-constant",
            "parity", "parity-monotone", "zigzag-plan",
            "zigzag-ledger"} <= runners
    # the congruence-layer variant of the line-averaging inequality appears
    assert any(r == "fft" and p.get("k") for _, r, p in tasks)
    assert any(r == "fft" and p.get("p") not in (None, 2.0) for _, r, p in tasks)


def test_task_ids_unique_and_sorted():
    for profile in ("quick", "full"):
        tasks = profile_tasks(profile)
        ids = [t[0] for t in tasks]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))


def test_duplicate_task_id_is_an_error(monkeypatch):
    task = ("c2:Q3", "c2", {"field": "Q3"})
    monkeypatch.setitem(suite.PROFILES, "dup",
                        lambda: [task, ("averaging:S3", "averaging", {}), task])
    with pytest.raises(ValueError, match="duplicate task id 'c2:Q3'"):
        profile_tasks("dup")


def test_task_seeds_differ_by_task():
    seeds = {task_seed(42, tid) for tid in ("a", "b", "c", "cells:X")}
    assert len(seeds) == 4
    assert task_seed(42, "a") == task_seed(42, "a")
    assert task_seed(42, "a") != task_seed(43, "a")


def test_run_task_attaches_id_and_mutation():
    task = ("cells:SPHER01:Q3:3,1,k0", "cells",
            {"lemma": lw.SPHER01, "field": "Q3", "i": 3, "j": 1, "k": 0,
             "cap": 25_000})
    rep = run_task(task, 7, mutation=None)
    assert rep.task == task[0]
    assert rep.status == "pass"
    rep = run_task(task, 7, mutation="wrong-n1")
    assert rep.params["mutation"] == "wrong-n1"
    assert rep.status == "violated"


def test_all_runners_registered():
    assert set(RUNNERS) >= {"cells", "identities", "averaging", "parity"}
    for name, fn in RUNNERS.items():
        assert callable(fn), name


@pytest.mark.parametrize("eps0", [0, 3])
def test_fft_rewrite_refuses_a_vacuous_eps0(eps0):
    # at code 0 (or q) the shifted difference is the zero operator, so the
    # rewrite identity would pass on any family
    task = ("fft-rewrite:Q3:n3:k1", "fft-rewrite",
            {"field": "Q3", "n": 3, "k": 1, "trials": 3, "eps0": eps0})
    with pytest.raises(ValueError, match=f"eps0 code {eps0} is not a residue code in"):
        run_task(task, 1)
    rep = suite.run_task_reported(task, 1)
    assert rep.status == "violated"
    assert rep.cases_run == 0
    [cex] = rep.counterexamples
    assert cex["check"] == "exception" and cex["type"] == "ValueError"
