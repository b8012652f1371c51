"""Chamber walks: legality, reference templates, blocked cells, ledger decay."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sp4lab import lemma_witnesses as lw
from sp4lab import zigzag as zz


R0 = zz.Regime(zz.CHAR_NE2, v0=0)
R1 = zz.Regime(zz.CHAR_NE2, v0=1)
RC2 = zz.Regime(zz.CHAR_2)


def test_regime_named():
    assert zz.Regime.named("char-ne2", 1, 0) == R1
    assert zz.Regime.named("char2", 0, 0) == RC2
    assert zz.Regime.named("char-ne2", 0, 2) == zz.Regime(zz.CHAR_NE2, k=2)
    with pytest.raises(ValueError, match="unknown regime"):
        zz.Regime.named("char-2", 0, 0)


@pytest.mark.parametrize("v0, why", [(1, "no role in characteristic 2, got 1"),
                                     (3, "no role in characteristic 2, got 3"),
                                     (-1, "got -1")])
def test_regime_named_char2_checks_v0(v0, why):
    # the named regime passes v0 on, so the constructor's checks apply
    with pytest.raises(ValueError, match=why):
        zz.Regime.named("char2", v0, 0)


def test_reference_route_9_2():
    path = zz.plan_path((9, 2), R0)
    assert path.cells[:6] == [(9, 2), (9, 3), (9, 4), (10, 3), (10, 4), (10, 5)]
    assert path.notes["diagonal"] == [10, 5]


def test_diagonal_start_6_3():
    path = zz.plan_path((6, 3), R0)
    assert path.approach_len == 0
    assert path.notes["diagonal"] == [6, 3]
    assert path.end == (8, 4)


def test_char2_reference_route_8_3():
    path = zz.plan_path((8, 3), RC2)
    cells = path.cells
    for want in ((8, 3), (10, 1), (10, 3), (10, 5)):
        assert want in cells
    order = [cells.index(w) for w in ((8, 3), (10, 1), (10, 3), (10, 5))]
    assert order == sorted(order)
    assert all(0 <= i - 2 * j <= 8 for i, j in cells)
    assert _visits_in_order(cells, [(8, 3), (10, 1), (10, 5)])


def _visits_in_order(cells, hops):
    """Whether hops is a subsequence of cells."""
    walk = iter(cells)
    return all(hop in walk for hop in hops)


def test_char2_case_split_templates():
    # reference hop sequences for strip residues 1..4 at a roomy height; the
    # second gap-2 template never visits (2j + 4, j - 2), so the hops tell
    # the first template of each case from the second
    j = 9
    for gap, hops in ((1, [(2 * j + 1, j), (2 * j + 2, j - 1), (2 * j + 2, j + 1)]),
                      (2, [(2 * j + 2, j), (2 * j + 4, j - 2), (2 * j + 4, j + 2)]),
                      (3, [(2 * j + 3, j), (2 * j + 2, j + 1)]),
                      (4, [(2 * j + 4, j), (2 * j + 4, j + 2)])):
        path = zz.plan_path((2 * j + gap, j), RC2)
        assert _visits_in_order(path.cells, hops), gap


def _planned(regime, max_len=120):
    """Every path the planner finds from a start with i + j <= max_len."""
    for i in range(max_len + 1):
        for j in range(min(i, max_len - i) + 1):
            try:
                yield zz.plan_path((i, j), regime)
            except zz.PlannerError:
                pass


def _slide(path):
    """(entry cell, (delta, reversed_) steps) of the path's slide: the moves
    between the approach and the diagonal step."""
    stop = len(path.moves) - path.notes["tail_moves"]
    return (path.cells[path.approach_len],
            tuple((m.delta, m.reversed_) for m in path.moves[path.approach_len:stop]))


def test_char2_parity_invariant():
    # UP2 changes i + j by 2 and RIGHT by 0, and every route moves through
    # _step, so no char-2 path changes the parity of i + j
    for k in (0, 1, 2):
        paths = list(_planned(zz.Regime(zz.CHAR_2, k=k)))
        assert len(paths) > 3000
        for path in paths:
            assert len({(i + j) % 2 for i, j in path.cells}) == 1, (k, path.start)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_char2_slide_closes_its_residue_with_one_template(k):
    # the climb leaves i - 2j in 0..4, and each template of case g changes
    # it by exactly -g
    cases = set()
    for path in _planned(zz.Regime(zz.CHAR_2, k=k)):
        (i, j), steps = _slide(path)
        gap = i - 2 * j
        if gap == 0:
            assert steps == ()
        else:
            assert steps in zz.CHAR2_CASE_STEPS[gap], path.start
            cases.add(gap)
    assert cases == {1, 2, 3, 4}


@pytest.mark.parametrize("v0, k", [(0, 0), (1, 0), (0, 1), (2, 1), (0, 2)])
def test_both_lateral_offsets_iff_odd_entry_with_j_positive(v0, k):
    # an odd i enters the slide at residue 1; offset 0 is workable iff
    # j >= 1, and offset 1 always is
    noted = 0
    for path in _planned(zz.Regime(zz.CHAR_NE2, v0=v0, k=k)):
        (i, j), _ = _slide(path)
        both = path.notes.get("both_lateral_offsets", False)
        assert both == (i % 2 == 1 and j >= 1), path.start
        if i % 2:
            assert i - 2 * j == 1, path.start
        noted += both
    assert noted > 0


def test_move_legality_thresholds():
    ok, anchor, _ = zz.move_legal(R0, (5, 2), zz.UP1)
    assert ok and anchor == (5, 2)
    ok, _, why = zz.move_legal(R1, (3, 2), zz.UP1)
    assert not ok and "< 2" in why
    ok, _, why = zz.move_legal(R0, (5, 1), zz.RIGHT)
    assert not ok
    ok, anchor, _ = zz.move_legal(RC2, (7, 3), zz.RIGHT, reversed_=True)
    assert ok and anchor == (6, 4)
    k1 = zz.Regime(zz.CHAR_NE2, v0=0, k=1)
    assert not zz.move_legal(k1, (4, 3), zz.UP1)[0]   # needs i-j >= 2k+v0 = 2
    assert zz.move_legal(k1, (6, 3), zz.UP1)[0]
    assert not zz.move_legal(k1, (6, 3), zz.RIGHT)[0]  # needs j >= 2k+2 = 4


def test_move_legality_agrees_with_lemma_hypotheses(fields):
    # the planner licenses a move exactly where its lemma's witness family
    # applies, apart from anchors that leave the family no residue content
    licensed_without_content = set()
    for kind, v0, field_name in ((zz.CHAR_NE2, 0, "Q3"), (zz.CHAR_NE2, 1, "Q2"),
                                 (zz.CHAR_2, 0, "F2((t))")):
        spec = fields[field_name]
        for k in range(4):
            regime = zz.Regime(kind, v0=v0, k=k)
            for delta in (regime.up_delta(), zz.RIGHT):
                lemma = zz.move_lemma(delta, k)
                for i in range(30):
                    for j in range(-1, i + 3):
                        legal, anchor, _ = zz.move_legal(regime, (i, j), delta)
                        assert anchor == (i, j)
                        if lw.lemma_depth(lemma, spec, i, j) < 1:
                            if legal:
                                licensed_without_content.add((lemma, k, i - j))
                            continue
                        try:
                            lw.check_preconditions(lemma, spec, i, j, k)
                            accepted = True
                        except lw.LemmaPreconditionError:
                            accepted = False
                        assert legal == accepted, (regime, delta, (i, j))
    assert licensed_without_content == {(lw.SPHER01, 0, 1), (lw.CHAR2_02, 0, 2),
                                        (lw.CHAR2_02, 0, 3)}


def test_blocked_cells_exactly(fields):
    blocked = set()
    for i in range(0, 13):
        for j in range(0, i + 1):
            try:
                zz.plan_path((i, j), R0)
            except zz.PlannerError:
                blocked.add((i, j))
    assert blocked == {(0, 0), (1, 0), (1, 1)}
    blocked = set()
    for i in range(0, 13):
        for j in range(0, i + 1):
            try:
                zz.plan_path((i, j), RC2)
            except zz.PlannerError:
                blocked.add((i, j))
    assert blocked == {(0, 0), (1, 0), (1, 1), (2, 1)}


def test_blocked_cells_are_certified_unreachable():
    # BFS over all legal moves finds no diagonal-with-tail from these cells
    for cell in ((0, 0), (1, 0), (1, 1)):
        assert zz._bfs_route(R0, cell,
                             lambda c: c[0] == 2 * c[1] and zz._tail_exists(R0, c),
                             40) is None


def _plan_outcome(start, regime):
    """(path or None, everything the planner reports for start): the path's
    fields, or the blocked cell and its hypothesis."""
    try:
        path = zz.plan_path(start, regime)
    except zz.PlannerError as exc:
        return None, (exc.cell, exc.hypothesis)
    return path, (path.cells, path.moves, path.approach_len, path.notes)


def _push_each(builder, delta, count):
    for _ in range(count):
        builder.push(delta)


def test_runs_plan_as_step_by_step(monkeypatch):
    # the reference route judges every move of a run through _step and
    # builds every diagonal tail afresh
    regimes = [zz.Regime(zz.CHAR_NE2, v0=v0, k=k) for v0 in range(3) for k in range(3)]
    regimes += [zz.Regime(zz.CHAR_2, k=k) for k in range(3)]
    for regime in regimes:
        for i in range(121):
            for j in range(i + 1):
                path, got = _plan_outcome((i, j), regime)
                with monkeypatch.context() as m:
                    m.setattr(zz._Builder, "push_run", _push_each)
                    m.setattr(zz, "_tail_route", zz._tail_route.__wrapped__)
                    _, want = _plan_outcome((i, j), regime)
                assert got == want, (regime, (i, j))
                if path is not None:
                    zz.validate_path(path)


_any_regime = st.one_of(
    st.builds(lambda v0, k: zz.Regime(zz.CHAR_NE2, v0=v0, k=k),
              st.integers(0, 3), st.integers(0, 3)),
    st.builds(lambda k: zz.Regime(zz.CHAR_2, k=k), st.integers(0, 3)))


@st.composite
def _near_a_wall(draw):
    """A dominant cell within 8 of the wall j = 0 or of the wall i = j."""
    i = draw(st.integers(0, 60))
    gap = draw(st.integers(0, min(i, 8)))
    return (i, draw(st.sampled_from((gap, i - gap))))


@settings(max_examples=400, deadline=None)
@given(regime=_any_regime, cell=_near_a_wall(),
       delta=st.sampled_from((zz.UP1, zz.UP2, zz.RIGHT)),
       bounds=st.none() | st.tuples(st.integers(-1, 3), st.integers(-1, 3)))
def test_run_length_counts_step_successes(regime, cell, delta, bounds):
    # drawn bounds, lower than any lemma states, let the cone end a run
    if bounds is not None and delta in regime.bounds:
        object.__setattr__(regime, "bounds", {**regime.bounds, delta: bounds})
    steps, cur = 0, cell
    while True:
        move, cur = zz._step(regime, cur, delta, False)
        if move is None:
            break
        steps += 1
    assert zz._run_length(regime, cell, delta) == steps


@settings(max_examples=60, deadline=None)
@given(regime=_any_regime, i=st.integers(4, 80), j=st.integers(0, 80))
def test_tail_memo_shares_no_mutable_state(regime, i, j):
    # a start and its own diagonal cell share one memoised tail; writing to
    # either path changes neither the other nor a later plan
    start = (max(i, j), min(i, j))
    try:
        first = zz.plan_path(start, regime)
    except zz.PlannerError:
        assume(False)
    diag = tuple(first.notes["diagonal"])
    second = zz.plan_path(diag, regime)
    assert second.notes["diagonal"] == list(diag)
    tail = first.notes["tail_moves"]
    assert second.moves[-tail:] == first.moves[-tail:]
    want = [(list(p.cells), list(p.moves)) for p in (first, second)]
    first.cells.append((-1, -1))
    first.moves[-1] = None
    assert (second.cells, second.moves) == want[1]
    second.cells.append((-1, -1))
    second.moves[-1] = None
    for start, (cells, moves) in zip((start, diag), want):
        again = zz.plan_path(start, regime)
        assert (again.cells, again.moves) == (cells, moves)


def test_validate_rejects_tampered_path():
    path = zz.plan_path((9, 2), R0)
    path.cells[1] = (9, 9)
    with pytest.raises(AssertionError):
        zz.validate_path(path)


def test_single_move_exponent_example():
    mv = zz.Move(zz.UP1, (9, 4))
    expo = zz.move_exponent(mv, Fraction("0.7"), 1, Fraction("0.1"), 0)
    assert expo == Fraction("-5.2")


def test_ledger_rates_and_admissibility():
    path = zz.plan_path((12, 3), R0)
    res = zz.bound_ledger(path, Fraction("0.7"), 1, Fraction("0.1"))
    assert res["rate"] == Fraction(7, 10) - Fraction(2, 10)
    with pytest.raises(zz.InadmissibleRateError):
        zz.bound_ledger(path, Fraction("0.4"), 1, Fraction("0.3"))
    path2 = zz.plan_path((12, 3), RC2)
    res2 = zz.bound_ledger(path2, Fraction("0.7"), 1, Fraction("0.08"))
    assert res2["rate"] == Fraction(7, 20) - Fraction(16, 100)
    with pytest.raises(zz.InadmissibleRateError):
        zz.bound_ledger(path2, Fraction("0.7"), 1, Fraction("0.2"))
    assert zz.beta_limit(R0, Fraction("0.7"), 2) == Fraction(7, 40)
    assert zz.beta_limit(RC2, Fraction("0.7"), 2) == Fraction(7, 80)
    with pytest.raises(zz.InadmissibleRateError):  # the limit itself is excluded
        zz.bound_ledger(path2, Fraction("0.7"), 1, zz.beta_limit(RC2, Fraction("0.7"), 1))


def test_ledger_diagonal_start_geometric_tail():
    sup = None
    prev_ratio = None
    for j in range(4, 30, 2):
        path = zz.plan_path((2 * j, j), R0)
        res = zz.bound_ledger(path, Fraction("0.7"), 1, Fraction("0.05"))
        ratio = res["total"] / res["closed_form"]
        if prev_ratio is not None:
            assert ratio <= prev_ratio * (1 + 1e-9)
        prev_ratio = ratio
        assert ratio < 10


def test_ledger_totals_monotone_in_start():
    for regime in (R0, RC2):
        prev = None
        for i in range(10, 60, 2):
            path = zz.plan_path((i, 0), regime)
            res = zz.bound_ledger(path, Fraction("0.7"), 1, Fraction("0.05"))
            if prev is not None:
                assert res["total"] <= prev * (1 + 1e-12)
            prev = res["total"]


def test_ledger_sweep_finite():
    [res] = zz.ledger_sweep(R0, [(Fraction("0.7"), 1, Fraction("0.1"), 0)], max_length=80)
    assert res["sup_constant"] < float("inf")
    assert res["sup_constant"] > 0


def test_ledger_sweep_checks_rates_at_entry():
    alpha = Fraction(7, 10)
    for regime in (R0, RC2):
        limit = zz.beta_limit(regime, alpha, 1)
        for beta in (limit, 2 * limit):
            with pytest.raises(zz.InadmissibleRateError):
                zz.ledger_sweep(regime, [(alpha, 1, beta, 0)], max_length=20)
        with pytest.raises(zz.InadmissibleRateError):  # even with no start to plan
            zz.ledger_sweep(regime, [(alpha, 1, limit, 0)], max_length=1)


def _reference_ledger(path, alpha, h, beta, c):
    """The ledger recomputed in Fraction arithmetic, one exponent at a time."""
    regime = path.regime
    exps = [zz.move_exponent(mv, alpha, h, beta, c) for mv in path.moves]
    values = [math.exp(float(e)) for e in exps]
    rate = zz.decay_rate(regime, alpha, h, beta)
    dj = regime.up_delta()[1]
    jd = path.diagonal_cell()[1]
    step = math.exp(float(-2 * dj * rate))
    tail = math.exp(float(2 * c - 2 * rate * (jd + dj))) / (1.0 - step)
    closed = math.exp(float(2 * c - rate * path.start[0]))
    total = sum(values)
    # an underflowed closed form has no implied constant
    implied = (total + tail) / closed if closed else None
    return exps, values, {"path_total": total, "tail_sum": tail, "closed_form": closed,
                          "implied_constant": implied, "rate": rate}


def _underflow_message(regime, alpha, h, beta, c, start):
    exponent = 2 * c - zz.decay_rate(regime, alpha, h, beta) * start[0]
    return re.escape(f"closed form exp({exponent}) underflows to 0.0 at start {start}")


_regimes = st.one_of(
    st.builds(lambda v0, k: zz.Regime(zz.CHAR_NE2, v0=v0, k=k),
              st.integers(0, 2), st.integers(0, 1)),
    st.builds(lambda k: zz.Regime(zz.CHAR_2, k=k), st.integers(0, 1)))
_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 36))


@settings(max_examples=60, deadline=None)
@given(regime=_regimes, h=st.integers(1, 4),
       alpha=st.builds(Fraction, st.integers(1, 40), st.integers(1, 36)),
       beta_frac=st.builds(Fraction, st.integers(0, 35), st.just(36)),
       c=_fractions, i=st.integers(2, 70), j=st.integers(0, 70),
       max_length=st.integers(2, 30), stride=st.integers(1, 9))
# exp(-760) underflows at the start (19, 0) and at the sweep's starts from i = 19
@example(regime=zz.Regime(zz.CHAR_NE2, v0=0, k=0), h=1, alpha=Fraction(40),
         beta_frac=Fraction(0), c=Fraction(0), i=19, j=0, max_length=30, stride=1)
def test_ledger_matches_fraction_route(regime, h, alpha, beta_frac, c, i, j,
                                       max_length, stride):
    # the integer forms reproduce the Fraction route bit for bit
    beta = zz.beta_limit(regime, alpha, h) * beta_frac
    try:
        path = zz.plan_path((max(i, j), min(i, j)), regime)
    except zz.PlannerError:
        assume(False)
    exps, values, ref = _reference_ledger(path, alpha, h, beta, c)
    if ref["closed_form"] == 0.0:
        # exactly where the Fraction route's closed form underflows
        with pytest.raises(zz.LedgerUnderflowError,
                           match=_underflow_message(regime, alpha, h, beta, c, path.start)):
            zz.bound_ledger(path, alpha, h, beta, c)
    else:
        res = zz.bound_ledger(path, alpha, h, beta, c)
        assert [r["exponent"] for r in res["rows"]] == [str(e) for e in exps]
        assert [r["value"] for r in res["rows"]] == values
        for key, want in ref.items():
            assert res[key] == want, key
    # the sweep's supremum is the maximum of the reference over its grid, and
    # the sweep stops at the first start whose reference closed form underflows
    sup, worst, underflow, planned = 0.0, None, None, False
    for si in range(2, max_length + 1):
        for sj in range(0, min(si, max_length - si) + 1, stride):
            try:
                p = zz.plan_path((si, sj), regime)
            except zz.PlannerError:
                continue
            planned = True
            implied = _reference_ledger(p, alpha, h, beta, c)[2]["implied_constant"]
            if implied is None:
                underflow = (si, sj)
                break
            if implied > sup:
                sup, worst = implied, (si, sj)
        if underflow:
            break
    rates = [(alpha, h, beta, c)]
    if underflow:
        with pytest.raises(zz.LedgerUnderflowError,
                           match=_underflow_message(regime, alpha, h, beta, c, underflow)):
            zz.ledger_sweep(regime, rates, max_length=max_length, stride=stride)
        return
    if not planned:
        # a supremum over no start would check nothing
        with pytest.raises(ValueError, match=f"no start on grid {max_length}"):
            zz.ledger_sweep(regime, rates, max_length=max_length, stride=stride)
        return
    [sweep] = zz.ledger_sweep(regime, rates, max_length=max_length, stride=stride)
    assert (sweep["sup_constant"], sweep["worst_start"]) == (sup, worst)
    assert sweep["rate"] == str(ref["rate"])


def test_reachability_far_from_walls():
    # the move set connects any two roomy cells through the diagonal
    for start in ((17, 5), (23, 11), (40, 7)):
        path = zz.plan_path(start, R0)
        assert path.notes["diagonal"][0] == 2 * path.notes["diagonal"][1]


def test_index_two_sublattice_in_char2():
    # (0,2) and (1,-1) both preserve i+j mod 2, so half the cells are
    # unreachable from any fixed start: verified on a bounded cone
    reach = {(8, 4)}
    frontier = [(8, 4)]
    while frontier:
        cell = frontier.pop()
        for nxt, _ in zz._neighbors(RC2, cell):
            if nxt[0] <= 40 and nxt not in reach:
                reach.add(nxt)
                frontier.append(nxt)
    assert all((i + j) % 2 == 0 for i, j in reach)
    cone = {(i, j) for i in range(41) for j in range(i + 1)}
    evens = {c for c in cone if sum(c) % 2 == 0}
    # every roomy even cell is reached; only wall cells may be missed
    missed = {c for c in evens - reach if c[0] - c[1] >= 6 and c[1] >= 4}
    assert not missed
