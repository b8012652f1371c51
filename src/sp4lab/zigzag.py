"""Weyl-chamber combinatorics: move legality, path planning, bound ledger.

Cells live in the dominant cone {i >= j >= 0}.  A path is a chain of
elementary moves, each licensed by one of the move lemmas at an anchor
cell: the (0,1) and (0,2) moves anchor at their lower cell, the (1,-1)
move anchors at the cell with the smaller first coordinate (so it may
be traversed in either direction).  The planner follows the reference
route: climb into the strip 0 <= i - 2j <= 3, slide to the diagonal
i = 2j inside the wider strip, then append one composite diagonal step;
the bound ledger turns each move into an exponential decay term and
compares the summed path weight, plus the closed-form geometric tail,
against the claimed aggregate decay.

A move is legal when its anchor meets the hypotheses of its lemma: the
least i - j and the least j that ``lemma_witnesses.anchor_bounds``
states, which each ``Regime`` reads once.  ``move_legal`` is the one
statement of that rule and ``_step`` the planner's legality gate.  A
straight run of identical forward moves is judged in closed form
(``_run_length``): its anchors are its source cells, so each hypothesis
and cone inequality is affine in the step index.  When a run is cut
short, its first illegal move still goes through ``_step``, which words
the ``PlannerError``.  Each planned move is judged once: templates are
tried by pushing with rollback, and the moves of a route found by
search are adopted as they were judged.  The composite diagonal step
depends only on (regime, diagonal cell), so it is built once and shared
as a tuple of (move, cell) pairs.  ``validate_path`` re-checks a
finished path from scratch, independently of the planner.

Three facts of the route are proved here once instead of checked per
path.  A cut-short climb or slide raises ``PlannerError`` and sends the
start to the search, so each argument starts from a climb that ran in
full.  Write r = i - 2j for the strip residue: RIGHT adds 3 to it, a
reversed RIGHT subtracts 3, UP1 subtracts 2 and UP2 subtracts 4.

- Parity (char 2).  UP2 changes i + j by 2 and RIGHT by 0, either way
  round, and templates, searches and the diagonal step all move through
  ``_step``.  So i + j keeps its parity along every char-2 path.
- The char-2 slide.  ``_climb_to_strip`` leaves r in 0..4: ceil(-r/3)
  RIGHT moves take a negative r into 0..2, and (r - 1) // 4 UP2 moves
  take r >= 1 into 1..4.  Every template of case g in
  ``CHAR2_CASE_STEPS`` changes r by exactly -g, so the first legal one
  lands on the diagonal; which one ran shows in the path's cells.
- The lateral offset (char != 2).  The climb leaves r in 0..2, or r = i
  mod 2 after its UP1 moves, and i and r have the same parity, so an
  odd i enters the slide at r = 1.  Offset 0 moves RIGHT at once, to
  (i + 1, j - 1) at r = 4, which is in the cone iff j >= 1; offset 1
  climbs once first, to (i + 1, j) at r = 2, always in the cone.  Both
  lie in the wide strip 0 <= r <= 4, so the slide takes offset 0 when
  j >= 1 and offset 1 otherwise, and notes ``both_lateral_offsets``
  exactly when j >= 1.  An even i enters at r = 0 or 2 and climbs r / 2.

So every slide ends on the diagonal i = 2j, as every search route does
by its goal, and no path needs its diagonal cell checked.

The ledger's exponents are exact rationals, evaluated as integers.
``move_exponent`` states the per-move rule once, in Fractions; it is
affine in the anchor (i, j), with coefficients fixed by the move delta
and the rates (alpha, h, beta, c).  ``_ScaledLedger`` picks one common
denominator D per ledger or sweep, reads each delta's integer form
D * exponent = a i + b j + e off the rule at three anchors, and takes
the tail's first term and ratio and the closed form from
``decay_rate``; a coefficient that is not integral after scaling
raises instead of being truncated.  An exponent then costs two integer
products, and its float is n / D.  ``_ScaledLedger.evaluate`` is the
one evaluation of a path, for ``bound_ledger`` and ``ledger_sweep``
alike.  CPython divides ints with correct rounding, and
``float(Fraction(n, D))`` is the same quotient of the same rational in
lowest terms, so every float the ledger exponentiates is bit for bit
the float of the Fraction route.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from sp4lab import lemma_witnesses as lw

UP1 = (0, 1)
RIGHT = (1, -1)
UP2 = (0, 2)

CHAR_NE2 = "char-ne2"
CHAR_2 = "char-2"


class PlannerError(ValueError):
    """No legal move sequence exists from the requested start cell."""

    def __init__(self, cell, hypothesis):
        self.cell = cell
        self.hypothesis = hypothesis
        super().__init__(f"blocked at {cell}: {hypothesis}")


def move_lemma(delta, k):
    """The lemma that licenses a move with this delta at congruence level k."""
    if delta == UP1:
        return lw.SPHER01 if k == 0 else lw.NONSPHER01
    if delta == UP2:
        return lw.CHAR2_02
    return lw.SPHER1M1 if k == 0 else lw.NONSPHER1M1


@dataclass(frozen=True)
class Regime:
    """Move-legality context: characteristic branch, valuation of 2, level."""

    kind: str
    v0: int = 0
    k: int = 0
    # delta -> (least i - j, least j) at the anchor of a legal move
    bounds: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (CHAR_NE2, CHAR_2):
            raise ValueError(f"unknown regime kind {self.kind!r}")
        if self.v0 < 0:
            raise ValueError(f"v0 = v(2) is >= 0 in every local field, got {self.v0}")
        if self.kind == CHAR_2 and self.v0 != 0:
            raise ValueError(f"v0 plays no role in characteristic 2, got {self.v0}")
        if self.k < 0:
            raise ValueError("congruence level must be >= 0")
        object.__setattr__(self, "bounds", {
            delta: lw.anchor_bounds(move_lemma(delta, self.k), self.k, self.v0)
            for delta in (self.up_delta(), RIGHT)})

    @classmethod
    def named(cls, name, v0, k):
        """The regime a suite or CLI names, "char2" or "char-ne2", with
        2-valuation v0 (which must be 0 in characteristic 2)."""
        if name == "char2":
            return cls(CHAR_2, v0=v0, k=k)
        if name == "char-ne2":
            return cls(CHAR_NE2, v0=v0, k=k)
        raise ValueError(f"unknown regime name {name!r}")

    def up_delta(self):
        return UP2 if self.kind == CHAR_2 else UP1


class Move(NamedTuple):
    delta: tuple
    anchor: tuple
    reversed_: bool = False

    def lemma(self, regime):
        return move_lemma(self.delta, regime.k)


# Move from a (delta, anchor, reversed_) tuple, built in C: a planner run
# makes one per step, and NamedTuple's own __new__ is a Python call
_NEW_MOVE = functools.partial(tuple.__new__, Move)


@dataclass
class ZigzagPath:
    """A planned path: cells[n] -> cells[n + 1] is moves[n].

    The first ``approach_len`` moves reach the diagonal, and the last
    ``notes["tail_moves"]`` are the composite diagonal step.  ``notes``
    also holds the diagonal cell, whether a search replaced a template
    (``bfs_fallback``) and, when a char != 2 slide enters at an odd i
    with j >= 1, so that both lateral offsets enter the wide strip,
    ``both_lateral_offsets``.
    """

    start: tuple
    regime: Regime
    cells: list
    moves: list
    approach_len: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def end(self):
        return self.cells[-1]

    def diagonal_cell(self):
        """Last cell before the appended diagonal composite step."""
        idx = len(self.cells) - 1 - self.notes.get("tail_moves", 0)
        return self.cells[idx]


def in_cone(cell):
    i, j = cell
    return i >= j >= 0


def move_legal(regime, src, delta, reversed_=False):
    """(ok, anchor, reason); legality is judged at the move's anchor cell."""
    i, j = src
    if delta in (UP1, UP2):
        anchor = (i, j - delta[1]) if reversed_ else src
        if delta == UP1 and regime.kind == CHAR_2:
            return False, anchor, "(0,1) moves need characteristic != 2"
        if delta == UP2 and regime.kind != CHAR_2:
            return False, anchor, "(0,2) moves need characteristic 2"
    elif delta == RIGHT:
        anchor = src if not reversed_ else (i - 1, j + 1)
    else:
        raise ValueError(f"unknown move delta {delta!r}")
    ai, aj = anchor
    least_diff, least_j = regime.bounds[delta]
    if aj < least_j:
        return False, anchor, f"j = {aj} < {least_j}"
    if ai - aj < least_diff:
        return False, anchor, f"i-j = {ai - aj} < {least_diff}"
    return True, anchor, ""


def apply_move(cell, delta, reversed_=False):
    i, j = cell
    if reversed_:
        return (i - delta[0], j - delta[1])
    return (i + delta[0], j + delta[1])


def _step(regime, cell, delta, reversed_):
    """(move, next cell) of a legal move that stays in the dominant cone,
    else (None, the failed hypothesis)."""
    ok, anchor, reason = move_legal(regime, cell, delta, reversed_)
    if not ok:
        return None, reason
    nxt = apply_move(cell, delta, reversed_)
    if not in_cone(nxt):
        return None, f"target {nxt} leaves the dominant cone"
    return Move(delta, anchor, reversed_), nxt


def _run_length(regime, cell, delta):
    """How many forward moves of delta in a row ``_step`` licenses from cell.

    A forward move anchors at its source, so at step t of the run the
    anchor's j and i - j, and the target's j and i - j, are each affine
    in t: a + b t >= 0 holds for every t up to a // -b when b < 0, for no
    t when a < 0, and for all t otherwise.  The run ends at the first
    inequality that fails.
    """
    if delta not in regime.bounds:
        return 0  # the other characteristic's up-move: never licensed
    least_diff, least_j = regime.bounds[delta]
    i, j = cell
    di, dj = delta
    run = math.inf
    for a, b in ((j - least_j, dj), (i - j - least_diff, di - dj),
                 (j + dj, dj), (i - j + di - dj, di - dj)):
        if a < 0:
            return 0
        if b < 0:
            run = min(run, a // -b + 1)
    return run


class _Builder:
    """A path under construction: its cells and the moves between them.

    ``push`` judges one move through ``_step``.  ``push_run`` judges a run
    of identical forward moves at once, by ``_run_length``; a run that is
    cut short still pushes its first illegal move through ``_step``, so
    every ``PlannerError`` is worded by ``move_legal``.
    """

    def __init__(self, start, regime):
        self.regime = regime
        self.cells = [start]
        self.moves = []

    @property
    def cur(self):
        return self.cells[-1]

    def push(self, delta, reversed_=False):
        move, nxt = _step(self.regime, self.cur, delta, reversed_)
        if move is None:
            raise PlannerError(self.cur, nxt)
        self.moves.append(move)
        self.cells.append(nxt)

    def push_run(self, delta, count):
        """Push count forward moves of delta: the moves, cells and
        PlannerError of count calls of ``push``."""
        legal = min(count, _run_length(self.regime, self.cur, delta))
        (i, j), (di, dj) = self.cur, delta
        run = list(itertools.islice(zip(itertools.count(i, di), itertools.count(j, dj)),
                                    legal + 1))
        # each move anchors at its source cell
        self.moves.extend(map(_NEW_MOVE, zip(itertools.repeat(delta), run[:-1],
                                             itertools.repeat(False))))
        self.cells.extend(run[1:])
        for _ in range(count - legal):
            self.push(delta)  # the first one raises, worded by move_legal

    def try_steps(self, steps):
        """Push steps in order; if one is illegal, undo them all and return False."""
        mark = len(self.moves)
        try:
            for delta, rev in steps:
                self.push(delta, rev)
        except PlannerError:
            del self.moves[mark:], self.cells[mark + 1:]
            return False
        return True

    def adopt(self, route):
        """Append (move, cell) pairs whose moves were judged when found."""
        for move, cell in route:
            self.moves.append(move)
            self.cells.append(cell)


def _neighbors(regime, cell):
    """All legally reachable neighbor cells with their moves."""
    up = regime.up_delta()
    out = []
    for delta, rev in ((up, False), (up, True), (RIGHT, False), (RIGHT, True)):
        move, nxt = _step(regime, cell, delta, rev)
        if move is not None:
            out.append((nxt, move))
    return out


def _bfs_route(regime, start, goal_pred, i_limit):
    """Shortest legal route from start to a goal cell as (move, cell)
    pairs, or None."""
    from collections import deque

    seen = {start: None}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        if goal_pred(cell):
            route = []
            while seen[cell] is not None:
                prev, move = seen[cell]
                route.append((move, cell))
                cell = prev
            return route[::-1]
        for nxt, move in _neighbors(regime, cell):
            if nxt[0] > i_limit or nxt in seen:
                continue
            seen[nxt] = (cell, move)
            queue.append(nxt)
    return None


def _climb_to_strip(b):
    """Approach phase: reach the strip 0 <= i - 2j <= 3 (<= 4 in char 2)."""
    regime = b.regime
    i, j = b.cur
    if 2 * j > i:
        b.push_run(RIGHT, -((i - 2 * j) // 3))  # ceil((2j - i)/3)
    elif regime.kind == CHAR_2:
        b.push_run(UP2, max(0, (i - 2 * j - 1) // 4))  # until i - 2j <= 4
    else:
        b.push_run(UP1, i // 2 - j)


def _slide_to_diagonal_ne2(b):
    """Climb to the diagonal; True when both lateral offsets were workable.

    An odd i enters at residue 1 (module docstring): the lateral move
    comes first when j >= 1, else after one climb.
    """
    i, j = b.cur
    if i % 2 == 0:
        b.push_run(UP1, i // 2 - j)
        return False
    b.push_run(UP1, 0 if j else 1)
    b.push(RIGHT)
    b.push_run(UP1, (i + 1) // 2 - b.cur[1])
    return j >= 1


CHAR2_CASE_STEPS = {
    1: (((RIGHT, False), (UP2, False)),
        ((UP2, False), (RIGHT, False))),
    2: (((RIGHT, False), (RIGHT, False), (UP2, False), (UP2, False)),
        ((UP2, False), (RIGHT, False), (RIGHT, False), (UP2, False))),
    3: (((RIGHT, True),),),
    4: (((UP2, False),),),
}

def _slide_to_diagonal_char2(b):
    """Close the strip residue i - 2j, which the climb left in 0..4, by the
    first legal template of its case (module docstring)."""
    i, j = b.cur
    gap = i - 2 * j
    if gap and not any(b.try_steps(steps) for steps in CHAR2_CASE_STEPS[gap]):
        raise PlannerError(b.cur, f"no legal case-{gap} template")


TAIL_NE2 = (((RIGHT, False), (UP1, False), (RIGHT, False), (UP1, False), (UP1, False)),
            ((UP1, False), (RIGHT, False), (UP1, False), (RIGHT, False), (UP1, False)))
TAIL_CHAR2 = (((RIGHT, False), (RIGHT, False), (UP2, False), (RIGHT, False),
               (UP2, False), (RIGHT, False), (UP2, False)),
              ((UP2, False), (RIGHT, False), (RIGHT, False), (UP2, False),
               (RIGHT, False), (UP2, False), (RIGHT, False)))


@functools.lru_cache(maxsize=4096)
def _tail_route(regime, diag):
    """(route, bfs_used): the composite diagonal step from diag as a tuple
    of (move, cell) pairs, or None when no route exists.

    The reference templates are tried first, then a bounded search for
    the cell one composite step up the diagonal, (2j, j) -> (2j + 2 dj,
    j + dj) with dj the j-step of the regime's up-move.  The route depends
    only on (regime, diag), so it is built once and shared: moves and
    cells are tuples, and every path copies the pairs into its own lists.
    """
    b = _Builder(diag, regime)
    for steps in TAIL_CHAR2 if regime.kind == CHAR_2 else TAIL_NE2:
        if b.try_steps(steps):
            return tuple(zip(b.moves, b.cells[1:])), False
    j = diag[1] + regime.up_delta()[1]
    route = _bfs_route(regime, diag, lambda c: c == (2 * j, j), 2 * j + 4)
    if route is None:
        return None
    return tuple(route), True


def plan_path(start, regime):
    """Route from start to the diagonal plus one composite diagonal step.

    The reference templates are attempted first; when a hypothesis fails
    near a wall, a bounded breadth-first search supplies a legal detour,
    and only cells with no legal route at all raise PlannerError.
    """
    if not in_cone(start):
        raise ValueError(f"start {start} is not a dominant cell")
    b = _Builder(start, regime)
    bfs_used = both_offsets = False
    try:
        _climb_to_strip(b)
        approach = len(b.moves)
        if regime.kind == CHAR_2:
            _slide_to_diagonal_char2(b)
        else:
            both_offsets = _slide_to_diagonal_ne2(b)
    except PlannerError:
        b = _Builder(start, regime)
        limit = max(2 * start[0] + 8, 16)
        route = _bfs_route(regime, start,
                           lambda c: c[0] == 2 * c[1] and _tail_exists(regime, c),
                           limit)
        if route is None:
            raise
        b.adopt(route)
        approach = len(b.moves)
        bfs_used = True
    diag = b.cur
    tail = _tail_route(regime, diag)
    if tail is None:
        raise PlannerError(diag, "diagonal step blocked (cell too close to the walls)")
    tail_route, tail_bfs = tail
    b.adopt(tail_route)
    path = ZigzagPath(start, regime, b.cells, b.moves, approach_len=approach)
    path.notes["tail_moves"] = len(tail_route)
    path.notes["diagonal"] = list(diag)
    path.notes["bfs_fallback"] = bfs_used or tail_bfs
    if both_offsets:
        path.notes["both_lateral_offsets"] = True
    return path


def _tail_exists(regime, diag):
    return _tail_route(regime, diag) is not None


def validate_path(path):
    """Independent legality re-check: every move re-evaluated from scratch."""
    regime = path.regime
    for idx, mv in enumerate(path.moves):
        src = path.cells[idx]
        dst = path.cells[idx + 1]
        ok, anchor, reason = move_legal(regime, src, mv.delta, mv.reversed_)
        if not ok:
            raise AssertionError(f"illegal move {mv} at {src}: {reason}")
        if anchor != mv.anchor:
            raise AssertionError(f"anchor mismatch at {src}")
        if apply_move(src, mv.delta, mv.reversed_) != dst:
            raise AssertionError(f"cell chain broken at {src}")
        if not in_cone(dst):
            raise AssertionError(f"cell {dst} outside the dominant cone")
    return True


# ---------------------------------------------------------------------------
# bound ledger


class InadmissibleRateError(ValueError):
    pass


class LedgerUnderflowError(ValueError):
    """The closed form exp(2c - rate * i_start) of a start is 0.0 in floating
    point, so no implied constant total / closed_form exists there."""


def beta_limit(regime, alpha, h):
    """Supremum of the admissible beta: alpha/(2 dj h), with dj the j-step
    of the up-move, so alpha/(4h) in char 2 and alpha/(2h) otherwise."""
    return Fraction(alpha) / (2 * regime.up_delta()[1] * h)


def _check_rates(regime, alpha, h, beta):
    if alpha <= 0:
        raise InadmissibleRateError("alpha must be positive")
    if h < 1:
        raise InadmissibleRateError("h must be a positive integer")
    limit = beta_limit(regime, alpha, h)
    if not 0 <= beta < limit:
        raise InadmissibleRateError(
            f"beta must lie in [0, alpha/({2 * regime.up_delta()[1]}h)) = [0, {limit})")


def move_exponent(move, alpha, h, beta, c):
    """Exact exponent of the decay term contributed by one move.

    alpha, beta and c are Fractions or ints and h a positive int; the
    ledger converts decimal strings once at its boundary.  This is the one
    statement of the per-move rule: the ledger's integer forms are read
    off it.
    """
    i, j = move.anchor
    w = Fraction(alpha, h)
    if move.delta == UP1:
        return 2 * c - (2 * w - 2 * beta) * i + 2 * w * j
    if move.delta == UP2:
        return 2 * c - (w - 2 * beta) * i + w * j
    return 2 * c + beta * i - (2 * w - beta) * j


def decay_rate(regime, alpha, h, beta):
    """The surfaced aggregate rate: alpha/(dj h) - 2 beta, with dj the
    j-step of the up-move (2 in char 2, else 1)."""
    a, hh, b = map(Fraction, (alpha, h, beta))
    return a / (regime.up_delta()[1] * hh) - 2 * b


def _scaled(x, den):
    """den * x as an int; x must have a denominator dividing den."""
    n = x * den
    if n.denominator != 1:
        raise ArithmeticError(f"{x} * {den} is not integral")
    return n.numerator


class _ScaledLedger:
    """Every exponent the ledger evaluates, as an integer over one common
    denominator ``den`` fixed by (regime, alpha, h, beta, c).

    ``forms`` maps each move delta to the integers (a, b, e) with
    den * move_exponent = a i + b j + e at anchor (i, j): the rule is
    affine in the anchor, so its values at (0,0), (1,0) and (0,1) fix it.
    The diagonal tail and the closed form are read off ``decay_rate``.
    """

    def __init__(self, regime, alpha, h, beta, c):
        alpha, beta, c = map(Fraction, (alpha, beta, c))
        _check_rates(regime, alpha, h, beta)
        self.rate = decay_rate(regime, alpha, h, beta)
        self.den = den = math.lcm(Fraction(alpha, h).denominator, beta.denominator,
                                  c.denominator, self.rate.denominator)
        self.forms = {}
        for delta in (UP1, UP2, RIGHT):
            e, ei, ej = (move_exponent(Move(delta, anchor), alpha, h, beta, c)
                         for anchor in ((0, 0), (1, 0), (0, 1)))
            self.forms[delta] = (_scaled(ei - e, den), _scaled(ej - e, den),
                                 _scaled(e, den))
        self.two_c = _scaled(2 * c, den)
        self.scaled_rate = _scaled(self.rate, den)
        self.dj = regime.up_delta()[1]
        self.step = math.exp(-2 * self.dj * self.scaled_rate / den)

    def evaluate(self, path):
        """(numerators, values, (path total, diagonal tail, closed form)).

        Per move, in path order, the numerator is den * move_exponent and
        the value exp(numerator / den); the path total sums the values in
        that order.
        """
        den, rate = self.den, self.scaled_rate
        nums = []
        for move in path.moves:
            a, b, e = self.forms[move.delta]
            i, j = move.anchor
            nums.append(a * i + b * j + e)
        values = [math.exp(n / den) for n in nums]
        # composite steps (2j,j) -> (2j+2dj,j+dj): terms exp(2c - 2 rate (j+dj t))
        jd = path.diagonal_cell()[1]
        first = math.exp((self.two_c - 2 * rate * (jd + self.dj)) / den)
        closed_num = self.two_c - rate * path.start[0]
        closed = math.exp(closed_num / den)
        if closed == 0.0:
            raise LedgerUnderflowError(
                f"closed form exp({Fraction(closed_num, den)}) underflows to 0.0 "
                f"at start {path.start}")
        return nums, values, (sum(values), first / (1.0 - self.step), closed)


def bound_ledger(path, alpha, h, beta, c=0):
    """Sum the per-move decay terms plus the geometric diagonal tail and
    compare with the claimed closed form.

    alpha, beta, c may be ints, Fractions, or decimal strings, and h a
    positive int.  Returns the ledger rows, the total, the closed form
    exp(2c - rate * i_start) and the implied constant total / closed_form;
    raises ``LedgerUnderflowError`` when the closed form underflows to 0.0.

    Every exponent is exact: ``_ScaledLedger`` gives it as an integer n
    over a common denominator D, a row's ``exponent`` is
    ``str(Fraction(n, D))``, and the float n / D, correctly rounded int
    division, is bit for bit ``float(move_exponent(...))`` (see the module
    docstring).  Only the exponentials are floating point.
    """
    led = _ScaledLedger(path.regime, alpha, h, beta, c)
    nums, values, (total, tail, closed) = led.evaluate(path)
    rows = [{"anchor": list(mv.anchor),
             "delta": list(mv.delta),
             "lemma": mv.lemma(path.regime),
             "exponent": str(Fraction(n, led.den)),
             "value": value}
            for mv, n, value in zip(path.moves, nums, values)]
    total_with_tail = total + tail
    return {
        "rows": rows,
        "path_total": total,
        "tail_sum": tail,
        "total": total_with_tail,
        "closed_form": closed,
        "implied_constant": total_with_tail / closed,
        "rate": led.rate,
    }


def ledger_sweep(regime, rates, max_length=300, stride=7):
    """Sup of the implied constant over a grid of start cells, for each
    (alpha, h, beta, c) in rates: a list of results in the order of rates.

    The rates are checked once, and each start is planned once for all of
    them.  Each rate sums a path from its own integer forms in move
    order, with the floats of ``bound_ledger`` but no rows.  A start whose
    closed form underflows raises ``LedgerUnderflowError``, as there.
    """
    ledgers = [_ScaledLedger(regime, *rate) for rate in rates]
    sups = [0.0] * len(ledgers)
    worst = [None] * len(ledgers)
    planned = False
    for i in range(2, max_length + 1, 1):
        for j in range(0, i + 1, max(1, stride)):
            if i + j > max_length:
                break
            try:
                path = plan_path((i, j), regime)
            except PlannerError:
                continue
            planned = True
            for n, led in enumerate(ledgers):
                _, _, (total, tail, closed) = led.evaluate(path)
                implied = (total + tail) / closed
                if implied > sups[n]:
                    sups[n] = implied
                    worst[n] = (i, j)
    if not planned:
        raise ValueError(f"no start on grid {max_length} could be planned")
    return [{"sup_constant": sup, "worst_start": start, "rate": str(led.rate)}
            for sup, start, led in zip(sups, worst, ledgers)]
