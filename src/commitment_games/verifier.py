"""Desk-scale verification of protocol plans.

A plan extends to the intended equilibrium strategy when (a) a punishment
anchor survives every prefix with its payoff ceiling, and (b) the target
outcome is Nash at the end.  The checker folds the plan once into one
prefix stack, whose rows every check reads and whose rows' hashes the
checkpoints must match.  It evaluates the on-path properties that the
plan's construction promises, and then probes the four deviation classes
over a finite grid, each deviation game a stack row plus cell updates:
replacing one round of pledges, stopping early, continuing when everyone
else stops, and playing off-target at the end.  Grid verification
discretizes a continuous deviation space, so a pass is grid-certified
evidence, not a proof; every report records its grid.  A failing class's
witness holds the prefix rounds and votes, which replay, and names the
deviation by its move.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .engine import BURN, Pledge, round_to_dict
from .equilibria import (
    NotNashError,
    StackedSystem,
    _bexpected,
    _first_stage_cells,
    first_stage_batch,
    nash_batch,
    non_degenerate_batch,
    punish_batch,
)
from .games import (
    DRIFT_TOL,
    EXACT_SLACK,
    NASH_TOL,
    PAYOFF_SLACK,
    FoldError,
    Game,
    MixedProfile,
    compile_pledges,
    content_hash,
    fold_compiled,
    fold_rounds,
    round_violation,
    stack_hashes,
    welfare_max,
)
from .games import GAIN_TOL as TOLERANCE
from .protocols import CASE_PROMISES, ProtocolPlan, check_plan_for_game

ROUND_BOUND_CONSTANT = 64.0
ADVERSARIAL_COMBO_OUTCOME_LIMIT = 20
# Games searched per stacked punishment search.  Larger stacks make fewer,
# larger calls, but the search's working arrays grow with them and raise
# the peak memory of a verify run; a row taken from an earlier search
# (`check_deviations`) makes no such arrays and is not counted; a row
# that waits for its class's search is.  An ex5 verify (`plan --delta
# auto`, 40 rounds, 3,961 rows searched in 2 stacks of 5,241 counted)
# peaks at 2.3 MB under `tracemalloc`, against 0.94 MB at 1,024 (6 stacks).
ROW_BUDGET = 3072

DEVIATION_CLASSES = ("commitment", "early_stop", "continue_when_stop",
                     "terminal_action")
PrefixPunishments = dict[int, tuple[str, np.ndarray, str]]


@dataclass(frozen=True)
class PropertyResult:
    status: str  # "pass" | "fail" | "na"
    detail: str = ""
    witness: dict | None = None


@dataclass(frozen=True)
class DeviationFinding:
    gain: float
    prefix: int
    player: int
    move: str
    punishment_kind: str
    structural: bool = False


@dataclass(frozen=True)
class FindingRows:
    """A stack of findings of one deviation class, prefix-major: row r is
    move `moves[r % w]` of player `players[r % w]` at prefix
    `prefixes[r // w]`, where w = len(moves).  `kinds` are the rows'
    punishment kinds from `punish_batch`, or one kind of every row; kind
    "none" is a structural failure, reported as "unavailable".  `counts`,
    when given, is the histogram of `kinds`, counted by the caller."""

    gains: np.ndarray
    kinds: Sequence[str] | str
    prefixes: Sequence[int]
    players: Sequence[int]
    moves: Sequence[str]
    counts: Counter | None = None

    def __len__(self) -> int:
        return len(self.gains)

    def finding(self, r: int) -> DeviationFinding:
        k, i = divmod(r, len(self.moves))
        kind = self.kinds if isinstance(self.kinds, str) else self.kinds[r]
        return DeviationFinding(float(self.gains[r]), self.prefixes[k],
                                int(self.players[i]), self.moves[i],
                                "unavailable" if kind == "none" else kind, kind == "none")


@dataclass
class DeviationClassResult:
    """One deviation class's findings, reduced as they are recorded: the
    count, the first finding with the largest gain, the structural
    failures, and a histogram of punishment kinds."""

    worst_gain: float = -math.inf
    worst: DeviationFinding | None = None
    checked: int = 0
    structural_failures: list[DeviationFinding] = field(default_factory=list)
    # Findings per punishment kind; not in `to_dict`, whose bytes the
    # benchmark pins.
    punishment_kinds: Counter = field(default_factory=Counter)

    def record(self, finding: DeviationFinding):
        self.checked += 1
        self.punishment_kinds[finding.punishment_kind] += 1
        if finding.structural:
            self.structural_failures.append(finding)
        if finding.gain > self.worst_gain:
            self.worst_gain = finding.gain
            self.worst = finding

    def record_rows(self, rows: FindingRows):
        """`record` each row of `rows` in order, on the arrays: only the
        structural rows and a new worst become `DeviationFinding`s.  A NaN
        gain never becomes the worst, as under `record`'s strict `>`."""
        self.checked += len(rows)
        one = isinstance(rows.kinds, str)
        kinds = Counter(rows.counts if rows.counts is not None else
                        {rows.kinds: len(rows)} if one else rows.kinds)
        if "none" in kinds:
            kinds["unavailable"] = kinds.pop("none")
            structural = (range(len(rows)) if one else
                          np.flatnonzero(np.asarray(rows.kinds) == "none").tolist())
            self.structural_failures.extend(map(rows.finding, structural))
        self.punishment_kinds.update(kinds)
        gains = np.where(np.isnan(rows.gains), -math.inf, rows.gains)
        if len(gains) and gains.max() > self.worst_gain:
            self.worst = rows.finding(int(gains.argmax()))
            self.worst_gain = self.worst.gain


@dataclass(frozen=True)
class BoundCheck:
    ok: bool
    rounds: int
    bound: float
    constant: float


@dataclass
class VerificationReport:
    properties: dict[str, PropertyResult]
    deviations: dict[str, DeviationClassResult]
    bound: BoundCheck
    grid: dict
    accepted: bool
    witnesses: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "grid": self.grid,
            "round_bound": {"ok": self.bound.ok, "rounds": self.bound.rounds,
                            "bound": self.bound.bound,
                            "constant": self.bound.constant},
            "properties": {
                k: {"status": v.status, "detail": v.detail}
                for k, v in sorted(self.properties.items())
            },
            "deviations": {
                k: {
                    "checked": v.checked,
                    "worst_gain": None if v.worst is None else v.worst_gain,
                    "worst": None if v.worst is None else {
                        "prefix": v.worst.prefix, "player": v.worst.player + 1,
                        "move": v.worst.move, "gain": v.worst.gain,
                        "punishment": v.worst.punishment_kind,
                    },
                    "structural_failures": len(v.structural_failures),
                }
                for k, v in sorted(self.deviations.items())
            },
            "witnesses": self.witnesses,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _stage_index(plan: ProtocolPlan, ks) -> np.ndarray:
    """The index of `plan.stage_for(k)` for each prefix k of `ks`."""
    return np.searchsorted([s.first_round for s in plan.punishment], ks, "right") - 1


def _stage_groups(plan: ProtocolPlan, ks: Sequence[int],
                  rows: Callable[[int, int], np.ndarray] | None = None,
                  heads: np.ndarray | None = None):
    """Runs of consecutive prefixes among `ks` under one punishment stage,
    with that stage; a run holds at most ROW_BUDGET rows and always at
    least one prefix.  `rows(i, j)` is the array of rows of prefixes
    ks[i:j] (one each by default), asked at each run's start, after the
    runs before it are consumed.  It is asked for a window of prefixes,
    doubled until the run ends inside it, so a run costs its own length.
    `heads[c, p]` is the place in `ks` of a prefix whose search prefix
    ks[p] may take (-1 for none), one row per kind c of head: a run ends
    before a prefix whose head is in it, so the prefix takes the head's
    search in a later run instead of being searched alongside it."""
    rows = rows or (lambda i, j: np.ones(j - i, dtype=int))
    heads = np.full((0, len(ks)), -1) if heads is None else heads
    stage = _stage_index(plan, ks)
    ends = [*(np.flatnonzero(stage[1:] != stage[:-1]) + 1).tolist(), len(ks)]
    i = 0
    for end in ends:
        while i < end:
            span = ROW_BUDGET
            while True:
                j = min(end, i + span)
                cut = int(np.searchsorted(np.cumsum(rows(i, j)), ROW_BUDGET, "right"))
                waits = np.flatnonzero((heads[:, i:j] >= i).any(axis=0))
                cut = max(min(cut, int(waits[0])) if waits.size else cut, 1)
                if cut < j - i or j == end:
                    break
                span *= 2
            yield plan.punishment[stage[i]], ks[i:i + cut]
            i += cut


def _verdict(ok, detail: str = "") -> PropertyResult:
    return PropertyResult("pass" if ok else "fail", detail)


def check_on_path(game: Game, plan: ProtocolPlan, checkpoint_budget: int | None = None, *,
                  stack: np.ndarray | None = None,
                  punishments: PrefixPunishments | None = None) -> dict[str, PropertyResult]:
    """Replay the plan and evaluate its construction promises per checkpoint.

    `checkpoint_budget` caps how many checkpoints get the expensive anchor
    and punishment checks (endpoints always included); cheap whole-plan
    scans stay exhaustive.  Leave it None for the definitive run.  `stack`
    is the plan's prefix stack (`fold_rounds`) and `punishments` the search
    on its rows when the caller has them already.
    Every check reads that stack U, U[k] after k rounds: the checkpoint
    hashes come from its rows, the checkpoint checks run per punishment
    stage or profile on its rows, and a failure's witness is read off its row.
    """
    if stack is None:
        try:
            stack = fold_rounds(game, plan.rounds, plan.delta, plan.mode)
        except FoldError as exc:
            return {"round_cap": PropertyResult("fail", str(exc),
                                                {"round": exc.round_index})}
    results = {"round_cap": PropertyResult("pass")}
    U, R, n, S = stack, len(plan.rounds), game.num_players, plan.welfare_stage_rounds
    t = plan.target.profile
    T = U[(..., *t)]  # the target's payoffs, one row per prefix
    x = np.asarray(plan.expected_terminal_payoffs)
    probed = _prefix_indices(R + 1, checkpoint_budget, "checkpoint_budget")

    # Checkpoint hashes, from the rows (row 0 is `game`); per-round legality
    # fell out of the fold: a bad round would have raised while folding.
    rows = sorted({c.rounds_applied for c in plan.checkpoints} - {0})
    hashes = {0: content_hash(game), **dict(zip(rows, stack_hashes(U[rows])))}
    results["checkpoint_hashes"] = _verdict(all(
        hashes[c.rounds_applied] == c.game_hash for c in plan.checkpoints))

    # (P1') discretized continuity: every step stays within the cap ball.
    results["P1prime"] = _verdict(np.all(np.abs(U[1:] - U[:-1]) <= 2 * plan.delta + EXACT_SLACK))

    # Stage anchors: Nash where promised, punishment under ceiling everywhere.
    anchor_fail = punish_fail = nd_fail = None
    promised = CASE_PROMISES[plan.case_tag]
    if "seed_nash" in promised:
        checks = [check for stage, group in _stage_groups(plan, probed)
                  for check in nash_batch(U[group], stage.seed, NASH_TOL)]
        j = next((j for j, check in enumerate(checks) if not check.ok), None)
        if j is not None:
            anchor_fail = {"checkpoint": probed[j], "player": checks[j].player + 1,
                           "gain": checks[j].gain}
    if not punishments:
        punishments = {}
        for stage, group in _stage_groups(plan, probed):
            res = punish_batch(U[group], stage.supports, stage.seed, stage.ceiling)
            punishments.update(zip(group, zip(res.kinds, res.best_response, res.reasons)))
    k = next((k for k in probed if punishments[k][0] == "none"), None)
    if k is not None:
        punish_fail = {"checkpoint": k, "reason": punishments[k][2]}
    if "full_support" in promised:
        stack = U[probed]
        nd = non_degenerate_batch(stack, plan.baseline)
        if not nd.ok.all():
            j = int(np.argmin(nd.ok))
            try:
                report = nd.report(j)
                nd_fail = {"checkpoint": probed[j], "det": report.det,
                           "min_residual": report.min_residual}
            except NotNashError as exc:
                nd_fail = {"checkpoint": probed[j], "error": str(exc)}
        system = StackedSystem(stack, plan.action_orders or plan.baseline.supports())
        if n == 2:
            dets = [np.linalg.det(system.block_matrix(0)),
                    np.linalg.det(system.block_matrix(1))]
        else:
            dets = [np.linalg.det(system.jacobian(system.profile_vectors(plan.baseline)))]
        dets = np.stack(dets, axis=1)

    results["a"] = (PropertyResult("pass") if punish_fail is None else
                    PropertyResult("fail", "punishment anchor missing",
                                   punish_fail))
    if "seed_nash" in promised:
        results["baseline_nash"] = (
            PropertyResult("pass") if anchor_fail is None else
            PropertyResult("fail", "stage anchor not Nash at a checkpoint",
                           anchor_fail))
    else:
        results["baseline_nash"] = PropertyResult("na",
                                                  "2x2 narrowing recomputes the anchor")

    # The baseline's payoff per prefix and player, at the prefixes that
    # (a1) and Q5 read, in one contraction of their rows.
    welfare = S > 0 or "welfare" in promised
    base = np.full((R + 1, n), np.nan)
    ks = sorted({*(probed if "a1" in promised else ()), *(range(S + 1) if welfare else ())})
    base[ks] = _bexpected(U[ks], [np.tile(p, (len(ks), 1)) for p in plan.baseline.probs])

    # (a1): the baseline stays a same-support punishable equilibrium, which
    # needs the anchor Nash checks plus baseline payoffs never rising.
    if "a1" in promised:
        drift_ok = np.all(base[probed] <= base[0] + PAYOFF_SLACK)
        results["a1"] = _verdict(anchor_fail is None and punish_fail is None and drift_ok)
    else:
        results["a1"] = PropertyResult("na", "construction does not promise (a1)")

    if "full_support" in promised:
        rel = float(np.max(np.abs(dets - dets[0]) / np.maximum(np.abs(dets[0]), EXACT_SLACK)))
        results["P4prime"] = (
            PropertyResult("pass") if nd_fail is None else
            PropertyResult("fail", "baseline degenerate at a checkpoint", nd_fail))
        results["det_invariance"] = (
            PropertyResult("pass", f"max relative drift {rel:.3g}")
            if rel <= DRIFT_TOL else
            PropertyResult("fail", f"determinant drift {rel:.3g} > 1e-7"))
    else:
        results["P4prime"] = _verdict(anchor_fail is None and punish_fail is None,
                                      "tracked through stage anchors")
        results["det_invariance"] = PropertyResult("na")

    # (P2') burn monotonicity outside the welfare stage; the comparison
    # stays `a > b + eps`, since `a - b > eps` can round differently.
    results["P2prime"] = _verdict(not np.any(U[S + 1:] > U[S:-1] + EXACT_SLACK))

    # (P3') target payoffs pinned after the welfare stage.
    results["P3prime"] = _verdict(np.all(np.abs(T[S:] - T[S]) <= EXACT_SLACK))

    # (b) == (P5'): the target is Nash at the end.
    terminal = nash_batch(U[R:], MixedProfile.pure(game.action_counts, t), TOLERANCE)[0]
    b_res = (PropertyResult("pass") if terminal.ok and np.all(np.abs(T[R] - x) <= PAYOFF_SLACK)
             else PropertyResult("fail", "terminal target not Nash or payoffs off",
                                 {"nash_gain": terminal.gain}))
    results["b"] = b_res
    results["P5prime"] = b_res

    # Welfare-stage homotopy properties.
    if welfare:
        welfare_series = U[:S + 1].sum(axis=1)
        results["Q1"] = results["P1prime"]
        results["Q2"] = _verdict(np.all(welfare_series[1:] <= welfare_series[:-1] + PAYOFF_SLACK))
        results["Q3"] = _verdict(np.all(np.abs(T[S] - x) <= PAYOFF_SLACK))
        results["Q4"] = _verdict(all(check.ok for check in
                                     nash_batch(U[:S + 1], plan.baseline, NASH_TOL)))
        q5_ok = np.all(base[1:S + 1] <= base[:S] + PAYOFF_SLACK)
        # Players whose raise at the welfare maximizer has baseline support
        # mass are compensated; their baseline payoff must be pinned.
        _, a_sw = welfare_max(game)
        pinned = [i for i in range(n)
                  if x[i] - game.payoff(i, a_sw) > EXACT_SLACK
                  and math.prod(float(plan.baseline.probs[j][a_sw[j]])
                                for j in range(n) if j != i) > EXACT_SLACK]
        pinned_ok = not np.any(np.abs(base[:S + 1, pinned] - base[0, pinned]) > PAYOFF_SLACK)
        results["Q5"] = _verdict(q5_ok and pinned_ok)
    else:
        for key in ("Q1", "Q2", "Q3", "Q4", "Q5"):
            results[key] = PropertyResult("na")
    return results


@dataclass(frozen=True)
class _MoveGrid:
    """Every player's deviation grid on one game shape and mode, for
    `slots` amounts.  Move m is player `deviator[m]`'s, makes `pledges[m]`
    at amount `slot[m]` of (*amounts, delta) (the combinations pay delta,
    the no-op is slot -1), and is named `labels[m]` formatted with that
    amount.  Moves with the same cell updates make the same game:
    `spread[m]` is move m's distinct game, `distinct[j]` the first move of
    game j, and `updates` the games' (game, payer, cell, sign) updates at
    amount 1 from `compile_pledges`."""

    deviator: np.ndarray
    labels: tuple[str, ...]
    slot: np.ndarray
    pledges: tuple
    spread: np.ndarray
    distinct: np.ndarray
    updates: tuple[np.ndarray, ...]

    def names(self, amounts: Sequence[float]) -> list[str]:
        """Every move's name; `amounts` are (*amounts, delta)."""
        return list(_MoveNames(self, tuple(amounts)))

    def move_pledges(self, m: int, amounts: Sequence[float]) -> list[Pledge]:
        """Move m's pledges; `amounts` are (*amounts, delta)."""
        return [replace(p, amount=amounts[self.slot[m]]) for p in self.pledges[m]]


@dataclass(frozen=True)
class _MoveNames:
    """The moves' names at `amounts` (*amounts, delta), as a sequence whose
    entries are made when read."""

    grid: _MoveGrid
    amounts: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.grid.labels)

    def __getitem__(self, m: int) -> str:
        return self.grid.labels[m].format(self.amounts[self.grid.slot[m]])


def _grid_amounts(plan: ProtocolPlan, amounts: Sequence[float] | None) -> tuple[float, ...]:
    """The grid's amounts: `amounts`, or (delta/2, delta) when none are given."""
    return tuple(amounts) if amounts else (plan.delta / 2, plan.delta)


def _has_combos(counts: tuple[int, ...], mode: str) -> bool:
    """Whether the grid holds the pay-here/burn-there combinations."""
    return mode == "transfers" and math.prod(counts) <= ADVERSARIAL_COMBO_OUTCOME_LIMIT


@cache
def _move_grid(counts: tuple[int, ...], mode: str, slots: int) -> _MoveGrid:
    """The grid of `commitment_deviation_moves` for every player, compiled."""
    n = len(counts)
    outcomes = list(np.ndindex(*counts))
    moves = []  # (deviator, label, slot, pledges at amount 1)
    for d in range(n):
        moves.append((d, "noop", -1, ()))
        for o in outcomes:
            elsewhere = tuple(Pledge(d, (*o[:d], b, *o[d + 1:]), BURN, 1.0)
                              for b in range(counts[d]) if b != o[d])
            for s in range(slots):
                moves += [(d, f"P{o}x{{:g}}", s, (Pledge(d, o, BURN, 1.0),)),
                          (d, f"M{o}x{{:g}}", s, elsewhere)]
                moves += [(d, f"T{o}->{r + 1}x{{:g}}", s, (Pledge(d, o, r, 1.0),))
                          for r in range(n) if r != d and mode == "transfers"]
        if _has_combos(counts, mode):
            moves += [(d, f"A pay{pay}->{r + 1} burn{burn}", slots,
                       (Pledge(d, pay, r, 1.0), Pledge(d, burn, BURN, 1.0)))
                      for r in range(n) if r != d for pay in outcomes for burn in outcomes
                      if burn != pay]
    deviator, labels, slot, pledges = zip(*moves)
    row_of: dict = {}  # the same pledges at one amount make the same game
    spread = np.array([row_of.setdefault((d, p, s if p else -1), len(row_of))
                       for d, p, s in zip(deviator, pledges, slot)])
    distinct = np.unique(spread, return_index=True)[1]
    return _MoveGrid(np.array(deviator), labels, np.array(slot), pledges, spread, distinct,
                     compile_pledges((n, *counts), [pledges[m] for m in distinct.tolist()])[0])


@cache
def _move_classes(counts: tuple[int, ...], mode: str, same: tuple[int, ...],
                  supports: tuple[tuple[int, ...], ...]) -> np.ndarray | None:
    """Per distinct game j of `_move_grid(counts, mode, len(same) - 1)`,
    the first distinct game of the same deviator whose updates of the cells
    the first stage on `supports` reads (`equilibria._first_stage_cells`)
    are the same cells, signs and amounts, in the same order; built on one
    row, the two games agree bit for bit on those cells.  `same[s]` is the
    first slot whose amount equals slot s's.  None when no two games share
    a class."""
    grid = _move_grid(counts, mode, len(same) - 1)
    moves, _, cells, signs = grid.updates
    read = _first_stage_cells((len(counts), *counts), supports)[cells]
    edits: list[list] = [[] for _ in grid.distinct]
    for j, c, s in zip(moves[read].tolist(), cells[read].tolist(), signs[read].tolist()):
        edits[j].append((c, s))
    first: dict = {}
    heads = np.array([first.setdefault((d, tuple(e), same[s] if e else -1), j)
                      for j, (d, e, s) in enumerate(zip(grid.deviator[grid.distinct].tolist(),
                                                        edits, grid.slot[grid.distinct].tolist()))])
    heads.setflags(write=False)
    return None if len(first) == len(heads) else heads


def commitment_deviation_moves(game: Game, player: int, delta: float,
                               mode: str,
                               amounts: Sequence[float]) -> list[tuple[str, list[Pledge]]]:
    """Finite grid of single-round deviations for one player.

    Elementary burn directions at each outcome and amount, single
    transfers per recipient in transfers mode, the empty round, and (for
    small games) the pay-here/burn-there combination pattern.
    """
    grid = _move_grid(game.action_counts, mode, len(amounts))
    xs = (*amounts, delta)
    names = grid.names(xs)
    return [(names[m], grid.move_pledges(m, xs))
            for m in np.flatnonzero(grid.deviator == player).tolist()]


def _prefix_indices(total: int, budget: int | None, keyword: str = "budget") -> list[int]:
    if budget is not None and budget < 1:
        raise ValueError(f"{keyword} must be at least 1, got {budget}")
    if total == 0:
        return []
    if budget is None or budget >= total:
        return list(range(total))
    step = total / budget
    picked = {0, total - 1}
    picked.update(min(total - 1, int(i * step)) for i in range(budget))
    return sorted(picked)


def _clean_runs(plan: ProtocolPlan, U: np.ndarray, prefixes: Sequence[int],
                updates: tuple[np.ndarray, ...], move: float, asked: Sequence[int],
                share: bool) -> tuple[dict[int, int], dict[int, int], set[int]]:
    """The clean runs of the grid prefixes' rows and of the prefix games
    `asked` (ascending) in the prefix stack `U`, each as a map from every
    prefix past a run's first to that first prefix, and, when `share`, the
    grid prefixes within the magnitude guard, whose deviation games of one
    class of moves (`_move_classes`) may take one search.  A round is clean when
    none of its updates (`updates`, the plan's rounds compiled) lands on a
    cell its stage's first stage reads (`equilibria._first_stage_cells`).
    Grid prefixes k < k' of one stage are one run when every round k..k' is
    clean, since the others' round-k' pledges are applied to its rows;
    prefix games k < k', when rounds k..k'-1 are.  Either way the games of
    a run agree bit for bit on those cells.  A run holds only the prefixes
    k within the magnitude guard: max|U[k]| + Σ|round-k values| + `move`,
    the largest Σ|values| of a move, at most a quarter of the largest
    float, so every cell of their rows is within half of it and no partial
    sum of the first stage overflows (`equilibria._first_stage_cells`)."""
    rounds, _, cell, value = updates
    stage = _stage_index(plan, rounds)
    cells = np.zeros((len(plan.punishment), U[0].size), dtype=bool)
    for i in set(stage.tolist()):
        cells[i] = _first_stage_cells(U.shape[1:], tuple(map(tuple, plan.punishment[i].supports)))
    clean = np.ones(plan.num_rounds, dtype=bool)
    clean[rounds[cells[stage, cell]]] = False
    if not (share or clean.any()):
        return {}, {}, set()
    with np.errstate(over="ignore"):  # past the float range the bound is +inf
        bound = (np.abs(U).reshape(len(U), -1).max(axis=1)
                 + np.bincount(rounds, np.abs(value), minlength=len(U)) + move)
    fits = (bound <= np.finfo(np.float64).max / 4).tolist()  # NaN fails
    within = {k for k in prefixes if fits[k]} if share else set()
    done = np.concatenate([[0], np.cumsum(clean)])  # clean rounds before each round

    def runs(ks: Sequence[int], last: int) -> dict[int, int]:
        """k' joins the run of k, the entry before it, when rounds k..k'+last-1
        are clean under one stage."""
        ks = np.asarray(ks, dtype=int)
        at, ends = _stage_index(plan, ks), ks[1:] + last
        joined = (at[1:] == at[:-1]) & (done[ends] - done[ks[:-1]] == ends - ks[:-1])
        start = np.arange(len(ks))
        start[1:][joined] = 0
        head = ks[np.maximum.accumulate(start)]
        return {k: h for k, h in zip(ks.tolist(), head.tolist())
                if h != k and fits[k] and fits[h]}

    return runs(prefixes, 1), runs(asked, 0), within


def check_deviations(game: Game, plan: ProtocolPlan, *, amounts: Sequence[float] | None = None,
                     budget: int | None = None, stack: np.ndarray | None = None,
                     punishments: PrefixPunishments | None = None,
                     updates: tuple[np.ndarray, ...] | None = None
                     ) -> dict[str, DeviationClassResult]:
    """Probe the four deviation classes against the plan's punishment rule.

    A deviation game is a row of the prefix stack `stack` (`fold_rounds`)
    with the compiled updates of the others' pledges of its round, then of
    the move, one per deviator's distinct move (`_move_grid`).  A row takes
    another's search wherever the report cannot tell the two apart.  Games
    equal bit for bit on the cells the first stage reads settle alike there,
    with best responses that may differ only in the sign of a 0.0
    (`equilibria._first_stage_cells`).  The grid reads a search only
    through its kind and the gains best - on-path, the on-path payoffs
    being `plan.expected_terminal_payoffs`, and such a sign shows in a gain
    only where the on-path payoff is 0.0 too.  So a searched row is kept
    for takers when it settled at the first stage and no player with an
    on-path payoff of 0.0 has a best response of 0.0.  There are two takes:
    a prefix takes the rows that the first prefix of its clean run
    (`_clean_runs`, within the magnitude guard) kept in an earlier stack;
    and a grid prefix within the guard that follows no run searches the
    first game of each class of its moves (`_move_classes`), whose other
    games take that search where it is kept.
    Per run of consecutive prefixes under one punishment stage with at
    most ROW_BUDGET rows left, the deviation games left and then the prefix
    games left that the early stops or a None in `punishments` ask for go
    to one `punish_batch`.  When some rows wait for their class's search,
    the rows within the guard that do not wait go to `first_stage_batch`
    first, and the rows it does not settle go to `punish_batch` with the
    waiting rows not taken.  A run ends before a prefix whose clean run's
    first prefix is in it, so the prefix takes that search in the next run
    instead of repeating it.  The run's findings are reduced as arrays,
    one row per move (`DeviationClassResult.record_rows`).  `punishments`
    maps prefixes to their search (kind, best-response payoffs, reason): a
    search it holds is read, and every search made or taken is written into
    it.  `updates` are the plan's rounds compiled (`fold_compiled`), given
    with `stack`; the clean test reads every round of them, so under a
    `budget` the grid prefixes, though far apart, still make clean runs.
    """
    # A move pays each outcome at most once, at its one amount, and the grid's
    # shape fixes the rest, so it breaks a round's rule exactly when the
    # grid's first move at its amount, player 1's burn at the first outcome,
    # does.  Every pledge is made before any is checked: a sign error wins.
    xs = (*_grid_amounts(plan, amounts), plan.delta)
    burns = [Pledge(0, (0,) * game.num_players, BURN, a) for a in xs]
    for error in filter(None, (round_violation(game, [p], plan.delta, plan.mode) for p in burns)):
        raise error
    U, updates = (fold_compiled(game, plan.rounds, plan.delta, plan.mode) if stack is None
                  else (stack, updates))
    R, n, size = len(plan.rounds), game.num_players, U[0].size
    on_path = np.asarray(plan.expected_terminal_payoffs)
    results = {c: DeviationClassResult() for c in DEVIATION_CLASSES}

    grid = _move_grid(game.action_counts, plan.mode, len(xs) - 1)
    x = np.array(xs, dtype=np.float64)
    names = _MoveNames(grid, xs)
    width = len(grid.distinct)
    per_game = np.bincount(grid.spread, minlength=width)  # moves per distinct game
    starts = np.searchsorted(grid.deviator[grid.distinct], np.arange(n))  # each deviator's first
    moves, _, cells, signs = grid.updates
    values = signs * x[grid.slot[grid.distinct[moves]]]
    same = tuple(map(xs.index, xs))  # per slot, the first slot of its amount

    prefixes = _prefix_indices(R, budget)
    if updates is None:
        updates = compile_pledges(U[0].shape, plan.rounds)[0]
    # The grid prefixes' rounds as updates: step j is round prefixes[j]'s.
    at = np.full(R, -1)
    at[prefixes] = np.arange(len(prefixes))
    keep = at[updates[0]] >= 0
    step, payer, cell, value = at[updates[0][keep]], *(u[keep] for u in updates[1:])
    # The first vote happens after round 1.
    stops = [k for k in prefixes if k != 0]
    punishments = {} if punishments is None else punishments
    punishments |= dict.fromkeys(set(stops) - set(punishments))
    on_grid = {k: j for j, k in enumerate(prefixes)}
    asked = sorted(k for k, found in punishments.items() if found is None)
    searched = set(asked)
    # Per prefix of `ks`, at its place in `ks`: its rows, and per kind of
    # run (0 rows, 1 prefix games) the place of its run's first prefix, -1
    # for none.  Per kind and first prefix searched: which of its rows a
    # later prefix may take and their best-response payoffs (`kept`), and
    # how many there are (`kept_rows`, whose last column stays 0).
    ks = sorted(on_grid.keys() | searched)
    place = {k: i for i, k in enumerate(ks)}
    need = np.array([width * (k in on_grid) + (k in searched) for k in ks], dtype=int)
    classes = {id(s): _move_classes(game.action_counts, plan.mode, same,
                                    tuple(map(tuple, s.supports))) for s in plan.punishment}
    *runs, within = _clean_runs(plan, U, prefixes, updates, np.bincount(moves, np.abs(values)).max(),
                                asked, any(c is not None for c in classes.values()))
    heads = np.array([[place.get(head.get(k), -1) for k in ks] for head in runs],
                     dtype=int).reshape(2, len(ks))
    firsts, head_of = [set(h) for h in heads.tolist()], heads.tolist()
    kept, kept_rows = ({}, {}), np.zeros((2, len(ks) + 1), dtype=int)
    none_kept = {w: (np.zeros(w, dtype=bool), np.full((w, n), np.nan)) for w in (width, 1)}

    def open_rows(i: int, j: int) -> np.ndarray:
        """The rows of prefixes ks[i:j] left to search, once the searches before them are made."""
        return need[i:j] - kept_rows[0, heads[0, i:j]] - kept_rows[1, heads[1, i:j]]

    def keepable(r) -> np.ndarray:
        """Whether rows `r` of a chunk, searched, may be taken: settled at the
        first stage, with no 0.0 best response, whose sign a taker's game may
        flip, where the on-path payoff is 0.0 too."""
        return (kinds[r] == "support_solve") & ~((best[r] == 0) & (on_path == 0)).any(axis=1)

    for stage, group in _stage_groups(plan, ks, open_rows, heads):
        moved = [k for k in group if k in on_grid]
        shared = [k for k in group if k in searched]
        spans = [(0, place[k], width) for k in moved] + [(1, place[k], 1) for k in shared]
        parts = [kept[c].get(head_of[c][p]) or none_kept[w] for c, p, w in spans]
        take, best = np.concatenate([t[0] for t in parts]), np.concatenate([t[1] for t in parts])
        rows, left, kinds = width * len(moved), ~take, None
        # A grid prefix within the magnitude guard that is in no run searches
        # the first game of each class of its moves (`_move_classes`); the
        # others wait for that search.  A run's first prefix searches all
        # its rows in one stack: their searches serve the whole run.
        cls, wait = classes[id(stage)], np.zeros_like(take)
        if cls is not None:
            alone = [k in within and head_of[0][place[k]] < 0 and place[k] not in firsts[0]
                     for k in moved]
            wait[:rows] = np.outer(alone, cls != np.arange(width)).ravel()
        if left.any():
            # Per grid prefix k and deviator d, prefix game k with the updates
            # of the others' round-k pledges in order (the whole round passed
            # the fold, so any subset of it is legal), once per row of d
            # searched, with its move's updates; then the prefix games left.
            base = np.repeat(U[moved], n, axis=0)
            first = on_grid[moved[0]] if moved else 0
            lo, hi = np.searchsorted(step, [first, first + len(moved)])
            d = np.arange(n)
            others = payer[lo:hi, None] != d
            flat = ((step[lo:hi, None] - first) * n + d) * size + cell[lo:hi, None]
            np.add.at(base.reshape(-1), flat[others],
                      np.broadcast_to(value[lo:hi, None], flat.shape)[others])
            row = (width * np.arange(len(moved))[:, None] + moves).ravel()  # each update's
            kinds = np.empty(len(take), dtype=object)
            kinds[:] = "support_solve"  # `np.full` of an object is slower

            def rows_of(sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                """The stack of the chunk's rows `sel`, and each row's row of it."""
                per_base = np.add.reduceat(sel[:rows].reshape(len(moved), width), starts,
                                           axis=1, dtype=int).ravel()
                stack = np.repeat(np.concatenate([base, U[shared]]),
                                  np.concatenate([per_base, sel[rows:]]), axis=0)
                src, mine = np.cumsum(sel) - 1, sel[row]
                np.add.at(stack.reshape(-1),
                          src[row[mine]] * size + np.tile(cells, len(moved))[mine],
                          np.tile(values, len(moved))[mine])
                return stack, src

            if wait.any():
                # The rows within the magnitude guard that do not wait go to
                # the first stage alone; a waiting row takes its class head's
                # search where a later prefix could take it, and every row
                # still left gets the whole search.
                sel = left & ~wait
                sel[:rows] &= np.repeat([k in within for k in moved], width)
                at = np.flatnonzero(sel)
                early = first_stage_batch(rows_of(sel)[0], stage.supports, stage.seed,
                                          stage.ceiling)
                best[at] = np.stack([p.max(axis=1) for p in early.deviation_payoffs], axis=1)
                kinds[at[~early.settled]] = "none"  # until the whole search
                left[at[early.settled]] = False
                waiting = np.flatnonzero(wait)
                head = waiting - waiting % width + cls[waiting % width]
                ok = keepable(head)
                best[waiting[ok]] = best[head[ok]]
                left[waiting[ok]] = False
            if left.any():
                batch, src = rows_of(left)
                found = punish_batch(batch, stage.supports, stage.seed, stage.ceiling)
                best[left], kinds[left] = found.best_response, found.kinds
            r = 0
            for c, p, w in spans:
                if p in firsts[c]:  # a first prefix searches all its rows
                    mask = keepable(slice(r, r + w))
                    kept[c][p], kept_rows[c, p] = (mask, best[r:r + w]), mask.sum()
                r += w
        for r, k in enumerate(shared, rows):
            punishments[k] = ((kinds[r], best[r], found.reasons[src[r]]) if left[r]
                              else ("support_solve", best[r], ""))
        if moved:
            d = grid.deviator
            gains = best[:rows].reshape(-1, width, n)[:, grid.spread, d] - on_path[d]
            none = np.isnan(gains)  # best is NaN on exactly the searched rows of kind "none"
            if none.any():
                # Priced at the deviator's best pure equilibrium, if any.
                pure = np.full_like(best, np.nan)
                pure[left] = found.pure_best
                pure = pure[:rows].reshape(-1, width, n)[:, grid.spread, d] - on_path[d]
                gains[none] = np.where(pure > -math.inf, pure, math.inf)[none]
            counts = None
            if kinds is not None:
                # The kinds' histogram: each row's kind once per move that
                # makes its game.
                chunk, weight = kinds[:rows], np.tile(per_game, len(moved))
                seen = {*found.kinds, "support_solve"} if left.any() else {"support_solve"}
                counts = Counter({kind: c for kind in seen
                                  if (c := int(weight[chunk == kind].sum()))})
            results["commitment"].record_rows(FindingRows(
                gains.ravel(), "support_solve" if kinds is None else
                kinds[:rows].reshape(-1, width)[:, grid.spread].ravel(), moved, d, names,
                counts))

    if stops:
        kinds = [punishments[k][0] for k in stops]
        gains = np.stack([punishments[k][1] for k in stops]) - on_path
        gains[np.asarray(kinds) == "none"] = math.inf
        results["early_stop"].record_rows(FindingRows(
            gains.ravel(), [kind for kind in kinds for _ in range(n)], stops,
            range(n), ("stop",) * n))

    # Voting to continue when the others stop cannot change the outcome:
    # continuation requires unanimity, so the gain is identically zero.
    for d in range(n):
        results["continue_when_stop"].record(DeviationFinding(0.0, R, d,
                                                              "continue", "n/a"))

    t = plan.target.profile
    for d in range(n):
        for a in range(game.action_counts[d]):
            if a != t[d]:
                gain = U[(R, d, *t[:d], a, *t[d + 1:])] - on_path[d]
                results["terminal_action"].record(DeviationFinding(
                    float(gain), R, d, f"play{a + 1}", "n/a"))
    return results


def round_bound_check(plan: ProtocolPlan, game: Game) -> BoundCheck:
    """|rounds| <= C * n * delta^-1 * utility_range * max action count,
    with C = ROUND_BOUND_CONSTANT."""
    u_range = max(game.utility_range, EXACT_SLACK)
    bound = (ROUND_BOUND_CONSTANT * game.num_players * u_range
             * max(game.action_counts) / plan.delta)
    return BoundCheck(len(plan.rounds) <= bound, len(plan.rounds), bound,
                      ROUND_BOUND_CONSTANT)


def witness_transcript(game: Game, plan: ProtocolPlan, finding: DeviationFinding) -> dict:
    """A failed deviation check's witness: the plan's first `finding.prefix`
    rounds and all-continue votes, which replay, and the deviation's move name."""
    rounds = [round_to_dict(r) for r in plan.rounds[:finding.prefix]]
    votes = [[True] * game.num_players for _ in range(finding.prefix)]
    return {
        "base_game_hash": content_hash(game),
        "delta": plan.delta,
        "mode": plan.mode,
        "rounds": rounds,
        "votes": votes,
        "deviation": {
            "prefix": finding.prefix,
            "player": finding.player + 1,
            "move": finding.move,
            "gain": finding.gain,
        },
    }


def verify_plan(game: Game, plan: ProtocolPlan, *,
                amounts: Sequence[float] | None = None,
                budget: int | None = None,
                checkpoint_budget: int | None = None) -> VerificationReport:
    """Full verification: on-path properties, deviation grid, round bound.

    The plan is folded once into one prefix stack, which every check reads;
    the checkpoint hashes come from its rows, and the base game is hashed
    once.  The punishment search on each prefix game that property (a) or
    the early-stop class reads rides in the grid's stack of its punishment
    stage: one `punish_batch` per stage chunk.
    Raises DocumentError, as for a plan file, when the plan breaks what
    every built plan meets or does not fit `game`.
    """
    check_plan_for_game(plan, game)
    probed = _prefix_indices(plan.num_rounds + 1, checkpoint_budget, "checkpoint_budget")
    _prefix_indices(plan.num_rounds, budget)  # a bad budget raises before the fold
    try:
        stack, updates = fold_compiled(game, plan.rounds, plan.delta, plan.mode)
    except FoldError:
        stack = None  # check_on_path reports the failing round
    punishments = dict.fromkeys(probed)
    deviations = {c: DeviationClassResult() for c in DEVIATION_CLASSES}
    if stack is not None:
        deviations = check_deviations(game, plan, amounts=amounts, budget=budget,
                                      stack=stack, punishments=punishments, updates=updates)
    properties = check_on_path(game, plan, checkpoint_budget=checkpoint_budget,
                               stack=stack, punishments=punishments)
    bound = round_bound_check(plan, game)
    grid = {
        "amounts": list(_grid_amounts(plan, amounts)),
        "budget": budget,
        "tolerance": TOLERANCE,
        "adversarial_combos": _has_combos(game.action_counts, plan.mode),
        "certification": "grid",
    }
    prop_ok = all(r.status != "fail" for r in properties.values())
    # A deviation class fails, and gets a witness, on a structural failure
    # or a gain above the tolerance.
    witnesses = [witness_transcript(game, plan, r.worst) for r in deviations.values()
                 if r.structural_failures
                 or (r.worst is not None and r.worst_gain > TOLERANCE)]
    return VerificationReport(properties, deviations, bound, grid,
                              prop_ok and not witnesses and bound.ok, witnesses)
