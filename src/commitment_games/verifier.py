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
from typing import Sequence

import numpy as np

from .engine import BURN, Pledge, round_to_dict
from .equilibria import (
    NotNashError,
    StackedSystem,
    _bexpected,
    _distinct_rows,
    _first_stage_cells,
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
    GameShapeError,
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
# Games per stacked punishment search, a memory cap: the search's working
# arrays grow with its stack.  An ex5 verify (`plan --delta auto`, 40 rounds,
# 3,881 rows searched in 2 stacks) peaks at 3.2 MB under `tracemalloc`,
# against 1.44 MB at 1,024 (4 stacks).
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
    "none" is a structural failure, reported as "unavailable"."""

    gains: np.ndarray
    kinds: Sequence[str] | str
    prefixes: Sequence[int]
    players: Sequence[int]
    moves: Sequence[str]

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
        kinds = Counter({rows.kinds: len(rows)} if one else rows.kinds)
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


def _stage_groups(plan: ProtocolPlan, ks: Sequence[int], rows: np.ndarray | None = None):
    """Runs of consecutive prefixes among `ks` under one punishment stage,
    with that stage; a run holds at most ROW_BUDGET rows, `rows[i]` for
    prefix ks[i] (one each by default), and always at least one prefix."""
    total = np.concatenate([[0], np.cumsum(np.ones(len(ks), dtype=int) if rows is None
                                             else rows)])
    stage = _stage_index(plan, ks)
    ends = [*(np.flatnonzero(stage[1:] != stage[:-1]) + 1).tolist(), len(ks)]
    i = 0
    for end in ends:
        while i < end:
            j = min(max(int(np.searchsorted(total, total[i] + ROW_BUDGET, "right")) - 1,
                        i + 1), end)
            yield plan.punishment[stage[i]], ks[i:j]
            i = j


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


def _guarded(U: np.ndarray, updates: tuple[np.ndarray, ...], move: float) -> np.ndarray:
    """Per prefix k of the prefix stack `U`, whether its rows are within the
    magnitude guard: max|U[k]| + the sum of |round-k values| (`updates`, the
    plan's rounds compiled) + `move`, the largest such sum of a move, at
    most a quarter of the largest float.  Then every cell of the deviation
    games of prefix k is within half of it, so no partial sum of the first
    stage overflows (`equilibria._first_stage_cells`)."""
    rounds, _, _, value = updates
    with np.errstate(over="ignore"):  # past the float range the bound is +inf
        bound = (np.abs(U).reshape(len(U), -1).max(axis=1)
                 + np.bincount(rounds, np.abs(value), minlength=len(U)) + move)
    return bound <= np.finfo(np.float64).max / 4  # NaN fails


@dataclass(frozen=True)
class _GridRows:
    """The rows a verify searches, flat, on the prefix stack `U`.  With w
    the number of distinct games (`_MoveGrid.distinct`) and n players, row
    p * w + j is game j, of player `deviator[j]`, at grid prefix
    `prefixes[p]`: row p * n + deviator[j] of `bases` with the updates of
    game j (`moves`: game, cell, value).  Row P * w + a, P = len(prefixes),
    is prefix game `asked[a]`.  Rows are built with NumPy's overflow
    warning off: a row past the float range is refused by the search's
    finiteness check."""

    U: np.ndarray
    prefixes: np.ndarray
    asked: np.ndarray
    bases: np.ndarray
    deviator: np.ndarray
    moves: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.prefixes) * len(self.deviator) + len(self.asked)

    def build(self, rows: np.ndarray) -> np.ndarray:
        """The stack of rows `rows` (ascending)."""
        n, w, size = self.U.shape[1], len(self.deviator), self.bases.shape[1]
        D = len(self.prefixes) * w
        cut = int(np.searchsorted(rows, D))
        p, j = np.divmod(rows[:cut], w)
        out = np.empty((len(rows), size))
        np.take(self.bases, p * n + self.deviator[j], axis=0, out=out[:cut])
        np.take(self.U.reshape(len(self.U), size), self.asked[rows[cut:] - D], axis=0,
                out=out[cut:])
        game, cell, value = self.moves
        first = np.searchsorted(game, np.arange(w + 1))
        count = (first[1:] - first[:-1])[j]
        u = _ranges(first[j], count)
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(out.reshape(-1), np.repeat(np.arange(cut) * size, count) + cell[u],
                      value[u])
        return out.reshape(-1, *self.U.shape[1:])


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[i], ..., starts[i] + counts[i] - 1."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _row_keys(plan: ProtocolPlan, rows: _GridRows, same: tuple[int, ...],
              guarded: np.ndarray) -> np.ndarray:
    """Per row of `rows`, the first row with its key, whose search it may
    take; all rows of one key are equal bit for bit on the cells that their
    punishment stage's first stage reads (`equilibria._first_stage_cells`).
    Per stage, the base rows and the prefix games are told apart on those
    cells (`equilibria._distinct_rows`), which gives each a pattern.  A
    prefix game, or a deviation game whose move updates no read cell, has
    the key (stage, pattern); any other deviation game the key (stage,
    pattern, deviator, move class), as a move class updates the read cells
    alike (`_move_classes`, `same` as there).  A row that a move brings to
    another pattern's bytes is searched apart from that pattern's key.  A
    row of a prefix outside the magnitude guard (`guarded`, per prefix:
    `_guarded`) is its own key."""
    n, w, shape = rows.U.shape[1], len(rows.deviator), rows.U.shape[1:]
    D = len(rows.prefixes) * w
    head = np.arange(len(rows))
    game, cell, _ = rows.moves
    at_p, at_a = _stage_index(plan, rows.prefixes), _stage_index(plan, rows.asked)
    for s in sorted({*at_p.tolist(), *at_a.tolist()}):
        supports = tuple(map(tuple, plan.punishment[s].supports))
        read = _first_stage_cells(shape, supports)
        ps = np.flatnonzero((at_p == s) & guarded[rows.prefixes])
        asked = np.flatnonzero((at_a == s) & guarded[rows.asked])
        base, B = (ps[:, None] * n + np.arange(n)).ravel(), len(ps) * n
        first, pattern = _distinct_rows(np.concatenate([
            rows.bases[base][:, read], rows.U.reshape(len(rows.U), -1)[rows.asked[asked]][:, read]]))
        # Per base row and prefix game, the first row of its pattern's key:
        # the first entry's row that updates no read cell, its deviator's
        # no-op (the deviator's first move) or the prefix game itself.
        blank = np.concatenate([base // n * w + np.searchsorted(rows.deviator, base % n),
                                D + asked])[first[pattern]]
        # Per base row, move 0's row at the first base row of its pattern
        # and deviator.
        _, firsts, index = np.unique(pattern[:B] * n + base % n, return_index=True,
                                     return_inverse=True)
        lead = (base[firsts] // n * w)[index]
        classes = _move_classes(shape[1:], plan.mode, same, supports)
        entry = np.arange(len(ps))[:, None] * n + rows.deviator
        head[:D].reshape(-1, w)[ps] = np.where(
            np.bincount(game[read[cell]], minlength=w) > 0,
            lead[entry] + (np.arange(w) if classes is None else classes), blank[entry])
        head[D + asked] = blank[B:]
    return head


def check_deviations(game: Game, plan: ProtocolPlan, *, amounts: Sequence[float] | None = None,
                     budget: int | None = None, stack: np.ndarray | None = None,
                     punishments: PrefixPunishments | None = None,
                     updates: tuple[np.ndarray, ...] | None = None
                     ) -> dict[str, DeviationClassResult]:
    """Probe the four deviation classes against the plan's punishment rule.

    A deviation game is a row of the prefix stack `stack` (`fold_rounds`)
    with the compiled updates of the others' pledges of its round, then of
    the move, one per deviator's distinct move (`_move_grid`); the prefix
    games that the early stops or a None in `punishments` ask for are rows
    too (`_GridRows`).  Each row has a key (`_row_keys`), whose rows are
    equal bit for bit on the cells their stage's first stage reads.  The
    first row of each key is searched, in stacks of one stage of at most
    ROW_BUDGET rows (`punish_batch`); every other row then takes that
    search where the report cannot tell the two apart, and is searched in
    a later stack where it can.  Rows equal on those cells settle alike at
    the first stage, with best responses that may differ only in the sign
    of a 0.0 (`equilibria._first_stage_cells`).  The grid reads a search only
    through its kind and the gains best - on-path, with the on-path payoffs
    `plan.expected_terminal_payoffs`, so a search is taken when its kind is
    "support_solve" and no player with an on-path payoff of 0.0 has a best
    response of 0.0.  The findings are recorded prefix-major, one row per
    move (`DeviationClassResult.record_rows`).  `punishments` maps prefixes
    to their search (kind, best-response payoffs, reason): a search it holds
    is read, and every search made or taken is written into it.  `updates`
    are the plan's rounds compiled (`fold_compiled`), given with `stack`.
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
    R, n = len(plan.rounds), game.num_players
    on_path = np.asarray(plan.expected_terminal_payoffs)
    results = {c: DeviationClassResult() for c in DEVIATION_CLASSES}

    grid = _move_grid(game.action_counts, plan.mode, len(xs) - 1)
    x = np.array(xs, dtype=np.float64)
    width = len(grid.distinct)
    moves, _, cells, signs = grid.updates
    values = signs * x[grid.slot[grid.distinct[moves]]]

    prefixes = _prefix_indices(R, budget)
    if updates is None:
        updates = compile_pledges(U[0].shape, plan.rounds)[0]
    # The grid prefixes' rounds as updates: step j is round prefixes[j]'s.
    at = np.full(R, -1)
    at[prefixes] = np.arange(len(prefixes))
    keep = at[updates[0]] >= 0
    # The first vote happens after round 1.
    stops = [k for k in prefixes if k != 0]
    punishments = {} if punishments is None else punishments
    punishments |= dict.fromkeys(set(stops) - set(punishments))
    asked = sorted(k for k, found in punishments.items() if found is None)
    # Per grid prefix k and deviator d, prefix game k with the updates of the
    # others' round-k pledges in order (the whole round passed the fold, so
    # any subset of it is legal): base row p * n + d of the grid's rows.
    bases = np.repeat(U[prefixes].reshape(len(prefixes), U[0].size), n, axis=0)
    step, payer, cell, value = at[updates[0][keep]], *(u[keep] for u in updates[1:])
    others = payer[:, None] != np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(bases.reshape(-1), ((step[:, None] * n + np.arange(n)) * U[0].size
                                      + cell[:, None])[others],
                  np.broadcast_to(value[:, None], others.shape)[others])
    rows = _GridRows(U, np.array(prefixes, dtype=int), np.array(asked, dtype=int), bases,
                     grid.deviator[grid.distinct], (moves, cells, values))
    head = _row_keys(plan, rows, tuple(map(xs.index, xs)),
                     _guarded(U, updates, np.bincount(moves, np.abs(values)).max()))

    D, row = len(prefixes) * width, np.arange(len(rows))
    kinds = np.empty(len(rows), dtype=object)
    best, pure = np.empty((len(rows), n)), np.empty((len(rows), n))  # set where searched
    reasons, seen = {}, set()
    ks = np.array(sorted({*prefixes, *asked}), dtype=int)
    place = np.searchsorted(ks, np.concatenate([rows.prefixes, rows.asked]))

    def search(todo: np.ndarray):
        """Search rows `todo` (ascending), in stacks of one stage."""
        if not len(todo):
            return
        at = place[np.where(todo < D, todo // width, todo - D + len(prefixes))]
        for stage, group in _stage_groups(plan, ks, np.bincount(at, minlength=len(ks))):
            i, j = np.searchsorted(ks, [group[0], group[-1] + 1])
            sel = todo[(at >= i) & (at < j)]
            if len(sel):
                found = punish_batch(rows.build(sel), stage.supports, stage.seed, stage.ceiling)
                kinds[sel], best[sel], pure[sel] = found.kinds, found.best_response, found.pure_best
                cut = int(np.searchsorted(sel, D))
                reasons.update(zip(sel[cut:].tolist(), found.reasons[cut:]))
                seen.update(found.kinds)

    heads = np.flatnonzero(head == row)
    search(heads)
    kept = np.zeros(len(rows), dtype=bool)
    kept[heads] = ((kinds[heads] == "support_solve")
                   & ~((best[heads] == 0) & (on_path == 0)).any(axis=1))
    src = np.where(kept[head], head, row)  # the row whose search each row reads
    search(np.flatnonzero(src != head))
    for r, k in enumerate(asked, D):
        punishments[k] = (kinds[src[r]], best[src[r]], reasons.get(src[r], ""))

    if prefixes:
        d = grid.deviator
        games = src[:D].reshape(-1, width)[:, grid.spread]  # per prefix and move
        gains = best[games, d] - on_path[d]
        none = np.isnan(gains)  # best is NaN on exactly the searched rows of kind "none"
        if none.any():
            # Priced at the deviator's best pure equilibrium, if any.
            r, m = np.nonzero(none)
            priced = pure[games[r, m], d[m]] - on_path[d[m]]
            gains[r, m] = np.where(priced > -math.inf, priced, math.inf)
        spread = kinds[games].ravel() if seen - {"support_solve"} else "support_solve"
        results["commitment"].record_rows(FindingRows(gains.ravel(), spread, prefixes, d,
                                                      _MoveNames(grid, xs)))

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
    once.  Each prefix game that property (a) or the early-stop class reads
    is a row of the grid, keyed and searched with the deviation games
    (`check_deviations`).
    Raises DocumentError, as for a plan file, when the plan breaks what
    every built plan meets or does not fit `game`, and GameShapeError when
    a deviation game of the grid leaves the float range.
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
        try:
            deviations = check_deviations(game, plan, amounts=amounts, budget=budget,
                                          stack=stack, punishments=punishments, updates=updates)
        except GameShapeError as exc:
            raise GameShapeError(f"a deviation game of the grid leaves the float range: "
                                 f"{exc}") from exc
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
