"""Desk-scale verification of protocol plans.

A plan extends to the intended equilibrium strategy when (a) a punishment
anchor survives every prefix with its payoff ceiling, and (b) the target
outcome is Nash at the end.  The checker replays the plan, evaluates the
on-path properties that the plan's construction promises, and then probes
the four deviation classes over a finite grid: replacing one round of
pledges, stopping early, continuing when everyone else stops, and playing
off-target at the end.  Grid verification discretizes a continuous
deviation space, so a pass is grid-certified evidence, not a proof; every
report records the grid it used, and every failure carries a replayable
witness.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .engine import BURN, CommitmentRound, Pledge, round_to_dict
from .equilibria import (
    NotNashError,
    StackedSystem,
    is_nash,
    nash_batch,
    non_degenerate_batch,
    punish_batch,
)
from .games import (
    Game,
    GameShapeError,
    MixedProfile,
    TransferError,
    content_hash,
    expected_utility,
    round_violation,
    welfare_max,
)
from .protocols import FoldError, ProtocolPlan, check_plan_for_game, fold_rounds

ROUND_BOUND_CONSTANT = 64.0
# Slack of the terminal Nash check and of every deviation gain.
TOLERANCE = 1e-9
ADVERSARIAL_COMBO_OUTCOME_LIMIT = 20
# Games per stacked punishment search.  Larger stacks make fewer, larger
# calls, but the search's working arrays grow with them and raise the
# peak memory of a verify run.
ROW_BUDGET = 1024

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
    punishment kinds from `punish_batch`; kind "none" is a structural
    failure, reported as "unavailable"."""

    gains: np.ndarray
    kinds: Sequence[str]
    prefixes: Sequence[int]
    players: Sequence[int]
    moves: Sequence[str]

    def __len__(self) -> int:
        return len(self.gains)

    def finding(self, r: int) -> DeviationFinding:
        k, i = divmod(r, len(self.moves))
        structural = self.kinds[r] == "none"
        return DeviationFinding(float(self.gains[r]), self.prefixes[k],
                                int(self.players[i]), self.moves[i],
                                "unavailable" if structural else self.kinds[r],
                                structural)


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
        kinds = Counter(rows.kinds)
        if "none" in kinds:
            kinds["unavailable"] = kinds.pop("none")
            structural = np.flatnonzero(np.asarray(rows.kinds) == "none")
            self.structural_failures.extend(map(rows.finding, structural.tolist()))
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


def _seed_nash_applies(case: str) -> bool:
    # The 2x2 gap-narrowing moves the indifference point, so the original
    # mixture need not stay an equilibrium there; its guarantee is the
    # recomputed same-support punishment instead.
    return case != "two_by_two"


def _stage_groups(plan: ProtocolPlan, ks: Sequence[int], rows_per_prefix: int = 1):
    """Runs of consecutive prefixes among `ks` under one punishment stage,
    with that stage; a run holds at most ROW_BUDGET rows of
    `rows_per_prefix` each, and always at least one prefix."""
    limit = max(1, ROW_BUDGET // rows_per_prefix)
    stage, group = None, []
    for k in ks:
        s = plan.stage_for(k)
        if group and (s is not stage or len(group) == limit):
            yield stage, group
            group = []
        stage = s
        group.append(k)
    if group:
        yield stage, group


def _prefix_punishments(plan: ProtocolPlan, U: np.ndarray,
                        ks: Sequence[int]) -> PrefixPunishments:
    """The punishment search on each prefix game k in `ks`: k's kind, each
    player's best-response payoff and the reason, from one `punish_batch`
    per punishment stage on the stack `U`."""
    found = {}
    for stage, group in _stage_groups(plan, ks):
        res = punish_batch(U[group], stage.supports, stage.seed, stage.ceiling)
        found.update(zip(group, zip(res.kinds, res.best_response, res.reasons)))
    return found


def _verdict(ok, detail: str = "") -> PropertyResult:
    return PropertyResult("pass" if ok else "fail", detail)


def check_on_path(game: Game, plan: ProtocolPlan, checkpoint_budget: int | None = None, *,
                  games: Sequence[Game] | None = None,
                  punishments: PrefixPunishments | None = None) -> dict[str, PropertyResult]:
    """Replay the plan and evaluate its construction promises per checkpoint.

    `checkpoint_budget` caps how many checkpoints get the expensive anchor
    and punishment checks (endpoints always included); cheap whole-plan
    scans stay exhaustive.  Leave it None for the definitive run.  `games`
    are the plan's prefix games and `punishments` the search on them when
    the caller has them already.
    Every check reads one stack U of the prefix games, U[k] after k rounds;
    the checkpoint checks run per punishment stage or profile on its rows,
    and a failure's witness is read off its row.
    """
    if games is None:
        try:
            games = fold_rounds(game, plan.rounds, plan.delta, plan.mode)
        except FoldError as exc:
            return {"round_cap": PropertyResult("fail", str(exc),
                                                {"round": exc.round_index})}
    results = {"round_cap": PropertyResult("pass")}
    U = np.stack([g.utilities for g in games])
    R, n, S = len(plan.rounds), game.num_players, plan.welfare_stage_rounds
    t = plan.target.profile
    T = U[(..., *t)]  # the target's payoffs, one row per prefix
    x = np.asarray(plan.expected_terminal_payoffs)
    probed = _prefix_indices(R + 1, checkpoint_budget, "checkpoint_budget")

    # Checkpoint hashes and per-round legality fell out of the fold: a bad
    # round would have raised while folding.
    results["checkpoint_hashes"] = _verdict(all(
        content_hash(games[c.rounds_applied]) == c.game_hash for c in plan.checkpoints))

    # (P1') discretized continuity: every step stays within the cap ball.
    results["P1prime"] = _verdict(np.all(np.abs(U[1:] - U[:-1]) <= 2 * plan.delta + 1e-12))

    # Stage anchors: Nash where promised, punishment under ceiling everywhere.
    anchor_fail = punish_fail = nd_fail = None
    seed_applies = _seed_nash_applies(plan.case_tag)
    full_support_case = plan.case_tag in ("full_support_2p", "full_support_np")
    if seed_applies:
        checks = [check for stage, group in _stage_groups(plan, probed)
                  for check in nash_batch(U[group], stage.seed, 1e-8)]
        j = next((j for j, check in enumerate(checks) if not check.ok), None)
        if j is not None:
            anchor_fail = {"checkpoint": probed[j], "player": checks[j].player + 1,
                           "gain": checks[j].gain}
    punishments = punishments or _prefix_punishments(plan, U, probed)
    k = next((k for k in probed if punishments[k][0] == "none"), None)
    if k is not None:
        punish_fail = {"checkpoint": k, "reason": punishments[k][2]}
    if full_support_case:
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
    if seed_applies:
        results["baseline_nash"] = (
            PropertyResult("pass") if anchor_fail is None else
            PropertyResult("fail", "stage anchor not Nash at a checkpoint",
                           anchor_fail))
    else:
        results["baseline_nash"] = PropertyResult("na",
                                                  "2x2 narrowing recomputes the anchor")

    # The baseline's payoff per prefix and player, at the prefixes that
    # (a1) and Q5 read.
    a1_applies = plan.case_tag in ("partial_support_disjoint", "partial_support_mixed",
                                   "full_support_2p", "full_support_np",
                                   "welfare_transfer_stage")
    welfare = S > 0 or plan.case_tag == "welfare_transfer_stage"
    base = np.full((R + 1, n), np.nan)
    for k in {*(probed if a1_applies else ()), *(range(S + 1) if welfare else ())}:
        base[k] = [expected_utility(games[k], plan.baseline, i) for i in range(n)]

    # (a1): the baseline stays a same-support punishable equilibrium, which
    # needs the anchor Nash checks plus baseline payoffs never rising.
    if a1_applies:
        drift_ok = np.all(base[probed] <= base[0] + 1e-9)
        results["a1"] = _verdict(anchor_fail is None and punish_fail is None and drift_ok)
    else:
        results["a1"] = PropertyResult("na", "construction does not promise (a1)")

    if full_support_case:
        rel = float(np.max(np.abs(dets - dets[0]) / np.maximum(np.abs(dets[0]), 1e-12)))
        results["P4prime"] = (
            PropertyResult("pass") if nd_fail is None else
            PropertyResult("fail", "baseline degenerate at a checkpoint", nd_fail))
        results["det_invariance"] = (
            PropertyResult("pass", f"max relative drift {rel:.3g}")
            if rel <= 1e-7 else
            PropertyResult("fail", f"determinant drift {rel:.3g} > 1e-7"))
    else:
        results["P4prime"] = _verdict(anchor_fail is None and punish_fail is None,
                                      "tracked through stage anchors")
        results["det_invariance"] = PropertyResult("na")

    # (P2') burn monotonicity outside the welfare stage; the comparison
    # stays `a > b + eps`, since `a - b > eps` can round differently.
    results["P2prime"] = _verdict(not np.any(U[S + 1:] > U[S:-1] + 1e-12))

    # (P3') target payoffs pinned after the welfare stage.
    results["P3prime"] = _verdict(np.all(np.abs(T[S:] - T[S]) <= 1e-12))

    # (b) == (P5'): the target is Nash at the end.
    terminal = is_nash(games[R], MixedProfile.pure(game.action_counts, t), TOLERANCE)
    b_res = (PropertyResult("pass") if terminal.ok and np.all(np.abs(T[R] - x) <= 1e-9)
             else PropertyResult("fail", "terminal target not Nash or payoffs off",
                                 {"nash_gain": terminal.gain}))
    results["b"] = b_res
    results["P5prime"] = b_res

    # Welfare-stage homotopy properties.
    if welfare:
        welfare_series = U[:S + 1].sum(axis=1)
        results["Q1"] = results["P1prime"]
        results["Q2"] = _verdict(np.all(welfare_series[1:] <= welfare_series[:-1] + 1e-9))
        results["Q3"] = _verdict(np.all(np.abs(T[S] - x) <= 1e-9))
        results["Q4"] = _verdict(all(check.ok for check in
                                     nash_batch(U[:S + 1], plan.baseline, 1e-8)))
        q5_ok = np.all(base[1:S + 1] <= base[:S] + 1e-9)
        # Players whose raise at the welfare maximizer has baseline support
        # mass are compensated; their baseline payoff must be pinned.
        _, a_sw = welfare_max(game)
        pinned = [i for i in range(n)
                  if x[i] - game.payoff(i, a_sw) > 1e-12
                  and math.prod(float(plan.baseline.probs[j][a_sw[j]])
                                for j in range(n) if j != i) > 1e-12]
        pinned_ok = not np.any(np.abs(base[:S + 1, pinned] - base[0, pinned]) > 1e-9)
        results["Q5"] = _verdict(q5_ok and pinned_ok)
    else:
        for key in ("Q1", "Q2", "Q3", "Q4", "Q5"):
            results[key] = PropertyResult("na")
    return results


def commitment_deviation_moves(game: Game, player: int, delta: float,
                               mode: str,
                               amounts: Sequence[float]) -> list[tuple[str, list[Pledge]]]:
    """Finite grid of single-round deviations for one player.

    Elementary burn directions at each outcome and amount, single
    transfers per recipient in transfers mode, the empty round, and (for
    small games) the pay-here/burn-there combination pattern.
    """
    n = game.num_players
    outcomes = [tuple(int(a) for a in p) for p in game.pure_profiles()]
    moves: list[tuple[str, list[Pledge]]] = [("noop", [])]
    for o in outcomes:
        for x in amounts:
            moves.append((f"P{o}x{x:g}", [Pledge(player, o, BURN, x)]))
            m_pledges = [Pledge(player, tuple(a if j != player else b
                                              for j, a in enumerate(o)), BURN, x)
                         for b in range(game.action_counts[player])
                         if b != o[player]]
            moves.append((f"M{o}x{x:g}", m_pledges))
            if mode == "transfers":
                for r in range(n):
                    if r != player:
                        moves.append((f"T{o}->{r + 1}x{x:g}",
                                      [Pledge(player, o, r, x)]))
    if mode == "transfers" and len(outcomes) <= ADVERSARIAL_COMBO_OUTCOME_LIMIT:
        for r in range(n):
            if r == player:
                continue
            for pay in outcomes:
                for burn in outcomes:
                    if burn == pay:
                        continue
                    moves.append((f"A pay{pay}->{r + 1} burn{burn}",
                                  [Pledge(player, pay, r, delta),
                                   Pledge(player, burn, BURN, delta)]))
    return moves


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


def _edit_lists(game: Game, pledge_lists) -> list[tuple[tuple[int, float], ...]]:
    """Each pledge list as (flat cell, signed amount) updates of a flattened
    utility tensor, in the order `apply_transfers` makes them: per pledge
    the payer's debit, then the recipient's credit.  Adding -a is `u -= a`
    bit for bit, so the folded bits match."""
    shape = game.utilities.shape
    block, *strides = [int(np.prod(shape[j + 1:])) for j in range(len(shape))]
    lists = []
    for pledges in pledge_lists:
        edits = []
        for p in pledges:
            at = sum(map(operator.mul, p.outcome, strides))
            edits.append((p.payer * block + at, -float(p.amount)))
            if p.recipient != BURN:
                edits.append((p.recipient * block + at, float(p.amount)))
        lists.append(tuple(edits))
    return lists


def _cell_edits(edit_lists) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Edit lists as cell updates of a stack of flattened utility tensors:
    row m of the stack takes `edit_lists[m]`, and slot s holds the s-th
    update of every row that has one, as (rows, cells, signed amounts)."""
    slots = [[(m, *edits[s]) for m, edits in enumerate(edit_lists) if s < len(edits)]
             for s in range(max(map(len, edit_lists), default=0))]
    return [tuple(np.array(col) for col in zip(*slot)) for slot in slots]


def _check_moves(game: Game, pledge_lists, finite: np.ndarray, plan: ProtocolPlan) -> None:
    """Raise what folding each move's pledges into the first prefix's
    deviation game would raise, move by move: the round's first broken
    rule, else non-finite utilities.  `finite` says, per move, whether its
    folded game is finite.

    A move's pledges all have payer d and the others' never do, so their
    cap totals never mix, and a round's rules depend only on the game's
    shape: checking each move's rules once, on `game`, raises what folding
    it at every prefix would.  Non-finite games of later prefixes raise in
    `punish_batch`, with the same message.
    """
    for pledges, ok in zip(pledge_lists, finite.tolist()):
        v = round_violation(game, pledges, plan.delta, plan.mode)
        if v is not None:
            raise TransferError(v.code, v.message, v.payer, v.outcome)
        if not ok:
            raise GameShapeError("utilities must be finite")


def check_deviations(game: Game, plan: ProtocolPlan, *, amounts: Sequence[float] | None = None,
                     budget: int | None = None, games: Sequence[Game] | None = None,
                     punishments: PrefixPunishments | None = None
                     ) -> dict[str, DeviationClassResult]:
    """Probe the four deviation classes against the plan's punishment rule.

    The deviation games of consecutive prefixes under one punishment stage
    are solved as one stack of at most ROW_BUDGET games (or one prefix's):
    per prefix and deviator, the prefix game with the others' pledges
    folded in as cell updates, plus each move's cell updates.  Moves with
    the same cell updates make the same game, so a stack holds each
    deviator's distinct games once and its duplicate moves share that
    row's search.  Each stack's findings are reduced as arrays, one row
    per move (`DeviationClassResult.record_rows`): a gain per row, the
    first largest as the worst, and a `DeviationFinding` only for rows
    without a punishment.  `games` are the plan's prefix games and
    `punishments` the search on them when the caller has them already.
    """
    amounts = tuple(amounts) if amounts else (plan.delta / 2, plan.delta)
    games = fold_rounds(game, plan.rounds, plan.delta, plan.mode) if games is None else games
    U = np.stack([g.utilities for g in games])
    R, n = len(plan.rounds), game.num_players
    on_path = np.asarray(plan.expected_terminal_payoffs)
    results = {c: DeviationClassResult() for c in DEVIATION_CLASSES}

    # One prefix's rows: each deviator's distinct moves; move m reads row spread[m].
    per_player = [commitment_deviation_moves(game, d, plan.delta, plan.mode, amounts)
                  for d in range(n)]
    names, pledge_lists = zip(*[move for m in per_player for move in m])
    deviator = np.repeat(np.arange(n), [len(m) for m in per_player])
    edit_lists = _edit_lists(game, pledge_lists)
    row_of: dict = {}
    spread = np.array([row_of.setdefault(key, len(row_of))
                       for key in zip(deviator.tolist(), edit_lists)])
    width = len(row_of)
    sizes = np.bincount([d for d, _ in row_of], minlength=n).tolist()
    edits = _cell_edits([e for _, e in row_of])
    prefixes = _prefix_indices(R, budget)
    for stage, group in _stage_groups(plan, prefixes, width):
        # Per prefix k and deviator d, prefix game k with the others'
        # round-k pledges; the whole round passed the fold, so any subset
        # of it is legal.
        base = np.repeat(U[group], n, axis=0)
        flat = base.reshape(len(base), -1)
        others = [[p for p in plan.rounds[k].pledges if p.payer != d]
                  for k in group for d in range(n)]
        for rows, cells, values in _cell_edits(_edit_lists(game, others)):
            flat[rows, cells] += values
        stack = np.repeat(base, sizes * len(group), axis=0)
        flat = stack.reshape(len(stack), -1)
        offsets = width * np.arange(len(group))[:, None]
        for rows, cells, values in edits:
            flat[(offsets + rows).ravel(), np.tile(cells, len(group))] += \
                np.tile(values, len(group))
        if group[0] == prefixes[0]:
            _check_moves(game, pledge_lists, np.isfinite(flat[:width]).all(axis=1)[spread], plan)
        found = punish_batch(stack, stage.supports, stage.seed, stage.ceiling)
        best, kinds, pure_best = found.best_response, found.kinds, found.pure_best
        if width < len(names):
            at = (offsets + spread).ravel()
            best, pure_best, kinds = best[at], pure_best[at], [kinds[r] for r in at.tolist()]
        rows, dev = np.arange(len(best)), np.tile(deviator, len(group))
        gains = best[rows, dev] - on_path[dev]
        none = np.isnan(gains)  # best_response is NaN on exactly the rows of kind "none"
        if none.any():
            # Priced at the deviator's best pure equilibrium, if any.
            pure = pure_best[rows[none], dev[none]]
            gains[none] = np.where(pure > -math.inf, pure - on_path[dev[none]],
                                   math.inf)
        results["commitment"].record_rows(
            FindingRows(gains, kinds, group, deviator, names))

    # The first vote happens after round 1.
    stops = [k for k in prefixes if k != 0]
    if stops:
        punishments = punishments or _prefix_punishments(plan, U, stops)
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
    u_range = max(game.utility_range, 1e-12)
    bound = (ROUND_BOUND_CONSTANT * game.num_players * u_range
             * max(game.action_counts) / plan.delta)
    return BoundCheck(len(plan.rounds) <= bound, len(plan.rounds), bound,
                      ROUND_BOUND_CONSTANT)


def witness_transcript(game: Game, plan: ProtocolPlan, finding: DeviationFinding,
                       move_pledges: Sequence[Pledge] | None = None) -> dict:
    """Replayable prefix+deviation transcript for a failed deviation check."""
    rounds = [round_to_dict(r) for r in plan.rounds[:finding.prefix]]
    votes = [[True] * game.num_players for _ in range(finding.prefix)]
    doc = {
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
    if move_pledges is not None:
        doc["deviation"]["pledges"] = [round_to_dict(CommitmentRound(tuple(move_pledges)))]
    return doc


def verify_plan(game: Game, plan: ProtocolPlan, *,
                amounts: Sequence[float] | None = None,
                budget: int | None = None,
                checkpoint_budget: int | None = None) -> VerificationReport:
    """Full verification: on-path properties, deviation grid, round bound.

    Raises DocumentError, as for a plan file, when the plan breaks what
    every built plan meets or does not fit `game`.
    """
    if content_hash(game) != plan.base_game_hash:
        raise ValueError("plan was built for a different game (hash mismatch)")
    check_plan_for_game(plan, game)
    # One search serves the probed checkpoints and the early stops.
    ks = sorted({*_prefix_indices(plan.num_rounds + 1, checkpoint_budget, "checkpoint_budget"),
                 *_prefix_indices(plan.num_rounds, budget)})
    try:
        games = fold_rounds(game, plan.rounds, plan.delta, plan.mode)
    except FoldError:
        games = None  # check_on_path reports the failing round
    punishments = None if games is None else _prefix_punishments(
        plan, np.stack([g.utilities for g in games]), ks)
    properties = check_on_path(game, plan, checkpoint_budget=checkpoint_budget,
                               games=games, punishments=punishments)
    if properties["round_cap"].status == "fail":
        deviations = {c: DeviationClassResult() for c in DEVIATION_CLASSES}
    else:
        deviations = check_deviations(game, plan, amounts=amounts, budget=budget,
                                      games=games, punishments=punishments)
    bound = round_bound_check(plan, game)
    grid = {
        "amounts": list(amounts) if amounts else [plan.delta / 2, plan.delta],
        "budget": budget,
        "tolerance": TOLERANCE,
        "adversarial_combos": len(list(game.pure_profiles()))
        <= ADVERSARIAL_COMBO_OUTCOME_LIMIT and plan.mode == "transfers",
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
