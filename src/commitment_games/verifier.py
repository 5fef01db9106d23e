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
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .engine import BURN, CommitmentRound, Pledge, round_to_dict
from .equilibria import (
    StackedSystem,
    find_punishment_equilibrium,
    is_nash,
    is_non_degenerate,
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
    deviation_payoffs,
    expected_utility,
    game_distance,
    round_violation,
    welfare_max,
)
from .protocols import FoldError, ProtocolPlan, fold_rounds

ROUND_BOUND_CONSTANT = 64.0
ADVERSARIAL_COMBO_OUTCOME_LIMIT = 20
# Games per stacked punishment search.  Larger stacks make fewer, larger
# calls, but the search's working arrays grow with them and raise the
# peak memory of a verify run.
ROW_BUDGET = 1024

DEVIATION_CLASSES = ("commitment", "early_stop", "continue_when_stop",
                     "terminal_action")


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


def best_response_payoff(game: Game, profile: MixedProfile, player: int) -> float:
    return float(np.max(deviation_payoffs(game, profile, player)))


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


def _stacked(games: Sequence[Game], ks: Sequence[int]) -> np.ndarray:
    return np.stack([games[k].utilities for k in ks])


def _stage_punishments(plan: ProtocolPlan, games: Sequence[Game],
                       ks: Sequence[int]) -> tuple[list[str], np.ndarray]:
    """The punishment search on each prefix game k in `ks`, in order: the
    kinds and each player's best-response payoff (one row per k), from one
    `punish_batch` per punishment stage."""
    kinds, best = [], []
    for stage, group in _stage_groups(plan, ks):
        res = punish_batch(_stacked(games, group), stage.supports, stage.seed,
                           stage.ceiling)
        kinds += res.kinds
        best.append(res.best_response)
    return kinds, np.concatenate(best)


def check_on_path(game: Game, plan: ProtocolPlan, tol: float = 1e-9,
                  checkpoint_budget: int | None = None, *,
                  games: Sequence[Game] | None = None) -> dict[str, PropertyResult]:
    """Replay the plan and evaluate its construction promises per checkpoint.

    `checkpoint_budget` caps how many checkpoints get the expensive anchor
    and punishment checks (endpoints always included); cheap whole-plan
    scans stay exhaustive.  Leave it None for the definitive run.  `games`
    are the plan's prefix games when the caller has folded them already.
    The checkpoint checks run as stacks, one per punishment stage or
    profile; only a failure's witness is recomputed on its single game.
    """
    results: dict[str, PropertyResult] = {}
    if games is None:
        try:
            games = fold_rounds(game, plan.rounds, plan.delta, plan.mode)
        except FoldError as exc:
            return {"round_cap": PropertyResult("fail", str(exc),
                                                {"round": exc.round_index})}
    results["round_cap"] = PropertyResult("pass")
    R = len(plan.rounds)
    probed = _prefix_indices(R + 1, checkpoint_budget)

    # Checkpoint hashes and per-round legality fell out of the fold: a bad
    # round would have raised while folding.
    hash_ok = all(content_hash(games[c.rounds_applied]) == c.game_hash
                  for c in plan.checkpoints)
    results["checkpoint_hashes"] = PropertyResult("pass" if hash_ok else "fail")

    # (P1') discretized continuity: every step stays within the cap ball.
    step_ok = all(game_distance(games[k], games[k + 1]) <= 2 * plan.delta + 1e-12
                  for k in range(R))
    results["P1prime"] = PropertyResult("pass" if step_ok else "fail")

    # Stage anchors: Nash where promised, punishment under ceiling everywhere.
    anchor_fail = punish_fail = None
    nd_fail = None
    seed_applies = _seed_nash_applies(plan.case_tag)
    full_support_case = plan.case_tag in ("full_support_2p", "full_support_np")
    if seed_applies:
        checks = {}
        for stage, group in _stage_groups(plan, probed):
            checks.update(zip(group, nash_batch(_stacked(games, group), stage.seed,
                                                1e-8)))
        k = next((k for k in probed if not checks[k].ok), None)
        if k is not None:
            anchor_fail = {"checkpoint": k, "player": checks[k].player + 1,
                           "gain": checks[k].gain}
    kinds, _ = _stage_punishments(plan, games, probed)
    k = next((k for k, kind in zip(probed, kinds) if kind == "none"), None)
    if k is not None:
        # The scalar search states why nothing qualified.
        stage = plan.stage_for(k)
        pun = find_punishment_equilibrium(games[k], stage.supports, stage.seed,
                                          stage.ceiling)
        punish_fail = {"checkpoint": k, "reason": pun.reason}
    if full_support_case:
        stack = _stacked(games, probed)
        nd_ok = non_degenerate_batch(stack, plan.baseline)
        if not nd_ok.all():
            k = probed[int(np.argmin(nd_ok))]
            try:
                nd = is_non_degenerate(games[k], plan.baseline)
                nd_fail = {"checkpoint": k, "det": nd.det,
                           "min_residual": nd.min_residual}
            except ValueError as exc:
                nd_fail = {"checkpoint": k, "error": str(exc)}
        system = StackedSystem(stack, plan.action_orders or plan.baseline.supports())
        if game.num_players == 2:
            dets = [np.linalg.det(system.block_matrix(0)),
                    np.linalg.det(system.block_matrix(1))]
        else:
            dets = [np.linalg.det(system.jacobian(system.profile_vectors(plan.baseline)))]
        det_series = np.stack(dets, axis=1).tolist()

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

    # (a1): the baseline stays a same-support punishable equilibrium, which
    # needs the anchor Nash checks plus baseline payoffs never rising.
    if plan.case_tag in ("partial_support_disjoint", "partial_support_mixed",
                        "full_support_2p", "full_support_np",
                        "welfare_transfer_stage"):
        base_u = [expected_utility(game, plan.baseline, i)
                  for i in range(game.num_players)]
        drift_ok = all(
            expected_utility(games[k], plan.baseline, i) <= base_u[i] + 1e-9
            for k in probed for i in range(game.num_players))
        ok = anchor_fail is None and punish_fail is None and drift_ok
        results["a1"] = PropertyResult("pass" if ok else "fail")
    else:
        results["a1"] = PropertyResult("na", "construction does not promise (a1)")

    if full_support_case:
        det0 = det_series[0]
        rel = max(abs(d - d0) / max(abs(d0), 1e-12)
                  for row in det_series for d, d0 in zip(row, det0))
        results["P4prime"] = (
            PropertyResult("pass") if nd_fail is None else
            PropertyResult("fail", "baseline degenerate at a checkpoint", nd_fail))
        results["det_invariance"] = (
            PropertyResult("pass", f"max relative drift {rel:.3g}")
            if rel <= 1e-7 else
            PropertyResult("fail", f"determinant drift {rel:.3g} > 1e-7"))
    else:
        results["P4prime"] = PropertyResult(
            "pass" if anchor_fail is None and punish_fail is None else "fail",
            "tracked through stage anchors")
        results["det_invariance"] = PropertyResult("na")

    # (P2') burn monotonicity outside the welfare stage.
    suffix_start = plan.welfare_stage_rounds
    mono_ok = True
    for k in range(suffix_start, R):
        if np.any(games[k + 1].utilities > games[k].utilities + 1e-12):
            mono_ok = False
            break
    results["P2prime"] = PropertyResult("pass" if mono_ok else "fail")

    # (P3') target payoffs pinned after the welfare stage.
    t = plan.target.profile
    ref = games[suffix_start].payoffs(t)
    pin_ok = all(np.all(np.abs(games[k].payoffs(t) - ref) <= 1e-12)
                 for k in range(suffix_start, R + 1))
    results["P3prime"] = PropertyResult("pass" if pin_ok else "fail")

    # (b) == (P5'): the target is Nash at the end.
    target_profile = MixedProfile.pure(game.action_counts, t)
    terminal = is_nash(games[R], target_profile, tol)
    payoff_ok = np.all(np.abs(games[R].payoffs(t)
                              - np.asarray(plan.expected_terminal_payoffs)) <= 1e-9)
    b_res = (PropertyResult("pass") if terminal.ok and payoff_ok else
             PropertyResult("fail", "terminal target not Nash or payoffs off",
                            {"nash_gain": terminal.gain}))
    results["b"] = b_res
    results["P5prime"] = b_res

    # Welfare-stage homotopy properties.
    if plan.welfare_stage_rounds > 0 or plan.case_tag == "welfare_transfer_stage":
        S = plan.welfare_stage_rounds
        w_series = [games[k].utilities.sum(axis=0) for k in range(S + 1)]
        q2_ok = all(np.all(w_series[k + 1] <= w_series[k] + 1e-9)
                    for k in range(S))
        results["Q1"] = results["P1prime"]
        results["Q2"] = PropertyResult("pass" if q2_ok else "fail")
        x = np.asarray(plan.expected_terminal_payoffs)
        q3_ok = np.all(np.abs(games[S].payoffs(t) - x) <= 1e-9)
        results["Q3"] = PropertyResult("pass" if q3_ok else "fail")
        q4_ok = all(check.ok for check in nash_batch(_stacked(games, range(S + 1)),
                                                     plan.baseline, 1e-8))
        results["Q4"] = PropertyResult("pass" if q4_ok else "fail")
        base_u = [expected_utility(game, plan.baseline, i)
                  for i in range(game.num_players)]
        series = [[expected_utility(games[k], plan.baseline, i)
                   for k in range(S + 1)] for i in range(game.num_players)]
        q5_ok = all(series[i][k + 1] <= series[i][k] + 1e-9
                    for i in range(game.num_players) for k in range(S))
        # Players whose raise at the welfare maximizer has baseline support
        # mass are compensated; their baseline payoff must be pinned.
        _, a_sw = welfare_max(game)
        pinned_ok = True
        for i in range(game.num_players):
            D = plan.expected_terminal_payoffs[i] - game.payoff(i, a_sw)
            q = math.prod(float(plan.baseline.probs[j][a_sw[j]])
                          for j in range(game.num_players) if j != i)
            if D > 1e-12 and q > 1e-12:
                if any(abs(series[i][k] - base_u[i]) > 1e-9 for k in range(S + 1)):
                    pinned_ok = False
        results["Q5"] = PropertyResult("pass" if q5_ok and pinned_ok else "fail")
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


def _prefix_indices(total: int, budget: int | None) -> list[int]:
    if total == 0:
        return []
    if budget is None or budget >= total:
        return list(range(total))
    step = total / budget
    picked = {0, total - 1}
    picked.update(min(total - 1, int(i * step)) for i in range(budget))
    return sorted(picked)


def _cell_edits(game: Game, pledge_lists) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Pledge lists as cell updates of a stack of flattened utility tensors.

    Row m of the stack takes `pledge_lists[m]`.  Slot s holds the s-th
    update of every row that has one, as (rows, cells, signed amounts), in
    the order `apply_transfers` makes them: per pledge the payer's debit,
    then the recipient's credit.  Adding -a is `u -= a` bit for bit, so
    the folded bits match.
    """
    shape = game.utilities.shape
    slots: list[list[tuple[int, int, float]]] = []
    for m, pledges in enumerate(pledge_lists):
        edits = []
        for p in pledges:
            edits.append(((p.payer, *p.outcome), -float(p.amount)))
            if p.recipient != BURN:
                edits.append(((p.recipient, *p.outcome), float(p.amount)))
        for s, (cell, amount) in enumerate(edits):
            if s == len(slots):
                slots.append([])
            slots[s].append((m, int(np.ravel_multi_index(cell, shape)), amount))
    return [tuple(np.array(col) for col in zip(*slot)) for slot in slots]


def _check_moves(game: Game, moves, flat: np.ndarray, plan: ProtocolPlan) -> None:
    """Raise what folding each move into the first prefix's deviation game
    would raise, move by move: the round's first broken rule, else
    non-finite utilities.  `flat` holds the folded games, one flattened
    row per move.

    A move's pledges all have payer d and the others' never do, so their
    cap totals never mix, and a round's rules depend only on the game's
    shape: checking each move's rules once, on `game`, raises what folding
    it at every prefix would.  Non-finite games of later prefixes raise in
    `punish_batch`, with the same message.
    """
    finite = np.isfinite(flat).all(axis=1)
    for (_, pledges), ok in zip(moves, finite.tolist()):
        v = round_violation(game, pledges, plan.delta, plan.mode)
        if v is not None:
            raise TransferError(v.code, v.message, v.payer, v.outcome)
        if not ok:
            raise GameShapeError("utilities must be finite")


def check_deviations(game: Game, plan: ProtocolPlan, *,
                     amounts: Sequence[float] | None = None,
                     budget: int | None = None,
                     games: Sequence[Game] | None = None) -> dict[str, DeviationClassResult]:
    """Probe the four deviation classes against the plan's punishment rule.

    The deviation games of consecutive prefixes under one punishment stage
    are solved as one stack of at most ROW_BUDGET games (or one prefix's):
    per prefix and deviator, the prefix game with the others' pledges
    folded in as cell updates, plus each move's cell updates.  Each
    stack's findings are reduced as arrays (`DeviationClassResult.
    record_rows`): a gain per row, the first largest as the worst, and a
    `DeviationFinding` only for rows without a punishment.  `games` are
    the plan's prefix games when the caller has folded them already.
    """
    amounts = tuple(amounts) if amounts else (plan.delta / 2, plan.delta)
    games = fold_rounds(game, plan.rounds, plan.delta, plan.mode) if games is None else games
    R = len(plan.rounds)
    n = game.num_players
    on_path = np.asarray(plan.expected_terminal_payoffs)
    results = {c: DeviationClassResult() for c in DEVIATION_CLASSES}

    # One prefix's rows: each deviator's moves, deviator by deviator.
    per_player = [commitment_deviation_moves(game, d, plan.delta, plan.mode, amounts)
                  for d in range(n)]
    moves = [move for m in per_player for move in m]
    names = [name for name, _ in moves]
    width = len(moves)
    sizes = [len(m) for m in per_player]
    deviator = np.repeat(np.arange(n), sizes)
    edits = _cell_edits(game, [pledges for _, pledges in moves])
    prefixes = _prefix_indices(R, budget)
    for stage, group in _stage_groups(plan, prefixes, width):
        # Per prefix k and deviator d, prefix game k with the others'
        # round-k pledges; the whole round passed the fold, so any subset
        # of it is legal.
        base = np.repeat(_stacked(games, group), n, axis=0)
        flat = base.reshape(len(base), -1)
        others = [[p for p in plan.rounds[k].pledges if p.payer != d]
                  for k in group for d in range(n)]
        for rows, cells, values in _cell_edits(game, others):
            flat[rows, cells] += values
        stack = np.repeat(base, sizes * len(group), axis=0)
        flat = stack.reshape(len(stack), -1)
        offsets = width * np.arange(len(group))[:, None]
        for rows, cells, values in edits:
            flat[(offsets + rows).ravel(), np.tile(cells, len(group))] += \
                np.tile(values, len(group))
        if group[0] == prefixes[0]:
            _check_moves(game, moves, flat[:width], plan)
        found = punish_batch(stack, stage.supports, stage.seed, stage.ceiling)
        rows, dev = np.arange(len(stack)), np.tile(deviator, len(group))
        gains = found.best_response[rows, dev] - on_path[dev]
        none = np.asarray(found.kinds) == "none"
        if none.any():
            # Priced at the deviator's best pure equilibrium, if any.
            pure = found.pure_best[rows[none], dev[none]]
            gains[none] = np.where(pure > -math.inf, pure - on_path[dev[none]],
                                   math.inf)
        results["commitment"].record_rows(
            FindingRows(gains, found.kinds, group, deviator, names))

    # The first vote happens after round 1.
    stops = [k for k in prefixes if k != 0]
    if stops:
        kinds, best = _stage_punishments(plan, games, stops)
        gains = best - on_path
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
    terminal_game = games[R]
    for d in range(n):
        for a in range(game.action_counts[d]):
            if a == t[d]:
                continue
            prof = list(t)
            prof[d] = a
            gain = terminal_game.payoff(d, tuple(prof)) - on_path[d]
            results["terminal_action"].record(DeviationFinding(
                float(gain), R, d, f"play{a + 1}", "n/a"))
    return results


def round_bound_check(plan: ProtocolPlan, game: Game,
                      constant: float = ROUND_BOUND_CONSTANT) -> BoundCheck:
    """|rounds| <= C * n * delta^-1 * utility_range * max action count."""
    u_range = max(game.utility_range, 1e-12)
    bound = (constant * game.num_players * u_range
             * max(game.action_counts) / plan.delta)
    return BoundCheck(len(plan.rounds) <= bound, len(plan.rounds), bound, constant)


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
                checkpoint_budget: int | None = None,
                tol: float = 1e-9) -> VerificationReport:
    """Full verification: on-path properties, deviation grid, round bound."""
    if content_hash(game) != plan.base_game_hash:
        raise ValueError("plan was built for a different game (hash mismatch)")
    try:
        games = fold_rounds(game, plan.rounds, plan.delta, plan.mode)
    except FoldError:
        games = None  # check_on_path reports the failing round
    properties = check_on_path(game, plan, tol, checkpoint_budget, games=games)
    if properties["round_cap"].status == "fail":
        deviations = {c: DeviationClassResult() for c in DEVIATION_CLASSES}
    else:
        deviations = check_deviations(game, plan, amounts=amounts,
                                      budget=budget, games=games)
    bound = round_bound_check(plan, game)
    grid = {
        "amounts": list(amounts) if amounts else [plan.delta / 2, plan.delta],
        "budget": budget,
        "tolerance": tol,
        "adversarial_combos": len(list(game.pure_profiles()))
        <= ADVERSARIAL_COMBO_OUTCOME_LIMIT and plan.mode == "transfers",
        "certification": "grid",
    }
    prop_ok = all(r.status != "fail" for r in properties.values())
    dev_ok = all(
        (not r.structural_failures) and (r.worst is None or r.worst_gain <= tol)
        for r in deviations.values())
    witnesses = []
    for cls, res in deviations.items():
        if res.structural_failures or (res.worst is not None and res.worst_gain > tol):
            witnesses.append(witness_transcript(game, plan, res.worst))
    report = VerificationReport(properties, deviations, bound, grid,
                                prop_ok and dev_ok and bound.ok, witnesses)
    return report
