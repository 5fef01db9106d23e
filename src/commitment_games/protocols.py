"""Constructive synthesis of commitment schedules.

Each builder turns (game, baseline equilibrium, objective, per-round cap
delta) into a finite schedule of capped pledge rounds such that the
baseline stays a usable punishment anchor after every round and the
objective outcome ends up a Nash equilibrium of the folded game:

* partial-support burns: lower utilities off the baseline support until
  the target dominates its column, pre-burning headroom where a support
  column would otherwise erode the target action's residual;
* indirect three-stage variant when the target sits inside the support:
  anchor an out-of-support pure profile first, then steer to the target;
* two-player full-support row operations: pledges compile to row
  operations on the two indifference blocks, which preserve both block
  determinants and the mixed equilibrium while the first columns climb
  to zero;
* n >= 3 full-support coefficient shifts with the alternating-sign array,
  which leave the system value and gradient at the baseline untouched;
* the 2x2 gap-narrowing protocol;
* the welfare-transfer stage: a linear homotopy of payoff tensors that
  moves the welfare-maximizing outcome's payoffs to a requested split
  while keeping the baseline an equilibrium, then chains into the burn
  machinery.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .engine import CommitmentRound, Pledge, round_from_dict, round_to_dict
from .equilibria import (
    DegenerateEquilibriumError,
    build_characteristic_system,
    is_non_degenerate,
)
from .games import (
    BURN,
    MALFORMED,
    DocumentError,
    Game,
    MixedProfile,
    OutcomeTarget,
    apply_transfers,
    check_schema,
    content_hash,
    deviation_payoffs,
    expected_utility,
    pareto_improves,
    welfare_max,
)

PLAN_SCHEMA_VERSION = 1

CASE_TAGS = (
    "partial_support_disjoint",
    "partial_support_mixed",
    "in_support_indirect",
    "full_support_2p",
    "full_support_np",
    "two_by_two",
    "welfare_transfer_stage",
)

_AMOUNT_FLOOR = 1e-15
# Round counts grow with utility_range / delta (ex4 at delta 0.02 is 300);
# build_plan refuses caps that would need millions of rounds.
MAX_RANGE_PER_DELTA = 1e6


class InfeasibleError(ValueError):
    """Construction hypotheses unmet (reported, not silently patched)."""


class NotImprovingError(InfeasibleError):
    """Target does not strictly Pareto improve the baseline."""


@dataclass(frozen=True)
class ElementaryCommitment:
    """P/M/R building block; compiles to burn pledges.

    P lowers the player's utility at one outcome; M lowers it at every
    outcome sharing the others' actions except the named one; R shifts
    the coefficients of one indifference row by a whole array.
    """

    kind: str  # "P" | "M" | "R"
    player: int
    outcome: tuple[int, ...] | None = None  # P/M
    component: int | None = None  # R (1-based row index, norms first)
    amount: float = 0.0  # P/M
    array: tuple[float, ...] | None = None  # R, lexicographic coefficient order

    def compile(self, action_counts: Sequence[int],
                orders: Sequence[Sequence[int]] | None = None) -> list[Pledge]:
        if self.kind == "P":
            return [Pledge(self.player, self.outcome, BURN, self.amount)]
        if self.kind == "M":
            i = self.player
            out = []
            for a in range(action_counts[i]):
                if a == self.outcome[i]:
                    continue
                prof = list(self.outcome)
                prof[i] = a
                out.append(Pledge(i, tuple(prof), BURN, self.amount))
            return out
        raise ValueError("R commitments compile via _r_commitment_pledges")


@dataclass(frozen=True)
class PathSegment:
    """A linear homotopy of utility tensors: U(lam) = start + lam * direction
    over lam in [lam_start, lam_end].  Plans discretize segments into rounds
    whose per-outcome spend respects the cap."""

    start: Game
    direction: np.ndarray
    lam_start: float = 0.0
    lam_end: float = 1.0

    def at(self, lam: float) -> Game:
        return self.start.with_utilities(self.start.utilities
                                         + lam * self.direction)


@dataclass(frozen=True)
class PunishmentStage:
    """Punishment anchor in force from `first_round` on."""

    first_round: int
    supports: tuple[tuple[int, ...], ...]
    seed: MixedProfile
    ceiling: tuple[float, ...]
    label: str = "baseline"


@dataclass(frozen=True)
class Checkpoint:
    rounds_applied: int
    game_hash: str
    lam: float | None = None


@dataclass(frozen=True)
class ProtocolPlan:
    case_tag: str
    mode: str  # "transfers" | "burn_only"
    delta: float
    rounds: tuple[CommitmentRound, ...]
    target: OutcomeTarget
    baseline: MixedProfile
    punishment: tuple[PunishmentStage, ...]
    checkpoints: tuple[Checkpoint, ...]
    expected_terminal_payoffs: tuple[float, ...]
    base_game_hash: str
    welfare_stage_rounds: int = 0
    action_orders: tuple[tuple[int, ...], ...] | None = None

    def stage_for(self, rounds_applied: int) -> PunishmentStage:
        stage = self.punishment[0]
        for s in self.punishment:
            if s.first_round <= rounds_applied:
                stage = s
        return stage

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


def fold_plan(game: Game, plan: ProtocolPlan,
              upto: int | None = None) -> Game:
    """Apply the first `upto` rounds (all when None) to the base game."""
    upto = len(plan.rounds) if upto is None else upto
    g = game
    for r in plan.rounds[:upto]:
        g = apply_transfers(g, r, delta=plan.delta, mode=plan.mode)
    return g


def _finalize_plan(game: Game, rounds: Sequence[CommitmentRound], *, case_tag: str,
                   mode: str, delta: float, target: OutcomeTarget,
                   baseline: MixedProfile, punishment: Sequence[PunishmentStage],
                   expected: Sequence[float], welfare_stage_rounds: int = 0,
                   lam_values: Sequence[float] | None = None,
                   action_orders=None) -> ProtocolPlan:
    checkpoints = [Checkpoint(0, content_hash(game),
                              0.0 if lam_values is not None else None)]
    g = game
    for k, r in enumerate(rounds):
        g = apply_transfers(g, r, delta=delta, mode=mode)
        lam = None
        if lam_values is not None and k < len(lam_values):
            lam = lam_values[k]
        checkpoints.append(Checkpoint(k + 1, content_hash(g), lam))
    return ProtocolPlan(
        case_tag=case_tag, mode=mode, delta=float(delta), rounds=tuple(rounds),
        target=target, baseline=baseline, punishment=tuple(punishment),
        checkpoints=tuple(checkpoints),
        expected_terminal_payoffs=tuple(float(x) for x in expected),
        base_game_hash=content_hash(game),
        welfare_stage_rounds=welfare_stage_rounds,
        action_orders=None if action_orders is None
        else tuple(tuple(o) for o in action_orders),
    )


def _merge_streams(streams: Sequence[Sequence[list[Pledge]]]) -> list[CommitmentRound]:
    length = max((len(s) for s in streams), default=0)
    rounds = []
    for k in range(length):
        pledges: list[Pledge] = []
        for s in streams:
            if k < len(s):
                pledges.extend(s[k])
        rounds.append(CommitmentRound(tuple(pledges)))
    return rounds


def _burn_stream(payer: int, totals: dict[tuple[int, ...], float],
                 delta: float) -> list[list[Pledge]]:
    """Burn each outcome's total in delta-capped per-round slices."""
    remaining = {o: t for o, t in totals.items() if t > _AMOUNT_FLOOR}
    rounds = []
    while remaining:
        pledges = []
        for outcome in sorted(remaining):
            amt = min(delta, remaining[outcome])
            pledges.append(Pledge(payer, outcome, BURN, amt))
            remaining[outcome] -= amt
        remaining = {o: t for o, t in remaining.items() if t > _AMOUNT_FLOOR}
        rounds.append(pledges)
    return rounds


# ---------------------------------------------------------------------------
# Case classification
# ---------------------------------------------------------------------------

def _structural_case(game: Game, sigma: MixedProfile,
                     target: Sequence[int]) -> str:
    supports = sigma.supports()
    counts = game.action_counts
    target = tuple(target)
    if all(len(s) == c for s, c in zip(supports, counts)):
        if game.num_players == 2 and counts == (2, 2):
            return "two_by_two"
        if game.num_players == 2:
            return "full_support_2p"
        return "full_support_np"
    in_supp = [t in s for t, s in zip(target, supports)]
    if not any(in_supp):
        return "partial_support_disjoint"
    if not all(in_supp):
        return "partial_support_mixed"
    return "in_support_indirect"


def classify_case(game: Game, sigma: MixedProfile, target: Sequence[int]) -> str:
    """Validate the construction hypotheses and name the applicable case."""
    report = is_non_degenerate(game, sigma)
    if not report.ok:
        raise DegenerateEquilibriumError(
            f"baseline equilibrium is degenerate (det={report.det:.3g}, "
            f"min residual={report.min_residual:.3g})")
    ok, L = pareto_improves(game, target, sigma)
    if not ok:
        raise NotImprovingError(
            f"target does not strictly Pareto improve the baseline (margin {L:.6g})")
    return _structural_case(game, sigma, target)


# ---------------------------------------------------------------------------
# Partial-support burns (disjoint / mixed / indirect)
# ---------------------------------------------------------------------------

def _anchor_burn_streams(game: Game, sigma: MixedProfile, target: tuple[int, ...],
                         delta: float, margin: float) -> tuple[list, list]:
    """Per-player phase-1 (headroom) and phase-2 (column) burn streams that
    make `target` a Nash equilibrium while the baseline stays one.

    Phase 2 lowers each player's utility uniformly on the non-target rows
    of the target column; phase 1 pre-burns the player's own target-action
    rows off the target column so the phase-2 erosion of that action's
    residual never exhausts it.
    """
    n = game.num_players
    supports = sigma.supports()
    phase1, phase2 = [], []
    for i in range(n):
        t_i = target[i]
        col = tuple(target[j] for j in range(n) if j != i)
        col_outcomes = []
        best_other = -math.inf
        for a in range(game.action_counts[i]):
            if a == t_i:
                continue
            prof = list(target)
            prof[i] = a
            col_outcomes.append(tuple(prof))
            best_other = max(best_other, game.payoff(i, tuple(prof)))
        if not col_outcomes:
            raise InfeasibleError(f"player {i} has a single action")
        T = max(0.0, best_other - game.payoff(i, target) + margin)
        Q = 1.0
        for j in range(n):
            if j != i:
                Q *= float(sigma.probs[j][target[j]])
        if T > _AMOUNT_FLOOR and Q > _AMOUNT_FLOOR:
            if t_i in supports[i]:
                raise InfeasibleError(
                    "support column erodes an in-support target action")
            rho = expected_utility(game, sigma, i) - float(
                deviation_payoffs(game, sigma, i)[t_i])
            if rho <= _AMOUNT_FLOOR:
                raise InfeasibleError(
                    f"player {i}: no residual slack for the target action")
            if 1.0 - Q <= _AMOUNT_FLOOR:
                raise InfeasibleError(
                    f"player {i}: everyone else is locked on the target column")
            E = max(T, (T * Q - rho / 2.0) / (1.0 - Q))
            head_outcomes = []
            for other in product(*[range(game.action_counts[j])
                                   for j in range(n) if j != i]):
                if other == col:
                    continue
                prof = list(other)
                prof.insert(i, t_i)
                head_outcomes.append(tuple(prof))
            phase1.append(_burn_stream(i, {o: E for o in head_outcomes}, delta))
        else:
            phase1.append([])
        if T > _AMOUNT_FLOOR:
            phase2.append(_burn_stream(i, {o: T for o in col_outcomes}, delta))
        else:
            phase2.append([])
    return phase1, phase2


def _anchor_rounds(game: Game, sigma: MixedProfile, target: tuple[int, ...],
                   delta: float, margin: float) -> list[CommitmentRound]:
    phase1, phase2 = _anchor_burn_streams(game, sigma, target, delta, margin)
    return _merge_streams(phase1) + _merge_streams(phase2)


def _choose_auxiliary_profile(game: Game, sigma: MixedProfile,
                              target: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest profile off the support with every coordinate off the target."""
    supports = sigma.supports()
    if any(c < 2 for c in game.action_counts):
        raise InfeasibleError("every player needs at least two actions")
    pivot = None
    for j in range(game.num_players):
        outside = [a for a in range(game.action_counts[j]) if a not in supports[j]]
        if outside:
            pivot = (j, min(outside))
            break
    if pivot is None:
        raise InfeasibleError("baseline has full support; no auxiliary profile")
    aux = []
    for i in range(game.num_players):
        if i == pivot[0]:
            aux.append(pivot[1])
        else:
            aux.append(min(a for a in range(game.action_counts[i]) if a != target[i]))
    return tuple(aux)


def build_partial_support_plan(game: Game, sigma: MixedProfile,
                               target: Sequence[int], delta: float, *,
                               case: str | None = None,
                               validate: bool = True) -> ProtocolPlan:
    """Burn-only plan for the disjoint, mixed, and indirect cases."""
    target = tuple(int(a) for a in target)
    if validate:
        case = classify_case(game, sigma, target)
    elif case is None:
        case = _structural_case(game, sigma, target)
    if case not in ("partial_support_disjoint", "partial_support_mixed",
                    "in_support_indirect"):
        raise InfeasibleError(f"partial-support builder got case {case!r}")
    n = game.num_players
    base_u_sigma = [expected_utility(game, sigma, i) for i in range(n)]
    L = min(game.payoff(i, target) - base_u_sigma[i] for i in range(n))
    ceiling = tuple(base_u_sigma[i] + L for i in range(n))
    target_obj = OutcomeTarget(target, "pareto_improver")
    expected = [game.payoff(i, target) for i in range(n)]

    if sigma.is_pure() and sigma.pure_profile() == target:
        return _finalize_plan(game, [], case_tag=case, mode="burn_only",
                              delta=delta, target=target_obj, baseline=sigma,
                              punishment=[PunishmentStage(0, sigma.supports(),
                                                          sigma, ceiling)],
                              expected=expected)

    if case != "in_support_indirect":
        rounds = _anchor_rounds(game, sigma, target, delta, 0.0)
        return _finalize_plan(game, rounds, case_tag=case, mode="burn_only",
                              delta=delta, target=target_obj, baseline=sigma,
                              punishment=[PunishmentStage(0, sigma.supports(),
                                                          sigma, ceiling)],
                              expected=expected)

    # Indirect: anchor an auxiliary pure profile with a strict delta margin,
    # then steer from it to the target.
    aux = _choose_auxiliary_profile(game, sigma, target)
    s1_totals = {}
    for i in range(n):
        need = game.payoff(i, aux) - game.payoff(i, target) + delta
        if need > _AMOUNT_FLOOR:
            s1_totals[i] = need
    s1_rounds = _merge_streams([_burn_stream(i, {aux: t}, delta)
                                for i, t in s1_totals.items()])
    g1 = game
    for r in s1_rounds:
        g1 = apply_transfers(g1, r, delta=delta, mode="burn_only")
    s2_rounds = _anchor_rounds(g1, sigma, aux, delta, delta + 1e-9)
    g2 = g1
    for r in s2_rounds:
        g2 = apply_transfers(g2, r, delta=delta, mode="burn_only")
    aux_profile = MixedProfile.pure(game.action_counts, aux)
    s3_rounds = _anchor_rounds(g2, aux_profile, target, delta, 0.0)
    stages = [
        PunishmentStage(0, sigma.supports(), sigma, ceiling, "baseline"),
        PunishmentStage(len(s1_rounds) + len(s2_rounds), aux_profile.supports(),
                        aux_profile, tuple(float(x) for x in g2.payoffs(aux)),
                        "aux-anchor"),
    ]
    return _finalize_plan(game, s1_rounds + s2_rounds + s3_rounds,
                          case_tag=case, mode="burn_only", delta=delta,
                          target=target_obj, baseline=sigma, punishment=stages,
                          expected=expected)


# ---------------------------------------------------------------------------
# Two-player full support: row operations on the indifference blocks
# ---------------------------------------------------------------------------

def _row_op_pledges(player: int, row: int, coeffs: np.ndarray,
                    own_order: Sequence[int], opp_order: Sequence[int],
                    counts: Sequence[int]) -> list[Pledge]:
    """Pledges realizing `block[row] += coeffs` for one player's block."""
    pledges = []
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    for k, d in enumerate(coeffs):
        if abs(d) <= _AMOUNT_FLOOR * scale:
            continue
        own, opp = own_order[row], opp_order[k]
        outcome = (own, opp) if player == 0 else (opp, own)
        if d > 0:
            pledges.append(Pledge(player, outcome, BURN, float(d)))
        else:
            for a in range(counts[player]):
                if a == own:
                    continue
                prof = (a, opp) if player == 0 else (opp, a)
                pledges.append(Pledge(player, prof, BURN, float(-d)))
    return pledges


def _first_column_stream(X: np.ndarray, player: int, own_order, opp_order,
                         counts, delta: float) -> list[list[Pledge]]:
    """Row operations (never touching row 0) until column 0 is nonnegative."""
    N = X.shape[0]
    scale = max(1.0, float(np.max(np.abs(X))))
    tol = 1e-12 * scale
    rounds: list[list[Pledge]] = []

    def apply_op(j: int, r: int, c_total: float):
        """row j += c_total * row r, in delta-capped chunks (one per round)."""
        row_r = X[r].copy()
        step = delta / max(float(np.max(np.abs(row_r))), _AMOUNT_FLOOR)
        remaining = abs(c_total)
        sign = 1.0 if c_total >= 0 else -1.0
        while remaining > _AMOUNT_FLOOR:
            c = sign * min(step, remaining)
            d = c * row_r
            rounds.append(_row_op_pledges(player, j, d, own_order, opp_order, counts))
            X[j] += d
            remaining -= abs(c)

    for _ in range(4):
        if np.all(X[1:, 0] >= -tol):
            break
        positive = [j for j in range(1, N) if X[j, 0] > tol]
        if positive:
            r = max(positive, key=lambda j: X[j, 0])
            for j in range(1, N):
                if j == r or X[j, 0] >= -tol:
                    continue
                apply_op(j, r, -X[j, 0] / X[r, 0])
        else:
            negative = [j for j in range(1, N) if X[j, 0] < -tol]
            r = min(negative, key=lambda j: X[j, 0])
            m = -X[r, 0]  # raise the other rows' first entries to this value
            for j in range(1, N):
                if j == r:
                    continue
                apply_op(j, r, (m - X[j, 0]) / X[r, 0])
    else:
        raise InfeasibleError("row operations failed to fix the first column")
    return rounds


def build_two_player_full_support_plan(game: Game, sigma: MixedProfile,
                                       target: Sequence[int], delta: float, *,
                                       validate: bool = True) -> ProtocolPlan:
    target = tuple(int(a) for a in target)
    if validate:
        case = classify_case(game, sigma, target)
        if case != "full_support_2p":
            raise InfeasibleError(f"expected a full-support two-player case, got {case}")
    if game.num_players != 2:
        raise InfeasibleError("two-player builder on a non-two-player game")
    n1, n2 = game.action_counts
    if n1 != n2:
        raise InfeasibleError(
            f"full-support two-player games need square blocks (got {n1}x{n2}); "
            "unequal action counts cannot carry a non-degenerate full-support "
            "equilibrium")
    if n1 < 3:
        raise InfeasibleError("row-operation protocol needs at least three actions")
    orders = tuple((t,) + tuple(a for a in range(c) if a != t)
                   for t, c in zip(target, game.action_counts))
    system = build_characteristic_system(game, orders)
    streams = []
    for player, block in ((0, system.x1), (1, system.x2)):
        streams.append(_first_column_stream(np.array(block), player,
                                            orders[player], orders[1 - player],
                                            game.action_counts, delta))
    rounds = _merge_streams(streams)
    n = game.num_players
    base_u_sigma = [expected_utility(game, sigma, i) for i in range(n)]
    L = min(game.payoff(i, target) - base_u_sigma[i] for i in range(n))
    ceiling = tuple(base_u_sigma[i] + L for i in range(n))
    return _finalize_plan(game, rounds, case_tag="full_support_2p",
                          mode="burn_only", delta=delta,
                          target=OutcomeTarget(target, "pareto_improver"),
                          baseline=sigma,
                          punishment=[PunishmentStage(0, sigma.supports(),
                                                      sigma, ceiling)],
                          expected=[game.payoff(i, target) for i in range(n)],
                          action_orders=orders)


# ---------------------------------------------------------------------------
# n >= 3 full support: coefficient shifts with the alternating-sign array
# ---------------------------------------------------------------------------

def alternating_shift_array(sigma: MixedProfile, n_players: int, component: int,
                       orders: Sequence[Sequence[int]] | None = None) -> np.ndarray:
    """Coefficient-shift array for one indifference row (1-based index,
    normalization rows first).

    The entry at position q (over the other players' listed actions) is
    (-1)^{sum q} times the product of each other player's swapped first/
    second listed-action probabilities; positions touching a third action
    are zero.  The array leaves the row's value and gradient at the
    baseline unchanged and its leading entry is strictly positive.
    """
    n = sigma.num_players
    if n_players != n:
        raise ValueError(f"profile has {n} players, n={n_players} given")
    if n < 3:
        raise ValueError("the array construction needs three or more players")
    if orders is None:
        orders = sigma.supports()
    orders = [tuple(o) for o in orders]
    if any(len(o) < 2 for o in orders):
        raise ValueError("every player needs at least two support actions")
    counts = [len(o) for o in orders]
    m_counts = [c - 1 for c in counts]
    if not (n < component <= n + sum(m_counts)):
        raise ValueError(f"component {component} is not an indifference row")
    idx = component - n - 1
    player = 0
    while idx >= m_counts[player]:
        idx -= m_counts[player]
        player += 1
    others = [j for j in range(n) if j != player]
    shape = tuple(counts[j] for j in others)
    x = np.zeros(shape)
    for q in product((0, 1), repeat=n - 1):
        val = 1.0
        for pos, j in enumerate(others):
            first, second = orders[j][0], orders[j][1]
            val *= float(sigma.probs[j][second if q[pos] == 0 else first])
        x[q] = ((-1) ** sum(q)) * val
    return x


def _r_commitment_pledges(player: int, compared_action: int, lam: float,
                          array: np.ndarray, orders: Sequence[Sequence[int]],
                          counts: Sequence[int]) -> list[Pledge]:
    """Pledges realizing a coefficient shift lam*array on one row."""
    n = len(orders)
    others = [j for j in range(n) if j != player]
    pledges = []
    for q, v in np.ndenumerate(array):
        amt = lam * float(v)
        if abs(amt) <= _AMOUNT_FLOOR:
            continue
        prof = [0] * n
        prof[player] = compared_action
        for pos, j in enumerate(others):
            prof[j] = orders[j][q[pos]]
        if amt > 0:
            pledges.append(Pledge(player, tuple(prof), BURN, amt))
        else:
            for a in range(counts[player]):
                if a == compared_action:
                    continue
                alt = list(prof)
                alt[player] = a
                pledges.append(Pledge(player, tuple(alt), BURN, -amt))
    return pledges


def build_multiplayer_plan(game: Game, sigma: MixedProfile,
                           target: Sequence[int], delta: float, *,
                           validate: bool = True) -> ProtocolPlan:
    target = tuple(int(a) for a in target)
    if validate:
        case = classify_case(game, sigma, target)
        if case != "full_support_np":
            raise InfeasibleError(f"expected the n>=3 full-support case, got {case}")
    n = game.num_players
    if n < 3:
        raise InfeasibleError("multiplayer builder needs three or more players")
    orders = []
    for i in range(n):
        rest = [a for a in range(game.action_counts[i]) if a != target[i]]
        rest.sort(key=lambda a: (-float(sigma.probs[i][a]), a))
        ordered = (target[i],) + tuple(rest)
        orders.append(ordered)
        if float(sigma.probs[i][ordered[1]]) <= _AMOUNT_FLOOR:
            raise InfeasibleError(f"player {i} lacks a second support action")
    orders = tuple(orders)
    system = build_characteristic_system(game, orders)
    streams = []
    comp_index = n  # walk the 1-based component numbering, norms first
    for i in range(n):
        stream: list[list[Pledge]] = []
        for k in range(1, len(orders[i])):
            comp_index += 1
            comp = system.components[comp_index - 1]
            assert comp.kind == "indiff" and comp.player == i
            first_coeff = float(comp.coeffs[(0,) * (n - 1)])
            needed = max(0.0, -first_coeff)
            if needed <= _AMOUNT_FLOOR:
                continue
            x = alternating_shift_array(sigma, n, comp_index, orders)
            lead = float(x[(0,) * (n - 1)])
            lam_total = needed / lead
            lam_step = delta / float(np.max(np.abs(x)))
            remaining = lam_total
            while remaining > _AMOUNT_FLOOR:
                lam = min(lam_step, remaining)
                stream.append(_r_commitment_pledges(i, orders[i][k], lam, x,
                                                    orders, game.action_counts))
                remaining -= lam
        streams.append(stream)
    rounds = _merge_streams(streams)
    base_u_sigma = [expected_utility(game, sigma, i) for i in range(n)]
    L = min(game.payoff(i, target) - base_u_sigma[i] for i in range(n))
    ceiling = tuple(base_u_sigma[i] + L for i in range(n))
    return _finalize_plan(game, rounds, case_tag="full_support_np",
                          mode="burn_only", delta=delta,
                          target=OutcomeTarget(target, "pareto_improver"),
                          baseline=sigma,
                          punishment=[PunishmentStage(0, sigma.supports(),
                                                      sigma, ceiling)],
                          expected=[game.payoff(i, target) for i in range(n)],
                          action_orders=orders)


# ---------------------------------------------------------------------------
# Two players, binary actions
# ---------------------------------------------------------------------------

def _gap_pair(game: Game, player: int, orders) -> tuple[float, float]:
    """(d0, d1): preference for the target action against the opponent's
    target/other action, in relabeled coordinates."""
    own0, own1 = orders[player]
    opp0, opp1 = orders[1 - player]

    def u(own, opp):
        prof = (own, opp) if player == 0 else (opp, own)
        return game.payoff(player, prof)

    return u(own0, opp0) - u(own1, opp0), u(own0, opp1) - u(own1, opp1)


def _player_type(d0: float, d1: float, tol: float = 1e-12) -> str:
    if abs(d0) <= tol and abs(d1) <= tol:
        return "indifferent"
    if d0 > tol and d1 < -tol:
        return "matching"
    if d0 < -tol and d1 > tol:
        return "mismatching"
    return "other"


def build_2x2_plan(game: Game, sigma: MixedProfile, target: Sequence[int],
                   delta: float, *, validate: bool = True) -> ProtocolPlan:
    """Gap-narrowing protocol for 2x2 games with a full-support baseline."""
    target = tuple(int(a) for a in target)
    if validate:
        case = classify_case(game, sigma, target)
        if case != "two_by_two":
            raise InfeasibleError(f"expected the 2x2 full-support case, got {case}")
    if game.num_players != 2 or game.action_counts != (2, 2):
        raise InfeasibleError("2x2 builder needs a two-player binary game")
    orders = tuple((t, 1 - t) for t in target)
    kinds, gaps = [], []
    for i in (0, 1):
        d0, d1 = _gap_pair(game, i, orders)
        kind = _player_type(d0, d1)
        if kind == "other":
            raise InfeasibleError(
                f"player {i} preferences ({d0:.3g}, {d1:.3g}) admit no "
                "full-support equilibrium")
        kinds.append(kind)
        gaps.append((d0, d1))
    bound = min((min(abs(d0), abs(d1)) for (d0, d1), k in zip(gaps, kinds)
                 if k in ("matching", "mismatching")), default=math.inf)
    if delta >= bound:
        raise InfeasibleError(
            f"delta={delta:g} must be below the smallest preference gap "
            f"{bound:g} of the non-indifferent players")

    def outcome(player, own, opp):
        return (own, opp) if player == 0 else (opp, own)

    # Step 1: burn the opponent-plays-other column until the target outcome
    # strictly dominates it (margin delta), preserving d1.
    step1 = []
    for i in (0, 1):
        own0, own1 = orders[i]
        opp1 = orders[1 - i][1]
        u00 = game.payoff(i, target)
        worst = max(game.payoff(i, outcome(i, own0, opp1)),
                    game.payoff(i, outcome(i, own1, opp1)))
        need = max(0.0, worst - u00 + delta)
        totals = {}
        if need > _AMOUNT_FLOOR:
            totals[outcome(i, own0, opp1)] = need
            totals[outcome(i, own1, opp1)] = need
        step1.append(_burn_stream(i, totals, delta))

    # Step 2: mismatching players narrow both gaps to exactly delta with the
    # min-capped per-round amounts.
    step2 = []
    for i in (0, 1):
        stream: list[list[Pledge]] = []
        if kinds[i] == "mismatching":
            d0, d1 = gaps[i]
            own0, own1 = orders[i]
            opp0, opp1 = orders[1 - i]
            rem0 = -d0 - delta  # burn on (own-other, opp-target)
            rem1 = d1 - delta  # burn on (own-target, opp-other)
            while rem0 > _AMOUNT_FLOOR or rem1 > _AMOUNT_FLOOR:
                pledges = []
                if rem0 > _AMOUNT_FLOOR:
                    amt = min(delta, rem0)
                    pledges.append(Pledge(i, outcome(i, own1, opp0), BURN, amt))
                    rem0 -= amt
                if rem1 > _AMOUNT_FLOOR:
                    amt = min(delta, rem1)
                    pledges.append(Pledge(i, outcome(i, own0, opp1), BURN, amt))
                    rem1 -= amt
                stream.append(pledges)
        step2.append(stream)

    # Step 3: one final delta on both gap outcomes closes them to zero.
    step3_pledges = []
    for i in (0, 1):
        if kinds[i] == "mismatching":
            own0, own1 = orders[i]
            opp0, opp1 = orders[1 - i]
            step3_pledges.append(Pledge(i, outcome(i, own1, opp0), BURN, delta))
            step3_pledges.append(Pledge(i, outcome(i, own0, opp1), BURN, delta))
    rounds = _merge_streams(step1) + _merge_streams(step2)
    if step3_pledges:
        rounds.append(CommitmentRound(tuple(step3_pledges)))

    ceiling = tuple(game.payoff(i, target) for i in (0, 1))
    return _finalize_plan(game, rounds, case_tag="two_by_two", mode="burn_only",
                          delta=delta,
                          target=OutcomeTarget(target, "pareto_improver"),
                          baseline=sigma,
                          punishment=[PunishmentStage(0, sigma.supports(),
                                                      sigma, ceiling)],
                          expected=[game.payoff(i, target) for i in (0, 1)],
                          action_orders=orders)


# ---------------------------------------------------------------------------
# Welfare-transfer stage (payoff-split homotopy)
# ---------------------------------------------------------------------------

def _welfare_stage_rates(game: Game, sigma: MixedProfile,
                         targets: Sequence[float]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Per-player per-outcome utility rates for the unit homotopy."""
    n = game.num_players
    w_val, a_sw = welfare_max(game)
    if abs(sum(targets) - w_val) > 1e-9:
        raise InfeasibleError(
            f"payoff targets sum to {sum(targets):.12g}, welfare max is {w_val:.12g}")
    u_sigma = [expected_utility(game, sigma, i) for i in range(n)]
    for i in range(n):
        if not targets[i] > u_sigma[i]:
            raise InfeasibleError(
                f"player {i}: target {targets[i]:.6g} does not strictly improve "
                f"the baseline utility {u_sigma[i]:.6g}")
    rates = np.zeros_like(game.utilities)
    deficits = []
    for i in range(n):
        D = targets[i] - game.payoff(i, a_sw)
        q = 1.0
        for j in range(n):
            if j != i:
                q *= float(sigma.probs[j][a_sw[j]])
        deficits.append((i, D, q))
    column_deficit = any(D > _AMOUNT_FLOOR and q > _AMOUNT_FLOOR
                         for _, D, q in deficits)
    for i, D, q in deficits:
        if abs(D) <= _AMOUNT_FLOOR:
            continue
        own_column = [a_sw[j] if j != i else slice(None) for j in range(n)]
        if q <= _AMOUNT_FLOOR:
            rates[(i, *a_sw)] += D
        elif D < 0:
            if column_deficit:
                rates[i] += D  # uniform everywhere keeps every row difference
            elif float(sigma.probs[i][a_sw[i]]) <= _AMOUNT_FLOOR:
                rates[(i, *a_sw)] += D
            else:
                rates[(i, *own_column)] += D
        else:
            rates[(i, *own_column)] += D
            s = (i + 1) % n
            candidates = [b for b in range(game.action_counts[s]) if b != a_sw[s]
                          and float(sigma.probs[s][b]) > _AMOUNT_FLOOR]
            if not candidates:
                raise InfeasibleError(
                    f"player {s} has no second support action to compensate "
                    f"player {i}'s raise")
            c = max(candidates, key=lambda b: (float(sigma.probs[s][b]), -b))
            ratio = float(sigma.probs[s][a_sw[s]]) / float(sigma.probs[s][c])
            comp_column = [a_sw[j] if j not in (i, s) else slice(None)
                           for j in range(n)]
            comp_column[s] = c
            rates[(i, *comp_column)] -= ratio * D
    welfare_rate = rates.sum(axis=0)
    if float(welfare_rate.max()) > 1e-9:
        raise InfeasibleError("internal: homotopy would raise per-outcome welfare")
    return rates, a_sw


def _stage_rounds(rates: np.ndarray, delta: float) -> tuple[list[CommitmentRound], list[float]]:
    """Compile the unit homotopy into capped transfer/burn rounds.

    Per outcome and round, negative-rate players pay their slice, matched
    proportionally to positive-rate players, with the slack burned.
    Cumulative amounts telescope exactly to the rate tensor at lambda=1.
    """
    n = rates.shape[0]
    rate_max = float(np.max(np.abs(rates)))
    if rate_max <= _AMOUNT_FLOOR:
        return [], []
    steps = int(math.ceil(rate_max / delta - 1e-12))
    outcomes = []
    for prof in np.ndindex(*rates.shape[1:]):
        col = rates[(slice(None), *prof)]
        if np.any(np.abs(col) > _AMOUNT_FLOOR):
            outcomes.append((tuple(int(a) for a in prof), np.array(col)))
    rounds, lams = [], []
    for k in range(steps):
        lo, hi = k / steps, (k + 1) / steps
        pledges = []
        for outcome, col in outcomes:
            losers = [i for i in range(n) if col[i] < -_AMOUNT_FLOOR]
            winners = [i for i in range(n) if col[i] > _AMOUNT_FLOOR]
            loss_rate = -sum(col[i] for i in losers)
            for l in losers:
                pay = col[l] * lo - col[l] * hi  # exact telescoping slice
                paid = 0.0
                for w in winners:
                    share = (col[w] * hi - col[w] * lo) * (-col[l] / loss_rate)
                    if share > _AMOUNT_FLOOR:
                        pledges.append(Pledge(l, outcome, w, share))
                        paid += share
                if pay - paid > _AMOUNT_FLOOR:
                    pledges.append(Pledge(l, outcome, BURN, pay - paid))
        rounds.append(CommitmentRound(tuple(pledges)))
        lams.append(hi)
    return rounds, lams


def welfare_path_segment(game: Game, sigma: MixedProfile,
                         payoff_targets: Sequence[float]) -> PathSegment:
    """The unit homotopy moving the welfare maximizer's payoffs to the
    requested split; its direction tensor is what the stage discretizes."""
    rates, _ = _welfare_stage_rates(game, sigma,
                                    [float(x) for x in payoff_targets])
    return PathSegment(game, rates)


def build_welfare_transfer_stage(game: Game, sigma: MixedProfile,
                                 payoff_targets: Sequence[float], delta: float, *,
                                 validate: bool = True) -> tuple[ProtocolPlan, Game]:
    """Stage plan moving the welfare maximizer's payoffs to the target split.

    Returns the stage-only plan plus the folded terminal game; the full
    construction chains the burn machinery on the terminal game.
    """
    targets = [float(x) for x in payoff_targets]
    if validate:
        report = is_non_degenerate(game, sigma)
        if not report.ok:
            raise DegenerateEquilibriumError(
                f"baseline equilibrium is degenerate (det={report.det:.3g}, "
                f"min residual={report.min_residual:.3g})")
    rates, a_sw = _welfare_stage_rates(game, sigma, targets)
    rounds, lams = _stage_rounds(rates, delta)
    n = game.num_players
    u_sigma = [expected_utility(game, sigma, i) for i in range(n)]
    L = max(targets[i] - u_sigma[i] for i in range(n))
    stage = PunishmentStage(0, sigma.supports(), sigma,
                            tuple(u_sigma[i] + L for i in range(n)),
                            "welfare-stage")
    plan = _finalize_plan(game, rounds, case_tag="welfare_transfer_stage",
                          mode="transfers", delta=delta,
                          target=OutcomeTarget(a_sw, "welfare_maximizer"),
                          baseline=sigma, punishment=[stage], expected=targets,
                          welfare_stage_rounds=len(rounds), lam_values=lams)
    terminal = fold_plan(game, plan)
    return plan, terminal


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def _improvement_plan(game: Game, sigma: MixedProfile, target: tuple[int, ...],
                      delta: float) -> ProtocolPlan:
    case = classify_case(game, sigma, target)
    if case in ("partial_support_disjoint", "partial_support_mixed",
                "in_support_indirect"):
        return build_partial_support_plan(game, sigma, target, delta,
                                          case=case, validate=False)
    if case == "full_support_2p":
        return build_two_player_full_support_plan(game, sigma, target, delta,
                                                  validate=False)
    if case == "two_by_two":
        return build_2x2_plan(game, sigma, target, delta, validate=False)
    return build_multiplayer_plan(game, sigma, target, delta, validate=False)


def build_plan(game: Game, sigma: MixedProfile, *,
               target: Sequence[int] | None = None,
               payoffs: Sequence[float] | None = None,
               delta: float) -> ProtocolPlan:
    """Top-level construction entry point.

    With `target`: a burn-only plan steering to the pure target outcome.
    With `payoffs`: the welfare-transfer stage followed by the burn
    machinery on the transformed game (transfers mode).
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    if not delta > 0:
        raise InfeasibleError("delta must be strictly positive")
    if game.utility_range > MAX_RANGE_PER_DELTA * delta:
        raise InfeasibleError(
            f"delta {delta:g} is below the utility range / {MAX_RANGE_PER_DELTA:g}: "
            f"the plan would take too many rounds")
    if (target is None) == (payoffs is None):
        raise InfeasibleError("exactly one of target/payoffs is required")
    if target is not None:
        return _improvement_plan(game, sigma, tuple(int(a) for a in target), delta)

    stage_plan, mid_game = build_welfare_transfer_stage(game, sigma, payoffs, delta)
    a_sw = stage_plan.target.profile
    sub = _improvement_plan(mid_game, sigma, a_sw, delta)
    rounds = stage_plan.rounds + sub.rounds
    offset = len(stage_plan.rounds)
    stages = list(stage_plan.punishment)
    for s in sub.punishment:
        stages.append(PunishmentStage(s.first_round + offset, s.supports,
                                      s.seed, s.ceiling, s.label))
    lam_values = [c.lam for c in stage_plan.checkpoints[1:]]
    return _finalize_plan(game, rounds, case_tag="welfare_transfer_stage",
                          mode="transfers", delta=delta,
                          target=OutcomeTarget(a_sw, "welfare_maximizer"),
                          baseline=sigma, punishment=stages,
                          expected=payoffs,
                          welfare_stage_rounds=offset, lam_values=lam_values,
                          action_orders=sub.action_orders)


def choose_delta(game: Game, sigma: MixedProfile, *,
                 target: Sequence[int] | None = None,
                 payoffs: Sequence[float] | None = None,
                 floor: float = 1e-6,
                 deviation_budget: int | None = 8) -> tuple[float, ProtocolPlan]:
    """Geometric cap search: halve from 1% of the utility range until the
    built plan passes verification (punishment ceiling at every checkpoint,
    deviation grid up to the budget, round bound); returns the largest
    passing cap and its plan.
    """
    from .verifier import verify_plan

    scale = game.utility_range
    delta = 0.01 * scale if scale > 0 else 0.01
    last_error = None
    while delta >= floor:
        try:
            plan = build_plan(game, sigma, target=target, payoffs=payoffs,
                              delta=delta)
            report = verify_plan(game, plan, budget=deviation_budget,
                                 checkpoint_budget=64)
            if report.accepted:
                return delta, plan
            last_error = "verification rejected the plan"
        except NotImprovingError:
            raise  # no cap can fix a non-improving target
        except InfeasibleError as exc:
            last_error = str(exc)
        delta /= 2.0
    raise InfeasibleError(f"no cap above {floor:g} passes: {last_error}")


# ---------------------------------------------------------------------------
# Plan files
# ---------------------------------------------------------------------------

def _profile_to_lists(profile: MixedProfile) -> list[list[float]]:
    return [[float(x) for x in p] for p in profile.probs]


def plan_to_dict(plan: ProtocolPlan) -> dict:
    return {
        "schema_version": PLAN_SCHEMA_VERSION,
        "case_tag": plan.case_tag,
        "mode": plan.mode,
        "delta": plan.delta,
        "base_game_hash": plan.base_game_hash,
        "target": {"profile": [a + 1 for a in plan.target.profile],
                   "role": plan.target.role},
        "baseline": _profile_to_lists(plan.baseline),
        "rounds": [round_to_dict(r) for r in plan.rounds],
        "punishment": [
            {"first_round": s.first_round,
             "supports": [[a + 1 for a in supp] for supp in s.supports],
             "seed": _profile_to_lists(s.seed),
             "ceiling": list(s.ceiling),
             "label": s.label}
            for s in plan.punishment
        ],
        "checkpoints": [
            {"rounds_applied": c.rounds_applied, "game_hash": c.game_hash,
             "lambda": c.lam}
            for c in plan.checkpoints
        ],
        "expected_terminal_payoffs": list(plan.expected_terminal_payoffs),
        "welfare_stage_rounds": plan.welfare_stage_rounds,
        "action_orders": None if plan.action_orders is None
        else [[a + 1 for a in o] for o in plan.action_orders],
    }


def plan_from_dict(doc: dict) -> ProtocolPlan:
    """Decode a plan document; DocumentError when it is malformed."""
    check_schema(doc, "plan", PLAN_SCHEMA_VERSION)
    try:
        return ProtocolPlan(
            case_tag=doc["case_tag"],
            mode=doc["mode"],
            delta=float(doc["delta"]),
            rounds=tuple(round_from_dict(r) for r in doc["rounds"]),
            target=OutcomeTarget(tuple(a - 1 for a in doc["target"]["profile"]),
                                 doc["target"]["role"]),
            baseline=MixedProfile(doc["baseline"]),
            punishment=tuple(
                PunishmentStage(
                    int(s["first_round"]),
                    tuple(tuple(a - 1 for a in supp) for supp in s["supports"]),
                    MixedProfile(s["seed"]),
                    tuple(float(x) for x in s["ceiling"]),
                    s.get("label", "baseline"))
                for s in doc["punishment"]),
            checkpoints=tuple(
                Checkpoint(int(c["rounds_applied"]), c["game_hash"], c.get("lambda"))
                for c in doc["checkpoints"]),
            expected_terminal_payoffs=tuple(float(x)
                                            for x in doc["expected_terminal_payoffs"]),
            base_game_hash=doc["base_game_hash"],
            welfare_stage_rounds=int(doc.get("welfare_stage_rounds", 0)),
            action_orders=None if doc.get("action_orders") is None
            else tuple(tuple(a - 1 for a in o) for o in doc["action_orders"]),
        )
    except MALFORMED as exc:
        raise DocumentError(f"malformed plan document: "
                            f"{type(exc).__name__}: {exc}") from exc


def save_plan(plan: ProtocolPlan, path, extra: dict | None = None) -> None:
    doc = plan_to_dict(plan)
    if extra:
        doc["meta"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_plan(path) -> ProtocolPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return plan_from_dict(json.load(fh))
