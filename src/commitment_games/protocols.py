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
* two-player full-support row operations on the two indifference blocks,
  which preserve both block determinants and the mixed equilibrium while
  the first columns climb to zero;
* n >= 3 full-support coefficient shifts with the alternating-sign array,
  which leave the system value and gradient at the baseline untouched;
  both full-support cases compile their delta-capped shifts of one
  indifference row to burns through the same step;
* the 2x2 gap-narrowing protocol;
* the welfare-transfer stage: a linear homotopy of payoff tensors that
  moves the welfare-maximizing outcome's payoffs to a requested split
  while keeping the baseline an equilibrium, then chains into the burn
  machinery.

A plan's rounds fold once into its prefix stack (`fold_rounds`), and its
checkpoint hashes are hashed from the stack's rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import product, zip_longest
from typing import Sequence

import numpy as np

from .engine import MODES, CommitmentRound, Pledge, _read_rounds, round_to_dict
from .equilibria import (
    SupportError,
    _checked_supports,
    _require_non_degenerate,
    build_characteristic_system,
)
from .games import (
    BURN,
    DEFAULT_TOL,
    EXACT_SLACK,
    GAIN_TOL,
    DocumentError,
    FoldError,  # raised by fold_rounds, so callers of the plan folds catch it from here
    Game,
    GameShapeError,
    MixedProfile,
    OutcomeTarget,
    ProfileError,
    _check_profile,
    _checked_target,
    _decoding,
    _read_int,
    _read_label,
    _read_list,
    _read_number,
    _read_str,
    _write_json,
    check_schema,
    content_hash,
    deviation_payoffs,
    expected_utility,
    fold_rounds,
    pareto_improves,
    stack_hashes,
    welfare_max,
)
from .games import AMOUNT_FLOOR as _AMOUNT_FLOOR

PLAN_SCHEMA_VERSION = 1

# What each construction case promises, which the verifier checks: Nash stage
# seeds, property (a1), a non-degenerate full-support baseline, and the welfare
# homotopy.  The 2x2 narrowing moves the indifference point, so its seed need
# not stay Nash.
CASE_PROMISES = {
    "partial_support_disjoint": {"seed_nash", "a1"},
    "partial_support_mixed": {"seed_nash", "a1"},
    "in_support_indirect": {"seed_nash"},
    "full_support_2p": {"seed_nash", "a1", "full_support"},
    "full_support_np": {"seed_nash", "a1", "full_support"},
    "two_by_two": set(),
    "welfare_transfer_stage": {"seed_nash", "a1", "welfare"},
}

# Round counts grow with utility_range / delta (ex4 at delta 0.02 is 300);
# build_plan refuses caps that would need millions of rounds.
MAX_RANGE_PER_DELTA = 1e6
DELTA_FLOOR = 1e-6
DELTA_SEARCH_BUDGET = 8


class InfeasibleError(ValueError):
    """Construction hypotheses unmet (reported, not silently patched)."""


class NotImprovingError(InfeasibleError):
    """Target does not strictly Pareto improve the baseline."""


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
        """The stage in force after `rounds_applied` rounds; stages ascend from 0."""
        return [s for s in self.punishment if s.first_round <= rounds_applied][-1]

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


def fold_plan(game: Game, plan: ProtocolPlan,
              upto: int | None = None) -> Game:
    """The game after the first `upto` rounds (all when None) of the plan."""
    if upto is not None and not 0 <= upto <= plan.num_rounds:
        raise ValueError(f"upto must be None or in 0..{plan.num_rounds}, got {upto}")
    return game.with_utilities(fold_rounds(game, plan.rounds[:upto], plan.delta, plan.mode)[-1])


def _finalize_plan(game: Game, rounds: Sequence[CommitmentRound], *, case_tag: str,
                   mode: str, delta: float, target: OutcomeTarget,
                   baseline: MixedProfile, punishment: Sequence[PunishmentStage],
                   expected: Sequence[float], welfare_stage_rounds: int = 0,
                   lam_values: Sequence[float] | None = None,
                   action_orders=None, stack: np.ndarray | None = None) -> ProtocolPlan:
    """The plan with a checkpoint per prefix game, hashed from the rows of
    the prefix stack; `stack` is that stack when the caller has folded it
    already."""
    if stack is None:
        stack = fold_rounds(game, rounds, delta, mode)
    lams = [] if lam_values is None else [0.0, *lam_values]
    hashes = [content_hash(game), *stack_hashes(stack[1:])]
    checkpoints = tuple(Checkpoint(k, h, lams[k] if k < len(lams) else None)
                        for k, h in enumerate(hashes))
    return ProtocolPlan(
        case_tag=case_tag, mode=mode, delta=float(delta), rounds=tuple(rounds),
        target=target, baseline=baseline, punishment=tuple(punishment),
        checkpoints=checkpoints,
        expected_terminal_payoffs=tuple(float(x) for x in expected),
        base_game_hash=hashes[0],
        welfare_stage_rounds=welfare_stage_rounds, action_orders=action_orders,
    )


def _pareto_plan(game: Game, sigma: MixedProfile, target: tuple[int, ...],
                 rounds: Sequence[CommitmentRound], case: str, delta: float, *,
                 ceiling: Sequence[float] | None = None,
                 stages: Sequence[PunishmentStage] = (),
                 action_orders=None) -> ProtocolPlan:
    """The burn-only plan steering to the pure `target`.

    `sigma` anchors the punishment from round 0 under `ceiling`, by default
    its payoffs raised by the target's smallest surplus over them; `stages`
    are the anchors that take over in later rounds.
    """
    n = game.num_players
    expected = [game.payoff(i, target) for i in range(n)]
    if ceiling is None:
        L = pareto_improves(game, target, sigma)[1]
        ceiling = [expected_utility(game, sigma, i) + L for i in range(n)]
    return _finalize_plan(game, rounds, case_tag=case, mode="burn_only", delta=delta,
                          target=OutcomeTarget(target, "pareto_improver"),
                          baseline=sigma,
                          punishment=[PunishmentStage(0, sigma.supports(), sigma,
                                                      tuple(ceiling)), *stages],
                          expected=expected, action_orders=action_orders)


def _slices(total: float, step: float):
    """`total` cut into per-round slices of at most `step`, the last one the rest."""
    remaining = total
    while remaining > _AMOUNT_FLOOR:
        c = min(step, remaining)
        yield c
        remaining -= c


def _merge_streams(streams: Sequence[Sequence[list[Pledge]]]) -> list[CommitmentRound]:
    """Round k holds round k of every stream, in stream order."""
    return [CommitmentRound(tuple(p for pledges in row for p in pledges))
            for row in zip_longest(*streams, fillvalue=())]


def _burn_stream(payer: int, totals: dict[tuple[int, ...], float],
                 delta: float) -> list[list[Pledge]]:
    """Burn each outcome's total in delta-capped per-round slices, the
    outcomes of a round in the order of `totals`."""
    columns = [[Pledge(payer, o, BURN, a) for a in _slices(t, delta)]
               for o, t in totals.items()]
    return [[p for p in row if p is not None] for row in zip_longest(*columns)]


# ---------------------------------------------------------------------------
# Case classification
# ---------------------------------------------------------------------------

def _structural_case(game: Game, sigma: MixedProfile,
                     target: Sequence[int]) -> str:
    supports = sigma.supports()
    counts = game.action_counts
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
    target = _checked_target(game.action_counts, target)
    _require_non_degenerate(game, sigma)
    ok, L = pareto_improves(game, target, sigma)
    if not ok:
        raise NotImprovingError(
            f"target does not strictly Pareto improve the baseline (margin {L:.6g})")
    return _structural_case(game, sigma, target)


def _expect_case(case: str, cases: Sequence[str]) -> None:
    if case not in cases:
        raise InfeasibleError(f"expected case {' or '.join(cases)}, got {case}")


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
            raise InfeasibleError(f"player {i + 1} has a single action")
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
                    f"player {i + 1}: no residual slack for the target action")
            if 1.0 - Q <= _AMOUNT_FLOOR:
                raise InfeasibleError(
                    f"player {i + 1}: everyone else is locked on the target column")
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
                               validate: bool = True) -> ProtocolPlan:
    """Burn-only plan for the disjoint, mixed, and indirect cases."""
    target = _checked_target(game.action_counts, target)
    case = (classify_case if validate else _structural_case)(game, sigma, target)
    _expect_case(case, ("partial_support_disjoint", "partial_support_mixed",
                        "in_support_indirect"))
    if sigma.is_pure() and sigma.pure_profile() == target:
        return _pareto_plan(game, sigma, target, [], case, delta)
    if case != "in_support_indirect":
        return _pareto_plan(game, sigma, target,
                            _anchor_rounds(game, sigma, target, delta, 0.0), case, delta)

    # Indirect: anchor an auxiliary pure profile with a strict delta margin,
    # then steer from it to the target.
    aux = _choose_auxiliary_profile(game, sigma, target)
    s1_totals = {}
    for i in range(game.num_players):
        need = game.payoff(i, aux) - game.payoff(i, target) + delta
        if need > _AMOUNT_FLOOR:
            s1_totals[i] = need
    s1_rounds = _merge_streams([_burn_stream(i, {aux: t}, delta)
                                for i, t in s1_totals.items()])
    g1 = game.with_utilities(fold_rounds(game, s1_rounds, delta, "burn_only")[-1])
    s2_rounds = _anchor_rounds(g1, sigma, aux, delta, delta + DEFAULT_TOL)
    g2 = g1.with_utilities(fold_rounds(g1, s2_rounds, delta, "burn_only")[-1])
    aux_profile = MixedProfile.pure(game.action_counts, aux)
    s3_rounds = _anchor_rounds(g2, aux_profile, target, delta, 0.0)
    aux_stage = PunishmentStage(len(s1_rounds) + len(s2_rounds), aux_profile.supports(),
                                aux_profile, tuple(float(x) for x in g2.payoffs(aux)),
                                "aux-anchor")
    return _pareto_plan(game, sigma, target, s1_rounds + s2_rounds + s3_rounds, case,
                        delta, stages=[aux_stage])


# ---------------------------------------------------------------------------
# Full support: capped coefficient shifts compiled to burns
# ---------------------------------------------------------------------------

def _capped_coefficients(total: float, array: np.ndarray, delta: float):
    """Coefficients of `total`'s sign, one per round, summing to `total`,
    each at most delta / max|array| in size: no entry of c * array exceeds delta."""
    step = delta / max(float(np.max(np.abs(array))), _AMOUNT_FLOOR)
    sign = 1.0 if total >= 0 else -1.0
    return (sign * c for c in _slices(abs(total), step))


def _r_commitment_pledges(player: int, compared_action: int, lam: float,
                          array: np.ndarray, orders: Sequence[Sequence[int]],
                          counts: Sequence[int]) -> list[Pledge]:
    """Pledges realizing a coefficient shift lam*array on one row.

    A two-player row operation is the one-dimensional case.  Amounts within
    _AMOUNT_FLOOR of zero, relative to the largest (and at least 1), are
    dropped.
    """
    n = len(orders)
    others = [j for j in range(n) if j != player]
    amounts = lam * np.asarray(array, dtype=float)
    floor = _AMOUNT_FLOOR * max(1.0, float(np.max(np.abs(amounts))))
    pledges = []
    for q, amt in np.ndenumerate(amounts):
        amt = float(amt)
        if abs(amt) <= floor:
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


# ---------------------------------------------------------------------------
# Two-player full support: row operations on the indifference blocks
# ---------------------------------------------------------------------------

def _first_column_stream(X: np.ndarray, player: int, orders, counts,
                         delta: float) -> list[list[Pledge]]:
    """Row operations (never touching row 0) until column 0 is nonnegative."""
    N = X.shape[0]
    scale = max(1.0, float(np.max(np.abs(X))))
    tol = EXACT_SLACK * scale
    rounds: list[list[Pledge]] = []

    def apply_op(j: int, r: int, c_total: float):
        """row j += c_total * row r, one delta-capped coefficient per round."""
        row_r = X[r].copy()
        for c in _capped_coefficients(c_total, row_r, delta):
            rounds.append(_r_commitment_pledges(player, orders[player][j], c, row_r,
                                                orders, counts))
            X[j] += c * row_r

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
    target = _checked_target(game.action_counts, target)
    if validate:
        _expect_case(classify_case(game, sigma, target), ("full_support_2p",))
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
        streams.append(_first_column_stream(np.array(block), player, orders,
                                            game.action_counts, delta))
    return _pareto_plan(game, sigma, target, _merge_streams(streams),
                        "full_support_2p", delta, action_orders=orders)


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


def build_multiplayer_plan(game: Game, sigma: MixedProfile,
                           target: Sequence[int], delta: float, *,
                           validate: bool = True) -> ProtocolPlan:
    target = _checked_target(game.action_counts, target)
    if validate:
        _expect_case(classify_case(game, sigma, target), ("full_support_np",))
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
            raise InfeasibleError(f"player {i + 1} lacks a second support action")
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
            stream.extend(_r_commitment_pledges(i, orders[i][k], lam, x, orders,
                                                game.action_counts)
                          for lam in _capped_coefficients(needed / lead, x, delta))
        streams.append(stream)
    return _pareto_plan(game, sigma, target, _merge_streams(streams),
                        "full_support_np", delta, action_orders=orders)


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


def _player_type(d0: float, d1: float) -> str:
    if abs(d0) <= EXACT_SLACK and abs(d1) <= EXACT_SLACK:
        return "indifferent"
    if d0 > EXACT_SLACK and d1 < -EXACT_SLACK:
        return "matching"
    if d0 < -EXACT_SLACK and d1 > EXACT_SLACK:
        return "mismatching"
    return "other"


def build_2x2_plan(game: Game, sigma: MixedProfile, target: Sequence[int],
                   delta: float, *, validate: bool = True) -> ProtocolPlan:
    """Gap-narrowing protocol for 2x2 games with a full-support baseline."""
    target = _checked_target(game.action_counts, target)
    if validate:
        _expect_case(classify_case(game, sigma, target), ("two_by_two",))
    if game.num_players != 2 or game.action_counts != (2, 2):
        raise InfeasibleError("2x2 builder needs a two-player binary game")
    orders = tuple((t, 1 - t) for t in target)
    kinds, gaps = [], []
    for i in (0, 1):
        d0, d1 = _gap_pair(game, i, orders)
        kind = _player_type(d0, d1)
        if kind == "other":
            raise InfeasibleError(
                f"player {i + 1} preferences ({d0:.3g}, {d1:.3g}) admit no "
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

    # Step 1 burns the opponent-plays-other column until the target outcome
    # strictly dominates it (margin delta), preserving d1.  Step 2 narrows a
    # mismatching player's two gaps to exactly delta, and step 3 closes both
    # with one final delta.
    steps = ([], [], [])
    for i in (0, 1):
        (own0, own1), (opp0, opp1) = orders[i], orders[1 - i]
        gap_a, gap_b = outcome(i, own1, opp0), outcome(i, own0, opp1)
        other = outcome(i, own1, opp1)
        need = max(0.0, max(game.payoff(i, gap_b), game.payoff(i, other))
                   - game.payoff(i, target) + delta)
        steps[0].append(_burn_stream(i, dict.fromkeys(sorted((gap_b, other)), need), delta))
        if kinds[i] == "mismatching":
            d0, d1 = gaps[i]
            steps[1].append(_burn_stream(i, {gap_a: -d0 - delta, gap_b: d1 - delta}, delta))
            steps[2].append([[Pledge(i, gap_a, BURN, delta), Pledge(i, gap_b, BURN, delta)]])
    rounds = [r for step in steps for r in _merge_streams(step)]
    return _pareto_plan(game, sigma, target, rounds, "two_by_two", delta,
                        ceiling=[game.payoff(i, target) for i in (0, 1)],
                        action_orders=orders)


# ---------------------------------------------------------------------------
# Welfare-transfer stage (payoff-split homotopy)
# ---------------------------------------------------------------------------

def _welfare_stage_rates(game: Game, sigma: MixedProfile,
                         targets: Sequence[float]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Per-player per-outcome utility rates for the unit homotopy."""
    n = game.num_players
    w_val, a_sw = welfare_max(game)
    if abs(sum(targets) - w_val) > DEFAULT_TOL:
        raise InfeasibleError(
            f"payoff targets sum to {sum(targets):.12g}, welfare max is {w_val:.12g}")
    u_sigma = [expected_utility(game, sigma, i) for i in range(n)]
    for i in range(n):
        if not targets[i] > u_sigma[i]:
            raise InfeasibleError(
                f"player {i + 1}: target {targets[i]:.6g} does not strictly improve "
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
                    f"player {s + 1} has no second support action to compensate "
                    f"player {i + 1}'s raise")
            c = max(candidates, key=lambda b: (float(sigma.probs[s][b]), -b))
            ratio = float(sigma.probs[s][a_sw[s]]) / float(sigma.probs[s][c])
            comp_column = [a_sw[j] if j not in (i, s) else slice(None)
                           for j in range(n)]
            comp_column[s] = c
            rates[(i, *comp_column)] -= ratio * D
    welfare_rate = rates.sum(axis=0)
    if float(welfare_rate.max()) > DEFAULT_TOL:
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
    steps = int(math.ceil(rate_max / delta - EXACT_SLACK))
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


def build_welfare_transfer_stage(game: Game, sigma: MixedProfile,
                                 payoff_targets: Sequence[float],
                                 delta: float) -> tuple[ProtocolPlan, Game]:
    """Stage plan moving the welfare maximizer's payoffs to the target split.

    Returns the stage-only plan plus the folded terminal game; the full
    construction chains the burn machinery on the terminal game.
    """
    targets = [float(x) for x in payoff_targets]
    if len(targets) != game.num_players:
        raise ProfileError(f"payoff split needs one entry per player: got {len(targets)} "
                           f"for {game.num_players} players")
    for i, x in enumerate(targets):
        if not math.isfinite(x):
            raise ProfileError(f"payoff {x} is not finite", i)
    _require_non_degenerate(game, sigma)
    rates, a_sw = _welfare_stage_rates(game, sigma, targets)
    rounds, lams = _stage_rounds(rates, delta)
    n = game.num_players
    u_sigma = [expected_utility(game, sigma, i) for i in range(n)]
    L = max(targets[i] - u_sigma[i] for i in range(n))
    stage = PunishmentStage(0, sigma.supports(), sigma,
                            tuple(u_sigma[i] + L for i in range(n)),
                            "welfare-stage")
    stack = fold_rounds(game, rounds, delta, "transfers")
    plan = _finalize_plan(game, rounds, case_tag="welfare_transfer_stage",
                          mode="transfers", delta=delta,
                          target=OutcomeTarget(a_sw, "welfare_maximizer"),
                          baseline=sigma, punishment=[stage], expected=targets,
                          welfare_stage_rounds=len(rounds), lam_values=lams,
                          stack=stack)
    return plan, game.with_utilities(stack[-1])


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def _improvement_plan(game: Game, sigma: MixedProfile, target: Sequence[int],
                      delta: float) -> ProtocolPlan:
    case = classify_case(game, sigma, target)
    if case in ("partial_support_disjoint", "partial_support_mixed",
                "in_support_indirect"):
        return build_partial_support_plan(game, sigma, target, delta, validate=False)
    if case == "full_support_2p":
        return build_two_player_full_support_plan(game, sigma, target, delta,
                                                  validate=False)
    if case == "two_by_two":
        return build_2x2_plan(game, sigma, target, delta, validate=False)
    return build_multiplayer_plan(game, sigma, target, delta, validate=False)


def _below_round_guard(game: Game, delta: float) -> bool:
    """Whether `delta` is below the utility range / MAX_RANGE_PER_DELTA."""
    return game.utility_range > MAX_RANGE_PER_DELTA * delta


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
    if _below_round_guard(game, delta):
        raise InfeasibleError(
            f"delta {delta:g} is below the utility range / {MAX_RANGE_PER_DELTA:g}: "
            f"the plan would take too many rounds")
    if (target is None) == (payoffs is None):
        raise InfeasibleError("exactly one of target/payoffs is required")
    if target is not None:
        return _improvement_plan(game, sigma, target, delta)

    stage_plan, mid_game = build_welfare_transfer_stage(game, sigma, payoffs, delta)
    sub = _improvement_plan(mid_game, sigma, stage_plan.target.profile, delta)
    # The sub-plan starts from the stage's last game, so its checkpoints
    # continue the stage's, shifted by the stage's rounds.
    offset = len(stage_plan.rounds)
    return replace(
        stage_plan, rounds=stage_plan.rounds + sub.rounds,
        punishment=(*stage_plan.punishment,
                    *(replace(s, first_round=s.first_round + offset)
                      for s in sub.punishment)),
        checkpoints=(*stage_plan.checkpoints,
                     *(replace(c, rounds_applied=c.rounds_applied + offset)
                       for c in sub.checkpoints[1:])),
        action_orders=sub.action_orders)


def choose_delta(game: Game, sigma: MixedProfile, *,
                 target: Sequence[int] | None = None,
                 payoffs: Sequence[float] | None = None) -> tuple[float, ProtocolPlan]:
    """Geometric cap search: halve from 1% of the utility range down to
    DELTA_FLOOR until the built plan passes verification (punishment
    ceiling at every checkpoint, deviation grid on DELTA_SEARCH_BUDGET
    prefixes, round bound); returns the largest passing cap and its plan.
    The search also stops at the round guard of `build_plan`, which a
    smaller cap only breaks further; InfeasibleError then names the last
    rejection.
    """
    from .verifier import verify_plan

    scale = game.utility_range
    delta = 0.01 * scale if scale > 0 else 0.01
    last_error = None
    while delta >= DELTA_FLOOR and not _below_round_guard(game, delta):
        try:
            plan = build_plan(game, sigma, target=target, payoffs=payoffs,
                              delta=delta)
            report = verify_plan(game, plan, budget=DELTA_SEARCH_BUDGET,
                                 checkpoint_budget=64)
            if report.accepted:
                return delta, plan
            last_error = _rejection(delta, report)
        except NotImprovingError:
            raise  # no cap can fix a non-improving target
        except InfeasibleError as exc:
            last_error = str(exc)
        delta /= 2.0
    raise InfeasibleError(f"no cap above {max(delta, DELTA_FLOOR):g} passes: {last_error}")


def _rejection(delta: float, report) -> str:
    """A rejected verification's failing properties and deviation classes,
    with their counts."""
    props = [k for k, r in sorted(report.properties.items()) if r.status == "fail"]
    failing = [f"{len(props)} failing properties: {', '.join(props)}"] if props else []
    failing += [f"{c} deviations: {len(r.structural_failures)} of {r.checked} without a "
                f"punishment, worst gain {r.worst_gain:.3g}"
                for c, r in sorted(report.deviations.items())
                if r.structural_failures or r.worst_gain > GAIN_TOL]
    if not report.bound.ok:
        failing.append(f"round bound: {report.bound.rounds} rounds over {report.bound.bound:g}")
    return f"verification rejected delta {delta:g}: {'; '.join(failing)}"


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


def _check_plan(plan: ProtocolPlan) -> None:
    """DocumentError unless the decoded plan meets what every built plan
    meets and what the verifier and the engine take on trust."""
    if plan.case_tag not in CASE_PROMISES:
        raise DocumentError(f"unknown case_tag {plan.case_tag!r}")
    if plan.mode not in MODES:
        raise DocumentError(f"mode must be one of {MODES}, got {plan.mode!r}")
    if not (math.isfinite(plan.delta) and plan.delta > 0):
        raise DocumentError(f"delta must be finite and positive, got {plan.delta}")
    if not plan.punishment:
        raise DocumentError("plan has no punishment stage")
    starts = [s.first_round for s in plan.punishment]
    if starts[0] != 0 or starts != sorted(starts) or starts[-1] > len(plan.rounds):
        raise DocumentError(f"punishment stages must start at rounds ascending from 0 "
                            f"to at most {len(plan.rounds)}, got {starts}")
    if any(not 0 <= c.rounds_applied <= len(plan.rounds) for c in plan.checkpoints):
        raise DocumentError(f"a checkpoint is outside rounds 0..{len(plan.rounds)}")
    if not 0 <= plan.welfare_stage_rounds <= len(plan.rounds):
        raise DocumentError(f"welfare_stage_rounds {plan.welfare_stage_rounds} is "
                            f"outside 0..{len(plan.rounds)}")
    if not all(map(math.isfinite, (*plan.expected_terminal_payoffs,
                                   *(x for s in plan.punishment for x in s.ceiling)))):
        raise DocumentError("ceilings and expected_terminal_payoffs must be finite")
    counts = [p.size for p in plan.baseline.probs]
    target = plan.target.profile
    if not len(target) == len(plan.expected_terminal_payoffs) == len(counts) or any(
            not 0 <= a < c for a, c in zip(target, counts)):
        raise DocumentError("target and expected_terminal_payoffs need one entry "
                            "per player, inside the player's actions")
    if plan.action_orders is not None and (
            [sorted(o) for o in plan.action_orders] != [list(range(c)) for c in counts]):
        raise DocumentError("action_orders must list each player's actions once")
    if "full_support" in CASE_PROMISES[plan.case_tag]:
        supports = plan.baseline.supports()
        if any(len(s) != c for s, c in zip(supports, counts)) or (
                len(counts) == 2 and counts[0] != counts[1]):
            raise DocumentError(f"case {plan.case_tag} needs a full-support baseline, "
                                "with equal action counts for two players")


def check_plan_for_game(plan: ProtocolPlan, game: Game) -> ProtocolPlan:
    """The plan, or DocumentError unless it was built for `game` (its base
    hash), meets what every built plan meets and its baseline, punishment
    seeds, supports and ceilings fit `game`'s players and actions; labels
    are 1-based, as in plan files."""
    if plan.base_game_hash != content_hash(game):
        raise DocumentError("plan/game mismatch: the plan was built for a game "
                            "with a different content hash")
    _check_plan(plan)
    counts = game.action_counts
    try:
        _check_profile(counts, plan.baseline)
    except GameShapeError as exc:
        raise DocumentError(f"baseline has {[p.size for p in plan.baseline.probs]} actions "
                            f"per player, the game has {list(counts)}") from exc
    for s, stage in enumerate(plan.punishment, start=1):
        if len(stage.ceiling) != len(counts):
            raise DocumentError(f"punishment stage {s} needs one ceiling per player")
        try:
            _check_profile(counts, stage.seed)
            _checked_supports(counts, stage.supports)
        except (GameShapeError, SupportError) as exc:
            raise DocumentError(f"punishment stage {s}: {exc}") from exc
    return plan


def _read_stage(doc: dict, field: str) -> PunishmentStage:
    return PunishmentStage(
        _read_int(doc["first_round"], f"{field} first_round"),
        _read_list(doc["supports"], f"{field} supports", _read_list, _read_label),
        MixedProfile(_read_list(doc["seed"], f"{field} seed", _read_list, _read_number)),
        _read_list(doc["ceiling"], f"{field} ceiling", _read_number),
        _read_str(doc.get("label", "baseline"), f"{field} label"))


def _read_checkpoint(doc: dict, field: str) -> Checkpoint:
    lam = doc.get("lambda")
    return Checkpoint(_read_int(doc["rounds_applied"], f"{field} rounds_applied"),
                      _read_str(doc["game_hash"], f"{field} game_hash"),
                      None if lam is None else _read_number(lam, f"{field} lambda"))


def plan_from_dict(doc: dict) -> ProtocolPlan:
    """Decode a plan document; DocumentError when it is malformed."""
    check_schema(doc, "plan", PLAN_SCHEMA_VERSION)
    orders = doc.get("action_orders")
    with _decoding("plan"):
        plan = ProtocolPlan(
            case_tag=_read_str(doc["case_tag"], "case_tag"),
            mode=_read_str(doc["mode"], "mode"),
            delta=_read_number(doc["delta"], "delta"),
            rounds=_read_rounds(doc["rounds"], "rounds"),
            target=OutcomeTarget(_read_list(doc["target"]["profile"], "target profile",
                                            _read_label),
                                 _read_str(doc["target"]["role"], "target role")),
            baseline=MixedProfile(_read_list(doc["baseline"], "baseline", _read_list,
                                             _read_number)),
            punishment=tuple(_read_stage(s, f"punishment stage {k}") for k, s in
                             enumerate(_read_list(doc["punishment"], "punishment"), 1)),
            checkpoints=tuple(_read_checkpoint(c, f"checkpoint {k}") for k, c in
                              enumerate(_read_list(doc["checkpoints"], "checkpoints"), 1)),
            expected_terminal_payoffs=_read_list(doc["expected_terminal_payoffs"],
                                                 "expected_terminal_payoffs", _read_number),
            base_game_hash=_read_str(doc["base_game_hash"], "base_game_hash"),
            welfare_stage_rounds=_read_int(doc.get("welfare_stage_rounds", 0),
                                           "welfare_stage_rounds"),
            action_orders=None if orders is None else _read_list(
                orders, "action_orders", _read_list, _read_label),
        )
    _check_plan(plan)
    return plan


def save_plan(plan: ProtocolPlan, path, extra: dict | None = None) -> None:
    doc = plan_to_dict(plan)
    if extra:
        doc["meta"] = extra
    _write_json(doc, path)


def load_plan(path) -> ProtocolPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return plan_from_dict(json.load(fh))
