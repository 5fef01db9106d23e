"""Curated worked examples: small games with known equilibrium structure,
the pledges that transform them, and golden checks for each.

The `reproduce` runner replays every entry and reports one pass/fail row
per example; the CLI exposes it as a regression table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .engine import BURN, CommitmentRound, Pledge
from .equilibria import (
    build_characteristic_system,
    enumerate_pure_nash,
    is_non_degenerate,
    probe_strong_punishability,
    solve_on_support,
)
from .games import DEFAULT_TOL, EXACT_SLACK, Game, MixedProfile, apply_transfers
from .protocols import ProtocolPlan, build_partial_support_plan, build_plan
from .verifier import commitment_deviation_moves, verify_plan


def prisoners_dilemma() -> Game:
    """Cooperate/defect with a strictly dominant defection."""
    u1 = [[0, -2], [1, -1]]
    u2 = [[0, 1], [-2, -1]]
    return Game([u1, u2], [["C", "D"], ["C", "D"]])


def prisoners_dilemma_transformed() -> Game:
    u1 = [[0, -1], [0, -1]]
    u2 = [[0, 0], [-1, -1]]
    return Game([u1, u2], [["C", "D"], ["C", "D"]])


def reciprocal_cooperation_round() -> CommitmentRound:
    """Each player pays 1 to the other wherever the other cooperates."""
    return CommitmentRound((
        Pledge(0, (0, 0), 1, 1.0), Pledge(0, (1, 0), 1, 1.0),
        Pledge(1, (0, 0), 0, 1.0), Pledge(1, (0, 1), 0, 1.0),
    ))


def chicken() -> Game:
    u1 = [[0, 1], [2, -10]]
    u2 = [[0, 2], [0, -10]]
    return Game([u1, u2], [["Swerve", "Straight"], ["Swerve", "Straight"]])


def chicken_bribe_round() -> CommitmentRound:
    """Row pays 20 on (Swerve, Straight), making Straight dominant for her."""
    return CommitmentRound((Pledge(0, (0, 1), 1, 20.0),))


def unfair_split() -> Game:
    """Unique equilibrium (A, A); the welfare maximizer needs a transfer."""
    u1 = [[0, -2], [-2, 10]]
    u2 = [[0, -2], [-2, -3]]
    return Game([u1, u2], [["A", "B"], ["A", "B"]])


def cyclic_with_prize() -> Game:
    """Rock-paper-scissors block plus a prize outcome off the support."""
    u1 = [[2, 5, 2, 6], [2, 2, 5, 0], [5, 2, 2, 0], [0, 0, 0, 4]]
    u2 = [[2, 2, 5, 0], [5, 2, 2, 0], [2, 5, 2, 0], [6, 0, 0, 4]]
    return Game([u1, u2])


def cyclic_with_prize_overlap() -> Game:
    """Variant whose prize column intersects the mixing support."""
    u1 = [[2, 5, 2, 2], [2, 2, 5, 0], [5, 2, 2, 1], [2, 2.5, 4, 0]]
    u2 = [[2, 2, 5, 2], [5, 2, 2, 0], [2, 5, 2, 1], [2, 2, 4, 0]]
    return Game([u1, u2])


def two_mode_mixing() -> Game:
    """3x3 game with a half-half mixed equilibrium on the first two actions."""
    u1 = [[5, 1, 1], [1, 5, 0], [0, 1, 2]]
    u2 = [[5, 1, 0], [1, 5, 1], [1, 0, 2]]
    return Game([u1, u2], [["a1", "a2", "a3"], ["a1", "a2", "a3"]])


def spoiler_3x3() -> Game:
    """A one-move pledge here can erase the (A, A) equilibrium entirely."""
    u1 = [[5, 0, 0], [5, 9, 7], [0, 1, 6]]
    u2 = [[5, 5, 0], [0, 2, 1], [0, 7, 6]]
    return Game([u1, u2], [["A", "B", "C"], ["A", "B", "C"]])


def three_player_cycle() -> Game:
    """Three players, binary actions, uniform full-support equilibrium.

    Matching/mismatching payoffs keep the uniform profile an equilibrium;
    per-player bonus shifts make (0, 0, 0) strictly Pareto-improving while
    the characteristic Jacobian stays nonsingular.
    """
    u = np.zeros((3, 2, 2, 2))
    for a1 in range(2):
        for a2 in range(2):
            for a3 in range(2):
                u[0, a1, a2, a3] = 1.0 if a1 == a2 else -1.0
                u[1, a1, a2, a3] = 1.0 if a2 == a3 else -1.0
                u[2, a1, a2, a3] = 1.0 if a3 != a1 else -1.0
    # Balanced bonus pairs: indifference under the uniform profile survives.
    u[0, 0, 0, 0] += 2.0
    u[0, 0, 1, 0] -= 2.0
    u[1, 0, 0, 0] += 2.0
    u[1, 1, 0, 0] -= 2.0
    u[2, 0, 0, 0] += 1.5
    u[2, 1, 0, 0] -= 1.5
    return Game(u)


def naive_spoiler_plan(delta: float = 0.5) -> ProtocolPlan:
    """Negative control: steer the spoiler game to (C, C) as if its weak
    (A, A) anchor were robust.  Assembled without hypothesis validation
    and run under transfers so the pay-and-burn pattern is in scope.
    """
    game = spoiler_3x3()
    sigma = MixedProfile.pure(game.action_counts, (0, 0))
    burn = build_partial_support_plan(game, sigma, (2, 2), delta, validate=False)
    return replace(burn, mode="transfers")


GAMES: dict[str, Callable[[], Game]] = {
    "ex1": prisoners_dilemma,
    "ex2": chicken,
    "ex3": unfair_split,
    "ex4": cyclic_with_prize,
    "ex5": cyclic_with_prize_overlap,
    "ex6": three_player_cycle,
    "mix3x3": two_mode_mixing,
    "counter3x3": spoiler_3x3,
}


@dataclass(frozen=True)
class ReproduceRow:
    example: str
    ok: bool
    detail: str


def _check(cond: bool, detail: str, problems: list[str]):
    if not cond:
        problems.append(detail)


def _run_ex1() -> ReproduceRow:
    problems: list[str] = []
    game = prisoners_dilemma()
    out = apply_transfers(game, reciprocal_cooperation_round(), delta=1.0)
    _check(out == prisoners_dilemma_transformed(),
           "transformed matrix differs", problems)
    _check((0, 0) in enumerate_pure_nash(out),
           "(C,C) did not join the pure Nash set", problems)
    return ReproduceRow("ex1", not problems, "; ".join(problems) or
                        "reciprocal 1-pledges yield the cooperative matrix")


def _run_ex2() -> ReproduceRow:
    problems: list[str] = []
    game = chicken()
    out = apply_transfers(game, chicken_bribe_round(), delta=20.0)
    _check(out.payoff(0, (0, 1)) == -19.0 and out.payoff(1, (0, 1)) == 22.0,
           f"entry became ({out.payoff(0, (0, 1))}, {out.payoff(1, (0, 1))})",
           problems)
    _check(enumerate_pure_nash(out) == [(1, 0)],
           "pure Nash set is not exactly (Straight, Swerve)", problems)
    return ReproduceRow("ex2", not problems, "; ".join(problems) or
                        "the 20-pledge flips the equilibrium to (Straight, Swerve)")


def _run_ex3() -> ReproduceRow:
    problems: list[str] = []
    game = unfair_split()
    sigma = MixedProfile.pure(game.action_counts, (0, 0))
    plan = build_plan(game, sigma, payoffs=(4.0, 3.0), delta=1.0)
    _check(plan.num_rounds == 6, f"expected 6 rounds, got {plan.num_rounds}",
           problems)
    report = verify_plan(game, plan, amounts=(0.5, 1.0))
    _check(report.accepted, "verification rejected the plan", problems)
    return ReproduceRow("ex3", not problems, "; ".join(problems) or
                        "six 1-unit rounds reach (4, 3) with (A, A) intact")


def _run_ex4() -> ReproduceRow:
    problems: list[str] = []
    game = cyclic_with_prize()
    sigma = MixedProfile.uniform_over(game.action_counts, [(0, 1, 2), (0, 1, 2)])
    plan = build_plan(game, sigma, target=(3, 3), delta=0.5)
    _check(plan.punishment[0].ceiling == (4.0, 4.0),
           f"ceiling {plan.punishment[0].ceiling} != (4, 4)", problems)
    report = verify_plan(game, plan)
    _check(report.accepted, "verification rejected the plan", problems)
    return ReproduceRow("ex4", not problems, "; ".join(problems) or
                        "prize outcome anchored with the mixing punishment")


def _run_ex5() -> ReproduceRow:
    problems: list[str] = []
    game = cyclic_with_prize_overlap()
    sigma = MixedProfile.uniform_over(game.action_counts, [(0, 1, 2), (0, 1, 2)])
    plan = build_plan(game, sigma, target=(3, 2), delta=0.5)
    headroom: dict[tuple[int, ...], float] = {}
    for r in plan.rounds:
        for p in r.pledges:
            if p.payer == 0 and p.outcome[1] != 2:
                headroom[p.outcome] = headroom.get(p.outcome, 0.0) + p.amount
    _check(set(headroom) == {(3, 0), (3, 1), (3, 3)},
           f"headroom burns hit {sorted(headroom)}", problems)
    _check(all(abs(v - 1.0) <= DEFAULT_TOL for v in headroom.values()),
           f"headroom totals {headroom} != 1 each", problems)
    report = verify_plan(game, plan)
    _check(report.accepted, "verification rejected the plan", problems)
    return ReproduceRow("ex5", not problems, "; ".join(problems) or
                        "overlap case pre-burns the prize row, then anchors")


def _run_ex6() -> ReproduceRow:
    problems: list[str] = []
    game = three_player_cycle()
    sigma = MixedProfile.uniform_over(game.action_counts, [(0, 1)] * 3)
    _check(is_non_degenerate(game, sigma).ok, "uniform profile degenerate",
           problems)
    plan = build_plan(game, sigma, target=(0, 0, 0), delta=0.1)
    _check(plan.num_rounds > 0, "construction emitted no rounds", problems)
    report = verify_plan(game, plan, budget=4)
    _check(report.accepted, "verification rejected the plan", problems)
    _check(report.properties["det_invariance"].status == "pass",
           "Jacobian determinant drifted", problems)
    return ReproduceRow("ex6", not problems, "; ".join(problems) or
                        "coefficient shifts anchor the bonus outcome, "
                        "determinant pinned")


def _run_mix3x3() -> ReproduceRow:
    problems: list[str] = []
    game = two_mode_mixing()
    system = build_characteristic_system(game, [(0, 1), (0, 1)])
    A, b = system.linear_system()
    expect_A = np.array([[1, 1, 0, 0], [4, -4, 0, 0],
                         [0, 0, 1, 1], [0, 0, 4, -4]], dtype=float)
    _check(np.array_equal(A, expect_A), "system matrix differs", problems)
    _check(np.array_equal(b, np.array([1.0, 0, 1, 0])), "rhs differs", problems)
    solve = solve_on_support(game, [(0, 1), (0, 1)])
    _check(solve.profile is not None and
           max(abs(float(p) - 0.5) for vec in solve.profile.probs
               for p in vec[:2]) <= EXACT_SLACK,
           "solution is not the half-half mix", problems)
    _check(is_non_degenerate(game, solve.profile).ok if solve.profile else False,
           "mixed equilibrium reported degenerate", problems)
    report = probe_strong_punishability(game, solve.profile, epsilon=1.0,
                                        delta=0.05, samples=100, rng_seed=7)
    _check(report.ok and report.worst_excess < 1.0,
           f"probe failures={len(report.failures)}, "
           f"excess={report.worst_excess:.3g}", problems)
    return ReproduceRow("mix3x3", not problems, "; ".join(problems) or
                        "half-half system, solution, and probe all check out")


def _run_counter3x3() -> ReproduceRow:
    problems: list[str] = []
    game = spoiler_3x3()
    delta = 0.5
    adversarial = [Pledge(0, (0, 1), 1, delta), Pledge(0, (0, 0), BURN, delta)]
    dominated = True
    for name, pledges in commitment_deviation_moves(game, 1, delta, "transfers",
                                                    (delta / 2, delta)):
        g = apply_transfers(game, adversarial + pledges)
        if not any(_strictly_dominant(g, i, 1) for i in range(2)):
            dominated = False
            problems.append(f"response {name} leaves B non-dominant")
            break
    _check(dominated, "adversarial move failed to make B dominant", problems)
    plan = naive_spoiler_plan(delta)
    report = verify_plan(game, plan)
    commitment = report.deviations["commitment"]
    _check(not report.accepted and commitment.worst_gain > 0,
           "naive plan was not rejected with positive gain", problems)
    return ReproduceRow("counter3x3", not problems, "; ".join(problems) or
                        f"pay/burn pattern breaks the anchor "
                        f"(worst gain {commitment.worst_gain:.3g})")


def _strictly_dominant(game: Game, player: int, action: int) -> bool:
    u = np.moveaxis(game.utilities[player], player, 0)
    best = u[action]
    return all(np.all(best > u[a]) for a in range(u.shape[0]) if a != action)


RUNNERS: dict[str, Callable[[], ReproduceRow]] = {
    "ex1": _run_ex1,
    "ex2": _run_ex2,
    "ex3": _run_ex3,
    "ex4": _run_ex4,
    "ex5": _run_ex5,
    "ex6": _run_ex6,
    "mix3x3": _run_mix3x3,
    "counter3x3": _run_counter3x3,
}


def reproduce(ids=None) -> list[ReproduceRow]:
    ids = list(RUNNERS) if not ids else list(ids)
    rows = []
    for example in ids:
        if example not in RUNNERS:
            rows.append(ReproduceRow(example, False, "unknown example id"))
            continue
        try:
            rows.append(RUNNERS[example]())
        except Exception as exc:  # a crash is a failing row, not a crash
            rows.append(ReproduceRow(example, False, f"error: {exc}"))
    return rows
