import contextlib
import dataclasses
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from commitment_games import (
    BURN,
    CommitmentRound,
    MixedProfile,
    Pledge,
    build_plan,
    check_deviations,
    check_on_path,
    deviation_payoffs,
    expected_utility,
    fold_plan,
    round_bound_check,
    verify_plan,
)
from commitment_games import verifier
from commitment_games.catalog import (
    cyclic_with_prize,
    cyclic_with_prize_overlap,
    naive_spoiler_plan,
    spoiler_3x3,
    three_player_cycle,
    two_mode_mixing,
    unfair_split,
)
from commitment_games.equilibria import (
    enumerate_pure_nash,
    find_punishment_equilibrium,
    first_stage_batch,
)
from commitment_games.games import Game, GameShapeError, TransferError, apply_transfers
from commitment_games.protocols import PunishmentStage
from commitment_games.verifier import (
    DeviationClassResult,
    DeviationFinding,
    best_response_payoff,
    commitment_deviation_moves,
)

from conftest import (
    feasible_payoff_split,
    full_support_multiplayer,
    full_support_two_player,
    mismatching_two_by_two,
    small_integer_plan,
)


def split_plan(delta=1.0):
    game = unfair_split()
    sigma = MixedProfile.pure((2, 2), (0, 0))
    return game, build_plan(game, sigma, payoffs=(4.0, 3.0), delta=delta)


def prize_plan(delta=0.5):
    game = cyclic_with_prize()
    sigma = MixedProfile.uniform_over((4, 4), [(0, 1, 2), (0, 1, 2)])
    return game, build_plan(game, sigma, target=(3, 3), delta=delta)


def test_on_path_prize_plan_all_pass():
    game, plan = prize_plan()
    results = check_on_path(game, plan)
    failed = [k for k, v in results.items() if v.status == "fail"]
    assert not failed
    assert results["a"].status == "pass"
    assert results["a1"].status == "pass"
    assert results["b"].status == "pass"


def test_on_path_split_plan_checkpoints():
    game, plan = split_plan()
    sigma = plan.baseline
    for k in range(plan.num_rounds + 1):
        g = fold_plan(game, plan, k)
        assert g.payoff(0, (0, 0)) == 0.0  # anchor outcome untouched
    results = check_on_path(game, plan)
    assert all(v.status != "fail" for v in results.values())
    terminal = fold_plan(game, plan)
    assert tuple(terminal.payoffs((1, 1))) == (4.0, 3.0)


def test_sabotaged_plan_fails_with_round_index():
    game, plan = split_plan()
    rounds = list(plan.rounds)
    rounds[2] = CommitmentRound((Pledge(0, (1, 1), 1, 2.0),))  # breaks the cap
    bad = dataclasses.replace(plan, rounds=tuple(rounds))
    results = check_on_path(game, bad)
    assert results["round_cap"].status == "fail"
    assert results["round_cap"].witness == {"round": 2}
    report = verify_plan(game, bad)
    assert not report.accepted


def test_deviation_classes_on_split_plan():
    game, plan = split_plan()
    results = check_deviations(game, plan, amounts=(0.5, 1.0))
    assert results["commitment"].worst_gain <= 1e-9
    assert not results["commitment"].structural_failures
    # stopping after round 2 strands the deviator at the anchor: 0 < 4
    stops = results["early_stop"]
    assert stops.worst_gain <= 1e-9
    assert stops.worst_gain == pytest.approx(-3.0, abs=1e-9)  # player 2 side
    assert results["continue_when_stop"].worst_gain == 0.0
    # the worst terminal wobble: u'_2(B, A) = -2 against the promised 3
    assert results["terminal_action"].worst_gain == pytest.approx(-5.0, abs=1e-9)


def test_naive_plan_rejected_with_positive_gain():
    game = spoiler_3x3()
    plan = naive_spoiler_plan(0.5)
    report = verify_plan(game, plan)
    assert not report.accepted
    commitment = report.deviations["commitment"]
    assert commitment.worst_gain > 0
    assert commitment.structural_failures  # property (a) refuted
    assert report.witnesses


def test_round_bound_examples():
    game, plan = split_plan()
    check = round_bound_check(plan, game)
    assert check.ok and check.rounds == 6
    assert check.bound == pytest.approx(64 * 2 * 13 * 2 / 1.0)

    empty_game = cyclic_with_prize()
    sigma = MixedProfile.uniform_over((4, 4), [(0, 1, 2), (0, 1, 2)])
    from commitment_games import build_partial_support_plan
    trivial = build_partial_support_plan(unfair_split(),
                                         MixedProfile.pure((2, 2), (0, 0)),
                                         (0, 0), 0.5, validate=False)
    assert round_bound_check(trivial, unfair_split()).ok  # empty plan passes


def test_halving_delta_at_most_two_and_a_half_times_rounds():
    game = cyclic_with_prize()
    sigma = MixedProfile.uniform_over((4, 4), [(0, 1, 2), (0, 1, 2)])
    plan_a = build_plan(game, sigma, target=(3, 3), delta=0.5)
    plan_b = build_plan(game, sigma, target=(3, 3), delta=0.25)
    assert plan_b.num_rounds <= 2.5 * plan_a.num_rounds


def test_grid_refinement_never_turns_fail_into_pass():
    game = spoiler_3x3()
    plan = naive_spoiler_plan(0.5)
    coarse = check_deviations(game, plan, amounts=(0.5,))
    fine = check_deviations(game, plan, amounts=(0.25, 0.5))
    assert coarse["commitment"].worst_gain > 1e-9
    assert fine["commitment"].worst_gain >= coarse["commitment"].worst_gain - 1e-12


def test_a1_implies_a_on_the_corpus():
    for game, plan in (split_plan(), prize_plan()):
        results = check_on_path(game, plan)
        if results["a1"].status == "pass":
            assert results["a"].status == "pass"


def test_punishment_ceiling_bound_for_burn_plans():
    # along a burn-only plan the punishment found never exceeds u(sigma) + L
    game, plan = prize_plan()
    from commitment_games import find_punishment_equilibrium
    stage = plan.punishment[0]
    for k in range(plan.num_rounds + 1):
        g = fold_plan(game, plan, k)
        result = find_punishment_equilibrium(g, stage.supports, stage.seed,
                                             stage.ceiling)
        assert result.profile is not None
        for i in range(2):
            assert expected_utility(g, result.profile, i) <= stage.ceiling[i] + 1e-9


def test_deviation_grid_contents():
    game = unfair_split()
    moves = dict(commitment_deviation_moves(game, 0, 1.0, "transfers",
                                            (0.5, 1.0)))
    assert "noop" in moves
    assert any(name.startswith("P(0, 0)") or name.startswith("P(0,")
               for name in moves)
    assert any(name.startswith("A pay") for name in moves)
    burn_moves = dict(commitment_deviation_moves(game, 0, 1.0, "burn_only",
                                                 (0.5, 1.0)))
    assert not any(name.startswith(("T", "A")) for name in burn_moves)


def test_report_serialization_round_trip():
    game, plan = split_plan()
    report = verify_plan(game, plan, amounts=(0.5, 1.0))
    doc = report.to_dict()
    assert doc["accepted"] is True
    assert doc["grid"]["amounts"] == [0.5, 1.0]
    assert doc["grid"]["certification"] == "grid"
    assert doc["deviations"]["commitment"]["worst_gain"] <= 1e-9
    assert doc["properties"]["b"]["status"] == "pass"


# ---------------------------------------------------------------------------
# Differential tests: the batched grid against the per-game scalar loop.
# ---------------------------------------------------------------------------

def _scalar_check_deviations(game, plan, *, amounts=None, budget=None):
    """Reference grid: fold and search every deviation game one at a time."""
    amounts = tuple(amounts) if amounts else (plan.delta / 2, plan.delta)
    games = verifier._fold_sequence(game, plan)
    R, n = plan.num_rounds, game.num_players
    on_path = np.asarray(plan.expected_terminal_payoffs)
    results = {c: DeviationClassResult() for c in verifier.DEVIATION_CLASSES}
    prefixes = verifier._prefix_indices(R, budget)
    for k in prefixes:
        stage = plan.stage_for(k)
        for d in range(n):
            others = tuple(p for p in plan.rounds[k].pledges if p.payer != d)
            for name, pledges in commitment_deviation_moves(
                    game, d, plan.delta, plan.mode, amounts):
                dev_round = CommitmentRound(others + tuple(pledges))
                g_dev = apply_transfers(games[k], dev_round, delta=plan.delta,
                                        mode=plan.mode)
                pun = find_punishment_equilibrium(g_dev, stage.supports,
                                                  stage.seed, stage.ceiling)
                if pun.profile is None:
                    pure = enumerate_pure_nash(g_dev)
                    gain = (max(g_dev.payoff(d, p) for p in pure) - on_path[d]
                            if pure else math.inf)
                    finding = DeviationFinding(float(gain), k, d, name,
                                               "unavailable", structural=True)
                else:
                    gain = best_response_payoff(g_dev, pun.profile, d) - on_path[d]
                    finding = DeviationFinding(float(gain), k, d, name, pun.kind)
                results["commitment"].record(finding)
    for k in prefixes[1:] if prefixes[:1] == [0] else prefixes:
        stage = plan.stage_for(k)
        pun = find_punishment_equilibrium(games[k], stage.supports, stage.seed,
                                          stage.ceiling)
        for d in range(n):
            if pun.profile is None:
                finding = DeviationFinding(math.inf, k, d, "stop", "unavailable",
                                           structural=True)
            else:
                gain = best_response_payoff(games[k], pun.profile, d) - on_path[d]
                finding = DeviationFinding(float(gain), k, d, "stop", pun.kind)
            results["early_stop"].record(finding)
    for d in range(n):
        results["continue_when_stop"].record(DeviationFinding(0.0, R, d,
                                                              "continue", "n/a"))
    t = plan.target.profile
    for d in range(n):
        for a in range(game.action_counts[d]):
            if a != t[d]:
                prof = list(t)
                prof[d] = a
                gain = games[R].payoff(d, tuple(prof)) - on_path[d]
                results["terminal_action"].record(DeviationFinding(
                    float(gain), R, d, f"play{a + 1}", "n/a"))
    return results


@contextlib.contextmanager
def _recorded_findings():
    """Every finding any DeviationClassResult records, in order."""
    log = []
    record = DeviationClassResult.record

    def logged(self, finding):
        log.append(finding)
        record(self, finding)

    with mock.patch.object(DeviationClassResult, "record", logged):
        yield log


def _assert_same_rows(batched, scalar):
    assert len(batched) == len(scalar)
    for b, s in zip(batched, scalar):
        assert ((b.prefix, b.player, b.move, b.punishment_kind, b.structural)
                == (s.prefix, s.player, s.move, s.punishment_kind, s.structural))
        assert b.gain == s.gain or abs(b.gain - s.gain) <= 1e-12


CATALOG_PLANS = {
    "ex3": lambda: (unfair_split(), split_plan()[1], {"amounts": (0.5, 1.0)}),
    "ex4": lambda: (*prize_plan(), {}),
    "ex5": lambda: (cyclic_with_prize_overlap(), build_plan(
        cyclic_with_prize_overlap(),
        MixedProfile.uniform_over((4, 4), [(0, 1, 2), (0, 1, 2)]),
        target=(3, 2), delta=0.5), {}),
    "ex6": lambda: (three_player_cycle(), build_plan(
        three_player_cycle(), MixedProfile.uniform_over((2, 2, 2), [(0, 1)] * 3),
        target=(0, 0, 0), delta=0.1), {"budget": 4}),
    "counter3x3": lambda: (spoiler_3x3(), naive_spoiler_plan(0.5), {}),
}


def _assert_grids_agree(game, plan, **kwargs) -> Counter:
    """The batched and the scalar grid give the same report bytes, rows and
    punishment-kind histograms; returns the histogram over all classes."""
    with _recorded_findings() as batched_rows:
        batched = verify_plan(game, plan, **kwargs)
    with mock.patch.object(verifier, "check_deviations", _scalar_check_deviations), \
            _recorded_findings() as scalar_rows:
        scalar = verify_plan(game, plan, **kwargs)
    assert batched.to_json() == scalar.to_json()
    _assert_same_rows(batched_rows, scalar_rows)
    kinds = {c: r.punishment_kinds for c, r in batched.deviations.items()}
    assert kinds == {c: r.punishment_kinds for c, r in scalar.deviations.items()}
    assert all(sum(h.values()) == batched.deviations[c].checked
               for c, h in kinds.items())
    return sum(kinds.values(), Counter())


@pytest.mark.parametrize("example", sorted(CATALOG_PLANS))
def test_batched_report_is_byte_identical_to_scalar_loop(example):
    game, plan, kwargs = CATALOG_PLANS[example]()
    _assert_grids_agree(game, plan, **kwargs)


def test_batched_grid_matches_scalar_loop_on_seeded_2x2_plans():
    rng = np.random.default_rng(1)
    kinds = Counter()
    for _ in range(20):
        kinds += _assert_grids_agree(*mismatching_two_by_two(rng))
    assert kinds["pure"] and kinds["semi_mixed"]  # the fallback chain ran


def test_batched_grid_matches_scalar_loop_on_small_integer_games_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    kinds = Counter()

    # Fixed draws: an unavailable 4x4 row costs the scalar loop 225
    # support solves, so a free draw could take seconds.
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (3, 3), (4, 4)]))
    def run(seed, counts):
        nonlocal kinds
        game, plan = small_integer_plan(np.random.default_rng(seed), counts)
        kinds += _assert_grids_agree(game, plan, budget=2)

    run()
    assert kinds["support_enum"] and kinds["pure"]


@pytest.mark.parametrize("case", ["over_cap", "overflow"])
def test_batched_grid_raises_what_the_scalar_loop_raises(case):
    game, plan = split_plan()
    amounts = (2.0,)  # above the cap of 1
    if case == "overflow":
        u = np.array(game.utilities)
        u[0, 0, 1] = -np.finfo(float).max  # any burn there overflows
        game, plan, amounts = Game(u), dataclasses.replace(plan, delta=1e300), None
    raised = []
    for grid in (check_deviations, _scalar_check_deviations):
        with np.errstate(over="ignore"), \
                pytest.raises((TransferError, GameShapeError)) as info:
            grid(game, plan, amounts=amounts)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    assert raised[0][0] is (TransferError if case == "over_cap" else GameShapeError)


def _random_plan(rng, counts):
    """A random game with a full-support equilibrium and a plan (toward a
    Pareto-improving pure outcome, or a transfers plan to a welfare split).

    Transfers plans are drawn for 2x2 and 3x3 games only: a 4x4 or
    three-player transfers grid can send hundreds of rows per prefix
    through the fallback chain, which takes seconds per plan.
    """
    while True:
        if len(counts) == 2:
            game, sigma = full_support_two_player(rng, actions=counts[0])
        else:
            game, sigma = full_support_multiplayer(rng, players=len(counts))
        delta = float(rng.choice([0.05, 0.1, 0.25]))
        split = None
        if counts in ((2, 2), (3, 3)) and rng.random() < 0.5:
            split = feasible_payoff_split(rng, game, sigma)
        attempts = ([{"payoffs": split}] if split else []) + [
            {"target": t} for t in game.pure_profiles()]
        for kwargs in attempts:
            try:
                return game, build_plan(game, sigma, delta=delta, **kwargs)
            except ValueError:
                continue


def test_batched_grid_matches_scalar_loop_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # Rows the first stage rejects cost up to tens of milliseconds each in
    # the fallback chain (4x4 support enumeration), so the draws are fixed
    # to keep the suite's run time fixed; 4x4 plans get a smaller grid.
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([(2, 2), (3, 3), (4, 4), (2, 2, 2)]))
    def run(seed, counts):
        game, plan = _random_plan(np.random.default_rng(seed), counts)
        grid = {"budget": 3, "amounts": (plan.delta,) if counts == (4, 4) else None}
        with _recorded_findings() as batched:
            check_deviations(game, plan, **grid)
        with _recorded_findings() as scalar:
            _scalar_check_deviations(game, plan, **grid)
        _assert_same_rows(batched, scalar)

    run()


def test_batched_first_stage_matches_scalar_search_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([(2, 2), (3, 3), (4, 4), (2, 2, 2)]),
           st.sampled_from([1e-3, 0.05, 0.5]),
           st.sampled_from([0.0, 0.05, 0.5]))
    def run(seed, counts, scale, headroom):
        rng = np.random.default_rng(seed)
        if len(counts) == 2:
            game, sigma = full_support_two_player(rng, actions=counts[0])
        else:
            game, sigma = full_support_multiplayer(rng, players=len(counts))
        n = game.num_players
        ceiling = tuple(expected_utility(game, sigma, i) + headroom for i in range(n))
        stage = PunishmentStage(0, sigma.supports(), sigma, ceiling)
        stack = game.utilities + rng.uniform(-scale, scale, (16, *game.utilities.shape))
        stack[0] = game.utilities
        stack[1] = 0.0  # exactly singular: every indifference row vanishes
        kinds, best, unavailable = verifier._punishments(game, stack, stage)
        for r in range(len(stack)):
            g = game.with_utilities(stack[r])
            pun = find_punishment_equilibrium(g, stage.supports, stage.seed,
                                              stage.ceiling)
            assert kinds[r] == (pun.kind if pun.profile else "unavailable")
            assert (r in unavailable) == (pun.profile is None)
            if pun.profile is not None:
                want = [best_response_payoff(g, pun.profile, i) for i in range(n)]
                assert np.all(np.abs(best[r] - want) <= 1e-12)

    run()


def test_singular_row_is_retried_alone_and_left_to_the_fallback():
    game, plan = prize_plan()
    stage = plan.punishment[0]
    stack = np.stack([game.utilities, np.zeros_like(game.utilities),
                      game.utilities])
    shapes = []
    solve = np.linalg.solve

    def spied(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    with mock.patch.object(np.linalg, "solve", spied):
        first = first_stage_batch(stack, stage.supports, stage.seed, stage.ceiling)
    assert shapes == [(3, 6, 6), (6, 6), (6, 6), (6, 6)]
    assert first.settled.tolist() == [True, False, True]
    scalar = find_punishment_equilibrium(game, stage.supports, stage.seed,
                                         stage.ceiling)
    assert scalar.kind == "support_solve"
    for i in range(2):
        want = deviation_payoffs(game, scalar.profile, i)
        assert first.deviation_payoffs[i][0].tobytes() == want.tobytes()
        assert first.deviation_payoffs[i][2].tobytes() == want.tobytes()
