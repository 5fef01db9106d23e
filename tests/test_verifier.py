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
    build_characteristic_system,
    build_plan,
    check_deviations,
    check_on_path,
    deviation_payoffs,
    expected_utility,
    fold_plan,
    round_bound_check,
    verify_plan,
)
from commitment_games import equilibria, verifier
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
    is_nash,
    is_non_degenerate,
    punish_batch,
)
from commitment_games.games import (
    Game,
    GameShapeError,
    TransferError,
    apply_transfers,
    content_hash,
    game_distance,
    welfare_max,
)
from commitment_games.games import OutcomeTarget
from commitment_games.protocols import FoldError, ProtocolPlan, PunishmentStage, fold_rounds
from commitment_games.verifier import (
    DeviationClassResult,
    DeviationFinding,
    PropertyResult,
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
    for g in fold_rounds(game, plan.rounds, plan.delta, plan.mode):
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
    for g in fold_rounds(game, plan.rounds, plan.delta, plan.mode):
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

def _scalar_check_deviations(game, plan, *, amounts=None, budget=None, games=None):
    """Reference grid: fold and search every deviation game one at a time.
    `games` is accepted for `verify_plan`'s call and ignored."""
    amounts = tuple(amounts) if amounts else (plan.delta / 2, plan.delta)
    games = fold_rounds(game, plan.rounds, plan.delta, plan.mode)
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
    """Every finding any DeviationClassResult records, in order; a stack of
    rows recorded at once is expanded into its findings, row by row."""
    log = []
    record, record_rows = DeviationClassResult.record, DeviationClassResult.record_rows

    def logged(self, finding):
        log.append(finding)
        record(self, finding)

    def logged_rows(self, rows):
        log.extend(rows.finding(r) for r in range(len(rows)))
        record_rows(self, rows)

    with mock.patch.object(DeviationClassResult, "record", logged), \
            mock.patch.object(DeviationClassResult, "record_rows", logged_rows):
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
    for c, r in batched.deviations.items():
        _assert_same_rows(r.structural_failures,
                          scalar.deviations[c].structural_failures)
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


def _welfare_then_burn_plan():
    """A 2x2 transfers plan whose burn sub-plan takes over at round 3 of 6."""
    rng = np.random.default_rng(0)
    game, sigma = full_support_two_player(rng, actions=2)
    split = feasible_payoff_split(rng, game, sigma)
    return game, build_plan(game, sigma, payoffs=split, delta=0.25)


CHUNK_CASES = {
    "mix3x3_indirect": lambda: (two_mode_mixing(), build_plan(
        two_mode_mixing(), MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]),
        target=(0, 0), delta=0.25)),
    "welfare_then_burn": _welfare_then_burn_plan,
}


@pytest.mark.parametrize("case, prefixes, kwargs", [
    ("mix3x3_indirect", 1, {}),
    ("mix3x3_indirect", 1, {"budget": 4}),
    ("welfare_then_burn", 2, {}),  # the stage change at round 3 cuts a chunk
])
def test_chunked_grid_matches_scalar_loop(monkeypatch, case, prefixes, kwargs):
    game, plan = CHUNK_CASES[case]()
    rows = sum(len(commitment_deviation_moves(game, d, plan.delta, plan.mode,
                                              (plan.delta / 2, plan.delta)))
               for d in range(game.num_players))
    # Below two prefixes' rows, a chunk holds one prefix.
    budget = 2 * rows - 1 if prefixes == 1 else prefixes * rows
    monkeypatch.setattr(verifier, "ROW_BUDGET", budget)
    sizes = []
    batch = verifier.punish_batch

    def recorded(utilities, *args):
        sizes.append(len(utilities))
        return batch(utilities, *args)

    monkeypatch.setattr(verifier, "punish_batch", recorded)
    _assert_grids_agree(game, plan, **kwargs)
    assert max(sizes) == prefixes * rows
    if case == "welfare_then_burn":
        assert plan.punishment[1].first_round == 3 and rows in sizes


def test_spoiler_grid_builds_no_game_in_the_punishment_chain():
    game, plan = spoiler_3x3(), naive_spoiler_plan(0.1)
    stacks = []
    batch = verifier.punish_batch

    def recorded(utilities, *args):
        stacks.append((utilities, args))
        return batch(utilities, *args)

    with mock.patch.object(verifier, "punish_batch", recorded):
        check_deviations(game, plan)

    def scalar_step(*args, **kwargs):
        raise AssertionError("the punishment chain left the stack")

    kinds = Counter()
    with mock.patch.object(equilibria, "Game", scalar_step), \
            mock.patch.object(equilibria, "enumerate_pure_nash", scalar_step), \
            mock.patch.object(equilibria, "is_nash", scalar_step):
        for utilities, args in stacks:
            kinds.update(punish_batch(utilities, *args).kinds)
    assert kinds["none"] and kinds["pure"]


def _plan_with_rounds(game, rounds, mode, delta):
    """A plan that is only `rounds` on `game`, punished at the first pure
    profile."""
    n = game.num_players
    first = MixedProfile.pure(game.action_counts, (0,) * n)
    stage = PunishmentStage(0, first.supports(), first, (math.inf,) * n)
    return ProtocolPlan("partial_support_disjoint", mode, delta, tuple(rounds),
                        OutcomeTarget((0,) * n, "pareto_improver"), first, (stage,),
                        (), (0.0,) * n, content_hash(game))


def _base_row_cases():
    """Rounds where several payers pledge into one deviator, one payer
    pledges twice at one outcome, and a burn-only round does the same."""
    rng = np.random.default_rng(7)
    o, o2 = (1, 0, 1), (0, 1, 1)
    three = Game(rng.uniform(-3, 3, (3, 2, 2, 2)))
    transfers = [
        CommitmentRound((Pledge(1, o, 0, 0.3), Pledge(2, o, 0, 0.7),
                         Pledge(1, o, BURN, 0.1), Pledge(0, o, 2, 0.2),
                         Pledge(2, o2, 1, 0.9))),
        CommitmentRound((Pledge(2, o, 0, 0.1), Pledge(1, o, 0, 0.2),
                         Pledge(1, o, 0, 0.6), Pledge(0, o2, 1, 0.3))),
    ]
    two = Game(rng.uniform(-3, 3, (2, 3, 3)))
    burns = [
        CommitmentRound((Pledge(0, (1, 1), BURN, 0.3), Pledge(1, (1, 1), BURN, 0.1),
                         Pledge(1, (1, 1), BURN, 0.2), Pledge(1, (0, 2), BURN, 0.4))),
        CommitmentRound((Pledge(1, (2, 2), BURN, 0.25), Pledge(1, (2, 2), BURN, 0.5),
                         Pledge(0, (2, 2), BURN, 0.7))),
    ]
    return [(three, _plan_with_rounds(three, transfers, "transfers", 1.0)),
            (two, _plan_with_rounds(two, burns, "burn_only", 1.0))]


def test_base_rows_fold_the_others_pledges_as_apply_transfers_does():
    order_matters = False
    for game, plan in _base_row_cases():
        n = game.num_players
        games = fold_rounds(game, plan.rounds, plan.delta, plan.mode)
        stacks = []
        batch = verifier.punish_batch

        def recorded(utilities, *args):
            stacks.append(np.array(utilities))
            return batch(utilities, *args)

        with mock.patch.object(verifier, "punish_batch", recorded):
            check_deviations(game, plan, games=games)
        sizes = [len(commitment_deviation_moves(game, d, plan.delta, plan.mode,
                                                (plan.delta / 2, plan.delta)))
                 for d in range(n)]
        # The commitment grid's stacks come first, then the early stops'.
        grid = np.concatenate(stacks)[:len(plan.rounds) * sum(sizes)]
        for k, r in enumerate(plan.rounds):
            for d in range(n):
                others = [p for p in r.pledges if p.payer != d]
                want = apply_transfers(games[k], CommitmentRound(tuple(others)),
                                       delta=plan.delta, mode=plan.mode).utilities
                noop = grid[k * sum(sizes) + sum(sizes[:d])]  # the deviator's no-op
                assert np.array_equal(noop, want)
                assert noop.tobytes() == want.tobytes()
                backwards = apply_transfers(games[k], CommitmentRound(tuple(others[::-1])),
                                            delta=plan.delta, mode=plan.mode).utilities
                order_matters |= backwards.tobytes() != want.tobytes()
    assert order_matters  # the pledge order shows in the bits


@pytest.mark.parametrize("bad_round", [0, 2])
def test_overflowing_base_row_raises_what_apply_transfers_raises(bad_round):
    # 25 outcomes: no combination moves, whose amount is the cap, so only
    # the others' pledges reach the cell at the largest float.
    u = np.random.default_rng(3).uniform(-3, 3, (2, 5, 5))
    u[0, 1, 1] = np.finfo(float).max
    game = Game(u)
    x = 1e300
    # Player 1 burns x at (2, 2) before player 2 pays it back in: the round
    # folds, but without player 1's burn the cell overflows.
    rounds = [CommitmentRound(())] * 3
    rounds[bad_round] = CommitmentRound((Pledge(0, (1, 1), BURN, x),
                                         Pledge(1, (1, 1), 0, x)))
    plan = _plan_with_rounds(game, rounds[:bad_round + 1], "transfers", x)
    games = fold_rounds(game, plan.rounds, plan.delta, plan.mode)
    others = CommitmentRound((plan.rounds[bad_round].pledges[1],))
    with np.errstate(over="ignore"), pytest.raises(GameShapeError) as want:
        apply_transfers(games[bad_round], others, delta=x, mode="transfers")
    stacks = []
    batch = verifier.punish_batch

    def recorded(utilities, *args):
        stacks.append(len(utilities))
        return batch(utilities, *args)

    with np.errstate(over="ignore"), pytest.raises(GameShapeError) as got, \
            mock.patch.object(verifier, "punish_batch", recorded):
        check_deviations(game, plan, games=games, amounts=(1.0,))
    assert str(got.value) == str(want.value) == "utilities must be finite"
    # The first prefix raises while its moves are checked, a later one in
    # the punishment search.
    assert len(stacks) == (0 if bad_round == 0 else 1)


@pytest.mark.parametrize("case", ["ex4", "spoiler"])
def test_grid_builds_no_per_row_objects(case):
    if case == "ex4":
        game, plan = prize_plan(0.02)
    else:
        game, plan = spoiler_3x3(), naive_spoiler_plan(0.1)
    games = fold_rounds(game, plan.rounds, plan.delta, plan.mode)
    made, stacks = [], []
    finding, batch = verifier.DeviationFinding, verifier.punish_batch

    def counted(*args, **kwargs):
        made.append(finding(*args, **kwargs))
        return made[-1]

    def recorded(utilities, *args):
        stacks.append(len(utilities))
        return batch(utilities, *args)

    def no_game(*args, **kwargs):
        raise AssertionError("the grid built a Game")

    with mock.patch.object(verifier, "DeviationFinding", counted), \
            mock.patch.object(verifier, "punish_batch", recorded), \
            mock.patch.object(Game, "__init__", no_game):
        results = check_deviations(game, plan, games=games)
    structural = sum(len(r.structural_failures) for r in results.values())
    scalar = results["continue_when_stop"].checked + results["terminal_action"].checked
    # One worst per stack at most, plus the rows without a punishment and
    # the handful the two small classes record one by one.
    assert len(made) <= len(stacks) + structural + scalar
    if case == "ex4":
        assert (results["commitment"].checked, results["early_stop"].checked) == (13000, 198)
        assert structural == 0
    else:
        assert structural == 574


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
        found = punish_batch(stack, stage.supports, stage.seed, stage.ceiling)
        for r in range(len(stack)):
            g = game.with_utilities(stack[r])
            pun = find_punishment_equilibrium(g, stage.supports, stage.seed,
                                              stage.ceiling)
            assert found.kinds[r] == pun.kind
            if pun.profile is not None:
                want = [best_response_payoff(g, pun.profile, i) for i in range(n)]
                assert np.all(np.abs(found.best_response[r] - want) <= 1e-12)
            else:
                pure = enumerate_pure_nash(g)
                want = [max((g.payoff(i, p) for p in pure), default=-np.inf)
                        for i in range(n)]
                assert found.pure_best[r].tolist() == want

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
    assert shapes == [(3, 6, 6), (1, 6, 6), (2, 6, 6), (1, 6, 6), (1, 6, 6)]
    assert first.settled.tolist() == [True, False, True]
    scalar = find_punishment_equilibrium(game, stage.supports, stage.seed,
                                         stage.ceiling)
    assert scalar.kind == "support_solve"
    for i in range(2):
        want = deviation_payoffs(game, scalar.profile, i)
        assert first.deviation_payoffs[i][0].tobytes() == want.tobytes()
        assert first.deviation_payoffs[i][2].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Differential tests: the stacked on-path checks against the per-checkpoint
# loop.
# ---------------------------------------------------------------------------

def _scalar_check_on_path(game, plan, tol=1e-9, checkpoint_budget=None, *, games=None):
    """Reference on-path checks: every checkpoint searched and checked one
    game at a time.  `games` is accepted for `verify_plan`'s call and
    ignored."""
    results = {}
    try:
        games = fold_rounds(game, plan.rounds, plan.delta, plan.mode)
    except FoldError as exc:
        return {"round_cap": PropertyResult("fail", str(exc),
                                            {"round": exc.round_index})}
    results["round_cap"] = PropertyResult("pass")
    R = len(plan.rounds)
    probed = verifier._prefix_indices(R + 1, checkpoint_budget)

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
    det_series = []
    seed_applies = verifier._seed_nash_applies(plan.case_tag)
    full_support_case = plan.case_tag in ("full_support_2p", "full_support_np")
    for k in probed:
        stage = plan.stage_for(k)
        g = games[k]
        if seed_applies:
            check = is_nash(g, stage.seed, 1e-8)
            if not check.ok and anchor_fail is None:
                anchor_fail = {"checkpoint": k, "player": check.player + 1,
                               "gain": check.gain}
        pun = find_punishment_equilibrium(g, stage.supports, stage.seed,
                                          stage.ceiling)
        if pun.profile is None and punish_fail is None:
            punish_fail = {"checkpoint": k, "reason": pun.reason}
        if full_support_case:
            try:
                nd = is_non_degenerate(g, plan.baseline)
                if not nd.ok and nd_fail is None:
                    nd_fail = {"checkpoint": k, "det": nd.det,
                               "min_residual": nd.min_residual}
            except ValueError as exc:
                if nd_fail is None:
                    nd_fail = {"checkpoint": k, "error": str(exc)}
            system = build_characteristic_system(
                g, plan.action_orders or plan.baseline.supports())
            if g.num_players == 2:
                det_series.append((float(np.linalg.det(system.x1)),
                                   float(np.linalg.det(system.x2))))
            else:
                x = system.profile_vector(plan.baseline)
                det_series.append((float(np.linalg.det(system.jacobian(x))),))

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
        q4_ok = all(is_nash(games[k], plan.baseline, 1e-8).ok for k in range(S + 1))
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


def _assert_on_path_agrees(game, plan, **kwargs) -> dict:
    """The stacked and the per-checkpoint on-path checks give equal property
    dicts (status, detail and witness) and the same verify_plan bytes;
    returns the stacked properties."""
    budget = kwargs.get("checkpoint_budget")
    batched = check_on_path(game, plan, checkpoint_budget=budget)
    assert batched == _scalar_check_on_path(game, plan, checkpoint_budget=budget)
    report = verify_plan(game, plan, **kwargs).to_json()
    with mock.patch.object(verifier, "check_on_path", _scalar_check_on_path):
        assert report == verify_plan(game, plan, **kwargs).to_json()
    return batched


def full_support_2p_plan():
    game, sigma = full_support_two_player(np.random.default_rng(3))
    return game, build_plan(game, sigma, target=(1, 2), delta=0.1)


ON_PATH_PLANS = {
    **CATALOG_PLANS,
    "full_support_2p": lambda: (*full_support_2p_plan(), {}),
    # choose_delta's budgets on a 300-round plan
    "ex4_budgets": lambda: (*prize_plan(0.02), {"budget": 8, "checkpoint_budget": 64}),
}


@pytest.mark.parametrize("example", sorted(ON_PATH_PLANS))
def test_stacked_on_path_matches_scalar_loop(example):
    game, plan, kwargs = ON_PATH_PLANS[example]()
    props = _assert_on_path_agrees(game, plan, **kwargs)
    if plan.case_tag.startswith("full_support"):
        assert props["det_invariance"].detail.startswith("max relative drift")


def test_stacked_on_path_matches_scalar_loop_on_seeded_2x2_plans():
    rng = np.random.default_rng(1)
    for _ in range(20):
        _assert_on_path_agrees(*mismatching_two_by_two(rng))


def _counted_searches():
    return mock.patch.object(verifier, "find_punishment_equilibrium",
                             wraps=find_punishment_equilibrium)


def test_accepted_plan_makes_no_scalar_search():
    game, plan = prize_plan()
    with _counted_searches() as search:
        assert verify_plan(game, plan).accepted
    assert search.call_count == 0


def _with_stage(plan, k, **changes):
    """The plan with the stage in force at k replaced, at k alone, by a copy
    with `changes`."""
    stage = plan.stage_for(k)
    stages = [s for s in plan.punishment if s.first_round <= k]
    stages.append(dataclasses.replace(stage, first_round=k, **changes))
    stages += [dataclasses.replace(plan.stage_for(k + 1), first_round=k + 1)]
    stages += [s for s in plan.punishment if s.first_round > k + 1]
    return dataclasses.replace(plan, punishment=tuple(stages))


def test_checkpoint_without_punishment_gets_the_scalar_reason():
    game, plan = prize_plan()
    bad = _with_stage(plan, 2, ceiling=(-100.0, -100.0))
    props = _assert_on_path_agrees(game, bad)
    assert props["a"].status == "fail"
    assert props["a"].witness["checkpoint"] == 2
    assert "no pure equilibrium under ceiling" in props["a"].witness["reason"]
    with _counted_searches() as search:
        check_on_path(game, bad)
    assert search.call_count == 1


def test_stage_seed_not_nash_at_one_checkpoint():
    game, plan = prize_plan()
    bad = _with_stage(plan, 3, seed=MixedProfile.pure((4, 4), (0, 0)))
    props = _assert_on_path_agrees(game, bad)
    assert props["baseline_nash"].status == "fail"
    assert props["baseline_nash"].witness["checkpoint"] == 3


@pytest.mark.parametrize("make", [full_support_2p_plan,
                                  lambda: CATALOG_PLANS["ex6"]()[:2]])
def test_full_support_baseline_not_nash(make):
    game, plan = make()
    counts = game.action_counts
    skewed = MixedProfile([np.linspace(1, 2, c) / np.linspace(1, 2, c).sum()
                           for c in counts])
    props = _assert_on_path_agrees(game, dataclasses.replace(plan, baseline=skewed))
    assert props["P4prime"].status == "fail"
    assert props["P4prime"].witness["error"].startswith("profile is not Nash")


def test_stacked_on_path_matches_scalar_loop_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([(2, 2), (3, 3), (4, 4), (2, 2, 2)]),
           st.sampled_from([None, 5]))
    def run(seed, counts, budget):
        game, plan = _random_plan(np.random.default_rng(seed), counts)
        assert (check_on_path(game, plan, checkpoint_budget=budget)
                == _scalar_check_on_path(game, plan, checkpoint_budget=budget))

    run()
