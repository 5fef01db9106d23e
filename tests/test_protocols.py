import math
from unittest import mock

import numpy as np
import pytest

from commitment_games import (
    DocumentError,
    Game,
    MixedProfile,
    NotImprovingError,
    Pledge,
    apply_transfers,
    build_2x2_plan,
    build_characteristic_system,
    build_multiplayer_plan,
    build_partial_support_plan,
    build_plan,
    build_two_player_full_support_plan,
    build_welfare_transfer_stage,
    content_hash,
    choose_delta,
    classify_case,
    expected_utility,
    fold_plan,
    is_nash,
    pareto_improves,
    plan_from_dict,
    plan_to_dict,
    alternating_shift_array,
    verify_plan,
)
from commitment_games import protocols
from commitment_games.equilibria import DegenerateEquilibriumError
from commitment_games.protocols import InfeasibleError
from commitment_games.equilibria import SupportError, solve_on_support
from commitment_games.games import GameShapeError, ProfileError
from commitment_games.catalog import (
    cyclic_with_prize,
    cyclic_with_prize_overlap,
    spoiler_3x3,
    three_player_cycle,
    two_mode_mixing,
    unfair_split,
)

import scalar_reference as reference
from conftest import (
    feasible_payoff_split,
    full_support_multiplayer,
    full_support_two_player,
)


def uniform_cycle_sigma():
    return MixedProfile.uniform_over((4, 4), [(0, 1, 2), (0, 1, 2)])


def test_classify_cases():
    assert classify_case(cyclic_with_prize(), uniform_cycle_sigma(),
                         (3, 3)) == "partial_support_disjoint"
    assert classify_case(cyclic_with_prize_overlap(), uniform_cycle_sigma(),
                         (3, 2)) == "partial_support_mixed"
    mix = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    assert classify_case(two_mode_mixing(), mix, (0, 0)) == "in_support_indirect"
    g3 = three_player_cycle()
    s3 = MixedProfile.uniform_over((2, 2, 2), [(0, 1)] * 3)
    assert classify_case(g3, s3, (0, 0, 0)) == "full_support_np"


def test_classify_rejects_bad_hypotheses():
    game = spoiler_3x3()
    weak_anchor = MixedProfile.pure((3, 3), (0, 0))
    with pytest.raises(DegenerateEquilibriumError):
        classify_case(game, weak_anchor, (2, 2))
    game4 = cyclic_with_prize()
    with pytest.raises(NotImprovingError):
        classify_case(game4, uniform_cycle_sigma(), (0, 3))  # payoff 6, 0


def test_partial_disjoint_plan_anchors_prize():
    game = cyclic_with_prize()
    sigma = uniform_cycle_sigma()
    plan = build_partial_support_plan(game, sigma, (3, 3), 0.5)
    assert plan.case_tag == "partial_support_disjoint"
    assert plan.punishment[0].ceiling == (4.0, 4.0)
    terminal = fold_plan(game, plan)
    assert is_nash(terminal, MixedProfile.pure((4, 4), (3, 3)), 1e-9).ok
    assert tuple(terminal.payoffs((3, 3))) == (4.0, 4.0)
    for g in reference.fold_rounds(game, plan.rounds, plan.delta, plan.mode):
        assert is_nash(g, sigma, 1e-8).ok


def test_partial_mixed_plan_headroom_burns():
    game = cyclic_with_prize_overlap()
    plan = build_partial_support_plan(game, uniform_cycle_sigma(), (3, 2), 0.5)
    assert plan.case_tag == "partial_support_mixed"
    headroom = {}
    for r in plan.rounds:
        for p in r.pledges:
            if p.payer == 0 and p.outcome[1] != 2:
                headroom[p.outcome] = headroom.get(p.outcome, 0.0) + p.amount
    assert set(headroom) == {(3, 0), (3, 1), (3, 3)}
    assert all(abs(v - 1.0) <= 1e-9 for v in headroom.values())


def test_partial_plan_trivial_when_target_is_the_anchor():
    game = unfair_split()
    sigma = MixedProfile.pure((2, 2), (0, 0))
    plan = build_partial_support_plan(game, sigma, (0, 0), 0.5, validate=False)
    assert plan.num_rounds == 0


def test_indirect_plan_three_stages():
    game = two_mode_mixing()
    sigma = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    plan = build_partial_support_plan(game, sigma, (0, 0), 0.25)
    assert plan.case_tag == "in_support_indirect"
    assert len(plan.punishment) == 2
    aux = plan.punishment[1].seed.pure_profile()
    assert all(aux[i] != (0, 0)[i] for i in range(2))
    terminal = fold_plan(game, plan)
    assert is_nash(terminal, MixedProfile.pure((3, 3), (0, 0)), 1e-9).ok
    assert tuple(terminal.payoffs((0, 0))) == (5.0, 5.0)
    # sigma anchors the early stages, the auxiliary profile the last one
    boundary = plan.punishment[1].first_round
    games = reference.fold_rounds(game, plan.rounds, plan.delta, plan.mode)
    for g in games[:boundary + 1]:
        assert is_nash(g, sigma, 1e-8).ok
    aux_profile = plan.punishment[1].seed
    for g in games[boundary:]:
        assert is_nash(g, aux_profile, 1e-9).ok
    report = verify_plan(game, plan)
    assert report.accepted


def test_row_operation_pledge_effects():
    # P(1, (a_1^j, a_2^k), x) raises the block entry (j, k) by x; the matched
    # M commitment lowers it by x and leaves the other rows untouched.
    game, sigma = full_support_two_player(np.random.default_rng(1))
    orders = ((0, 1, 2), (0, 1, 2))
    system = build_characteristic_system(game, orders)
    x1 = np.array(system.x1)
    j, k, x = 1, 2, 0.3
    bumped = apply_transfers(game, [Pledge(0, (orders[0][j], orders[1][k]),
                                           "BURN", x)])
    x1_after = np.array(build_characteristic_system(bumped, orders).x1)
    expect = x1.copy()
    expect[j, k] += x
    assert np.allclose(x1_after, expect, atol=1e-12)

    m_pledges = [Pledge(0, (a, orders[1][k]), "BURN", x)
                 for a in (0, 1, 2) if a != orders[0][j]]
    lowered = apply_transfers(game, m_pledges)
    x1_low = np.array(build_characteristic_system(lowered, orders).x1)
    expect = x1.copy()
    expect[j, k] -= x
    assert np.allclose(x1_low, expect, atol=1e-12)


def test_two_player_full_support_plan_random(rng):
    for _ in range(10):
        game, sigma = full_support_two_player(rng)
        plan = build_two_player_full_support_plan(game, sigma, (0, 0), 0.4,
                                                  validate=False)
        games = reference.fold_rounds(game, plan.rounds, plan.delta, plan.mode)
        assert is_nash(games[-1], MixedProfile.pure((3, 3), (0, 0)), 1e-9).ok
        assert all(is_nash(g, sigma, 1e-8).ok for g in games)
        dets0 = None
        for g in games:
            s = build_characteristic_system(g, plan.action_orders)
            dets = (np.linalg.det(s.x1), np.linalg.det(s.x2))
            if dets0 is None:
                dets0 = dets
            for d, d0 in zip(dets, dets0):
                assert abs(d - d0) <= 1e-7 * max(abs(d0), 1e-12)
        # target payoffs never touched
        assert np.array_equal(games[-1].payoffs((0, 0)), game.payoffs((0, 0)))


def test_two_player_plan_zero_rounds_when_column_already_clear():
    # player 1's block first column already nonnegative -> no rounds from her
    u1 = [[2, 0, 0], [1, 3, 0], [1, 0, 3]]  # column under (0,0): 2-1=1, 2-1=1
    rng = np.random.default_rng(4)
    game, sigma = full_support_two_player(rng)
    plan = build_two_player_full_support_plan(game, sigma, (0, 0),
                                              0.4, validate=False)
    system = build_characteristic_system(game, plan.action_orders)
    if np.all(system.x1[1:, 0] >= 0):
        assert not any(p.payer == 0 for r in plan.rounds for p in r.pledges)
    if np.all(system.x2[1:, 0] >= 0):
        assert not any(p.payer == 1 for r in plan.rounds for p in r.pledges)
    # constructed zero-work instance: both first columns clear
    u1 = np.array([[2.0, 0, 0], [1, 3, 0], [1, 0, 3]])
    u2 = u1.T.copy()
    p = np.array([1 / 3] * 3)
    v1 = u1 @ p
    u1 = u1 - (v1 - v1[0])[:, None]
    v2 = p @ u2
    u2 = u2 - (v2 - v2[0])[None, :]
    clear = Game([u1, u2])
    sigma_c = MixedProfile([p, p])
    assert is_nash(clear, sigma_c, 1e-9).ok
    plan_c = build_two_player_full_support_plan(clear, sigma_c, (0, 0), 0.4,
                                                validate=False)
    assert plan_c.num_rounds == 0


def test_two_player_rejects_non_square_and_binary():
    rect = Game(np.zeros((2, 2, 3)))
    sigma = MixedProfile([[0.5, 0.5], [1 / 3] * 3])
    with pytest.raises(InfeasibleError):
        build_two_player_full_support_plan(rect, sigma, (0, 0), 0.1,
                                           validate=False)
    square2 = Game(np.zeros((2, 2, 2)))
    sigma2 = MixedProfile([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(InfeasibleError):
        build_two_player_full_support_plan(square2, sigma2, (0, 0), 0.1,
                                           validate=False)


def test_alternating_shift_array_values():
    sigma = MixedProfile([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    x = alternating_shift_array(sigma, 3, 4)
    assert np.allclose(x, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)
    assert x[0, 0] > 0  # leading entry strictly positive
    signs = np.sign(x).ravel().tolist()
    assert signs == [1.0, -1.0, -1.0, 1.0]


def test_alternating_shift_array_general_lead_positive(rng):
    for _ in range(50):
        n = int(rng.integers(3, 5))
        counts = [int(rng.integers(2, 4)) for _ in range(n)]
        probs = [rng.dirichlet(np.ones(c)) for c in counts]
        probs = [np.clip(p, 0.02, None) for p in probs]
        probs = [p / p.sum() for p in probs]
        sigma = MixedProfile(probs)
        total = n + sum(c - 1 for c in counts)
        j = int(rng.integers(n + 1, total + 1))
        x = alternating_shift_array(sigma, n, j)
        assert x[(0,) * (n - 1)] > 0


def test_alternating_shift_array_rejects_singletons():
    sigma = MixedProfile([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        alternating_shift_array(sigma, 3, 4, orders=[(0,), (0, 1), (0, 1)])


def test_multiplayer_plan_preserves_everything():
    game = three_player_cycle()
    sigma = MixedProfile.uniform_over((2, 2, 2), [(0, 1)] * 3)
    plan = build_multiplayer_plan(game, sigma, (0, 0, 0), 0.1)
    games = reference.fold_rounds(game, plan.rounds, plan.delta, plan.mode)
    assert is_nash(games[-1], MixedProfile.pure((2, 2, 2), (0, 0, 0)), 1e-9).ok
    assert all(is_nash(g, sigma, 1e-8).ok for g in games)
    det0 = None
    for g in games:
        s = build_characteristic_system(g, plan.action_orders)
        det = np.linalg.det(s.jacobian(s.profile_vector(sigma)))
        if det0 is None:
            det0 = det
        assert abs(det - det0) <= 1e-7 * abs(det0)
    assert np.array_equal(games[-1].payoffs((0, 0, 0)), game.payoffs((0, 0, 0)))


def test_multiplayer_plan_empty_when_target_already_nash():
    # a balanced bonus pair keeps the uniform anchor while clearing the
    # last negative lead coefficient: nothing left to shift
    u = np.array(three_player_cycle().utilities)
    u[2, 0, 0, 0] += 1.0
    u[2, 1, 0, 0] -= 1.0
    boosted = Game(u)
    sigma = MixedProfile.uniform_over((2, 2, 2), [(0, 1)] * 3)
    assert is_nash(boosted, sigma, 1e-9).ok
    assert is_nash(boosted, MixedProfile.pure((2, 2, 2), (0, 0, 0)), 1e-9).ok
    plan = build_multiplayer_plan(boosted, sigma, (0, 0, 0), 0.1,
                                  validate=False)
    assert plan.num_rounds == 0


def test_2x2_plan_gap_equalities():
    u1 = [[2, 1], [3, 0]]
    u2 = [[2, 3], [1, 0]]
    game = Game([u1, u2])
    sigma = MixedProfile([[0.5, 0.5], [0.5, 0.5]])
    delta = 0.25
    plan = build_2x2_plan(game, sigma, (0, 0), delta)
    # before the final round both gaps sit at exactly delta
    before_last = fold_plan(game, plan, plan.num_rounds - 1)
    for i in range(2):
        d0 = before_last.payoff(i, (0, 0)) - before_last.payoff(
            i, (1, 0) if i == 0 else (0, 1))
        d1 = before_last.payoff(i, (0, 1) if i == 0 else (1, 0)) \
            - before_last.payoff(i, (1, 1))
        assert d0 == pytest.approx(-delta, abs=1e-12)
        assert d1 == pytest.approx(delta, abs=1e-12)
    terminal = fold_plan(game, plan)
    assert is_nash(terminal, MixedProfile.pure((2, 2), (0, 0)), 1e-9).ok
    assert tuple(terminal.payoffs((0, 0))) == (2.0, 2.0)


def test_2x2_indifferent_player_only_burns_off_column():
    # player 2 indifferent between her actions; (0, 0) barely improves her,
    # so she contributes only the column-clearing step
    u1 = [[2, 1], [3, 0]]
    u2 = [[4, 4], [3.9, 3.9]]
    game = Game([u1, u2])
    sigma = MixedProfile([[0.5, 0.5], [0.5, 0.5]])
    assert is_nash(game, sigma, 1e-9).ok
    plan = build_2x2_plan(game, sigma, (0, 0), 0.25, validate=False)
    p2_outcomes = {p.outcome for r in plan.rounds for p in r.pledges
                   if p.payer == 1}
    # step 1 burns only where player 1 plays her non-target action
    assert p2_outcomes <= {(1, 0), (1, 1)}
    terminal = fold_plan(game, plan)
    assert is_nash(terminal, MixedProfile.pure((2, 2), (0, 0)), 1e-9).ok


def test_2x2_rejects_oversized_delta():
    u1 = [[2, 1], [3, 0]]
    u2 = [[2, 3], [1, 0]]
    game = Game([u1, u2])
    sigma = MixedProfile([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(InfeasibleError):
        build_2x2_plan(game, sigma, (0, 0), 1.0)


def test_welfare_stage_trivial_cases():
    game = unfair_split()
    sigma = MixedProfile.pure((2, 2), (0, 0))
    # equal split already in place -> empty stage
    u = np.array(game.utilities)
    u[0, 1, 1], u[1, 1, 1] = 4.0, 3.0
    pre_split = Game(u)
    plan, terminal = build_welfare_transfer_stage(pre_split, sigma, (4.0, 3.0),
                                                  1.0)
    assert plan.num_rounds == 0 and terminal == pre_split

    with pytest.raises(InfeasibleError):
        build_welfare_transfer_stage(game, sigma, (5.0, 3.0), 1.0)  # sum != 7
    with pytest.raises(InfeasibleError):
        build_welfare_transfer_stage(game, sigma, (8.0, -1.0), 1.0)


def _pure(counts, profile):
    return MixedProfile.pure(counts, profile)


# One call per error text that names a player or an action; in each, player 2
# (index 1) is at fault, and its labels are 1-based, as in all other I/O.
LABELLED_ERRORS = {
    "single_action": (lambda: build_partial_support_plan(
        Game([[[0], [5]], [[0], [0]]]), _pure((2, 1), (0, 0)), (1, 0), 0.5, validate=False),
        "player 2 has a single action"),
    "no_residual_slack": (lambda: build_partial_support_plan(
        Game([[[0, 0], [0, 0]], [[1, 0], [0, 1]]]), MixedProfile([[0.5, 0.5], [1, 0]]), (0, 1),
        0.5, validate=False), "player 2: no residual slack for the target action"),
    "locked": (lambda: build_partial_support_plan(
        Game([[[0, 0], [0, 0]], [[2, 1], [0, 0]]]), _pure((2, 2), (0, 0)), (0, 1), 0.5,
        validate=False), "player 2: everyone else is locked on the target column"),
    "second_support_action": (lambda: build_multiplayer_plan(
        Game(np.zeros((3, 2, 2, 2))), MixedProfile([[0.5, 0.5], [1, 0], [0.5, 0.5]]),
        (0, 0, 0), 0.5, validate=False), "player 2 lacks a second support action"),
    "preferences": (lambda: build_2x2_plan(
        Game([[[1, 0], [0, 1]], [[1, 0], [1, 0]]]), MixedProfile([[0.5, 0.5]] * 2), (0, 0),
        0.5, validate=False), "player 2 preferences (1, 1) admit no full-support equilibrium"),
    "not_improving": (lambda: build_welfare_transfer_stage(
        unfair_split(), _pure((2, 2), (0, 0)), (8.0, -1.0), 1.0),
        "player 2: target -1 does not strictly improve the baseline utility 0"),
    "compensation": (lambda: build_welfare_transfer_stage(
        Game([[[0, 3], [0, 2]], [[-1, 0], [0, 6]]]), _pure((2, 2), (0, 1)), (4.0, 4.0), 1.0),
        "player 2 has no second support action to compensate player 1's raise"),
    "empty_support": (lambda: solve_on_support(unfair_split(), [(0,), ()]),
                      "player 2: empty support"),
    "bad_support": (lambda: solve_on_support(unfair_split(), [(0,), (0, 5)]),
                    "player 2: bad support (1, 6)"),
    "profile_length": (lambda: expected_utility(
        unfair_split(), MixedProfile([[0.5, 0.5], [0.2, 0.3, 0.5]]), 0),
        "player 2: profile length 3 != 2 actions"),
}


@pytest.mark.parametrize("case", list(LABELLED_ERRORS))
def test_error_texts_label_players_and_actions_one_based(case):
    call, text = LABELLED_ERRORS[case]
    with pytest.raises((InfeasibleError, SupportError, GameShapeError)) as info:
        call()
    assert str(info.value) == text


# 0-based targets on unfair_split (2x2), each with the one target checker's
# text, which labels players and actions 1-based.
BAD_TARGETS = {
    (5, 0): "player 1: target action 6 is not among actions 1..2",
    (-1, 0): "player 1: target action 0 is not among actions 1..2",
    (0,): "target needs one action per player: got 1 for 2 players",
    (0, 0, 0): "target needs one action per player: got 3 for 2 players",
}


@pytest.mark.parametrize("target", list(BAD_TARGETS))
def test_every_target_entry_point_refuses_a_malformed_target(target):
    game, sigma = unfair_split(), _pure((2, 2), (0, 0))
    builders = (build_partial_support_plan, build_two_player_full_support_plan,
                build_multiplayer_plan, build_2x2_plan)
    calls = [lambda: build_plan(game, sigma, target=target, delta=1.0),
             lambda: choose_delta(game, sigma, target=target),
             lambda: pareto_improves(game, target, sigma),
             *(lambda b=b: b(game, sigma, target, 1.0) for b in builders)]
    for call in calls:
        with pytest.raises(ProfileError) as info:
            call()
        assert str(info.value) == BAD_TARGETS[target]


@pytest.mark.parametrize("split, text", [
    ((4.0, 3.0, 0.0), "payoff split needs one entry per player: got 3 for 2 players"),
    ((4.0,), "payoff split needs one entry per player: got 1 for 2 players"),
    ((math.nan, 3.0), "player 1: payoff nan is not finite"),
])
def test_malformed_splits_are_refused_before_any_round(split, text):
    game, sigma = unfair_split(), _pure((2, 2), (0, 0))
    with mock.patch.object(protocols, "_stage_rounds", side_effect=AssertionError):
        for call in (lambda: build_plan(game, sigma, payoffs=split, delta=1.0),
                     lambda: choose_delta(game, sigma, payoffs=split),
                     lambda: build_welfare_transfer_stage(game, sigma, split, 1.0)):
            with pytest.raises(ProfileError) as info:
                call()
            assert str(info.value) == text


def test_support_entries_must_be_integral():
    with pytest.raises(SupportError) as info:
        solve_on_support(two_mode_mixing(), [(0.5, 1), (0, 1)])
    assert str(info.value) == "player 1: bad support (1.5, 2)"


def test_every_reproduced_plan_reads_back_from_its_document(monkeypatch):
    from commitment_games import catalog

    plans = []

    def recording_verify(game, plan, **kwargs):
        plans.append(plan)
        return verify_plan(game, plan, **kwargs)

    monkeypatch.setattr(catalog, "verify_plan", recording_verify)
    assert all(row.ok for row in catalog.reproduce())
    assert len(plans) == 5  # ex3, ex4, ex5, ex6 and counter3x3
    for plan in plans:
        assert plan_from_dict(plan_to_dict(plan)) == plan


def test_welfare_stage_compensated_players(rng):
    done = 0
    while done < 5:
        game, sigma = full_support_multiplayer(rng)
        x = feasible_payoff_split(rng, game, sigma)
        if x is None:
            continue
        done += 1
        plan, terminal = build_welfare_transfer_stage(game, sigma, x, 0.2)
        a_sw = plan.target.profile
        for i in range(3):
            assert terminal.payoff(i, a_sw) == pytest.approx(x[i], abs=1e-9)
        base_u = [expected_utility(game, sigma, i) for i in range(3)]
        games = reference.fold_rounds(game, plan.rounds, plan.delta, plan.mode)
        for i in range(3):
            if x[i] - game.payoff(i, a_sw) > 1e-12:  # compensated player
                for g in games:
                    assert expected_utility(g, sigma, i) == pytest.approx(
                        base_u[i], abs=1e-9)
        welfare = [g.utilities.sum(axis=0) for g in games]
        for k in range(len(games) - 1):
            assert np.all(welfare[k + 1] <= welfare[k] + 1e-9)


def test_build_plan_chains_stage_and_anchor():
    game = unfair_split()
    sigma = MixedProfile.pure((2, 2), (0, 0))
    plan = build_plan(game, sigma, payoffs=(4.0, 3.0), delta=1.0)
    assert plan.case_tag == "welfare_transfer_stage"
    assert plan.num_rounds == 6 and plan.welfare_stage_rounds == 6
    assert plan.expected_terminal_payoffs == (4.0, 3.0)
    terminal = fold_plan(game, plan)
    assert tuple(terminal.payoffs((1, 1))) == (4.0, 3.0)


def test_build_plan_with_payoffs_folds_each_round_once():
    game = unfair_split()
    sigma = MixedProfile.pure((2, 2), (0, 0))
    folded = []
    fold = protocols.fold_rounds

    def counted(game, rounds, *args, **kwargs):
        folded.append(len(rounds))
        return fold(game, rounds, *args, **kwargs)

    with mock.patch.object(protocols, "fold_rounds", counted):
        plan = build_plan(game, sigma, payoffs=(4.0, 3.0), delta=0.1)
    assert plan.num_rounds == 60
    assert sum(folded) == 60


@pytest.mark.parametrize("upto", [-1, 51, 10**6])
def test_fold_plan_rejects_a_prefix_the_plan_does_not_have(upto):
    game = three_player_cycle()
    sigma = MixedProfile.uniform_over((2, 2, 2), [(0, 1)] * 3)
    plan = build_plan(game, sigma, target=(0, 0, 0), delta=0.01)
    assert plan.num_rounds == 50
    with pytest.raises(ValueError, match=r"upto must be None or in 0\.\.50"):
        fold_plan(game, plan, upto)
    games = reference.fold_rounds(game, plan.rounds, plan.delta, plan.mode)
    assert [fold_plan(game, plan, k) for k in (0, 49, 50, None)] == [
        games[0], games[49], games[50], games[50]]


def test_build_plan_with_payoffs_checkpoints_follow_the_whole_fold():
    # Both the welfare stage and the burn sub-plan have rounds here, so the
    # sub-plan's checkpoints are shifted onto the stage's.
    rng = np.random.default_rng(3)
    game, sigma = full_support_two_player(rng)
    split = feasible_payoff_split(rng, game, sigma)
    plan = build_plan(game, sigma, payoffs=split, delta=0.25)
    S = plan.welfare_stage_rounds
    assert 0 < S < plan.num_rounds
    games = reference.fold_rounds(game, plan.rounds, plan.delta, plan.mode)
    assert [c.rounds_applied for c in plan.checkpoints] == list(range(len(games)))
    assert [c.game_hash for c in plan.checkpoints] == [reference.content_hash(g) for g in games]
    lams = [c.lam for c in plan.checkpoints]
    assert lams[0] == 0.0 and lams[S] == 1.0
    assert all(lam is not None for lam in lams[:S + 1])
    assert all(lam is None for lam in lams[S + 1:])
    assert plan.base_game_hash == content_hash(game)


def test_choose_delta_examples():
    game = unfair_split()
    sigma = MixedProfile.pure((2, 2), (0, 0))
    delta, plan = choose_delta(game, sigma, payoffs=(4.0, 3.0))
    assert delta == pytest.approx(0.13, abs=1e-12)  # 1% of the 13-range
    assert verify_plan(game, plan).accepted
    # the worked cap of 1 also passes end to end
    plan1 = build_plan(game, sigma, payoffs=(4.0, 3.0), delta=1.0)
    assert verify_plan(game, plan1, amounts=(0.5, 1.0)).accepted

    game4 = cyclic_with_prize()
    sigma4 = uniform_cycle_sigma()
    delta4, plan4 = choose_delta(game4, sigma4, target=(3, 3))
    assert delta4 <= 1.0
    assert plan4.punishment[0].ceiling == (4.0, 4.0)

    with pytest.raises(NotImprovingError):
        choose_delta(game4, sigma4, target=(0, 3))


def test_choose_delta_stops_at_the_round_guard_and_names_the_last_rejection(monkeypatch):
    # A 2x2 welfare split over a full-support baseline that no cap tried
    # passes.  Its utility range is 5, so with the round guard at range / 200
    # the caps 0.05 and 0.025 are tried; 0.0125 breaks the guard, as every
    # smaller cap would, and the search stops there.
    game = Game(np.array([[[0.5, -3], [-3, -2.5]], [[-2, 2], [1, 0]]]))
    sigma = MixedProfile([np.array([0.2, 0.8]), np.array([0.125, 0.875])])
    monkeypatch.setattr(protocols, "MAX_RANGE_PER_DELTA", 200.0)
    tried, build = [], protocols.build_plan

    def counted(*args, delta, **kwargs):
        tried.append(delta)
        return build(*args, delta=delta, **kwargs)

    monkeypatch.setattr(protocols, "build_plan", counted)
    with pytest.raises(InfeasibleError) as info:
        choose_delta(game, sigma, payoffs=(-2.271875, 1.271875))
    assert tried == [0.05, 0.025]
    # The text names the last verification rejection, not the guard.
    assert str(info.value).startswith(
        "no cap above 0.0125 passes: verification rejected delta 0.025: 3 failing "
        "properties: P4prime, a1, baseline_nash; commitment deviations: 8 of 666 without "
        "a punishment, worst gain ")


def test_plan_json_round_trip():
    game = cyclic_with_prize()
    plan = build_plan(game, uniform_cycle_sigma(), target=(3, 3), delta=0.5)
    doc = plan_to_dict(plan)
    back = plan_from_dict(doc)
    assert back.case_tag == plan.case_tag
    assert back.rounds == plan.rounds
    assert back.checkpoints == plan.checkpoints
    assert back.punishment[0].ceiling == plan.punishment[0].ceiling
    assert back.baseline == plan.baseline


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), float("-inf")])
def test_build_plan_rejects_non_finite_delta(delta):
    with pytest.raises(ValueError, match="finite") as info:
        build_plan(cyclic_with_prize(), uniform_cycle_sigma(), target=(3, 3),
                   delta=delta)
    assert not isinstance(info.value, InfeasibleError)


def test_plan_from_dict_rejects_malformed_documents():
    doc = plan_to_dict(build_plan(cyclic_with_prize(), uniform_cycle_sigma(),
                                  target=(3, 3), delta=0.5))
    with pytest.raises(DocumentError, match="schema_version"):
        plan_from_dict({**doc, "schema_version": 2})
    with pytest.raises(DocumentError, match="mode"):
        plan_from_dict({k: v for k, v in doc.items() if k != "mode"})
    with pytest.raises(DocumentError):
        plan_from_dict({**doc, "punishment": [{"first_round": 0}]})
    with pytest.raises(DocumentError):
        plan_from_dict([doc])


def test_every_round_respects_the_cap():
    game = two_mode_mixing()
    sigma = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    plan = build_partial_support_plan(game, sigma, (0, 0), 0.25)
    for r in plan.rounds:
        totals = {}
        for p in r.pledges:
            key = (p.payer, p.outcome)
            totals[key] = totals.get(key, 0.0) + p.amount
        assert all(v <= 0.25 + 1e-12 for v in totals.values())


def test_coefficient_shift_compiles_to_the_displayed_pattern():
    # binary three-player case: signs (+,-,-,+) compile to burns at the
    # compared action's outcome for + entries and at the complementary
    # own-action outcomes for - entries
    from commitment_games.protocols import _r_commitment_pledges

    sigma = MixedProfile([[0.5, 0.5]] * 3)
    orders = ((0, 1), (0, 1), (0, 1))
    x = alternating_shift_array(sigma, 3, 4, orders)
    pledges = _r_commitment_pledges(0, 1, 1.0, x, orders, (2, 2, 2))
    burns = {p.outcome: p.amount for p in pledges}
    assert burns == {
        (1, 0, 0): 0.25,  # raise the leading coefficient
        (0, 0, 1): 0.25,  # lower the second (burn on the complement)
        (0, 1, 0): 0.25,  # lower the third
        (1, 1, 1): 0.25,  # raise the fourth
    }


def test_coefficient_shift_drops_amounts_near_zero_relative_to_the_largest():
    # 5e-12 is above the absolute 1e-15 floor but within 1e-15 of the
    # largest amount, 1e4, so it is rounding noise of the shift
    from commitment_games.protocols import _r_commitment_pledges

    orders = ((0, 1), (0, 1), (0, 1))
    x = np.array([[1e4, 5e-12], [1.0, -1.0]])
    pledges = _r_commitment_pledges(0, 1, 1.0, x, orders, (2, 2, 2))
    assert {p.outcome: p.amount for p in pledges} == {
        (1, 0, 0): 1e4,
        (1, 1, 0): 1.0,
        (0, 1, 1): 1.0,  # a negative entry burns on the complement
    }
