import json
import math

import numpy as np
import pytest

from commitment_games import (
    BURN,
    Game,
    GameShapeError,
    MixedProfile,
    Pledge,
    TransferError,
    apply_transfers,
    expected_utility,
    game_from_dict,
    game_to_dict,
    pareto_improves,
    welfare_max,
)
from commitment_games.engine import CommitmentRound
from commitment_games.catalog import (
    chicken,
    chicken_bribe_round,
    cyclic_with_prize,
    prisoners_dilemma,
    prisoners_dilemma_transformed,
    reciprocal_cooperation_round,
    two_mode_mixing,
    unfair_split,
)

from conftest import game_distance, random_game


def test_game_shape_validation():
    with pytest.raises(GameShapeError):
        Game(np.zeros((1, 2)))  # single player
    with pytest.raises(GameShapeError):
        Game(np.full((2, 2, 2), np.nan))
    with pytest.raises(GameShapeError):
        Game(np.zeros((3, 2, 2)))  # player axis inconsistent with action axes


def test_expected_utility_uniform_cycle_block():
    game = cyclic_with_prize()
    sigma = MixedProfile.uniform_over(game.action_counts, [(0, 1, 2), (0, 1, 2)])
    assert expected_utility(game, sigma, 0) == pytest.approx(3.0, abs=1e-12)
    assert expected_utility(game, sigma, 1) == pytest.approx(3.0, abs=1e-12)


def test_expected_utility_pure_profile_exact():
    game = chicken()
    prof = MixedProfile.pure(game.action_counts, (1, 0))
    assert expected_utility(game, prof, 0) == 2.0
    assert expected_utility(game, prof, 1) == 0.0


def test_expected_utility_half_half_mix():
    game = two_mode_mixing()
    sigma = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    # hand contraction: (5 + 1 + 1 + 5) / 4
    assert expected_utility(game, sigma, 0) == pytest.approx(3.0, abs=1e-12)


def test_welfare_max_examples():
    assert welfare_max(unfair_split()) == (7.0, (1, 1))
    tiny = Game(np.array([[[2.0]], [[3.0]]]))
    assert welfare_max(tiny) == (5.0, (0, 0))
    w, prof = welfare_max(chicken())
    assert w == 3.0 and prof == (0, 1)


def test_welfare_max_matches_exhaustive_scan(rng):
    for _ in range(40):
        game = random_game(rng, 2, (3, 4))
        w, prof = welfare_max(game)
        best = max(game.pure_profiles(),
                   key=lambda p: sum(game.payoff(i, p) for i in range(2)))
        best_w = sum(game.payoff(i, best) for i in range(2))
        assert w == pytest.approx(best_w, abs=1e-12)
        assert sum(game.payoff(i, prof) for i in range(2)) == pytest.approx(
            best_w, abs=1e-12)


def test_game_distance_examples():
    game = prisoners_dilemma()
    assert game_distance(game, game) == 0.0
    assert game_distance(game, prisoners_dilemma_transformed()) == 1.0
    assert game_distance(game, two_mode_mixing()) == math.inf


def test_game_distance_is_a_metric(rng):
    for _ in range(200):
        games = [random_game(rng, 2, (2, 3)) for _ in range(3)]
        a, b, c = games
        assert game_distance(a, b) == game_distance(b, a)
        assert game_distance(a, a) == 0.0
        assert game_distance(a, c) <= game_distance(a, b) + game_distance(b, c) + 1e-12


def test_apply_transfers_reciprocal_pledges():
    game = prisoners_dilemma()
    out = apply_transfers(game, reciprocal_cooperation_round(), delta=1.0)
    assert out == prisoners_dilemma_transformed()


def test_apply_transfers_empty_round_identity():
    game = chicken()
    assert apply_transfers(game, CommitmentRound()) == game


def test_apply_transfers_bribe():
    out = apply_transfers(chicken(), chicken_bribe_round(), delta=20.0)
    assert out.payoff(0, (0, 1)) == -19.0
    assert out.payoff(1, (0, 1)) == 22.0


def test_apply_transfers_rejects_illegal_pledges():
    game = chicken()
    with pytest.raises(TransferError):
        apply_transfers(game, [Pledge(0, (0, 1), 1, 2.0)], delta=1.0)
    with pytest.raises(TransferError):
        apply_transfers(game, [Pledge(0, (0, 1), 1, 1.0)], mode="burn_only")
    with pytest.raises(TransferError):
        Pledge(0, (0, 1), 0, 1.0)  # self-payment
    with pytest.raises(TransferError):
        Pledge(0, (0, 1), BURN, -1.0)
    for amount in (math.nan, math.inf):
        with pytest.raises(TransferError, match="not finite"):
            Pledge(0, (0, 1), BURN, amount)


def test_apply_transfers_does_not_mutate_input():
    game = chicken()
    before = np.array(game.utilities)
    apply_transfers(game, chicken_bribe_round(), delta=20.0)
    assert np.array_equal(game.utilities, before)


def test_transfer_welfare_conservation(rng):
    for _ in range(30):
        game = random_game(rng, 2, (2, 3))
        pledges = []
        for _ in range(4):
            outcome = (int(rng.integers(2)), int(rng.integers(3)))
            payer = int(rng.integers(2))
            pledges.append(Pledge(payer, outcome, 1 - payer,
                                  float(rng.uniform(0, 0.5))))
        out = apply_transfers(game, pledges)
        w_before = game.utilities.sum(axis=0)
        w_after = out.utilities.sum(axis=0)
        assert np.max(np.abs(w_before - w_after)) <= 1e-12


def test_burn_strictly_lowers_welfare(rng):
    game = random_game(rng, 2, (2, 2))
    out = apply_transfers(game, [Pledge(0, (0, 0), BURN, 0.25)])
    w_before = game.utilities.sum(axis=0)
    w_after = out.utilities.sum(axis=0)
    assert w_after[0, 0] == pytest.approx(w_before[0, 0] - 0.25, abs=1e-12)
    assert np.all(w_after <= w_before)


def test_pareto_improves_examples():
    game = cyclic_with_prize()
    sigma = MixedProfile.uniform_over(game.action_counts, [(0, 1, 2), (0, 1, 2)])
    ok, L = pareto_improves(game, (3, 3), sigma)
    assert ok and L == pytest.approx(1.0, abs=1e-12)

    constant = Game(np.ones((2, 2, 2)))
    uniform = MixedProfile.uniform_over((2, 2), [(0, 1), (0, 1)])
    ok, L = pareto_improves(constant, (0, 0), uniform)
    assert not ok and L == pytest.approx(0.0, abs=1e-12)

    game3 = unfair_split()
    shifted = apply_transfers(game3, [Pledge(0, (1, 1), 1, 6.0)], delta=6.0)
    baseline = MixedProfile.pure((2, 2), (0, 0))
    ok, L = pareto_improves(shifted, (1, 1), baseline)
    assert ok and L == pytest.approx(3.0, abs=1e-12)


def test_json_round_trip_is_bit_exact(rng):
    for _ in range(10):
        game = random_game(rng, 2, (2, 3))
        u = np.array(game.utilities)
        u[0, 0, 0] = 0.1
        u[1, 1, 2] = 1.0 / 3.0
        game = Game(u, [["x", "y"], ["a", "b", "c"]])
        doc = json.loads(json.dumps(game_to_dict(game)))
        back = game_from_dict(doc)
        assert np.array_equal(back.utilities, game.utilities)
        assert back.action_names == game.action_names


def test_support_extraction_epsilon():
    prof = MixedProfile([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
    assert prof.supports() == ((0, 1), (0,))
    assert prof.is_pure() is False


@pytest.mark.parametrize("probs", [[[math.nan, 1.0], [0.5, 0.5]],
                                   [[0.5, 0.5], [math.inf, 0.0]],
                                   [[1.0, -math.inf], [0.5, 0.5]]])
def test_mixed_profile_rejects_non_finite_entries(probs):
    from commitment_games.games import ProfileError

    with pytest.raises(ProfileError, match="finite"):
        MixedProfile(probs)


@pytest.mark.parametrize("make, error, text", [
    (lambda: MixedProfile.pure((2, 2), (-1, 0)), "ProfileError",
     "player 1: target action 0 is not among actions 1..2"),
    (lambda: MixedProfile.pure((2, 2), (5, 0)), "ProfileError",
     "player 1: target action 6 is not among actions 1..2"),
    (lambda: MixedProfile.pure((2, 2), (0.5, 0)), "ProfileError",
     "player 1: target action 1.5 is not among actions 1..2"),
    (lambda: MixedProfile.pure((2, 2), (0,)), "ProfileError",
     "target needs one action per player: got 1 for 2 players"),
    (lambda: MixedProfile.uniform_over((3, 2), [(-1, 0), (0,)]), "SupportError",
     "player 1: bad support (0, 1)"),
    (lambda: MixedProfile.uniform_over((3, 2), [(0,), (2,)]), "SupportError",
     "player 2: bad support (3)"),
])
def test_pure_and_uniform_profiles_check_their_actions(make, error, text):
    # A negative index no longer wraps, and an index past the actions or a
    # fraction no longer raises a bare IndexError; the text is 1-based.
    with pytest.raises(ValueError) as info:
        make()
    assert (type(info.value).__name__, str(info.value)) == (error, text)
    # The support checker moved into `games`; `equilibria` still names it.
    from commitment_games import equilibria, games

    assert equilibria.SupportError is games.SupportError
    assert equilibria._checked_supports is games._checked_supports


def test_welfare_max_ties_break_lexicographically():
    u1 = [[3, 0], [0, 3]]
    u2 = [[1, 0], [0, 1]]  # welfare 4 at both (0,0) and (1,1)
    w, prof = welfare_max(Game([u1, u2]))
    assert w == 4.0 and prof == (0, 0)


def test_metric_properties_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    entries = st.lists(st.floats(-50, 50, allow_nan=False), min_size=8,
                       max_size=8)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(entries, entries, entries)
    def run(a, b, c):
        ga = Game(np.asarray(a).reshape(2, 2, 2))
        gb = Game(np.asarray(b).reshape(2, 2, 2))
        gc = Game(np.asarray(c).reshape(2, 2, 2))
        assert game_distance(ga, gb) == game_distance(gb, ga)
        assert game_distance(ga, ga) == 0.0
        assert (game_distance(ga, gc)
                <= game_distance(ga, gb) + game_distance(gb, gc) + 1e-9)

    run()
