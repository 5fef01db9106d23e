import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from commitment_games import (
    BURN,
    CommitmentRound,
    MixedProfile,
    Pledge,
    ReplayError,
    SessionError,
    TransferError,
    apply_transfers,
    cast_votes,
    open_session,
    play_terminal,
    replay,
    run_rounds,
    submit_round,
)
from commitment_games.engine import (
    FoldError,
    Transcript,
    load_transcript,
    save_transcript,
    transcript_from_dict,
    transcript_to_dict,
)
from commitment_games.games import DocumentError, round_violation
from commitment_games.catalog import chicken, prisoners_dilemma, unfair_split

from conftest import game_distance, random_game


def _pay_round(amount=1.0):
    return CommitmentRound((Pledge(0, (1, 1), 1, amount),))


def test_open_session_validation():
    game = unfair_split()
    state = open_session(game, 1.0)
    assert state.phase == "committing" and state.current_game == game
    assert open_session(game, 1e-6).delta == 1e-6
    for delta in (0.0, math.inf):
        with pytest.raises(SessionError):
            open_session(game, delta)
    with pytest.raises(SessionError):
        open_session(game, 1.0, "barter")


def _validate_round(state, round):
    """The first session rule `round` breaks in `state`, or None."""
    return round_violation(state.current_game, round, state.delta, state.mode)


def _broken_rule(error):
    """What an error reports of the rule a round breaks."""
    return SimpleNamespace(type=type(error), code=error.code, payer=error.payer,
                           outcome=error.outcome, text=str(error))


def test_validate_round_examples():
    state = open_session(unfair_split(), 1.0)
    assert _validate_round(state, _pay_round(1.0)) is None
    violation = _validate_round(state, _pay_round(1.5))
    assert violation is not None and violation.code == "cap"
    assert violation.payer == 0 and violation.outcome == (1, 1)

    burn_state = open_session(unfair_split(), 1.0, "burn_only")
    violation = _validate_round(burn_state, _pay_round(1.0))
    assert violation is not None and violation.code == "mode"

    split = CommitmentRound((Pledge(0, (1, 1), 1, 0.6),
                             Pledge(0, (1, 1), BURN, 0.6)))
    assert _validate_round(state, split).code == "cap"  # cap sums per outcome


@pytest.mark.parametrize("code, pledge, mode", [
    ("payer", Pledge(2, (1, 1), BURN, 0.5), "transfers"),
    ("outcome", Pledge(0, (1, 2), BURN, 0.5), "transfers"),
    ("recipient", Pledge(0, (1, 1), 2, 0.5), "transfers"),
    ("recipient", Pledge(0, (1, 1), "1", 0.5), "transfers"),
    ("mode", Pledge(0, (1, 1), 1, 0.5), "burn_only"),
    ("cap", Pledge(0, (1, 1), BURN, 1.5), "transfers"),
], ids=["payer", "outcome", "recipient", "recipient_not_int", "mode", "cap"])
def test_round_rules_agree_on_every_path(code, pledge, mode):
    state = open_session(unfair_split(), 1.0, mode)
    round = CommitmentRound((Pledge(1, (0, 0), BURN, 0.5), pledge))
    with pytest.raises(TransferError) as folded:
        apply_transfers(state.current_game, round, delta=1.0, mode=mode)
    with pytest.raises(TransferError) as submitted:
        submit_round(state, round)
    with pytest.raises(ReplayError) as replayed:
        replay(state.base_game, Transcript(rounds=(round,)), 1.0, mode)
    with pytest.raises(FoldError) as ran:
        run_rounds(state, [round], ())
    reports = [_broken_rule(e) for e in (_validate_round(state, round), folded.value,
               submitted.value, replayed.value.__cause__, ran.value.__cause__)]
    assert reports[0].type is TransferError
    assert all(v == reports[0] for v in reports)
    assert (reports[0].code, reports[0].payer, reports[0].outcome) == (
        code, pledge.payer, pledge.outcome)


@pytest.mark.parametrize("payer, outcome, code", [(0.5, (0, 0), "payer"),
                                                   (0, (0.7, 0), "outcome")])
def test_pledge_refuses_a_non_integral_payer_or_outcome(payer, outcome, code):
    with pytest.raises(TransferError) as err:
        Pledge(payer, outcome, BURN, 0.25)
    assert err.value.code == code
    # NumPy integers are integral.
    assert Pledge(np.int64(1), (np.int8(0), np.int64(1)), BURN, 0.25) == Pledge(
        1, (0, 1), BURN, 0.25)


def test_six_round_session_reaches_split():
    state = open_session(unfair_split(), 1.0)
    for k in range(6):
        state = submit_round(state, _pay_round(1.0))
        state = cast_votes(state, [k < 5, k < 5])
    state = play_terminal(state, (1, 1))
    assert state.phase == "done"
    assert state.transcript.final_payoffs == (4.0, 3.0)


def test_zero_round_stop_plays_base_game():
    state = open_session(unfair_split(), 1.0)
    state = submit_round(state, CommitmentRound())
    state = cast_votes(state, [True, False])  # one stop vote suffices
    assert state.phase == "playing"
    state = play_terminal(state, (0, 0))
    assert state.transcript.final_payoffs == (0.0, 0.0)


def test_play_terminal_refuses_actions_it_would_truncate():
    state = cast_votes(submit_round(open_session(unfair_split(), 1.0), CommitmentRound()),
                       [True, False])
    with pytest.raises(SessionError, match="player 1's terminal action 0.7 is not an integer"):
        play_terminal(state, [0.7, 1.2])
    with pytest.raises(SessionError, match="player 2's terminal action 1.0 is not an integer"):
        play_terminal(state, [1, 1.0])
    done = play_terminal(state, [np.int64(1), 1])
    assert done.transcript.terminal_actions == (1, 1)
    assert done.transcript.final_payoffs == (10.0, -3.0)  # the base game's


def test_phase_errors():
    state = open_session(unfair_split(), 1.0)
    with pytest.raises(SessionError):
        cast_votes(state, [True, True])
    with pytest.raises(SessionError):
        play_terminal(state, (0, 0))
    state = submit_round(state, CommitmentRound())
    with pytest.raises(SessionError):
        submit_round(state, CommitmentRound())
    with pytest.raises(TransferError):
        submit_round(cast_votes(state, [True, True]), _pay_round(2.0))


def test_replay_reproduces_payoffs_bit_for_bit():
    state = open_session(unfair_split(), 1.0)
    for k in range(6):
        state = submit_round(state, _pay_round(1.0))
        state = cast_votes(state, [k < 5, k < 5])
    state = play_terminal(state, (1, 1))
    again = replay(state.base_game, state.transcript, 1.0, "transfers")
    assert again.transcript.final_payoffs == state.transcript.final_payoffs
    assert again.current_game == state.current_game


def test_replay_empty_transcript_is_base_state():
    game = chicken()
    state = replay(game, Transcript(), 2.0)
    assert state.current_game == game and state.phase == "committing"


def test_replay_rejects_cap_violation_with_index():
    game = unfair_split()
    rounds = (_pay_round(1.0), _pay_round(2.0))
    votes = ((True, True), (False, False))
    with pytest.raises(ReplayError) as err:
        replay(game, Transcript(rounds=rounds, votes=votes), 1.0)
    assert err.value.step == 1


def test_replay_names_the_round_of_a_vote_row_of_the_wrong_length():
    rounds = (_pay_round(1.0), _pay_round(1.0))
    with pytest.raises(ReplayError, match="one vote per player required") as err:
        replay(unfair_split(), Transcript(rounds=rounds, votes=((True, True), (True,))), 1.0)
    assert err.value.step == 1


def test_replay_names_the_final_step_for_out_of_range_terminal_actions():
    transcript = Transcript(rounds=(_pay_round(1.0),), votes=((False, False),),
                            terminal_actions=(5, 5))
    with pytest.raises(ReplayError, match=r"terminal actions \(6, 6\) out of range") as err:
        replay(unfair_split(), transcript, 1.0)
    assert err.value.step == 1


@pytest.mark.parametrize("recorded", [[9.0], []])
def test_replay_rejects_recorded_payoffs_of_another_length(recorded):
    state = cast_votes(submit_round(open_session(unfair_split(), 1.0), _pay_round(1.0)),
                       [False, False])
    doc = transcript_to_dict(play_terminal(state, (1, 1)))
    assert doc["final_payoffs"] == [9.0, -2.0]
    doc["final_payoffs"] = recorded
    base, transcript, delta, mode = transcript_from_dict(doc)
    with pytest.raises(ReplayError, match="replayed payoffs") as err:
        replay(base, transcript, delta, mode)
    assert err.value.step == 1


def test_fold_invariance_additive_order_independent(rng):
    game = random_game(rng, 2, (2, 3))
    rounds = []
    all_pledges = []
    for _ in range(5):
        pledges = []
        for _ in range(3):
            payer = int(rng.integers(2))
            outcome = (int(rng.integers(2)), int(rng.integers(3)))
            recipient = BURN if rng.integers(2) else 1 - payer
            pledges.append(Pledge(payer, outcome, recipient,
                                  float(rng.uniform(0, 0.3))))
        rounds.append(CommitmentRound(tuple(pledges)))
        all_pledges.extend(pledges)
    state = open_session(game, 1.0)
    for r in rounds:
        state = submit_round(state, r)
        state = cast_votes(state, [True, True])
    folded_once = apply_transfers(game, all_pledges)
    assert np.max(np.abs(state.current_game.utilities
                         - folded_once.utilities)) <= 1e-12


def test_cap_soundness_distance_bound(rng):
    game = random_game(rng, 2, (2, 2))
    delta = 0.5
    state = open_session(game, delta)
    round = CommitmentRound((Pledge(0, (0, 0), 1, 0.5),
                             Pledge(1, (0, 0), 0, 0.5),
                             Pledge(0, (1, 1), BURN, 0.25)))
    after = submit_round(state, round)
    assert game_distance(game, after.current_game) <= 2 * delta + 1e-12


def test_burn_mode_welfare_monotone(rng):
    game = random_game(rng, 2, (2, 2))
    state = open_session(game, 0.5, "burn_only")
    for _ in range(4):
        pledges = tuple(
            Pledge(i, (int(rng.integers(2)), int(rng.integers(2))), BURN,
                   float(rng.uniform(0, 0.5)))
            for i in range(2))
        before = state.current_game.utilities.sum(axis=0)
        state = submit_round(state, CommitmentRound(pledges))
        after = state.current_game.utilities.sum(axis=0)
        assert np.all(after <= before + 1e-12)
        state = cast_votes(state, [True, True])


def test_transcript_json_round_trip():
    state = open_session(unfair_split(), 1.0)
    state = submit_round(state, _pay_round(1.0))
    state = cast_votes(state, [True, True])
    state = submit_round(state, CommitmentRound((Pledge(1, (0, 0), BURN, 0.5),)))
    state = cast_votes(state, [False, True])
    state = play_terminal(state, (0, 0))
    doc = json.loads(json.dumps(transcript_to_dict(state), sort_keys=True))
    base, transcript, delta, mode = transcript_from_dict(doc)
    assert base == state.base_game and delta == 1.0 and mode == "transfers"
    again = replay(base, transcript, delta, mode)
    assert again.transcript.final_payoffs == state.transcript.final_payoffs
    assert doc["rounds"][0][0]["payer"] == 1  # 1-based in the file
    assert doc["rounds"][1][0]["recipient"] == "BURN"


def test_transcript_with_tampered_base_game_is_rejected(tmp_path):
    state = open_session(unfair_split(), 1.0)
    state = submit_round(state, _pay_round(1.0))
    path = tmp_path / "transcript.json"
    save_transcript(state, path)
    assert load_transcript(path)[0] == state.base_game
    doc = json.loads(path.read_text())
    doc["base_game"]["payoffs"][0][0] += 1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(DocumentError, match="base_game_hash"):
        load_transcript(path)
    with pytest.raises(DocumentError, match="schema_version"):
        transcript_from_dict({**transcript_to_dict(state), "schema_version": 0})
    with pytest.raises(DocumentError, match="rounds"):
        transcript_from_dict({k: v for k, v in transcript_to_dict(state).items()
                              if k != "rounds"})
    infinite_payer = transcript_to_dict(state)
    infinite_payer["rounds"][0][0]["payer"] = math.inf
    with pytest.raises(DocumentError, match="OverflowError"):
        transcript_from_dict(infinite_payer)


@pytest.mark.parametrize("field, value, text", [
    ("payer", 1.9, "payer must be an integer label, got 1.9"),
    ("payer", True, "payer must be an integer label, got True"),
    ("recipient", 2.5, "recipient must be an integer label, got 2.5"),
    ("outcome", [1, 1.7], "outcome entry 2 must be an integer label, got 1.7"),
    ("outcome", [False, 1], "outcome entry 1 must be an integer label, got False"),
    ("amount", "0.5", "amount must be a number, got '0.5'"),
    ("amount", True, "amount must be a number, got True"),
    # Transcript fields, with the error's class: scripts share their decoder.
    ("votes", [["no", True]], "ValueError: votes entry 1 entry 1 must be true or false, "
                              "got 'no'"),
    ("votes", [[0, 1]], "ValueError: votes entry 1 entry 1 must be true or false, got 0"),
    ("terminal_actions", [True, 1], "ValueError: terminal_actions entry 1 must be an "
                                    "integer label, got True"),
    ("terminal_actions", [1.5, 1], "ValueError: terminal_actions entry 1 must be an "
                                   "integer label, got 1.5"),
    ("final_payoffs", ["4", 3], "ValueError: final_payoffs entry 1 must be a number, "
                                "got '4'"),
    ("delta", "1", "ValueError: delta must be a number, got '1'"),
    ("mode", "zzz", "SessionError: mode must be one of ('transfers', 'burn_only')"),
])
def test_transcript_pledges_reject_bools_and_fractions_by_field(field, value, text):
    state = cast_votes(submit_round(open_session(unfair_split(), 1.0), _pay_round(1.0)),
                       [False, False])
    doc = transcript_to_dict(play_terminal(state, (1, 1)))
    where = doc if field in doc else doc["rounds"][0][0]
    valid, where[field] = where[field], value
    with pytest.raises(DocumentError) as err:
        transcript_from_dict(doc)
    assert (text if where is doc else f"ValueError: pledge {text}") in str(err.value)
    where[field] = valid
    doc["rounds"][0][0].update(payer=1.0, outcome=[2.0, 2], recipient=2.0, amount=1)
    assert transcript_from_dict(doc)[1].rounds == (_pay_round(1.0),)


def test_states_are_immutable_values():
    state = open_session(unfair_split(), 1.0)
    out = submit_round(state, _pay_round(1.0))
    assert state.phase == "committing" and out.phase == "voting"
    assert state.transcript.rounds == ()
    with pytest.raises(Exception):
        state.current_game.utilities[0, 0, 0] = 99.0


def test_one_round_transcript_replays_to_transformed_matrix():
    from commitment_games.catalog import (
        prisoners_dilemma,
        prisoners_dilemma_transformed,
        reciprocal_cooperation_round,
    )

    game = prisoners_dilemma()
    transcript = Transcript(rounds=(reciprocal_cooperation_round(),),
                            votes=((False, False),))
    state = replay(game, transcript, 1.0)
    assert state.current_game == prisoners_dilemma_transformed()
    assert state.phase == "playing"


def test_fold_additivity_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    amounts = st.lists(st.floats(0, 0.4, allow_nan=False), min_size=4,
                       max_size=4)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(amounts, amounts)
    def run(a, b):
        game = unfair_split()
        r1 = CommitmentRound(tuple(Pledge(0, (1, 1), BURN, x) for x in a))
        r2 = CommitmentRound(tuple(Pledge(1, (0, 0), BURN, x) for x in b))
        state = open_session(game, 2.0, "burn_only")
        state = cast_votes(submit_round(state, r1), [True, True])
        state = submit_round(state, r2)
        once = apply_transfers(game, list(r1.pledges) + list(r2.pledges))
        assert np.max(np.abs(state.current_game.utilities
                             - once.utilities)) <= 1e-12

    run()
