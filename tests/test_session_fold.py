"""`run_rounds`, the one-fold session path, against the per-round loop.

The loop is what `replay`, `simulate` and scripts did before: for round k,
`submit_round` and then `cast_votes` of vote row k while there is one.
On every corpus plan and on seeded random sessions both paths must give
the same current game (as uint64, so every bit counts), transcript and
phase, and the game must be the scalar reference fold's last prefix.  On
each malformed kind they must raise the same exception type and text at
the same step: `FoldError.round_index` on the one-fold path, the index of
the loop's round whose call raised on the other.
"""

import numpy as np
import pytest

from commitment_games.engine import (
    BURN,
    CommitmentRound,
    Pledge,
    ReplayError,
    SessionError,
    Transcript,
    cast_votes,
    open_session,
    replay,
    run_rounds,
    submit_round,
)
from commitment_games.catalog import unfair_split
from commitment_games.games import FoldError, GameShapeError, TransferError

import scalar_reference as reference
from conftest import random_game
from test_plan_digests import CORPUS


def _per_round(state, rounds, votes):
    """The loop's final state, or the (step, error) of the call that raised."""
    for k, round in enumerate(rounds):
        try:
            state = submit_round(state, round)
            if k < len(votes):
                state = cast_votes(state, votes[k])
        except (TransferError, SessionError, GameShapeError) as exc:
            return k, exc
    return state


def _one_fold(state, rounds, votes):
    """`run_rounds`' final state, or the (step, error) it names.  A fold that
    is not finite raises GameShapeError without a step; its step is the
    first round whose prefix does not fold."""
    try:
        return run_rounds(state, rounds, votes)
    except FoldError as exc:
        return exc.round_index, exc.__cause__
    except GameShapeError as exc:
        for k in range(len(rounds)):
            try:
                run_rounds(state, rounds[:k + 1], votes)
            except GameShapeError:
                return k, exc


def _bits(game):
    return game.utilities.view(np.uint64)


def _assert_same_session(state, rounds, votes):
    want, got = _per_round(state, rounds, votes), _one_fold(state, rounds, votes)
    if isinstance(want, tuple):
        assert isinstance(got, tuple), (want, got)
        assert (got[0], type(got[1]), str(got[1])) == (want[0], type(want[1]), str(want[1]))
        return want
    assert np.array_equal(_bits(got.current_game), _bits(want.current_game))
    assert (got.transcript, got.phase) == (want.transcript, want.phase)
    folded = reference.fold_rounds(state.base_game, got.transcript.rounds, state.delta,
                                   state.mode)[-1]
    assert np.array_equal(_bits(got.current_game), _bits(folded))
    return got


def _pay(amount, payer=0, outcome=(1, 1), recipient=1):
    return CommitmentRound((Pledge(payer, outcome, recipient, amount),))


OK, GO, STOP = _pay(0.5), (True, True), (False, True)
HUGE = _pay(1e308, recipient=BURN)  # two of them overflow a payoff
T, B, BIG = ("transfers", 1.0), ("burn_only", 1.0), ("transfers", 1e308)


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_every_corpus_plan_runs_as_the_per_round_loop_does(key):
    game, plan = CORPUS[key]()
    state = open_session(game, plan.delta, plan.mode)
    rounds = plan.rounds or (CommitmentRound(),)
    stop_last = [[k + 1 < len(rounds)] * game.num_players for k in range(len(rounds))]
    assert _assert_same_session(state, rounds, stop_last).phase == "playing"
    assert _assert_same_session(state, rounds, [[True] * game.num_players]
                                * len(rounds)).phase == "committing"


@pytest.mark.parametrize("vote", [None, STOP], ids=["voting", "playing"])
def test_a_session_that_is_not_committing_folds_no_round(vote):
    state = submit_round(open_session(unfair_split(), 1.0), OK)
    state = state if vote is None else cast_votes(state, vote)
    step, error = _assert_same_session(state, [_pay(1.5)], [GO])
    assert (step, type(error)) == (0, SessionError)


def _random_session(rng):
    """A random game, cap and mode, up to 8 rounds of in-range pledges under
    the cap, and a vote row per round, the last often a stop."""
    n = int(rng.integers(2, 4))
    counts = tuple(int(c) for c in rng.integers(1, 4, n))
    delta, mode = float(rng.choice([0.25, 1.0])), str(rng.choice(["transfers", "burn_only"]))
    rounds = []
    for _ in range(int(rng.integers(0, 9))):
        pledges = []
        for payer in range(n):
            for _ in range(int(rng.integers(0, 3))):
                others = [BURN] + [r for r in range(n) if r != payer and mode == "transfers"]
                pledges.append(Pledge(payer, tuple(int(rng.integers(c)) for c in counts),
                                      others[int(rng.integers(len(others)))],
                                      float(rng.uniform(0, delta / 2))))
        rounds.append(CommitmentRound(tuple(pledges)))
    votes = [[True] * n for _ in rounds]
    if votes and rng.random() < 0.5:
        votes[-1][int(rng.integers(n))] = False
    return open_session(random_game(rng, n, counts), delta, mode), rounds, votes


def test_random_sessions_run_as_the_per_round_loop_does():
    rng = np.random.default_rng(20050707)
    for _ in range(200):
        _assert_same_session(*_random_session(rng))


@pytest.mark.parametrize("session, rounds, votes, step, error", [
    (T, [OK, OK, _pay(1.5)], [GO] * 3, 2, TransferError),
    (B, [_pay(0.5, recipient=BURN), OK], [GO] * 2, 1, TransferError),
    (T, [OK, _pay(0.5, payer=2, recipient=BURN)], [GO] * 2, 1, TransferError),
    (T, [OK, _pay(0.5, outcome=(1, 5))], [GO] * 2, 1, TransferError),
    (T, [OK, _pay(0.5, recipient=2)], [GO] * 2, 1, TransferError),
    (T, [OK, OK, _pay(1.5)], [STOP, GO, GO], 1, SessionError),
    (T, [OK, OK, OK], [GO], 2, SessionError),
    (T, [OK, _pay(1.5), OK], [GO], 1, TransferError),
    (T, [OK, OK], [GO, (True,)], 1, SessionError),
    (T, [_pay(1.5), OK], [(True,), GO], 0, TransferError),
    (T, [OK], [GO, STOP, GO], None, None),
    (BIG, [HUGE, HUGE, _pay(0.5, payer=3, recipient=BURN)], [GO] * 3, 1, GameShapeError),
    (BIG, [HUGE, HUGE], [STOP, GO], 1, SessionError),
], ids=["cap", "mode", "payer_range", "outcome_range", "recipient_range", "after_stop",
        "missing_vote_row", "cap_before_missing_vote_row", "vote_row_length",
        "cap_before_vote_row_length", "surplus_votes", "not_finite",
        "stop_before_not_finite"])
def test_a_broken_session_fails_where_the_per_round_loop_does(session, rounds, votes, step,
                                                              error):
    mode, delta = session
    state = open_session(unfair_split(), delta, mode)
    transcript = Transcript(tuple(rounds), tuple(votes))
    with np.errstate(over="ignore"):
        got = _assert_same_session(state, rounds, votes)
        if error is None:  # surplus vote rows are the caller's to judge
            assert got.transcript.votes == (GO,)
            error, got = ReplayError, (len(rounds), "more votes than rounds")
        else:
            assert (got[0], type(got[1])) == (step, error)
        with pytest.raises(GameShapeError if error is GameShapeError else ReplayError) as err:
            replay(state.base_game, transcript, delta, mode)
    if error is not GameShapeError:
        assert (err.value.step, str(err.value)) == (got[0], f"replay failed at step "
                                                            f"{got[0] + 1}: {got[1]}")
