"""Staged commitment sessions over a base game.

A session runs the capped pre-play loop: players submit one simultaneous
round of pledges (per payer, per outcome, totals capped at delta), the
pledges fold into the current game, everyone votes, and the loop repeats
only on unanimous consent.  When any player votes to stop, a terminal
pure profile is played in the current game.  The burn_only variant
restricts pledge recipients to BURN.

States are immutable values; every operation returns a new state, and a
transcript records enough to replay the session bit-for-bit.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, replace
from typing import Sequence

from .games import (
    BURN,
    EXACT_SLACK,
    DocumentError,
    FoldError,
    Game,
    TransferError,
    _decoding,
    _read_bool,
    _read_label,
    _read_list,
    _read_number,
    _write_json,
    check_schema,
    content_hash,
    fold_rounds,
    game_from_dict,
    game_to_dict,
)

TRANSCRIPT_SCHEMA_VERSION = 1

MODES = ("transfers", "burn_only")


class SessionError(ValueError):
    """Operation applied in the wrong phase or with bad session parameters."""


class ReplayError(ValueError):
    def __init__(self, step: int, message: str):
        super().__init__(f"replay failed at step {step + 1}: {message}")
        self.step = step


@dataclass(frozen=True)
class Pledge:
    """One outcome-contingent transfer promise."""

    payer: int
    outcome: tuple[int, ...]
    recipient: int | str  # player index or BURN
    amount: float

    def __post_init__(self):
        try:  # NumPy integers pass; what `int` would truncate does not
            object.__setattr__(self, "payer", operator.index(self.payer))
        except TypeError:
            raise TransferError("payer", f"payer {self.payer!r} is not an integer") from None
        try:
            object.__setattr__(self, "outcome", tuple(map(operator.index, self.outcome)))
        except TypeError:
            raise TransferError("outcome", f"outcome {tuple(self.outcome)!r} is not integral",
                                self.payer) from None
        if not math.isfinite(self.amount):
            raise TransferError("amount", f"pledge amount {self.amount} is not finite",
                                self.payer, self.outcome)
        if self.amount < 0:
            raise TransferError("negative", f"negative pledge amount {self.amount}",
                                self.payer, self.outcome)
        if self.recipient == self.payer:
            raise TransferError("recipient", "a player cannot pay itself",
                                self.payer, self.outcome)


@dataclass(frozen=True)
class CommitmentRound:
    """One simultaneous round of pledges from any subset of players."""

    pledges: tuple[Pledge, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "pledges", tuple(self.pledges))


@dataclass(frozen=True)
class Transcript:
    """Ordered record of rounds, votes, and the terminal play."""

    rounds: tuple[CommitmentRound, ...] = ()
    votes: tuple[tuple[bool, ...], ...] = ()  # True = continue
    terminal_actions: tuple[int, ...] | None = None
    final_payoffs: tuple[float, ...] | None = None


@dataclass(frozen=True)
class SessionState:
    base_game: Game
    current_game: Game
    delta: float
    mode: str
    phase: str  # "committing" -> "voting" -> "committing" or "playing" -> "done"
    transcript: Transcript


def open_session(game: Game, delta: float, mode: str = "transfers") -> SessionState:
    if not (math.isfinite(delta) and delta > 0):
        raise SessionError(f"delta must be finite and positive, got {delta}")
    if mode not in MODES:
        raise SessionError(f"mode must be one of {MODES}")
    return SessionState(game, game, float(delta), mode, "committing", Transcript())


def submit_round(state: SessionState, round: CommitmentRound) -> SessionState:
    try:
        return run_rounds(state, [round], ())
    except FoldError as exc:
        raise exc.__cause__ from None


def _vote(phase: str, votes: Sequence[bool], n: int) -> tuple[tuple[bool, ...], str]:
    if phase != "voting":
        raise SessionError(f"cannot vote in phase {phase!r}")
    votes = tuple(bool(v) for v in votes)
    if len(votes) != n:
        raise SessionError("one vote per player required")
    return votes, "committing" if all(votes) else "playing"


def cast_votes(state: SessionState, votes: Sequence[bool]) -> SessionState:
    votes, phase = _vote(state.phase, votes, state.current_game.num_players)
    transcript = replace(state.transcript, votes=state.transcript.votes + (votes,))
    return replace(state, phase=phase, transcript=transcript)


def run_rounds(state: SessionState, rounds: Sequence[CommitmentRound],
               votes: Sequence[Sequence[bool]]) -> SessionState:
    """For each round k, `submit_round` then `cast_votes` of row k while rows are
    left, folding the rounds reached in one call; FoldError(k, cause) names the
    first step that fails and what it raised, GameShapeError a non-finite fold."""
    rounds, phase, rows, reached, failure = tuple(rounds), state.phase, [], 0, None
    for k in range(len(rounds)):
        try:
            if phase != "committing":
                raise SessionError(f"cannot submit a round in phase {phase!r}")
            reached, phase = k + 1, "voting"
            if k < len(votes):
                row, phase = _vote(phase, votes[k], state.current_game.num_players)
                rows.append(row)
        except SessionError as exc:
            failure = k, exc
            break
    try:
        stack = fold_rounds(state.current_game, rounds[:reached], state.delta, state.mode)
    except FoldError as exc:  # a broken round comes before any later step
        failure = exc.round_index, exc.__cause__
    if failure:
        raise FoldError(*failure) from failure[1]
    transcript = replace(state.transcript, rounds=state.transcript.rounds + rounds[:reached],
                         votes=state.transcript.votes + tuple(rows))
    return replace(state, current_game=state.current_game.with_utilities(stack[-1]),
                   phase=phase, transcript=transcript)


def play_terminal(state: SessionState, actions: Sequence[int]) -> SessionState:
    if state.phase != "playing":
        raise SessionError(f"cannot play in phase {state.phase!r}")
    checked = []
    for i, a in enumerate(actions):
        try:  # NumPy integers pass; what `int` would truncate does not
            checked.append(operator.index(a))
        except TypeError:
            raise SessionError(f"player {i + 1}'s terminal action {a!r} is not an integer") from None
    actions = tuple(checked)
    game = state.current_game
    if len(actions) != game.num_players or any(
            not 0 <= a < c for a, c in zip(actions, game.action_counts)):
        raise SessionError(f"terminal actions {tuple(a + 1 for a in actions)} out of range")
    payoffs = tuple(float(x) for x in game.payoffs(actions))
    transcript = replace(state.transcript, terminal_actions=actions,
                         final_payoffs=payoffs)
    return replace(state, phase="done", transcript=transcript)


def replay(base: Game, transcript: Transcript, delta: float,
           mode: str = "transfers") -> SessionState:
    """Re-execute a transcript from the base game; ReplayError names a broken step."""
    rounds, votes, want = transcript.rounds, transcript.votes, transcript.final_payoffs
    try:
        state = run_rounds(open_session(base, delta, mode), rounds, votes)
    except FoldError as exc:
        raise ReplayError(exc.round_index, str(exc.__cause__)) from exc.__cause__
    try:
        if len(votes) > len(rounds):
            raise SessionError("more votes than rounds")
        if transcript.terminal_actions is not None:
            if state.phase != "playing":
                raise SessionError(f"terminal actions recorded but phase is {state.phase!r}")
            state = play_terminal(state, transcript.terminal_actions)
            got = state.transcript.final_payoffs
            if want is not None and (len(got) != len(want) or any(
                    abs(a - b) > EXACT_SLACK for a, b in zip(got, want))):
                raise SessionError(f"replayed payoffs {got} != recorded {want}")
    except SessionError as exc:
        raise ReplayError(len(rounds), str(exc)) from exc
    return state


# ---------------------------------------------------------------------------
# Transcript files (1-based indices in I/O, "BURN" for the sink).
# ---------------------------------------------------------------------------

def pledge_to_dict(p: Pledge) -> dict:
    return {
        "payer": p.payer + 1,
        "outcome": [a + 1 for a in p.outcome],
        "recipient": BURN if p.recipient == BURN else p.recipient + 1,
        "amount": float(p.amount),
    }


def pledge_from_dict(doc: dict) -> Pledge:
    """Decode a pledge; ValueError naming the field on a bool or
    non-integral payer, recipient or outcome entry, or a non-number amount."""
    recipient = doc["recipient"]
    return Pledge(
        payer=_read_label(doc["payer"], "pledge payer"),
        outcome=_read_list(doc["outcome"], "pledge outcome", _read_label),
        recipient=BURN if recipient == BURN else _read_label(recipient, "pledge recipient"),
        amount=_read_number(doc["amount"], "pledge amount"),
    )


def round_to_dict(round: CommitmentRound) -> list[dict]:
    return [pledge_to_dict(p) for p in round.pledges]


def round_from_dict(doc: Sequence[dict]) -> CommitmentRound:
    return CommitmentRound(tuple(pledge_from_dict(p) for p in doc))


def _read_rounds(value, field: str) -> tuple[CommitmentRound, ...]:
    return _read_list(value, field, lambda r, f: round_from_dict(_read_list(r, f)))


def transcript_to_dict(state: SessionState) -> dict:
    t = state.transcript
    return {
        "schema_version": TRANSCRIPT_SCHEMA_VERSION,
        "base_game": game_to_dict(state.base_game),
        "base_game_hash": content_hash(state.base_game),
        "delta": state.delta,
        "mode": state.mode,
        "rounds": [round_to_dict(r) for r in t.rounds],
        "votes": [list(v) for v in t.votes],
        "terminal_actions": None if t.terminal_actions is None
        else [a + 1 for a in t.terminal_actions],
        "final_payoffs": None if t.final_payoffs is None else list(t.final_payoffs),
    }


def _session_fields(game: Game, doc: dict, **defaults):
    """The fields scripts and transcripts share, decoded: the session opened
    on `game` at the document's `delta` and `mode`, its rounds, its vote
    rows and its 0-based terminal actions (None when absent).  `defaults`
    fill absent keys; a malformed field raises inside MALFORMED."""
    doc = {"mode": "transfers", **defaults, **doc}
    state = open_session(game, _read_number(doc["delta"], "delta"), doc["mode"])
    actions = doc.get("terminal_actions")
    return (state, _read_rounds(doc["rounds"], "rounds"),
            _read_list(doc["votes"], "votes", _read_list, _read_bool),
            None if actions is None else _read_list(actions, "terminal_actions", _read_label))


def transcript_from_dict(doc: dict) -> tuple[Game, Transcript, float, str]:
    """Decode a transcript document; DocumentError when it is malformed or
    its base game does not match the stored content hash."""
    check_schema(doc, "transcript", TRANSCRIPT_SCHEMA_VERSION)
    with _decoding("transcript"):
        base = game_from_dict(doc["base_game"])
        stored_hash = doc["base_game_hash"]
        state, rounds, votes, actions = _session_fields(base, doc)
        payoffs = doc.get("final_payoffs")
        payoffs = None if payoffs is None else _read_list(payoffs, "final_payoffs",
                                                          _read_number)
    if stored_hash != content_hash(base):
        raise DocumentError("transcript base_game does not match its base_game_hash")
    return base, Transcript(rounds, votes, actions, payoffs), state.delta, state.mode


def save_transcript(state: SessionState, path) -> None:
    _write_json(transcript_to_dict(state), path)


def load_transcript(path) -> tuple[Game, Transcript, float, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return transcript_from_dict(json.load(fh))
