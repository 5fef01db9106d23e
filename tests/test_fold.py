"""The compiled fold against the scalar reference fold.

`fold_rounds` compiles a plan's rounds once into cell updates, screens
them as arrays and folds them into one prefix stack, whose rows
`stack_hashes` hashes.  `scalar_reference.fold_rounds` is the fold
as it was before: `apply_transfers` one pledge at a time after
`round_violation`, a `Game` per prefix, and a JSON-dict `content_hash`.
Stacks are compared as uint64, so every bit counts (a -0.0 too), hashes as
strings, and a rejected round by its `FoldError` index and text and the
code of the `TransferError` that is its cause.  `stack_hashes` formats
each distinct value once, so its hashes are also checked on hand-picked
and drawn values: signed zeros, subnormals, powers of two, the largest
float, and rows of one value.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commitment_games.engine import BURN, CommitmentRound, Pledge
from commitment_games.games import (
    Game,
    GameShapeError,
    TransferError,
    apply_transfers,
    content_hash,
    round_violation,
    stack_hashes,
)
from commitment_games.protocols import FoldError, fold_rounds

import scalar_reference as reference

SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2)]
# Zeros, a subnormal and the smallest normal, next to half-integers.
PAYOFFS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, -1.5, 0.5, 3.0]
AMOUNTS = [0.0, 5e-324, 0.1, 0.25, 0.3, 1.0 / 3.0, 0.5]


@st.composite
def plans(draw):
    """(game, rounds, delta, mode): a few rounds that often touch one cell
    twice, as a payer debited twice at one outcome, or a player both paid
    and paying at one outcome."""
    counts = draw(st.sampled_from(SHAPES))
    n = len(counts)
    size = n * math.prod(counts)
    u = np.array(draw(st.lists(st.sampled_from(PAYOFFS), min_size=size,
                               max_size=size))).reshape(n, *counts)
    mode = draw(st.sampled_from(["transfers", "burn_only"]))
    outcomes = list(itertools.product(*map(range, counts)))
    rounds = []
    for _ in range(draw(st.integers(0, 4))):
        pledges = []
        for _ in range(draw(st.integers(0, 5))):
            payer = draw(st.integers(0, n - 1))
            outcome = draw(st.sampled_from(outcomes))
            others = [r for r in range(n) if r != payer]
            recipient = BURN if mode == "burn_only" else draw(st.sampled_from([BURN, *others]))
            amount = draw(st.sampled_from(AMOUNTS))
            pledges.append(Pledge(payer, outcome, recipient, amount))
            twice = draw(st.sampled_from(["no", "again", "pays back"]))
            if twice == "again":  # the payer debited twice at one outcome
                pledges.append(Pledge(payer, outcome, BURN, draw(st.sampled_from(AMOUNTS))))
            elif twice == "pays back" and recipient != BURN:  # paid and paying
                pledges.append(Pledge(recipient, outcome, payer, draw(st.sampled_from(AMOUNTS))))
        rounds.append(CommitmentRound(tuple(pledges)))
    delta = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return Game(u), rounds, delta, mode


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(plans())
def test_compiled_fold_is_the_scalar_fold_bit_for_bit(case):
    game, rounds, delta, mode = case
    try:
        games = reference.fold_rounds(game, rounds, delta, mode)
    except FoldError as exc:
        with pytest.raises(FoldError) as got:
            fold_rounds(game, rounds, delta, mode)
        assert (got.value.round_index, str(got.value)) == (exc.round_index, str(exc))
        return
    stack = fold_rounds(game, rounds, delta, mode)
    assert stack.shape == (len(rounds) + 1, *game.utilities.shape)
    assert np.array_equal(_bits(stack), _bits([g.utilities for g in games]))
    want = [reference.content_hash(g) for g in games]
    assert stack_hashes(stack) == want
    assert content_hash(game) == want[0]
    for g, r, folded in zip(games, rounds, games[1:]):
        one = apply_transfers(g, r, delta=delta, mode=mode)
        assert np.array_equal(_bits(one.utilities), _bits(folded.utilities))


def test_the_stack_keeps_signed_zeros_and_subnormals():
    u = np.array([[[-0.0, 5e-324], [0.0, -0.0]], [[-0.0, 1.0], [0.0, 0.0]]])
    game = Game(u)
    rounds = [CommitmentRound((Pledge(0, (0, 0), BURN, 0.0), Pledge(0, (0, 0), 1, 0.0))),
              CommitmentRound((Pledge(1, (0, 0), 0, 5e-324), Pledge(0, (0, 0), 1, 5e-324))),
              CommitmentRound((Pledge(1, (1, 1), BURN, 0.0),))]
    stack = fold_rounds(game, rounds, 1.0, "transfers")
    games = reference.fold_rounds(game, rounds, 1.0, "transfers")
    assert np.array_equal(_bits(stack), _bits([g.utilities for g in games]))
    # Round 1 debits player 1 twice at (1, 1), 0.0 each time, and the -0.0
    # there keeps its sign; so does the -0.0 that player 1 holds at (2, 2).
    assert np.signbit(stack[:, 0, 1, 1]).all() and np.signbit(stack[1, 0, 0, 0])
    assert stack_hashes(stack) == [reference.content_hash(g) for g in games]


GOOD = CommitmentRound((Pledge(0, (0, 0), BURN, 0.25),))


@pytest.mark.parametrize("code, counts, mode, bad", [
    ("payer", (2, 2), "transfers", Pledge(2, (0, 0), BURN, 0.1)),
    ("payer", (2, 2), "transfers", Pledge(-1, (0, 0), BURN, 0.1)),
    ("payer", (2, 2), "transfers", Pledge(10 ** 400, (0, 0), BURN, 0.1)),  # past a float
    # (2, 6) in a 2x4 game: its flat offset, 1 * 4 + 5 = 9, is a cell of
    # player 2, so only the range test catches it.
    ("outcome", (2, 4), "transfers", Pledge(0, (1, 5), BURN, 0.1)),
    ("outcome", (2, 4), "transfers", Pledge(0, (-1, 0), BURN, 0.1)),
    ("outcome", (2, 4), "transfers", Pledge(0, (0,), BURN, 0.1)),
    ("outcome", (2, 4), "transfers", Pledge(0, (0, 0, 0), BURN, 0.1)),
    ("outcome", (2, 4), "transfers", Pledge(0, (0, 10 ** 30), BURN, 0.1)),
    ("recipient", (2, 2), "transfers", Pledge(0, (0, 0), 2, 0.1)),
    ("recipient", (2, 2), "transfers", Pledge(0, (0, 0), -1, 0.1)),
    ("recipient", (2, 2), "transfers", Pledge(0, (0, 0), "SINK", 0.1)),
    ("mode", (2, 2), "burn_only", Pledge(0, (0, 0), 1, 0.1)),
    # Indices that fit a float, whose flat offsets would overflow one.
    ("payer", (2, 2), "transfers", Pledge(10 ** 308, (0, 0), BURN, 0.1)),
    ("payer", (2, 2), "transfers", Pledge(-10 ** 308, (0, 0), BURN, 0.1)),
    ("outcome", (2, 4), "transfers", Pledge(0, (10 ** 308, 0), BURN, 0.1)),
    ("recipient", (2, 2), "transfers", Pledge(0, (0, 0), 10 ** 308, 0.1)),
])
def test_a_rejected_round_raises_what_the_scalar_fold_raises(code, counts, mode, bad):
    game = Game(np.arange(2 * np.prod(counts), dtype=float).reshape(2, *counts))
    rounds = [GOOD, CommitmentRound((Pledge(1, (0, 0), BURN, 0.5), bad)), GOOD]
    _assert_same_rejection(game, rounds, 1.0, mode, code)


def test_a_cap_only_the_running_total_of_two_pledges_breaks():
    game = Game(np.zeros((2, 2, 2)))
    # Each pledge is under the cap of 1; player 1's two at (1, 2) are not.
    pair = (Pledge(0, (0, 1), 1, 0.6), Pledge(1, (0, 1), 0, 0.6), Pledge(0, (0, 1), BURN, 0.6))
    rounds = [GOOD, CommitmentRound(pair), GOOD]
    _assert_same_rejection(game, rounds, 1.0, "transfers", "cap")
    # The sum in pledge order is what the cap reads: 0.1 + 0.2 is over 0.3.
    tight = CommitmentRound((Pledge(0, (1, 1), BURN, 0.1), Pledge(0, (1, 1), BURN, 0.2)))
    _assert_same_rejection(game, [tight], 0.3 - 1e-12, "burn_only", "cap")


def _assert_same_rejection(game, rounds, delta, mode, code):
    with pytest.raises(FoldError) as want:
        reference.fold_rounds(game, rounds, delta, mode)
    with pytest.raises(FoldError) as got:
        fold_rounds(game, rounds, delta, mode)
    assert (got.value.round_index, str(got.value)) == (want.value.round_index,
                                                      str(want.value))
    k = got.value.round_index
    assert got.value.__cause__.code == round_violation(game, rounds[k], delta, mode).code == code
    with pytest.raises(TransferError) as one:
        apply_transfers(game, rounds[k], delta=delta, mode=mode)
    assert (one.value.code, str(one.value)) == (code, str(want.value.__cause__))


@pytest.mark.parametrize("bad_round", [0, 1])
def test_an_overflowing_fold_raises_game_shape_error(bad_round):
    u = np.zeros((2, 2, 2))
    u[1, 1, 1] = np.finfo(float).max
    game = Game(u)
    push = CommitmentRound((Pledge(0, (1, 1), 1, 1e300),))
    rounds = [GOOD] * bad_round + [push, CommitmentRound((Pledge(2, (0, 0), BURN, 1.0),))]
    for fold in (reference.fold_rounds, fold_rounds):
        # The overflow comes first: the broken rule of the next round is
        # never reached.
        with np.errstate(over="ignore"), pytest.raises(GameShapeError,
                                                       match="utilities must be finite"):
            fold(game, rounds, 1e300, "transfers")
    with np.errstate(over="ignore"), pytest.raises(GameShapeError):
        apply_transfers(game, push)


# Powers of two across the whole exponent range, subnormals included.
POWERS = [math.ldexp(1.0, k) for k in range(-1074, 1024, 37)] + [math.ldexp(1.0, 1023)]
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
         float(np.finfo(float).max), -float(np.finfo(float).max)]


def _assert_row_hashes(stack):
    """`stack_hashes` of a (K, n, N_1..N_n) stack is the scalar `content_hash`
    of each row, and `content_hash` of a fresh game is its row's hash."""
    got = stack_hashes(stack)
    assert got == [reference.content_hash(Game(u)) for u in stack]
    if len(stack):
        assert content_hash(Game(stack[0])) == got[0]


def _rows(values, shape=(2, 2, 2)):
    """`values` cycled to fill whole rows of `shape`."""
    size = math.prod(shape)
    k = -(-len(values) // size)
    return np.resize(np.array(values, dtype=np.float64), (k, *shape))


@pytest.mark.parametrize("values", [
    EDGES,
    POWERS + [-x for x in POWERS],
    EDGES + POWERS[::3],  # a signed zero next to a zero in one row
    [0.1] * 16,  # every cell one value
    [-0.0] * 8,
], ids=["edges", "powers_of_two", "mixed", "one_value", "negative_zero"])
def test_stack_hashes_format_each_cell_as_float_hex(values):
    _assert_row_hashes(_rows(values))
    _assert_row_hashes(_rows(values, (2, 3, 1)))


def test_stack_hashes_of_an_empty_stack():
    assert stack_hashes(np.zeros((0, 2, 2, 2))) == []
    assert stack_hashes(np.zeros((0, 3, 2, 2, 2))) == []


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
       st.sampled_from([(2, 2, 2), (2, 1, 3), (3, 2, 2, 2)]))
def test_stack_hashes_match_the_scalar_hash_hypothesis(values, shape):
    _assert_row_hashes(_rows(values, shape))
