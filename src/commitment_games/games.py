"""Finite normal-form games: payoff tensors, mixtures, welfare, transfers.

A game holds a single dense float64 tensor of shape (n, N_1, ..., N_n);
entry (i, a_1, ..., a_n) is player i's payoff on the pure profile a.
Indices are 0-based everywhere inside the library; JSON files and CLI
text use 1-based labels.

Pledges fold through one path: `compile_pledges` turns rounds into cell
updates once and screens them as arrays, `fold_rounds` folds them into one
prefix stack (`apply_transfers` is its one-round case), and `stack_hashes`
hashes the stack's rows with the bytes of `content_hash`, formatting each
distinct value of the stack once.

All objects are immutable after construction (arrays are marked
read-only), so values can be shared freely across threads.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Recipient marker for pledges that destroy utility instead of moving it.
BURN = "BURN"

# Every tolerance of the package, with the comparison it belongs to: no other
# module writes one as a literal (tests/test_tolerances.py keeps it so).
SUPPORT_EPSILON = 1e-9  # probability mass at or below it is off the support
DEFAULT_TOL = 1e-9  # payoff gaps (fail at fl(u - best) < -tol), ceilings, solve ranges
SYSTEM_TOL = 1e-10  # the max-norm of a solved characteristic system
NEWTON_TOL = 1e-12  # the max-norm at which damped Newton stops
NASH_TOL = 1e-8  # the Nash check of a solved, seed or baseline profile
DET_TOL = 1e-8  # a non-degenerate Jacobian's |det| over its scale ** size
GAIN_TOL = 1e-9  # a deviation gain, and the terminal target's Nash check
PROFILE_SLACK = 1e-6  # the range and sum of a profile read off a solve
CAP_SLACK = 1e-12  # a payer's total per outcome over the cap delta
EXACT_SLACK = 1e-12  # on-path identities (P1'-P3'), replays, zero tests, denominators
PAYOFF_SLACK = 1e-9  # on-path payoff drift: the baseline's, the welfare series', (b)'s
DRIFT_TOL = 1e-7  # the relative drift of the block determinants along a plan
AMOUNT_FLOOR = 1e-15  # a pledge amount or probability at or below it is zero
ROOT_FLOOR = 1e-15  # the 2x2 boundary step's slopes must differ by more for a root

GAME_SCHEMA_VERSION = 1


class GameShapeError(ValueError):
    """Malformed game: bad tensor shape, non-finite entries, or n < 2."""


class ProfileError(ValueError):
    """Malformed per-player input: a mixed profile (non-finite or negative
    mass, bad length, sum != 1), a pure target or a payoff split, naming the
    0-based `player` at fault 1-based, as in all I/O."""

    def __init__(self, detail: str, player: int | None = None):
        super().__init__(detail if player is None else f"player {player + 1}: {detail}")


class SupportError(ValueError):
    """Empty or out-of-range support lists."""


class DocumentError(ValueError):
    """Malformed or inconsistent plan or transcript document."""


# What a malformed JSON document raises while being decoded.
MALFORMED = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


def check_schema(doc, kind: str, version: int, required: bool = True) -> None:
    """Raise DocumentError unless `doc` is an object of the given schema
    version, which need not be given unless `required`."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{kind} document must be a JSON object")
    found = doc.get("schema_version", None if required else version)
    if isinstance(found, bool) or found != version:
        raise DocumentError(f"{kind} schema_version is {found!r}, expected {version}")


# Typed readers for document fields: each converts one JSON value or raises
# inside MALFORMED, naming `field` with 1-based labels.  A bool is never a
# number, a fraction never an integer, and a string, null or container never
# a scalar.  Ranges and finiteness are checked by the objects the values build.

def _read_int(value, field: str, low: int = 0, noun: str = "an integer") -> int:
    """An integral float counts; an infinite one raises OverflowError, as `int` would."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        error = OverflowError if isinstance(value, float) and np.isinf(value) else ValueError
        raise error(f"{field} must be {noun}, got {value!r}")
    if value < low:
        raise ValueError(f"{field} must be at least {low}, got {value}")
    return value


def _read_label(value, field: str) -> int:
    """A 1-based label as a 0-based index."""
    return _read_int(value, field, 1, "an integer label") - 1


def _read_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    return float(value)


def _read_str(value, field: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string, got {value!r}")
    return value


def _read_bool(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{field} must be true or false, got {value!r}")
    return value


def _read_list(value, field: str, read=None, *inner) -> tuple:
    """`value` as a tuple, entry i read by `read(entry, f"{field} entry {i}", *inner)`:
    `_read_list(v, field, _read_list, _read_number)` reads rows of numbers."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field} must be a list, got {value!r}")
    return tuple(value if read is None else
                 (read(x, f"{field} entry {i}", *inner) for i, x in enumerate(value, 1)))


@contextmanager
def _decoding(kind: str, error: type = DocumentError):
    """Raise `error` naming the document `kind` for what a malformed field raises."""
    try:
        yield
    except MALFORMED as exc:
        raise error(f"malformed {kind} document: {type(exc).__name__}: {exc}") from exc


def _write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


class TransferError(ValueError):
    """Illegal pledge set: negative amount, self-payment, cap or mode breach.
    `code` names the rule: "amount", "negative", "recipient", "payer",
    "outcome", "mode" or "cap"."""

    def __init__(self, code: str, message: str, payer: int | None = None,
                 outcome: tuple[int, ...] | None = None):
        super().__init__(message)
        self.code = code
        self.payer = payer
        self.outcome = outcome


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


class Game:
    """Immutable finite normal-form game."""

    __slots__ = ("utilities", "action_names", "_hash")

    def __init__(self, utilities, action_names: Sequence[Sequence[str]] | None = None):
        u = np.array(utilities, dtype=np.float64)
        if u.ndim < 3:
            raise GameShapeError("utilities must have shape (n, N_1, ..., N_n)")
        n = u.shape[0]
        if n != u.ndim - 1:
            raise GameShapeError(
                f"player axis has length {n} but tensor has {u.ndim - 1} action axes")
        if n < 2:
            raise GameShapeError("need at least two players")
        if any(c < 1 for c in u.shape[1:]):
            raise GameShapeError("every player needs at least one action")
        if not np.all(np.isfinite(u)):
            raise GameShapeError("utilities must be finite")
        if action_names is not None:
            names = tuple(tuple(str(x) for x in row) for row in action_names)
            if len(names) != n or any(len(names[i]) != u.shape[1 + i] for i in range(n)):
                raise GameShapeError("action_names shape does not match action counts")
        else:
            names = None
        object.__setattr__(self, "utilities", _frozen(u))
        object.__setattr__(self, "action_names", names)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Game is immutable")

    @property
    def num_players(self) -> int:
        return self.utilities.shape[0]

    @property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(self.utilities.shape[1:])

    @property
    def utility_range(self) -> float:
        return float(self.utilities.max() - self.utilities.min())

    def payoff(self, player: int, profile: Sequence[int]) -> float:
        return float(self.utilities[(player, *profile)])

    def payoffs(self, profile: Sequence[int]) -> np.ndarray:
        return self.utilities[(slice(None), *profile)]

    def pure_profiles(self) -> Iterable[tuple[int, ...]]:
        return np.ndindex(*self.action_counts)

    def with_utilities(self, utilities: np.ndarray) -> "Game":
        return Game(utilities, self.action_names)

    def action_label(self, player: int, action: int) -> str:
        if self.action_names is not None:
            return self.action_names[player][action]
        return f"a{action + 1}"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Game)
                and self.action_counts == other.action_counts
                and np.array_equal(self.utilities, other.utilities))

    def __repr__(self) -> str:
        return f"Game(players={self.num_players}, actions={self.action_counts})"


class MixedProfile:
    """A tuple of per-player probability vectors."""

    __slots__ = ("probs",)

    def __init__(self, probs: Sequence[Sequence[float]], tol: float = DEFAULT_TOL):
        vecs = []
        for i, p in enumerate(probs):
            v = np.asarray(p, dtype=np.float64)
            if v.ndim != 1 or v.size < 1:
                raise ProfileError("probability vector must be 1-D", i)
            if not np.all(np.isfinite(v)):
                raise ProfileError("probabilities must be finite", i)
            if np.any(v < -tol) or np.any(v > 1 + tol):
                raise ProfileError("probabilities outside [0, 1]", i)
            if abs(float(v.sum()) - 1.0) > tol:
                raise ProfileError(f"probabilities sum to {v.sum():.12g}", i)
            vecs.append(_frozen(v))
        if len(vecs) < 2:
            raise ProfileError("need at least two players")
        object.__setattr__(self, "probs", tuple(vecs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MixedProfile is immutable")

    @classmethod
    def pure(cls, action_counts: Sequence[int], profile: Sequence[int]) -> "MixedProfile":
        """ProfileError unless `profile` holds one action per player (`_checked_target`)."""
        return cls([np.eye(count)[a] for count, a in
                    zip(action_counts, _checked_target(action_counts, profile))])

    @classmethod
    def uniform_over(cls, action_counts: Sequence[int],
                     supports: Sequence[Sequence[int]]) -> "MixedProfile":
        """SupportError unless `supports` are supports of `action_counts`
        (`_checked_supports`)."""
        vecs = []
        for count, supp in zip(action_counts, _checked_supports(action_counts, supports)):
            v = np.zeros(count)
            v[list(supp)] = 1.0 / len(supp)
            vecs.append(v)
        return cls(vecs)

    @property
    def num_players(self) -> int:
        return len(self.probs)

    def support(self, player: int) -> tuple[int, ...]:
        return tuple(int(j) for j in np.flatnonzero(self.probs[player] > SUPPORT_EPSILON))

    def supports(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.support(i) for i in range(self.num_players))

    def is_pure(self) -> bool:
        return all(len(s) == 1 for s in self.supports())

    def pure_profile(self) -> tuple[int, ...]:
        if not self.is_pure():
            raise ProfileError("profile is not pure")
        return tuple(s[0] for s in self.supports())

    def __eq__(self, other) -> bool:
        return (isinstance(other, MixedProfile)
                and len(self.probs) == len(other.probs)
                and all(np.array_equal(a, b) for a, b in zip(self.probs, other.probs)))

    def __repr__(self) -> str:
        inner = "; ".join(",".join(f"{x:.6g}" for x in p) for p in self.probs)
        return f"MixedProfile({inner})"


@dataclass(frozen=True)
class OutcomeTarget:
    """A pure profile the protocol steers toward, with its role."""

    profile: tuple[int, ...]
    role: str  # "pareto_improver" | "welfare_maximizer"

    def __post_init__(self):
        if self.role not in ("pareto_improver", "welfare_maximizer"):
            raise ValueError(f"unknown target role {self.role!r}")


def _check_profile(action_counts: Sequence[int], profile: MixedProfile) -> None:
    if profile.num_players != len(action_counts):
        raise GameShapeError(f"profile has {profile.num_players} players, "
                             f"the game has {len(action_counts)}")
    for i, p in enumerate(profile.probs):
        if p.size != action_counts[i]:
            raise GameShapeError(f"player {i + 1}: profile length {p.size} != "
                                 f"{action_counts[i]} actions")


def _checked_target(action_counts: Sequence[int], target: Sequence[int]) -> tuple[int, ...]:
    """The pure `target` as ints; ProfileError unless it holds one integral
    action per player, inside that player's actions."""
    target = tuple(target)
    if len(target) != len(action_counts):
        raise ProfileError(f"target needs one action per player: got {len(target)} "
                           f"for {len(action_counts)} players")
    for i, (a, count) in enumerate(zip(target, action_counts)):
        if not isinstance(a, (int, np.integer)) or not 0 <= a < count:
            raise ProfileError(f"target action {a + 1} is not among actions 1..{count}", i)
    return tuple(map(int, target))


def _checked_supports(action_counts: Sequence[int],
                      supports: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The supports as tuples of ints; SupportError unless each player has
    one non-empty list of distinct integral actions inside its actions."""
    if len(supports) != len(action_counts):
        raise SupportError(f"one support list per player: got {len(supports)} "
                           f"for {len(action_counts)} players")
    supp = []
    for i, (s, count) in enumerate(zip(supports, action_counts)):
        s = tuple(s)
        if not s:
            raise SupportError(f"player {i + 1}: empty support")
        if len(set(s)) != len(s) or any(not isinstance(a, (int, np.integer))
                                        or not 0 <= a < count for a in s):
            raise SupportError(f"player {i + 1}: bad support "
                               f"({', '.join(str(a + 1) for a in s)})")
        supp.append(tuple(map(int, s)))
    return tuple(supp)


def expected_utility(game: Game, profile: MixedProfile, player: int) -> float:
    """Expected payoff of `player` under the mixed profile."""
    _check_profile(game.action_counts, profile)
    t = game.utilities[player]
    for j in reversed(range(game.num_players)):
        t = t @ profile.probs[j]
    return float(t)


def deviation_payoffs(game: Game, profile: MixedProfile, player: int) -> np.ndarray:
    """Payoff of each pure action of `player` against the others' mixtures."""
    _check_profile(game.action_counts, profile)
    t = np.moveaxis(game.utilities[player], player, 0)
    for j in reversed([j for j in range(game.num_players) if j != player]):
        t = t @ profile.probs[j]
    return t


def welfare_max(game: Game) -> tuple[float, tuple[int, ...]]:
    """Maximum social welfare and the lexicographically smallest argmax profile."""
    w = game.utilities.sum(axis=0)
    flat = int(np.argmax(w))  # first occurrence in C order = lexicographic min
    idx = tuple(int(x) for x in np.unravel_index(flat, w.shape))
    return float(w[idx]), idx


def _iter_pledges(round_or_pledges) -> Iterable:
    pledges = getattr(round_or_pledges, "pledges", round_or_pledges)
    return list(pledges)


def _one_based(outcome: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a + 1 for a in outcome)


def round_violation(game: Game, round, delta: float | None = None,
                    mode: str | None = None) -> TransferError | None:
    """The unraised TransferError of the first rule one round of pledges
    breaks in `game`, or None.

    Payer, outcome and recipient must exist in the game; `mode="burn_only"`
    rejects player recipients; when `delta` is given, each payer's total
    per outcome is capped at delta.  Sign and self-payment are rules of a
    single pledge, which `Pledge` enforces when it is made.  The error
    keeps payer and outcome 0-based; its message labels them 1-based, as
    in all I/O.
    """
    n = game.num_players
    totals: dict[tuple[int, tuple[int, ...]], float] = {}
    for p in _iter_pledges(round):
        if not 0 <= p.payer < n:
            return TransferError("payer", f"payer {p.payer + 1} out of range",
                                 p.payer, p.outcome)
        if len(p.outcome) != n or any(
                not 0 <= a < c for a, c in zip(p.outcome, game.action_counts)):
            return TransferError("outcome", f"outcome {_one_based(p.outcome)} out of range",
                                 p.payer, p.outcome)
        if p.recipient != BURN:
            if not isinstance(p.recipient, int) or not 0 <= p.recipient < n:
                label = p.recipient + 1 if isinstance(p.recipient, int) else p.recipient
                return TransferError("recipient", f"recipient {label!r} out of range",
                                     p.payer, p.outcome)
            if mode == "burn_only":
                return TransferError("mode", "only BURN pledges are allowed in burn_only mode",
                                     p.payer, p.outcome)
        key = (p.payer, p.outcome)
        totals[key] = totals.get(key, 0.0) + p.amount
        if delta is not None and totals[key] > delta + CAP_SLACK:
            return TransferError("cap", f"player {p.payer + 1} pays {totals[key]:.12g} > "
                                 f"delta={delta:.12g} at outcome {_one_based(p.outcome)}",
                                 p.payer, p.outcome)
    return None


def compile_pledges(shape: tuple[int, ...], pledge_lists: Sequence, delta: float | None = None,
                    mode: str | None = None) -> tuple[tuple[np.ndarray, ...], list[int]]:
    """Pledge lists as cell updates of a stack of flattened utility tensors
    of `shape`, and the lists an array screen of `round_violation`'s rules flags.

    Update j of (step, payer, cell, value) adds value[j] to cell[j] of row
    step[j] for a pledge of payer[j], in `apply_transfers`' order: per pledge
    the payer's debit, then the recipient's credit (adding -a is `u -= a`
    bit for bit).  The screen flags a list with a payer, outcome or
    recipient out of range (tested before an offset is trusted; such a
    pledge makes no update), a player recipient in burn_only mode, or a
    payer's total at an outcome over `delta` (summed in pledge order; amounts
    are >= 0, so a running total is over exactly when the final one is).
    OverflowError for an index too large for a float.
    """
    n, counts, size = shape[0], shape[1:], math.prod(shape)
    # One row per pledge: (list, payer, recipient, amount, *outcome), BURN
    # as recipient -1 and what is not a player index as n, an outcome of
    # the wrong length as -1s.  Float64 holds every index up to 2**53
    # exactly; larger ones are out of range.
    table = np.array([(k, p.payer, -1 if p.recipient == BURN else p.recipient
                       if isinstance(p.recipient, int) and p.recipient >= 0 else n,
                       p.amount, *(p.outcome if len(p.outcome) == n else (-1,) * n))
                      for k, pledges in enumerate(pledge_lists) for p in _iter_pledges(pledges)],
                     dtype=np.float64).reshape(-1, n + 4)
    low = [-math.inf, 0, -1, -math.inf, *[0] * n]
    high = [math.inf, n - 1, n - 1, math.inf, *(c - 1 for c in counts)]
    ok = np.logical_and.reduce((table >= low) & (table <= high), axis=1)
    # Per pledge, the flat offsets of (list, payer) and (list, recipient) at
    # the outcome.  A pledge out of range enters as zeros, so that no index
    # whose offset would overflow a float reaches the product.
    keys = np.where(ok[:, None], table, 0.0) @ np.array(
        [[size, size], [size // n, 0], [0, size // n], [0, 0],
         *([math.prod(counts[j + 1:])] * 2 for j in range(n))])
    keep = table[:, 1:3] >= 0  # a debit, and a credit to a player
    bad = ~ok
    if bad.any():  # a pledge out of range points past the last list and makes no update
        keys[bad] = len(pledge_lists) * size
        keep &= ok[:, None]
    keys = keys.astype(np.int64)
    if mode == "burn_only":
        bad |= table[:, 2] >= 0
    if delta is not None:
        debit = keys[:, 0]
        bad |= np.bincount(debit, table[:, 3])[debit] > delta + CAP_SLACK
    step, cell = np.divmod(keys[keep], size)
    updates = (step, table[:, 1:2].repeat(2, axis=1)[keep].astype(np.int64), cell,
               (table[:, 3:4] * [-1.0, 1.0])[keep])
    return updates, np.unique(table[bad, 0]).astype(int).tolist() if bad.any() else []


class FoldError(ValueError):
    """A step broke a rule while folding; `round_index` is 0-based, the text
    1-based, and the cause the round's TransferError (or a session error)."""

    def __init__(self, round_index: int, cause: Exception):
        super().__init__(f"round {round_index + 1}: {cause}")
        self.round_index = round_index


def fold_rounds(game: Game, rounds, delta: float | None = None,
                mode: str | None = None) -> np.ndarray:
    """The prefix stack of `rounds` folded into `game`: row k of the
    read-only (R+1, n, N_1..N_n) stack is the utility tensor after k rounds.

    Only the rounds the array screen of `compile_pledges` flags go through
    `round_violation`; FoldError names the first it rejects, after the
    rounds before it fold.  GameShapeError when a folded tensor is not finite.
    """
    return fold_compiled(game, rounds, delta, mode)[0]


def fold_compiled(game: Game, rounds, delta: float | None = None,
                  mode: str | None = None) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """`fold_rounds`, and the rounds' updates from `compile_pledges`.
    ValueError when `delta` is given and not finite: no cap is then read."""
    if delta is not None and not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    rounds = list(rounds)
    shape = game.utilities.shape
    try:
        updates, flagged = compile_pledges(shape, rounds, delta, mode)
    except OverflowError:  # an index past a float is out of range: the rules find its round
        updates, flagged = None, range(len(rounds))
    R, rejected = len(rounds), None
    for k in flagged:
        rejected = round_violation(game, rounds[k], delta, mode)
        if rejected:
            R = k
            break
    if updates is None:
        updates = compile_pledges(shape, rounds[:R])[0]
    step, _, cell, value = updates
    # Row k + 1 is row k with round k's updates; `np.add.at` applies them in
    # order, so a cell that a round updates twice takes both as `u -= a` did.
    # A sum past the float range is caught by the finiteness check below.
    stack = np.empty((R + 1, game.utilities.size))
    stack[0] = game.utilities.ravel()
    bounds = np.searchsorted(step, np.arange(R + 1)).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(R):
            stack[k + 1] = stack[k]
            np.add.at(stack[k + 1], cell[bounds[k]:bounds[k + 1]], value[bounds[k]:bounds[k + 1]])
    if not np.isfinite(stack).all():
        raise GameShapeError("utilities must be finite")
    if rejected:
        raise FoldError(R, rejected) from rejected
    return _frozen(stack.reshape(R + 1, *shape)), updates


def apply_transfers(game: Game, round, *, delta: float | None = None,
                    mode: str | None = None) -> Game:
    """Fold one round of pledges into a new game.

    Each pledge (payer, outcome, recipient, amount) lowers the payer's
    utility at the outcome by `amount`; a player recipient gains it, BURN
    destroys it.  TransferError when the round breaks a rule of
    `round_violation`.
    """
    try:
        return game.with_utilities(fold_rounds(game, [round], delta, mode)[1])
    except FoldError as exc:
        raise exc.__cause__ from None


def pareto_improves(game: Game, target: Sequence[int],
                    baseline: MixedProfile) -> tuple[bool, float]:
    """Does the pure `target` strictly Pareto-improve the baseline profile?

    Returns (verdict, L) where L is the minimum per-player surplus of the
    target over the baseline's expected utilities (may be <= 0 when False).
    """
    target = _checked_target(game.action_counts, target)
    margins = [game.payoff(i, target) - expected_utility(game, baseline, i)
               for i in range(game.num_players)]
    L = min(margins)
    return L > 0, L


# ---------------------------------------------------------------------------
# JSON game files
#
# Schema: {"schema_version", "players", "action_counts", "action_names"?,
#          "payoffs"} with payoffs a nested array indexed [profile][player],
# profiles in row-major lexicographic order.  Floats serialize via repr,
# which round-trips bit-exactly.
# ---------------------------------------------------------------------------

def game_to_dict(game: Game) -> dict:
    n = game.num_players
    flat = game.utilities.reshape(n, -1).T  # [profile][player]
    doc = {
        "schema_version": GAME_SCHEMA_VERSION,
        "players": n,
        "action_counts": list(game.action_counts),
        "payoffs": [[float(x) for x in row] for row in flat],
    }
    if game.action_names is not None:
        doc["action_names"] = [list(row) for row in game.action_names]
    return doc


def game_from_dict(doc: dict) -> Game:
    with _decoding("game", GameShapeError):
        check_schema(doc, "game", GAME_SCHEMA_VERSION, required=False)
        n = _read_int(doc["players"], "players")
        names = doc.get("action_names")
        names = None if names is None else _read_list(names, "action_names", _read_list, _read_str)
        if "action_counts" in doc:
            counts = _read_list(doc["action_counts"], "action_counts", _read_int)
        elif names is not None:
            counts = [len(row) for row in names]
        else:
            raise KeyError("action_counts")
        payoffs = _read_list(doc["payoffs"], "payoffs", _read_list, _read_number)
    if len(payoffs) != np.prod(counts) or any(len(row) != n for row in payoffs):
        raise GameShapeError("payoffs array does not match players/action_counts")
    u = np.asarray(payoffs, dtype=np.float64).T.reshape(n, *counts)
    return Game(u, names)


def save_game(game: Game, path) -> None:
    _write_json(game_to_dict(game), path)


def load_game(path) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return game_from_dict(json.load(fh))


def content_hash(game: Game) -> str:
    """Deterministic content hash over structure and exact payoff bits,
    made once per game."""
    if not hasattr(game, "_hash"):
        object.__setattr__(game, "_hash", stack_hashes(game.utilities[None])[0])
    return game._hash


def stack_hashes(stack: np.ndarray) -> list[str]:
    """`content_hash` of each game of a (K, n, N_1..N_n) utility stack:
    sha256 of `{"counts": [...], "payoffs": [hex, ...]}` as
    `json.dumps(..., sort_keys=True)` writes it, without a dict per row.
    A stack's rows share most values, so each distinct value (by its bits:
    -0.0 is not 0.0) is formatted once and every row is one join."""
    head = '{"counts": ' + json.dumps(list(stack.shape[2:])) + ', "payoffs": ["'
    bits = np.ascontiguousarray(stack, dtype=np.float64).view(np.uint64).ravel()
    values, at = np.unique(bits, return_inverse=True)
    text = np.array(list(map(float.hex, values.view(np.float64).tolist())), dtype=object)
    rows = text[at].reshape(len(stack), math.prod(stack.shape[1:])).tolist()
    return [hashlib.sha256((head + '", "'.join(row) + '"]}').encode()).hexdigest()
            for row in rows]


def format_matrix(game: Game) -> str:
    """Text table for a two-player game (rows: player 1, cols: player 2)."""
    if game.num_players != 2:
        lines = [f"{game.num_players}-player game, actions {game.action_counts}"]
        for prof in game.pure_profiles():
            cell = ", ".join(f"{game.payoff(i, prof):g}" for i in range(game.num_players))
            label = ",".join(game.action_label(i, a) for i, a in enumerate(prof))
            lines.append(f"  ({label}): ({cell})")
        return "\n".join(lines)
    rows, cols = game.action_counts
    header = [""] + [game.action_label(1, k) for k in range(cols)]
    table = [header]
    for j in range(rows):
        row = [game.action_label(0, j)]
        for k in range(cols):
            row.append("(" + ", ".join(f"{game.payoff(i, (j, k)):g}" for i in (0, 1)) + ")")
        table.append(row)
    widths = [max(len(r[c]) for r in table) for c in range(cols + 1)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                     for r in table)
