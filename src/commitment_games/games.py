"""Finite normal-form games: payoff tensors, mixtures, welfare, transfers.

A game holds a single dense float64 tensor of shape (n, N_1, ..., N_n);
entry (i, a_1, ..., a_n) is player i's payoff on the pure profile a.
Indices are 0-based everywhere inside the library; JSON files and CLI
text use 1-based labels.

All objects are immutable after construction (arrays are marked
read-only), so values can be shared freely across threads.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Recipient marker for pledges that destroy utility instead of moving it.
BURN = "BURN"

# Probability mass below this is treated as outside the support.
SUPPORT_EPSILON = 1e-9

# Default comparison tolerance for utility arithmetic.
DEFAULT_TOL = 1e-9

GAME_SCHEMA_VERSION = 1


class GameShapeError(ValueError):
    """Malformed game: bad tensor shape, non-finite entries, or n < 2."""


class ProfileError(ValueError):
    """Malformed mixed profile (non-finite or negative mass, bad length,
    sum != 1).  `player` is the 0-based player at fault, if one is, and
    `detail` the message without the player."""

    def __init__(self, detail: str, player: int | None = None):
        super().__init__(detail if player is None else f"player {player}: {detail}")
        self.detail, self.player = detail, player


class DocumentError(ValueError):
    """Malformed or inconsistent plan or transcript document."""


# What a malformed JSON document raises while being decoded.
MALFORMED = (KeyError, TypeError, ValueError, AttributeError)


def check_schema(doc, kind: str, version: int) -> None:
    """Raise DocumentError unless `doc` is an object of the given schema version."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{kind} document must be a JSON object")
    if doc.get("schema_version") != version:
        raise DocumentError(f"{kind} schema_version is {doc.get('schema_version')!r}, "
                            f"expected {version}")


class TransferError(ValueError):
    """Illegal pledge set: negative amount, self-payment, cap or mode breach."""

    def __init__(self, code: str, message: str, payer: int | None = None,
                 outcome: tuple[int, ...] | None = None):
        super().__init__(message)
        self.code = code
        self.payer = payer
        self.outcome = outcome

    @property
    def violation(self) -> "RoundViolation":
        return RoundViolation(self.code, self.payer, self.outcome, str(self))


@dataclass(frozen=True)
class RoundViolation:
    code: str  # "cap" | "recipient" | "mode" | "outcome" | "payer"
    payer: int | None
    outcome: tuple[int, ...] | None
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


class Game:
    """Immutable finite normal-form game."""

    __slots__ = ("utilities", "action_names")

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
        vecs = []
        for count, a in zip(action_counts, profile):
            v = np.zeros(count)
            v[a] = 1.0
            vecs.append(v)
        return cls(vecs)

    @classmethod
    def uniform_over(cls, action_counts: Sequence[int],
                     supports: Sequence[Sequence[int]]) -> "MixedProfile":
        vecs = []
        for count, supp in zip(action_counts, supports):
            v = np.zeros(count)
            v[list(supp)] = 1.0 / len(supp)
            vecs.append(v)
        return cls(vecs)

    @property
    def num_players(self) -> int:
        return len(self.probs)

    def support(self, player: int, eps: float = SUPPORT_EPSILON) -> tuple[int, ...]:
        return tuple(int(j) for j in np.flatnonzero(self.probs[player] > eps))

    def supports(self, eps: float = SUPPORT_EPSILON) -> tuple[tuple[int, ...], ...]:
        return tuple(self.support(i, eps) for i in range(self.num_players))

    def is_pure(self, eps: float = SUPPORT_EPSILON) -> bool:
        return all(len(s) == 1 for s in self.supports(eps))

    def pure_profile(self, eps: float = SUPPORT_EPSILON) -> tuple[int, ...]:
        if not self.is_pure(eps):
            raise ProfileError("profile is not pure")
        return tuple(s[0] for s in self.supports(eps))

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
        raise GameShapeError("profile has wrong number of players")
    for i, p in enumerate(profile.probs):
        if p.size != action_counts[i]:
            raise GameShapeError(f"player {i}: profile length {p.size} != "
                                 f"{action_counts[i]} actions")


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


def social_welfare(game: Game, profile: MixedProfile) -> float:
    return sum(expected_utility(game, profile, i) for i in range(game.num_players))


def welfare_max(game: Game) -> tuple[float, tuple[int, ...]]:
    """Maximum social welfare and the lexicographically smallest argmax profile."""
    w = game.utilities.sum(axis=0)
    flat = int(np.argmax(w))  # first occurrence in C order = lexicographic min
    idx = tuple(int(x) for x in np.unravel_index(flat, w.shape))
    return float(w[idx]), idx


def game_distance(g1: Game, g2: Game) -> float:
    """Sup-norm distance between same-structure games, +inf otherwise."""
    if g1.num_players != g2.num_players or g1.action_counts != g2.action_counts:
        return math.inf
    return float(np.max(np.abs(g1.utilities - g2.utilities)))


def _iter_pledges(round_or_pledges) -> Iterable:
    pledges = getattr(round_or_pledges, "pledges", round_or_pledges)
    return list(pledges)


def round_violation(game: Game, round, delta: float | None = None,
                    mode: str | None = None) -> RoundViolation | None:
    """The first rule one round of pledges breaks in `game`, or None.

    Payer, outcome and recipient must exist in the game; `mode="burn_only"`
    rejects player recipients; when `delta` is given, each payer's total
    per outcome is capped at delta.  Sign and self-payment are rules of a
    single pledge, which `Pledge` enforces when it is made.
    """
    n = game.num_players
    totals: dict[tuple[int, tuple[int, ...]], float] = {}
    for p in _iter_pledges(round):
        if not 0 <= p.payer < n:
            return RoundViolation("payer", p.payer, p.outcome,
                                  f"payer {p.payer} out of range")
        if len(p.outcome) != n or any(
                not 0 <= a < c for a, c in zip(p.outcome, game.action_counts)):
            return RoundViolation("outcome", p.payer, p.outcome,
                                  f"outcome {p.outcome} out of range")
        if p.recipient != BURN:
            if not isinstance(p.recipient, int) or not 0 <= p.recipient < n:
                return RoundViolation("recipient", p.payer, p.outcome,
                                      f"recipient {p.recipient!r} out of range")
            if mode == "burn_only":
                return RoundViolation("mode", p.payer, p.outcome,
                                      "only BURN pledges are allowed in burn_only mode")
        key = (p.payer, p.outcome)
        totals[key] = totals.get(key, 0.0) + p.amount
        if delta is not None and totals[key] > delta + 1e-12:
            return RoundViolation("cap", p.payer, p.outcome,
                                  f"player {p.payer} pays {totals[key]:.12g} > "
                                  f"delta={delta:.12g} at outcome {p.outcome}")
    return None


def apply_transfers(game: Game, round, *, delta: float | None = None,
                    mode: str | None = None) -> Game:
    """Fold one round of pledges into a new game.

    Each pledge (payer, outcome, recipient, amount) lowers the payer's
    utility at the outcome by `amount`; a player recipient gains it, BURN
    destroys it.  TransferError when the round breaks a rule of
    `round_violation`.
    """
    pledges = _iter_pledges(round)
    violation = round_violation(game, pledges, delta, mode)
    if violation is not None:
        raise TransferError(violation.code, violation.message, violation.payer,
                            violation.outcome)
    u = np.array(game.utilities)
    for p in pledges:
        u[(p.payer, *p.outcome)] -= p.amount
        if p.recipient != BURN:
            u[(p.recipient, *p.outcome)] += p.amount
    return game.with_utilities(u)


def pareto_improves(game: Game, target: Sequence[int],
                    baseline: MixedProfile) -> tuple[bool, float]:
    """Does the pure `target` strictly Pareto-improve the baseline profile?

    Returns (verdict, L) where L is the minimum per-player surplus of the
    target over the baseline's expected utilities (may be <= 0 when False).
    """
    target = tuple(int(a) for a in target)
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
    try:
        n = int(doc["players"])
        names = doc.get("action_names")
        if "action_counts" in doc:
            counts = [int(c) for c in doc["action_counts"]]
        elif names is not None:
            counts = [len(row) for row in names]
        else:
            raise KeyError("action_counts")
        payoffs = doc["payoffs"]
    except (KeyError, TypeError) as exc:
        raise GameShapeError(f"malformed game document: missing {exc}") from exc
    total = int(np.prod(counts))
    if len(payoffs) != total or any(len(row) != n for row in payoffs):
        raise GameShapeError("payoffs array does not match players/action_counts")
    u = np.asarray(payoffs, dtype=np.float64).T.reshape(n, *counts)
    return Game(u, names)


def save_game(game: Game, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(game), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_game(path) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return game_from_dict(json.load(fh))


def content_hash(game: Game) -> str:
    """Deterministic content hash over structure and exact payoff bits."""
    payload = {
        "counts": list(game.action_counts),
        "payoffs": [x.hex() for x in game.utilities.ravel().tolist()],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


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
