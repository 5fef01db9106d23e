"""Equilibrium machinery: Nash checks, support-constrained solving, and
the normalization/indifference system that characterizes equilibria with a
fixed support.

For a support choice M_1..M_n the characteristic system stacks, per
player, one normalization row (probabilities sum to 1) and M_i - 1
indifference rows (the first listed support action ties every other
one).  Out-of-support actions contribute residual rows (first support
action weakly preferred).  An equilibrium with that support is a root of
the system whose residuals are nonnegative; it is non-degenerate when the
system's Jacobian is nonsingular at the point and every residual is
strictly positive.  Non-degenerate equilibria survive small utility
perturbations with the same support, which is what the punishability
probe samples for.

Every check is a kernel on a (B, n, N_1..N_n) stack of games, and the
single-game names (`is_nash`, `solve_on_support`, `is_non_degenerate`,
`find_punishment_equilibrium`, ...) run it on a one-row stack.  Each row
keeps its reason codes, so no caller searches again for a reason text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate, combinations, product
from typing import Sequence

import numpy as np

from .games import (
    DEFAULT_TOL,
    DET_TOL,
    NASH_TOL,
    NEWTON_TOL,
    PROFILE_SLACK,
    ROOT_FLOOR,
    SYSTEM_TOL,
    Game,
    GameShapeError,
    MixedProfile,
    SupportError,
    _check_profile,
    _checked_supports,
    content_hash,
    expected_utility,
    game_to_dict,
)

NEWTON_MAX_ITER = 200


class NotNashError(ValueError):
    """An operation required a Nash equilibrium input."""


class DegenerateEquilibriumError(ValueError):
    """An operation required a non-degenerate equilibrium input."""


def worker_count() -> int:
    """1: no library operation runs in parallel; the benchmark records this
    value in its run info."""
    return 1


@dataclass(frozen=True)
class NashCheck:
    ok: bool
    player: int | None = None
    action: int | None = None
    gain: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


def is_nash(game: Game, profile: MixedProfile, tol: float = DEFAULT_TOL) -> NashCheck:
    """Best-response check; on failure carries a violating (player, action, gain)."""
    return nash_batch(game.utilities[None], profile, tol)[0]


def enumerate_pure_nash(game: Game) -> list[tuple[int, ...]]:
    """All pure Nash profiles, lexicographically sorted."""
    return [tuple(p) for p in np.argwhere(_pure_nash_mask(game.utilities[None])[0]).tolist()]


def _pure_nash_mask(U: np.ndarray) -> np.ndarray:
    """Per game of a (B, n, N_1..N_n) stack, the mask of pure profiles where
    no player's payoff minus its best unilateral switch is below -DEFAULT_TOL:
    the test of `_bnash`, of the residual rows and so of a 1x1 support solve."""
    nash = np.ones((len(U), *U.shape[2:]), dtype=bool)
    for i in range(U.shape[1]):
        best = U[:, i].max(axis=i + 1, keepdims=True)
        nash &= ~(U[:, i] - best < -DEFAULT_TOL)
    return nash


@dataclass(frozen=True)
class Component:
    """One row of the characteristic system.

    Normalization rows have kind "norm" and no coefficients.  Indifference
    rows compare the reference (first listed) support action of `player`
    against `action`; `coeffs` is the payoff-difference tensor over the
    other players' listed support actions, axes in player order, entries
    in the lexicographic order of the listed supports.
    """

    kind: str  # "norm" | "indiff"
    player: int
    action: int | None = None
    coeffs: np.ndarray | None = None


class CharacteristicSystem:
    """The one-row `StackedSystem` of a game, its rows named as `components`."""

    def __init__(self, game: Game, supports: Sequence[Sequence[int]]):
        self.stack = StackedSystem(game.utilities[None], supports)
        self.components = (
            tuple(Component("norm", i) for i in range(game.num_players))
            + tuple(Component("indiff", i, a, c[0]) for i, a, c in self.stack.indiff))

    def profile_vector(self, profile: MixedProfile) -> np.ndarray:
        return self.stack.profile_vectors(profile)[0]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.stack.evaluate(x[None])[0]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.stack.jacobian(x[None])[0]

    # Two-player block structure: X1 stacks a ones row over player 1's
    # indifference coefficient rows (columns indexed by player 2's listed
    # support); X2 likewise for player 2 over player 1's support.
    @property
    def x1(self) -> np.ndarray:
        return self.stack.block_matrix(0)[0]

    @property
    def x2(self) -> np.ndarray:
        return self.stack.block_matrix(1)[0]

    def linear_system(self) -> tuple[np.ndarray, np.ndarray]:
        """Two-player system with rows [norm_1; other-player indifference;
        norm_2; first-player indifference] over variables (p_1, p_2)."""
        A, b = self.stack.linear_system()
        return A[0], b


def build_characteristic_system(game: Game,
                                supports: Sequence[Sequence[int]]) -> CharacteristicSystem:
    """Build the system for ordered support lists.

    The first listed action of each player is the reference action for
    that player's indifference and residual rows.
    """
    return CharacteristicSystem(game, supports)


@dataclass(frozen=True)
class SupportSolve:
    """Outcome of a support-constrained solve."""

    profile: MixedProfile | None
    status: str  # "ok" | "degenerate" | "no_converge" | "out_of_range" | "residual_negative"
    f_norm: float = float("nan")
    min_residual: float = float("nan")

    def __bool__(self) -> bool:
        return self.profile is not None


def solve_on_support(game: Game, supports: Sequence[Sequence[int]],
                     seed: MixedProfile | None = None) -> SupportSolve:
    """Find a profile solving the characteristic system on the support.

    Two players: direct linear solve.  Three or more: damped Newton from
    `seed` (required).  The result must have support probabilities in
    (0, 1], satisfy the system to SYSTEM_TOL, and have residuals of at
    least -DEFAULT_TOL.
    """
    system = StackedSystem(game.utilities[None], supports)
    X, status, f_norm, min_res = _solve(system, seed)
    profile = (MixedProfile([v[0] for v in system.embed(np.clip(X, 0.0, 1.0))],
                            tol=PROFILE_SLACK) if status[0] == _OK else None)
    return SupportSolve(profile, STATUSES[status[0]], float(f_norm[0]), float(min_res[0]))


# ---------------------------------------------------------------------------
# Stacked kernels.  Each operation is the single-game expression on the same
# per-row memory layout (stacked LAPACK solves, and matmuls that reach the
# same gemv/dot kernels), so a row's result does not depend on its stack.
# ---------------------------------------------------------------------------

def _bmatvec(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise t[b] @ v[b] for t of shape (B, ..., k) and v of shape (B, k)."""
    if t.ndim == 2:
        return (t[:, None, :] @ v[:, :, None])[:, 0, 0]
    shape = (v.shape[0],) + (1,) * (t.ndim - 3) + (v.shape[1], 1)
    return (t @ v.reshape(shape))[..., 0]


def _bcontract(t: np.ndarray, probs: Sequence[np.ndarray],
               order: Sequence[int]) -> np.ndarray:
    """Contract t's trailing axes with probs[j], j = order[-1] first."""
    for j in reversed(order):
        t = _bmatvec(t, probs[j])
    return t


def _bsolve(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked solve, as (x, singular) with NaN rows where `singular` is
    set.  When a row is singular, one `slogdet` finds the singular rows: it
    runs the `getrf` of the solve's `gesv`, so its sign is 0 on exactly the
    rows with an exact zero pivot.  One more solve takes the other rows,
    each by the same LAPACK routine as in the whole stack.
    """
    try:
        return np.linalg.solve(A, b[..., None])[..., 0], np.zeros(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(A)[0] == 0
        x = np.full(b.shape, np.nan)
        x[~singular] = np.linalg.solve(A[~singular], b[~singular][..., None])[..., 0]
        return x, singular


def _inf_norm(f: np.ndarray) -> np.ndarray:
    return np.abs(f).max(axis=1)


class StackedSystem:
    """Characteristic and residual system of one support choice over a
    (B, n, N_1..N_n) stack of games.  The variables are X of shape
    (B, num_vars): per row, the players' probabilities on their listed
    supports, in player order."""

    def __init__(self, utilities: np.ndarray, supports: Sequence[Sequence[int]]):
        U = self.utilities = np.ascontiguousarray(utilities, dtype=np.float64)
        n, counts = U.shape[1], U.shape[2:]
        supp = self.supports = _checked_supports(counts, supports)
        self.offsets = [0, *accumulate(len(s) for s in supp)]
        self.others = [[j for j in range(n) if j != i] for i in range(n)]
        self.rhs = np.array([1.0] * n + [0.0] * (self.offsets[-1] - n))

    # (player, action, coefficients) of each indifference and each
    # out-of-support residual row, in system order; built on first use, so
    # a stack that only checks residuals builds no indifference rows.
    @cached_property
    def indiff(self) -> list:
        return [(i, a, self._coeffs(i, a)) for i, s in enumerate(self.supports)
                for a in s[1:]]

    @cached_property
    def residual_rows(self) -> list:
        return [(i, a, self._coeffs(i, a)) for i, s in enumerate(self.supports)
                for a in range(self.utilities.shape[2 + i]) if a not in s]

    def _coeffs(self, i, a):
        """u_i(ref, b) - u_i(a, b) over the other players' listed support
        profiles b, per row."""
        U, supp = self.utilities, self.supports
        diff = (np.take(U[:, i], supp[i][0], axis=i + 1)
                - np.take(U[:, i], a, axis=i + 1))
        sel = np.ix_(*[supp[j] for j in self.others[i]])
        return np.ascontiguousarray(diff[(slice(None), *sel)])

    def split(self, X: np.ndarray) -> list[np.ndarray]:
        offs = self.offsets
        return [X[:, offs[i]:offs[i + 1]] for i in range(len(self.supports))]

    def profile_vectors(self, profile: MixedProfile) -> np.ndarray:
        """One profile's support probabilities on every row."""
        x = np.concatenate([profile.probs[i][list(s)]
                            for i, s in enumerate(self.supports)])
        return np.tile(x, (len(self.utilities), 1))

    def embed(self, X: np.ndarray) -> list[np.ndarray]:
        """Per player, the (B, N_i) vectors that are X on the support, else 0."""
        out = []
        for c, s, block in zip(self.utilities.shape[2:], self.supports, self.split(X)):
            v = np.zeros((len(X), c))
            v[:, list(s)] = block
            out.append(v)
        return out

    # `rows` picks the games that X holds, for the Newton active set.
    def evaluate(self, X: np.ndarray, rows=slice(None)) -> np.ndarray:
        """The system's value: normalization sums, then indifference rows."""
        probs = self.split(X)
        cols = [p.sum(axis=1) for p in probs]
        cols += [_bcontract(c[rows], probs, self.others[i]) for i, _, c in self.indiff]
        return np.stack(cols, axis=1)

    def jacobian(self, X: np.ndarray, rows=slice(None)) -> np.ndarray:
        probs, offs = self.split(X), self.offsets
        J = np.zeros((len(X), offs[-1], offs[-1]))
        for i in range(len(self.supports)):
            J[:, i, offs[i]:offs[i + 1]] = 1.0
        for r, (i, _, c) in enumerate(self.indiff, start=len(self.supports)):
            for axis, j in enumerate(self.others[i]):
                rest = [k for k in self.others[i] if k != j]
                g = _bcontract(np.moveaxis(c[rows], axis + 1, 1), probs, rest)
                J[:, r, offs[j]:offs[j + 1]] = g
        return J

    def min_residuals(self, X: np.ndarray) -> np.ndarray:
        """Per row, the smallest out-of-support residual; inf without any."""
        if not self.residual_rows:
            return np.full(len(X), np.inf)
        probs = self.split(X)
        return np.stack([_bcontract(c, probs, self.others[i])
                         for i, _, c in self.residual_rows], axis=1).min(axis=1)

    def block_matrix(self, player: int) -> np.ndarray:
        """Per row, a ones row over `player`'s indifference coefficient rows;
        two players only."""
        if self.utilities.shape[1] != 2:
            raise SupportError("block matrices are defined for two players")
        rows = [c for i, _, c in self.indiff if i == player]
        out = np.empty((len(self.utilities), 1 + len(rows),
                        len(self.supports[1 - player])))
        out[:, 0] = 1.0
        for r, c in enumerate(rows, start=1):
            out[:, r] = c
        return out

    def linear_system(self) -> tuple[np.ndarray, np.ndarray]:
        """The two-player linear system of every row, and its right-hand side."""
        m1, m2 = (len(s) for s in self.supports)
        A = np.zeros((len(self.utilities), m1 + m2, m1 + m2))
        A[:, :m2, :m1] = self.block_matrix(1)
        A[:, m2:, m1:] = self.block_matrix(0)
        b = np.zeros(m1 + m2)
        b[0] = b[m2] = 1.0
        return A, b


# A row's first-stage outcome, as an index into STATUSES: a solve status,
# then the search's two reasons to reject a solve.
STATUSES = ("ok", "degenerate", "no_converge", "out_of_range", "residual_negative",
            "not_nash", "over_ceiling")
(_OK, _DEGENERATE, _NO_CONVERGE, _OUT_OF_RANGE, _RESIDUAL_NEGATIVE, _NOT_NASH,
 _OVER_CEILING) = range(len(STATUSES))


# `_distinct_rows`' hash: splitmix64's increment and finalizer constants.
_GOLDEN, _MIX1, _MIX2 = (np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                                                0x94D049BB133111EB))


def _word_hashes(words: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The terms of `_distinct_rows`' hash: splitmix64's finalizer of each
    of the 64-bit `words` XOR its position `at` times the golden increment."""
    z = words ^ (np.asarray(at, dtype=np.uint64) * _GOLDEN)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _distinct_rows(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, index): the first row of each distinct byte pattern among
    `block`'s rows, and per row the position of its pattern in `first`.

    A row's hash is the sum (mod 2**64) of `_word_hashes` over its 64-bit
    words at their positions; the finalizer is not linear, so rows that
    trade values between cells do not share a hash as under a weighted
    sum.  Neighbours with equal hashes are compared word for word, so 0.0
    and -0.0 never share a pattern.  Should two patterns share a hash,
    `np.unique` on the words decides instead.
    """
    B = len(block)
    words = np.ascontiguousarray(block).reshape(B, math.prod(block.shape[1:])).view(np.uint64)
    h = _word_hashes(words, np.arange(words.shape[1])).sum(axis=1, dtype=np.uint64)
    order = np.argsort(h, kind="stable")  # rows of one hash in row order
    h = h[order]
    pairs = np.flatnonzero(h[1:] == h[:-1])
    repeat = np.zeros(B, dtype=bool)  # sorted row r repeats sorted row r - 1
    repeat[pairs + 1] = (words[order[pairs]] == words[order[pairs + 1]]).all(axis=1)
    if not repeat[pairs + 1].all():
        _, first, index = np.unique(words, axis=0, return_index=True, return_inverse=True)
        return first, index.reshape(B)
    index = np.empty(B, dtype=np.intp)
    index[order] = np.cumsum(~repeat) - 1
    return order[~repeat], index


def _solve(system: StackedSystem, seed: MixedProfile | None):
    """`solve_on_support` on every row: (X, status, f_norm, min_residual).

    Two players: one stacked linear solve.  Three or more: damped Newton
    from `seed` with stacked Jacobians and a per-row line search.  Then,
    per row, the norm, range and out-of-support residual checks.
    """
    B, n = system.utilities.shape[:2]
    if n > 2 and seed is None:
        raise SupportError("a seed profile is required for three or more players")

    def f(X, rows=slice(None)):
        return system.evaluate(X, rows) - system.rhs

    status = np.full(B, _OK, dtype=np.int8)
    if n == 2:
        A, b = system.linear_system()
        X, singular = _bsolve(A, np.broadcast_to(b, (B, len(b))))
        status[singular | ~np.all(np.isfinite(X), axis=1)] = _DEGENERATE
        f_norm = np.full(B, np.nan)
    else:
        X = system.profile_vectors(seed)
        F = f(X)
        active = np.ones(B, dtype=bool)
        for _ in range(NEWTON_MAX_ITER):
            norm = _inf_norm(F)
            active &= ~(norm <= NEWTON_TOL)
            rows = np.flatnonzero(active)
            if not rows.size:
                break
            step, singular = _bsolve(system.jacobian(X[rows], rows), -F[rows])
            status[rows[singular]] = _DEGENERATE
            rows, step = rows[~singular], step[~singular]
            alpha = 1.0
            for _ in range(40):
                xn = X[rows] + alpha * step
                fn = f(xn, rows)
                better = _inf_norm(fn) < norm[rows]
                X[rows[better]], F[rows[better]] = xn[better], fn[better]
                rows, step = rows[~better], step[~better]
                if not rows.size:
                    break
                alpha *= 0.5
            status[rows] = _NO_CONVERGE
            active &= status == _OK
        # F is f(X) on every row, each row evaluated as a fresh `f(X)` would
        # (the contractions are row for row), so a solved row's norm is read
        # from it; a failed row keeps the norm it failed at.
        f_norm = _inf_norm(F)
        status[active & (f_norm > NEWTON_TOL)] = _NO_CONVERGE
    solved = status == _OK
    X[~solved] = 0.5  # keeps the checks below free of NaN; the rows stay failed

    if n == 2:
        f_norm[solved] = _inf_norm(f(X))[solved]
    status[solved & (f_norm > SYSTEM_TOL)] = _NO_CONVERGE
    out_of_range = np.any((X <= DEFAULT_TOL) | (X > 1 + DEFAULT_TOL), axis=1)
    status[(status == _OK) & out_of_range] = _OUT_OF_RANGE
    min_res = system.min_residuals(X)
    status[(status == _OK) & (min_res < -DEFAULT_TOL)] = _RESIDUAL_NEGATIVE
    min_res[(status != _OK) & (status != _RESIDUAL_NEGATIVE)] = np.nan
    return X, status, f_norm, min_res


def _bdeviation_payoffs(U: np.ndarray, probs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per row and player i, the payoff of each pure action of i against
    the others' mixtures, probs[j] of shape (B, N_j)."""
    n = U.shape[1]
    return [_bcontract(np.moveaxis(U[:, i], i + 1, 1), probs,
                       [j for j in range(n) if j != i]) for i in range(n)]


def _bexpected(U: np.ndarray, probs: Sequence[np.ndarray]) -> np.ndarray:
    """The (B, n) expected payoffs per row, as `expected_utility` contracts them."""
    n = U.shape[1]
    return np.stack([_bcontract(U[:, i], probs, range(n)) for i in range(n)], axis=1)


def _bpayoffs(U: np.ndarray, probs: Sequence[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """Per row, the deviation payoffs of every player and the (B, n)
    expected payoffs.  Player 1's expected payoff is its deviation payoffs
    contracted with its mix: the contractions `_bexpected` makes, on the
    same arrays, so the same bits.  The other players' contract in another
    order, which rounds differently."""
    n = U.shape[1]
    pay = _bdeviation_payoffs(U, probs)
    own = [_bmatvec(pay[0], probs[0])]
    return pay, np.stack(own + [_bcontract(U[:, i], probs, range(n)) for i in range(1, n)],
                         axis=1)


def _bnash(pay: Sequence[np.ndarray], probs: Sequence[np.ndarray], tol: float,
           expected: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best-response check per row from the deviation payoffs: the
    worst violation's (player, action, gain), with player -1 where the row
    is Nash.  `expected` (`_bpayoffs`), when given, holds player 1's own
    payoff, which is then read instead of contracted again."""
    B = len(probs[0])
    player, action, worst = np.full(B, -1), np.zeros(B, dtype=int), np.zeros(B)
    for i, p in enumerate(pay):
        a = np.argmax(p, axis=1)
        own = expected[:, 0] if i == 0 and expected is not None else _bmatvec(p, probs[i])
        gain = p[np.arange(B), a] - own
        hit = (gain > tol) & (gain > worst)
        player[hit], action[hit], worst[hit] = i, a[hit], gain[hit]
    return player, action, worst


def nash_batch(utilities: np.ndarray, profile: MixedProfile,
               tol: float = DEFAULT_TOL) -> tuple[NashCheck, ...]:
    """`is_nash` of one profile on every game of a (B, n, N_1..N_n) stack.
    ValueError when `tol` is not finite."""
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    U = np.ascontiguousarray(utilities, dtype=np.float64)
    _check_profile(U.shape[2:], profile)
    probs = [np.tile(p, (len(U), 1)) for p in profile.probs]
    player, action, gain = _bnash(_bdeviation_payoffs(U, probs), probs, tol)
    return tuple(NashCheck(True) if i < 0 else NashCheck(False, int(i), int(a), float(g))
                 for i, a, g in zip(player.tolist(), action.tolist(), gain.tolist()))


@dataclass(frozen=True)
class BatchFirstStage:
    """Per-row outcome of `first_stage_batch`.

    `STATUSES[status[b]]` is "ok" where the search returns kind
    "support_solve"; else the `solve_on_support` status, or "not_nash" or
    "over_ceiling".  `profiles[i][b]` is player i's probabilities at the
    solve, `deviation_payoffs[i][b]` its payoff per pure action and
    `payoffs[b, i]` its expected payoff.
    """

    status: np.ndarray
    profiles: tuple[np.ndarray, ...]
    deviation_payoffs: tuple[np.ndarray, ...]
    payoffs: np.ndarray

    @property
    def settled(self) -> np.ndarray:
        return self.status == _OK


def first_stage_batch(utilities: np.ndarray, supports: Sequence[Sequence[int]],
                      seed: MixedProfile | None, ceiling: Sequence[float]) -> BatchFirstStage:
    """The first stage of the punishment search over a stack of games.

    `utilities` has shape (B, n, N_1..N_n).  Per row: `solve_on_support`
    (system to SYSTEM_TOL, probabilities in (DEFAULT_TOL, 1 + DEFAULT_TOL],
    residuals at least -DEFAULT_TOL), then `is_nash` at NASH_TOL and the
    payoff ceiling plus DEFAULT_TOL.  Every row is solved: the verifier's
    row keys already send one row per pattern of the cells the first stage
    reads (`_first_stage_cells`).
    """
    system = StackedSystem(utilities, supports)
    X, status, _, _ = _solve(system, seed)
    full = system.embed(np.clip(X, 0.0, 1.0))
    deviation, expected = _bpayoffs(system.utilities, full)
    status[(status == _OK) & (_bnash(deviation, full, NASH_TOL, expected)[0] >= 0)] = _NOT_NASH
    status[(status == _OK) & ~_under_ceiling(expected, ceiling)] = _OVER_CEILING
    return BatchFirstStage(status, tuple(full), tuple(deviation), expected)


@cache
def _first_stage_cells(shape: tuple[int, ...],
                       supports: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """The flat mask of the cells of an (n, N_1..N_n) utility tensor that
    `first_stage_batch` on `supports` reads: u_i at every own action
    against every profile of the other players' support actions.

    The solve, its norm and range checks read the support block, and the
    residual rows u_i(ref, b) - u_i(a, b) over the others' support
    profiles b; all are these cells.  The deviation and expected payoffs
    contract u_i with the profile embedded with +0.0 off the supports, so
    any other cell enters only through a product with +0.0 (for three or
    more players, through a partial sum times +0.0), which is +-0.0.
    Adding +-0.0 leaves a sum unchanged unless the sum is 0.0, whose sign
    it may flip.  So two games equal bit for bit on these cells get the
    same status and profile, and the same deviation and expected payoffs
    except that a payoff of exactly 0.0 may differ in sign, as long as no
    partial sum overflows.  None does when every cell is at most half the
    largest float in magnitude: a solved row's probabilities per player sum
    to at most 1 + SYSTEM_TOL, so no partial sum exceeds the largest cell
    by more than that factor per player.  So the verifier keys every
    deviation search by its stage and its bytes on these cells
    (`verifier._row_keys`), and searches each key once.  The sign reaches
    a verification report only through a best-response payoff of 0.0
    minus an on-path payoff of 0.0, the one difference it changes, so a
    key's search is shared unless such a difference occurs; the verifier
    reads no expected payoff of a search (`verifier.check_deviations`).
    """
    supports = _checked_supports(shape[1:], supports)
    cells = np.zeros(shape, dtype=bool)
    for i in range(shape[0]):
        cells[i][np.ix_(*(range(c) if j == i else s
                          for j, (c, s) in enumerate(zip(shape[1:], supports))))] = True
    cells.setflags(write=False)
    return cells.ravel()


def _under_ceiling(expected: np.ndarray, ceiling: Sequence[float]) -> np.ndarray:
    """The search's ceiling test on payoff vectors along the last axis."""
    return np.all(expected <= np.asarray(ceiling, dtype=np.float64) + DEFAULT_TOL, axis=-1)


@dataclass(frozen=True)
class NonDegeneracyReport:
    ok: bool
    det: float
    det_threshold: float
    min_residual: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class BatchNonDegeneracy:
    """Per-row outcome of `non_degenerate_batch`: the fields of
    `is_non_degenerate`'s report, with `ok` False also where `nash` fails."""

    ok: np.ndarray
    det: np.ndarray
    det_threshold: np.ndarray
    min_residual: np.ndarray
    nash: tuple[NashCheck, ...]

    def report(self, row: int) -> NonDegeneracyReport:
        """Row `row` as `is_non_degenerate` reports it, or its NotNashError."""
        check = self.nash[row]
        if not check.ok:
            raise NotNashError(
                f"profile is not Nash: player {check.player + 1} gains "
                f"{check.gain:.3g} by action {check.action + 1}")
        return NonDegeneracyReport(bool(self.ok[row]), float(self.det[row]),
                                   float(self.det_threshold[row]),
                                   float(self.min_residual[row]))


def is_non_degenerate(game: Game, profile: MixedProfile) -> NonDegeneracyReport:
    """Nonsingular Jacobian at the profile and strictly positive residuals.

    Raises NotNashError when the profile is not a Nash equilibrium.
    """
    return non_degenerate_batch(game.utilities[None], profile).report(0)


def _require_non_degenerate(game: Game, profile: MixedProfile) -> None:
    """DegenerateEquilibriumError unless `is_non_degenerate` accepts `profile`."""
    report = is_non_degenerate(game, profile)
    if not report.ok:
        raise DegenerateEquilibriumError(
            f"baseline equilibrium is degenerate (det={report.det:.3g}, "
            f"min residual={report.min_residual:.3g})")


def non_degenerate_batch(utilities: np.ndarray, profile: MixedProfile) -> BatchNonDegeneracy:
    """`is_non_degenerate` of one profile on every game of a
    (B, n, N_1..N_n) stack."""
    nash = nash_batch(utilities, profile, NASH_TOL)
    system = StackedSystem(utilities, profile.supports())
    X = system.profile_vectors(profile)
    J = system.jacobian(X)
    m = J.shape[1]
    det = np.linalg.det(J)
    threshold = np.array([DET_TOL * (scale ** m if scale > 0 else 1.0)
                          for scale in np.abs(J).max(axis=(1, 2)).tolist()])
    min_res = system.min_residuals(X)
    ok = np.array([check.ok for check in nash], dtype=bool)
    ok &= (np.abs(det) > threshold) & (min_res > 0.0)
    return BatchNonDegeneracy(ok, det, threshold, min_res, nash)


@dataclass(frozen=True)
class PunishmentResult:
    profile: MixedProfile | None
    kind: str  # "support_solve" | "seed" | "pure" | "support_enum" | "semi_mixed" | "none"
    reason: str = ""

    def __bool__(self) -> bool:
        return self.profile is not None


def find_punishment_equilibrium(game: Game, reference_support: Sequence[Sequence[int]],
                                seed: MixedProfile | None,
                                ceiling: Sequence[float]) -> PunishmentResult:
    """Same-support equilibrium whose payoffs stay under the ceiling.

    Tries the support-constrained solve first; if the solve fails or
    overshoots the ceiling, falls back to the seed itself (when it is
    still an equilibrium) and then to pure equilibria in lexicographic
    order.  Returns a result with profile None when nothing qualifies.
    """
    found = punish_batch(game.utilities[None], reference_support, seed, ceiling)
    return PunishmentResult(found.profile(0), found.kinds[0], found.reasons[0])


# Support patterns per player for the two-player enumeration fallback,
# ascending size then lexicographic; capped at desk scale.
_SUPPORT_ENUM_MAX_ACTIONS = 4
# (pattern, game) pairs per stacked enumeration solve.  A run's working
# arrays grow with it; a fixed budget makes a run's patterns depend on the
# rows still open alone, not on how many rows the call holds.
_SUPPORT_ENUM_PAIRS = 1024


@cache
def _support_patterns(action_counts: tuple[int, ...]) -> tuple:
    """Equal-size support pairs (s1, s2) in enumeration order, or none
    beyond desk scale.  Unequal sizes never solve: one block of the linear
    system has more rows than columns, and its structural zeros stay exact
    under elimination, so the solve meets a zero pivot on every game."""
    if len(action_counts) != 2 or max(action_counts) > _SUPPORT_ENUM_MAX_ACTIONS:
        return ()
    opts = [[s for size in range(1, c + 1) for s in combinations(range(c), size)]
            for c in action_counts]
    return tuple((s1, s2) for s1, s2 in product(*opts) if len(s1) == len(s2))


def _first_settling(V: np.ndarray, probs: Sequence[np.ndarray], valid: np.ndarray,
                    ceiling: Sequence[float]):
    """Per game of the stack `V`, the first of its candidate profiles (row
    c*len(V) + r of `probs` is candidate c of game r) that is `valid`, Nash
    at NASH_TOL and under the ceiling: (settled, probabilities, deviation
    payoffs, expected payoffs), one row per game."""
    R = len(V)
    pay, exp = _bpayoffs(np.tile(V, (len(valid) // R,) + (1,) * (V.ndim - 1)), probs)
    valid = valid & (_bnash(pay, probs, NASH_TOL, exp)[0] < 0) & _under_ceiling(exp, ceiling)
    valid = valid.reshape(-1, R)
    pick = valid.argmax(axis=0) * R + np.arange(R)
    return valid.any(axis=0), [p[pick] for p in probs], [p[pick] for p in pay], exp[pick]


def _semi_mixed_batch(V: np.ndarray, ceiling: Sequence[float]):
    """2x2 continuum equilibria: one player pure, the other indifferent.

    The gap-closing protocols drive preference gaps to exact zeros, where
    the support-constrained systems go singular; the equilibria form a
    segment and any feasible point on it punishes.  `_first_settling` over
    the 12 candidates per game of the (R, 2, 2, 2) stack `V`, built as one
    (pure player, its action, q, game) array in the scalar search's order:
    the pure player p, its action b, then the mixer's probability q of its
    first action ascending (0, root, 1).
    """
    p = np.arange(2)  # the pure player; the other one mixes
    W = np.stack([V, V.transpose(0, 1, 3, 2)])  # W[p][:, i, p's action, mixer's]
    mixer = W[p, :, 1 - p].transpose(0, 2, 1, 3)  # [p, b, game, mixer's action]
    pure = W[p, :, p].transpose(0, 2, 1, 3)
    indifferent = np.abs(mixer[..., 0] - mixer[..., 1]) <= DEFAULT_TOL
    # b must be a weak best response to the mix q over the mixer's first
    # action: g(q) = alpha*q + beta*(1-q) >= -DEFAULT_TOL
    alpha, beta = np.moveaxis(pure - pure[:, ::-1], -1, 0)
    has_root = np.abs(alpha - beta) > ROOT_FLOOR
    root = np.divide(-beta, alpha - beta, out=np.zeros_like(alpha), where=has_root)
    has_root &= (0.0 < root) & (root < 1.0)
    q = np.stack([np.zeros_like(root), root, np.ones_like(root)], axis=2)
    valid = np.stack([indifferent, indifferent & has_root, indifferent], axis=2)
    valid &= ~(alpha[:, :, None] * q + beta[:, :, None] * (1.0 - q) < -DEFAULT_TOL)
    mixed = np.stack([q, 1.0 - q], axis=-1)
    pure = np.broadcast_to(np.eye(2)[None, :, None, None], mixed.shape)
    probs = [np.where(p[:, None, None, None, None] == i, pure, mixed).reshape(-1, 2)
             for i in (0, 1)]
    return _first_settling(V, probs, valid.ravel(), ceiling)


@dataclass(frozen=True)
class BatchPunishment:
    """Per-row outcome of `punish_batch`.

    `kinds[b]` and `reasons[b]` are what `find_punishment_equilibrium`
    returns for row b.  At its punishment, `profiles[i][b]` is player i's
    probabilities, `best_response[b, i]` i's best-response payoff and
    `payoffs[b, i]` i's expected payoff, all NaN on rows of kind "none".
    `pure_best[b, i]` is i's best payoff over row b's pure equilibria,
    -inf when it has none; it is set on the rows the search enumerated
    them for, which include every row of kind "none", and NaN elsewhere.
    """

    kinds: tuple[str, ...]
    reasons: tuple[str, ...]
    profiles: tuple[np.ndarray, ...]
    best_response: np.ndarray
    payoffs: np.ndarray
    pure_best: np.ndarray

    def profile(self, row: int) -> MixedProfile | None:
        """Row `row`'s punishment, None on a row of kind "none"."""
        if self.kinds[row] == "none":
            return None
        return MixedProfile([p[row] for p in self.profiles], tol=PROFILE_SLACK)


# Why the first stage did not settle a row, in the search's words.
_FIRST_STAGE_REASONS = {"not_nash": "support solve is not Nash (residuals violated)",
                        "over_ceiling": "support solve exceeds ceiling"}


def punish_batch(utilities: np.ndarray, supports: Sequence[Sequence[int]],
                 seed: MixedProfile | None, ceiling: Sequence[float]) -> BatchPunishment:
    """`find_punishment_equilibrium` over a stack of games, row for row.

    `utilities` has shape (B, n, N_1..N_n).  Each step of the chain runs
    on the rows the steps before it leave open, as one stack: the first
    stage; the seed's Nash and ceiling checks; the pure equilibria from a
    best-response mask per player, of which the first under the ceiling
    in lexicographic order settles the row; the support enumeration, where
    a row ends at its first settling pattern, one solve per size above 1
    (in runs of at most _SUPPORT_ENUM_PAIRS (pattern, game) pairs, or one
    pattern); and on 2x2 rows the boundary equilibria.
    Raises GameShapeError when an entry is not finite, as building the
    games would.
    """
    U = np.asarray(utilities, dtype=np.float64)
    if not np.all(np.isfinite(U)):
        raise GameShapeError("utilities must be finite")
    B, n, counts = U.shape[0], U.shape[1], U.shape[2:]

    first = first_stage_batch(U, supports, seed, ceiling)
    kinds = np.empty(B, dtype=object)
    kinds[:] = "support_solve"  # `np.full` of an object is slower
    profiles, expected = list(first.profiles), first.payoffs
    best = np.stack([p.max(axis=1) for p in first.deviation_payoffs], axis=1)
    rows = np.flatnonzero(~first.settled)
    kinds[rows] = "none"
    for a in (best, expected, *profiles):
        a[rows] = np.nan

    def settle(kind, rows, ok, probs, pay, exp):
        """Rows `rows[ok]` end at `kind`, at profile `probs` with deviation and
        expected payoffs `pay` and `exp` (one row each); returns the rest."""
        hit = rows[ok]
        kinds[hit] = kind
        for p, q in zip(profiles, probs):
            p[hit] = q[ok]
        best[hit] = np.stack([p[ok].max(axis=1) for p in pay], axis=1)
        expected[hit] = exp[ok]
        return rows[~ok]

    if seed is not None and rows.size:
        _check_profile(counts, seed)
        probs = [np.tile(p, (len(rows), 1)) for p in seed.probs]
        rows = settle("seed", rows, *_first_settling(U[rows], probs, np.ones(len(rows), bool),
                                                     ceiling))

    pure_best = np.full((B, n), np.nan)
    if rows.size:
        V = U[rows]
        flat = _pure_nash_mask(V).reshape(len(rows), -1)
        pure_best[rows] = np.stack([np.where(flat, V[:, i].reshape(len(rows), -1), -np.inf)
                                    .max(axis=1) for i in range(n)], axis=1)
        # A row ends at its first Nash cell under the ceiling, in C order.
        flat &= _under_ceiling(V.reshape(len(rows), n, -1).transpose(0, 2, 1), ceiling)
        cells = np.unravel_index(flat.argmax(axis=1), counts)
        probs = [np.eye(c)[a] for c, a in zip(counts, cells)]
        rows = settle("pure", rows, flat.any(axis=1), probs, *_bpayoffs(V, probs))

    # Size 1 is skipped: a 1x1 solve accepts exactly the cells the pure step did.
    # The stage's own pattern is skipped: the first stage rejected it already.
    own = _checked_supports(counts, supports)
    patterns = [p for p in _support_patterns(counts) if len(p[0]) > 1 and p != own]
    # Sizes ascend, so runs of one size keep the enumeration order; a run
    # holds at most _SUPPORT_ENUM_PAIRS (pattern, game) pairs, or one
    # pattern.  Each pair is solved on supports (range(k), range(k)) with the
    # pattern's supports moved first and the other actions after them
    # ascending, so its coefficient and residual rows are the pattern's, the
    # same floats in the same order.  The profiles go back to the game's
    # action order before any payoff is contracted: a reordered tensor
    # contracts in another order.
    while rows.size and patterns:
        V, k = U[rows], len(patterns[0][0])
        run = [p for p in patterns[:max(1, _SUPPORT_ENUM_PAIRS // rows.size)]
               if len(p[0]) == k]
        patterns = patterns[len(run):]
        orders = [np.array([[*s, *(a for a in range(c) if a not in s)] for s in supps])
                  for c, supps in zip(counts, zip(*run))]
        system = StackedSystem(np.concatenate([V[:, :, o1][..., o2] for o1, o2 in zip(*orders)]),
                               (range(k), range(k)))
        X, status, _, _ = _solve(system, None)
        probs = [np.zeros((len(X), c)) for c in counts]
        for v, o, block in zip(probs, orders, system.split(np.clip(X, 0.0, 1.0))):
            v[np.arange(len(X))[:, None], np.repeat(o[:, :k], len(rows), axis=0)] = block
        rows = settle("support_enum", rows, *_first_settling(V, probs, status == _OK, ceiling))
    if rows.size and counts == (2, 2):
        rows = settle("semi_mixed", rows, *_semi_mixed_batch(U[rows], ceiling))

    reasons = [""] * B
    for r in rows.tolist():
        status = STATUSES[first.status[r]]
        reason = _FIRST_STAGE_REASONS.get(status, f"support solve failed: {status}")
        reasons[r] = f"{reason}; no pure equilibrium under ceiling"
    return BatchPunishment(tuple(kinds.tolist()), tuple(reasons), tuple(profiles),
                           best, expected, pure_best)


@dataclass(frozen=True)
class ProbeFailure:
    sample: int
    perturbed_game: Game
    reason: str


@dataclass(frozen=True)
class PunishabilityReport:
    """Evidence from sampling the perturbation ball; falsification only."""

    epsilon: float
    delta: float
    samples: int
    rng_seed: int
    failures: tuple[ProbeFailure, ...]
    worst_excess: float
    base_hash: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "samples": self.samples,
            "rng_seed": self.rng_seed,
            "worst_excess": self.worst_excess if np.isfinite(self.worst_excess) else None,
            "failures": [
                {"sample": f.sample, "reason": f.reason,
                 "perturbed_game": game_to_dict(f.perturbed_game)}
                for f in self.failures
            ],
            "base_game_hash": self.base_hash,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def probe_strong_punishability(game: Game, profile: MixedProfile,
                               epsilon: float, delta: float, samples: int,
                               rng_seed: int, *,
                               perturbations: Sequence[np.ndarray] | None = None,
                               allow_degenerate: bool = False) -> PunishabilityReport:
    """Sample perturbed games within distance delta and hunt for punishment
    equilibria with the baseline support and ceiling u(profile) + epsilon.

    With `perturbations` given, those exact utility shifts are probed
    instead of uniform draws (the adversarial negative control).  The
    quantifier in the underlying definition ranges over all perturbations;
    sampling can only falsify, never certify.  ValueError when `epsilon`
    is not finite or `delta` not finite and non-negative.
    """
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and non-negative, got {delta}")
    if not allow_degenerate:
        _require_non_degenerate(game, profile)
    base_u = np.array([expected_utility(game, profile, i)
                       for i in range(game.num_players)])
    ceiling = base_u + epsilon
    support = profile.supports()

    if perturbations is not None:
        deltas = [np.asarray(p, dtype=np.float64) for p in perturbations]
        if any(d.shape != game.utilities.shape for d in deltas):
            raise ValueError("perturbation tensors must match the utility tensor shape")
        deltas = np.array(deltas).reshape(len(deltas), *game.utilities.shape)
    else:
        if samples < 0:
            raise ValueError(f"samples must be non-negative, got {samples}")
        rng = np.random.default_rng(rng_seed)
        deltas = rng.uniform(-delta, delta, size=(samples, *game.utilities.shape))

    stack = game.utilities + deltas
    found = punish_batch(stack, support, profile, ceiling)
    failures = [ProbeFailure(idx, game.with_utilities(stack[idx]), found.reasons[idx])
                for idx, kind in enumerate(found.kinds) if kind == "none"]
    settled = np.array([kind != "none" for kind in found.kinds], dtype=bool)
    excess = np.max(found.payoffs[settled] - base_u, axis=1)
    worst = float(excess.max()) if excess.size else -np.inf
    return PunishabilityReport(epsilon, delta, len(stack), rng_seed,
                               tuple(failures), worst, content_hash(game))
