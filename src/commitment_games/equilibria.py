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
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate, combinations, product
from typing import Sequence

import numpy as np

from .games import (
    DEFAULT_TOL,
    Game,
    GameShapeError,
    MixedProfile,
    content_hash,
    deviation_payoffs,
    expected_utility,
    game_to_dict,
)

NEWTON_MAX_ITER = 200
NEWTON_TOL = 1e-12
DET_TOL = 1e-8


class SupportError(ValueError):
    """Empty or out-of-range support lists."""


class NotNashError(ValueError):
    """An operation required a Nash equilibrium input."""


class DegenerateEquilibriumError(ValueError):
    """An operation required a non-degenerate equilibrium input."""


def worker_count() -> int:
    """COMMITMENT_GAMES_THREADS as a positive count (default 1).

    No library operation runs in parallel any more; the benchmark still
    records this value in its run info.
    """
    try:
        return max(1, int(os.environ.get("COMMITMENT_GAMES_THREADS", "1")))
    except ValueError:
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
    worst = NashCheck(True)
    for i in range(game.num_players):
        payoffs = deviation_payoffs(game, profile, i)
        current = float(payoffs @ profile.probs[i])
        a = int(np.argmax(payoffs))
        gain = float(payoffs[a]) - current
        if gain > tol and gain > worst.gain:
            worst = NashCheck(False, i, a, gain)
    return worst


def enumerate_pure_nash(game: Game, tol: float = DEFAULT_TOL) -> list[tuple[int, ...]]:
    """All pure Nash profiles, lexicographically sorted (exhaustive scan)."""
    out = []
    u = game.utilities
    for prof in game.pure_profiles():
        ok = True
        for i in range(game.num_players):
            idx = (i, *prof[:i], slice(None), *prof[i + 1:])
            if float(u[(i, *prof)]) + tol < float(u[idx].max()):
                ok = False
                break
        if ok:
            out.append(tuple(int(a) for a in prof))
    return out


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


def _difference_tensor(game: Game, supports: Sequence[Sequence[int]],
                       player: int, ref: int, other: int) -> np.ndarray:
    """Tensor of u_i(ref, b) - u_i(other, b) over listed support profiles b."""
    u = game.utilities[player]
    diff = np.take(u, ref, axis=player) - np.take(u, other, axis=player)
    sel = [list(supports[j]) for j in range(game.num_players) if j != player]
    return diff[np.ix_(*sel)]


def _contract(coeffs: np.ndarray, probs: Sequence[np.ndarray], skip: int) -> float:
    t = coeffs
    order = [j for j in range(len(probs)) if j != skip]
    for j in reversed(range(len(order))):
        t = t @ probs[order[j]]
    return float(t)


def _contract_grad(coeffs: np.ndarray, probs: Sequence[np.ndarray],
                   skip: int, wrt: int) -> np.ndarray:
    """Gradient of the contraction with respect to player `wrt`'s block."""
    order = [j for j in range(len(probs)) if j != skip]
    axis = order.index(wrt)
    t = np.moveaxis(coeffs, axis, 0)
    rest = [order[j] for j in range(len(order)) if j != axis]
    for j in reversed(range(len(rest))):
        t = t @ probs[rest[j]]
    return t


@dataclass(frozen=True)
class CharacteristicSystem:
    """Characteristic and residual system for one support choice."""

    game: Game
    supports: tuple[tuple[int, ...], ...]
    components: tuple[Component, ...]
    residual_rows: tuple[Component, ...]

    @property
    def num_vars(self) -> int:
        return sum(len(s) for s in self.supports)

    @property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for s in self.supports:
            out.append(acc)
            acc += len(s)
        return tuple(out)

    @property
    def rhs(self) -> np.ndarray:
        return np.array([1.0 if c.kind == "norm" else 0.0 for c in self.components])

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        out, acc = [], 0
        for s in self.supports:
            out.append(x[acc:acc + len(s)])
            acc += len(s)
        return out

    def profile_vector(self, profile: MixedProfile) -> np.ndarray:
        return np.concatenate([profile.probs[i][list(s)]
                               for i, s in enumerate(self.supports)])

    def profile_from_vector(self, x: np.ndarray) -> MixedProfile:
        vecs = []
        for i, (s, block) in enumerate(zip(self.supports, self.split(x))):
            v = np.zeros(self.game.action_counts[i])
            v[list(s)] = block
            vecs.append(v)
        return MixedProfile(vecs, tol=1e-6)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        probs = self.split(x)
        vals = []
        for c in self.components:
            if c.kind == "norm":
                vals.append(float(probs[c.player].sum()))
            else:
                vals.append(_contract(c.coeffs, probs, c.player))
        return np.array(vals)

    def residuals(self, x: np.ndarray) -> np.ndarray:
        probs = self.split(x)
        return np.array([_contract(c.coeffs, probs, c.player)
                         for c in self.residual_rows])

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        probs = self.split(x)
        offs = self.offsets
        J = np.zeros((len(self.components), self.num_vars))
        for r, c in enumerate(self.components):
            if c.kind == "norm":
                i = c.player
                J[r, offs[i]:offs[i] + len(self.supports[i])] = 1.0
            else:
                for j in range(len(self.supports)):
                    if j == c.player:
                        continue
                    g = _contract_grad(c.coeffs, probs, c.player, j)
                    J[r, offs[j]:offs[j] + len(self.supports[j])] = g
        return J

    # Two-player block structure: X1 stacks a ones row over player 1's
    # indifference coefficient rows (columns indexed by player 2's listed
    # support); X2 likewise for player 2 over player 1's support.
    def block_matrix(self, player: int) -> np.ndarray:
        if self.game.num_players != 2:
            raise SupportError("block matrices are defined for two players")
        other = 1 - player
        rows = [np.ones(len(self.supports[other]))]
        for c in self.components:
            if c.kind == "indiff" and c.player == player:
                rows.append(c.coeffs)
        return np.vstack(rows)

    @property
    def x1(self) -> np.ndarray:
        return self.block_matrix(0)

    @property
    def x2(self) -> np.ndarray:
        return self.block_matrix(1)

    def linear_system(self) -> tuple[np.ndarray, np.ndarray]:
        """Two-player system with rows [norm_1; other-player indifference;
        norm_2; first-player indifference] over variables (p_1, p_2)."""
        if self.game.num_players != 2:
            raise SupportError("linear_system is defined for two players")
        m1, m2 = len(self.supports[0]), len(self.supports[1])
        x1, x2 = self.x1, self.x2
        A = np.zeros((m1 + m2, m1 + m2))
        A[:x2.shape[0], :m1] = x2
        A[x2.shape[0]:, m1:] = x1
        b = np.zeros(m1 + m2)
        b[0] = 1.0
        b[x2.shape[0]] = 1.0
        return A, b


def build_characteristic_system(game: Game,
                                supports: Sequence[Sequence[int]]) -> CharacteristicSystem:
    """Build the system for ordered support lists.

    The first listed action of each player is the reference action for
    that player's indifference and residual rows.
    """
    supp = _checked_supports(game.action_counts, supports)

    def row(i, a):
        return Component("indiff", i, a, _difference_tensor(game, supp, i, supp[i][0], a))

    components = [Component("norm", i) for i in range(game.num_players)]
    components += [row(i, a) for i, a in _indifference_pairs(supp)]
    residual_rows = [row(i, a) for i, a in _residual_pairs(game.action_counts, supp)]
    return CharacteristicSystem(game, supp, tuple(components), tuple(residual_rows))


def _checked_supports(action_counts: Sequence[int],
                      supports: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    if len(supports) != len(action_counts):
        raise SupportError("one support list per player required")
    supp = []
    for i, s in enumerate(supports):
        s = tuple(int(a) for a in s)
        if not s:
            raise SupportError(f"player {i}: empty support")
        if len(set(s)) != len(s) or any(not 0 <= a < action_counts[i] for a in s):
            raise SupportError(f"player {i}: bad support {s}")
        supp.append(s)
    return tuple(supp)


def _indifference_pairs(supports) -> list[tuple[int, int]]:
    """(player, action) of each indifference row, in system order."""
    return [(i, a) for i, s in enumerate(supports) for a in s[1:]]


def _residual_pairs(action_counts, supports) -> list[tuple[int, int]]:
    """(player, action) of each out-of-support residual row, in system order."""
    return [(i, a) for i, s in enumerate(supports)
            for a in range(action_counts[i]) if a not in s]


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
                     seed: MixedProfile | None = None, *,
                     tol: float = 1e-10,
                     residual_tol: float = DEFAULT_TOL) -> SupportSolve:
    """Find a profile solving the characteristic system on the support.

    Two players: direct linear solve.  Three or more: damped Newton from
    `seed` (required).  The result must have support probabilities in
    (0, 1], satisfy the system to `tol`, and have residuals >= -residual_tol.
    """
    system = build_characteristic_system(game, supports)
    if game.num_players == 2:
        A, b = system.linear_system()
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            return SupportSolve(None, "degenerate")
        if not np.all(np.isfinite(x)):
            return SupportSolve(None, "degenerate")
    else:
        if seed is None:
            raise SupportError("a seed profile is required for three or more players")
        x = system.profile_vector(seed)
        rhs = system.rhs
        f = system.evaluate(x) - rhs
        converged = False
        for _ in range(NEWTON_MAX_ITER):
            norm = float(np.linalg.norm(f, ord=np.inf))
            if norm <= NEWTON_TOL:
                converged = True
                break
            try:
                step = np.linalg.solve(system.jacobian(x), -f)
            except np.linalg.LinAlgError:
                return SupportSolve(None, "degenerate", f_norm=norm)
            alpha = 1.0
            improved = False
            for _ in range(40):
                xn = x + alpha * step
                fn = system.evaluate(xn) - rhs
                if float(np.linalg.norm(fn, ord=np.inf)) < norm:
                    x, f = xn, fn
                    improved = True
                    break
                alpha *= 0.5
            if not improved:
                return SupportSolve(None, "no_converge", f_norm=norm)
        if not converged:
            norm = float(np.linalg.norm(f, ord=np.inf))
            if norm > NEWTON_TOL:
                return SupportSolve(None, "no_converge", f_norm=norm)

    f_norm = float(np.linalg.norm(system.evaluate(x) - system.rhs, ord=np.inf))
    if f_norm > tol:
        return SupportSolve(None, "no_converge", f_norm=f_norm)
    if np.any(x <= 1e-9) or np.any(x > 1 + 1e-9):
        return SupportSolve(None, "out_of_range", f_norm=f_norm)
    res = system.residuals(x)
    min_res = float(res.min()) if res.size else float("inf")
    if res.size and min_res < -residual_tol:
        return SupportSolve(None, "residual_negative", f_norm=f_norm, min_residual=min_res)
    return SupportSolve(system.profile_from_vector(np.clip(x, 0.0, 1.0)), "ok",
                        f_norm=f_norm, min_residual=min_res)


# ---------------------------------------------------------------------------
# Batched first stage.  The deviation grid solves many games that share a
# support choice; these helpers run the first stage of the punishment
# search on a stack of them.  Each operation mirrors the single-game
# expression on the same per-row memory layout (stacked LAPACK solves,
# and matmuls that reach the same gemv/dot kernels), so every row agrees
# bit for bit with `solve_on_support` + `is_nash` + the ceiling check.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchFirstStage:
    """Per-row outcome of `first_stage_batch`.

    `settled[b]` holds when row b's support solve is a Nash equilibrium
    under the ceiling, i.e. when the scalar search returns kind
    "support_solve".  `deviation_payoffs[i][b]` is player i's payoff per
    pure action against that equilibrium and `payoffs[b, i]` its expected
    payoff; both are meaningless on unsettled rows.
    """

    settled: np.ndarray
    deviation_payoffs: tuple[np.ndarray, ...]
    payoffs: np.ndarray


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
    """Stacked solve; when a row is singular, solve row by row.

    Returns (x, singular) with NaN rows where `singular` is set.
    """
    try:
        return np.linalg.solve(A, b[..., None])[..., 0], np.zeros(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        singular = np.zeros(len(A), dtype=bool)
        for r in range(len(A)):
            try:
                x[r] = np.linalg.solve(A[r], b[r])
            except np.linalg.LinAlgError:
                singular[r] = True
        return x, singular


def _inf_norm(f: np.ndarray) -> np.ndarray:
    return np.abs(f).max(axis=1)


def first_stage_batch(utilities: np.ndarray, supports: Sequence[Sequence[int]],
                      seed: MixedProfile | None,
                      ceiling: Sequence[float]) -> BatchFirstStage:
    """The first stage of `find_punishment_equilibrium` over a stack of games.

    `utilities` has shape (B, n, N_1..N_n).  Two players: one stacked
    linear solve.  Three or more: damped Newton from `seed` with stacked
    Jacobians, a per-row line search, and the iteration limits of
    `solve_on_support`.  Then, per row, the checks of `solve_on_support`
    (system to 1e-10, probabilities in (1e-9, 1+1e-9], residuals at least
    -DEFAULT_TOL), `is_nash` at 1e-8 and the payoff ceiling plus DEFAULT_TOL.
    """
    U = np.ascontiguousarray(utilities, dtype=np.float64)
    B, n, counts = U.shape[0], U.shape[1], U.shape[2:]
    supp = _checked_supports(counts, supports)
    if n > 2 and seed is None:
        raise SupportError("a seed profile is required for three or more players")
    sizes = [len(s) for s in supp]
    offs = [0, *accumulate(sizes)]
    others = [[j for j in range(n) if j != i] for i in range(n)]

    def coeffs(i, a):  # _difference_tensor over the stack
        diff = (np.take(U[:, i], supp[i][0], axis=i + 1)
                - np.take(U[:, i], a, axis=i + 1))
        sel = np.ix_(*[supp[j] for j in others[i]])
        return np.ascontiguousarray(diff[(slice(None), *sel)])

    indiff = [(i, coeffs(i, a)) for i, a in _indifference_pairs(supp)]
    residual = [(i, coeffs(i, a)) for i, a in _residual_pairs(counts, supp)]
    rhs = np.array([1.0] * n + [0.0] * len(indiff))

    def split(X):
        return [X[:, offs[i]:offs[i + 1]] for i in range(n)]

    # `rows` picks the games that X holds, for the Newton active set.
    def evaluate(X, rows=slice(None)):
        probs = split(X)
        cols = [p.sum(axis=1) for p in probs]
        cols += [_bcontract(c[rows], probs, others[i]) for i, c in indiff]
        return np.stack(cols, axis=1) - rhs

    def jacobian(X, rows):
        probs = split(X)
        J = np.zeros((len(X), offs[-1], offs[-1]))
        for i in range(n):
            J[:, i, offs[i]:offs[i + 1]] = 1.0
        for r, (i, c) in enumerate(indiff, start=n):
            for axis, j in enumerate(others[i]):
                rest = [k for k in others[i] if k != j]
                g = _bcontract(np.moveaxis(c[rows], axis + 1, 1), probs, rest)
                J[:, r, offs[j]:offs[j + 1]] = g
        return J

    if n == 2:
        m1, m2 = sizes
        A = np.zeros((B, m1 + m2, m1 + m2))
        A[:, 0, :m1] = 1.0
        A[:, m2, m1:] = 1.0
        # The rows of CharacteristicSystem.linear_system: player 2's block
        # over p_1 on top, player 1's block over p_2 below.
        for r, (i, c) in enumerate(indiff):
            if i == 0:
                A[:, m2 + 1 + r, m1:] = c
            else:
                A[:, 2 - m1 + r, :m1] = c
        b = np.zeros(m1 + m2)
        b[0] = b[m2] = 1.0
        X, failed = _bsolve(A, np.broadcast_to(b, (B, m1 + m2)))
        failed |= ~np.all(np.isfinite(X), axis=1)
    else:
        X = np.tile(np.concatenate([seed.probs[i][list(s)] for i, s in enumerate(supp)]),
                    (B, 1))
        F = evaluate(X)
        failed = np.zeros(B, dtype=bool)
        active = np.ones(B, dtype=bool)
        for _ in range(NEWTON_MAX_ITER):
            norm = _inf_norm(F)
            active &= ~(norm <= NEWTON_TOL)
            rows = np.flatnonzero(active)
            if not rows.size:
                break
            step, singular = _bsolve(jacobian(X[rows], rows), -F[rows])
            failed[rows[singular]] = True
            rows, step = rows[~singular], step[~singular]
            alpha = 1.0
            for _ in range(40):
                xn = X[rows] + alpha * step
                fn = evaluate(xn, rows)
                better = _inf_norm(fn) < norm[rows]
                X[rows[better]], F[rows[better]] = xn[better], fn[better]
                rows, step = rows[~better], step[~better]
                if not rows.size:
                    break
                alpha *= 0.5
            failed[rows] = True
            active &= ~failed
        failed |= active & (_inf_norm(F) > NEWTON_TOL)
    X[failed] = 0.5  # keeps the checks below free of NaN; the rows stay failed

    probs = split(X)
    ok = ~failed & ~(_inf_norm(evaluate(X)) > 1e-10)
    ok &= ~np.any((X <= 1e-9) | (X > 1 + 1e-9), axis=1)
    if residual:
        res = np.stack([_bcontract(c, probs, others[i]) for i, c in residual], axis=1)
        ok &= ~(res.min(axis=1) < -DEFAULT_TOL)

    clipped = split(np.clip(X, 0.0, 1.0))
    full = []
    for i in range(n):
        v = np.zeros((B, counts[i]))
        v[:, list(supp[i])] = clipped[i]
        full.append(v)
    ceiling = np.asarray(ceiling, dtype=np.float64) + DEFAULT_TOL
    deviation, expected = [], []
    for i in range(n):
        pay = _bcontract(np.moveaxis(U[:, i], i + 1, 1), full, others[i])
        current = _bmatvec(pay, full[i])
        gain = pay[np.arange(B), np.argmax(pay, axis=1)] - current
        ok &= ~(gain > 1e-8)
        expected.append(_bcontract(U[:, i], full, range(n)))
        ok &= expected[i] <= ceiling[i]
        deviation.append(pay)
    return BatchFirstStage(ok, tuple(deviation), np.stack(expected, axis=1))


@dataclass(frozen=True)
class NonDegeneracyReport:
    ok: bool
    det: float
    det_threshold: float
    min_residual: float

    def __bool__(self) -> bool:
        return self.ok


def is_non_degenerate(game: Game, profile: MixedProfile, *,
                      det_tol: float = DET_TOL,
                      nash_tol: float = 1e-8) -> NonDegeneracyReport:
    """Nonsingular Jacobian at the profile and strictly positive residuals.

    Raises NotNashError when the profile is not a Nash equilibrium.
    """
    check = is_nash(game, profile, nash_tol)
    if not check.ok:
        raise NotNashError(
            f"profile is not Nash: player {check.player} gains {check.gain:.3g} "
            f"by action {check.action}")
    system = build_characteristic_system(game, profile.supports())
    x = system.profile_vector(profile)
    J = system.jacobian(x)
    det = float(np.linalg.det(J))
    scale = float(np.max(np.abs(J)))
    threshold = det_tol * (scale ** J.shape[0] if scale > 0 else 1.0)
    res = system.residuals(x)
    min_res = float(res.min()) if res.size else float("inf")
    return NonDegeneracyReport(abs(det) > threshold and min_res > 0.0,
                               det, threshold, min_res)


@dataclass(frozen=True)
class PunishmentResult:
    profile: MixedProfile | None
    kind: str  # "support_solve" | "seed" | "pure" | "support_enum" | "semi_mixed" | "none"
    reason: str = ""

    def __bool__(self) -> bool:
        return self.profile is not None


# Support patterns per player for the two-player enumeration fallback,
# ascending size then lexicographic; capped at desk scale.
_SUPPORT_ENUM_MAX_ACTIONS = 4


@cache
def _support_patterns(action_counts: tuple[int, ...]) -> tuple:
    """Support pairs (s1, s2) in enumeration order, or none beyond desk
    scale."""
    if len(action_counts) != 2 or max(action_counts) > _SUPPORT_ENUM_MAX_ACTIONS:
        return ()
    opts = [[s for size in range(1, c + 1) for s in combinations(range(c), size)]
            for c in action_counts]
    return tuple(product(*opts))


def _support_enumeration(game: Game, accept) -> MixedProfile | None:
    for pattern in _support_patterns(game.action_counts):
        res = solve_on_support(game, pattern)
        if res.profile is None:
            continue
        if not is_nash(game, res.profile, 1e-8).ok:
            continue
        if accept(res.profile):
            return res.profile
    return None


def _boundary_semi_mixed(game: Game, accept, tol: float) -> MixedProfile | None:
    """2x2 continuum equilibria: one player pure, the other indifferent.

    The gap-closing protocols drive preference gaps to exact zeros, where
    the support-constrained systems go singular; the equilibria form a
    segment and any feasible point on it punishes.
    """
    if game.num_players != 2 or game.action_counts != (2, 2):
        return None
    u = game.utilities
    for pure_player in (0, 1):
        mixer = 1 - pure_player
        for b in (0, 1):
            def at(pp_action, mix_action):
                prof = [0, 0]
                prof[pure_player] = pp_action
                prof[mixer] = mix_action
                return tuple(prof)

            if abs(u[(mixer, *at(b, 0))] - u[(mixer, *at(b, 1))]) > tol:
                continue  # the mixer is not indifferent against b
            # b must be a weak best response to the mix q over the mixer's
            # first action: g(q) = alpha*q + beta*(1-q) >= -tol
            alpha = u[(pure_player, *at(b, 0))] - u[(pure_player, *at(1 - b, 0))]
            beta = u[(pure_player, *at(b, 1))] - u[(pure_player, *at(1 - b, 1))]
            candidates = [0.0, 1.0]
            if abs(alpha - beta) > 1e-15:
                root = -beta / (alpha - beta)
                if 0.0 < root < 1.0:
                    candidates.append(root)
            for q in sorted(candidates):
                if alpha * q + beta * (1.0 - q) < -tol:
                    continue
                vecs = [None, None]
                pure_vec = np.zeros(2)
                pure_vec[b] = 1.0
                vecs[pure_player] = pure_vec
                vecs[mixer] = np.array([q, 1.0 - q])
                profile = MixedProfile(vecs)
                if is_nash(game, profile, 1e-8).ok and accept(profile):
                    return profile
    return None


def find_punishment_equilibrium(game: Game, reference_support: Sequence[Sequence[int]],
                                seed: MixedProfile | None,
                                ceiling: Sequence[float], *,
                                tol: float = DEFAULT_TOL) -> PunishmentResult:
    """Same-support equilibrium whose payoffs stay under the ceiling.

    Tries the support-constrained solve first; if the solve fails or
    overshoots the ceiling, falls back to the seed itself (when it is
    still an equilibrium) and then to pure equilibria in lexicographic
    order.  Returns a result with profile None when nothing qualifies.
    """
    ceiling = np.asarray(ceiling, dtype=np.float64)

    def under_ceiling(profile: MixedProfile) -> bool:
        u = np.array([expected_utility(game, profile, i)
                      for i in range(game.num_players)])
        return bool(np.all(u <= ceiling + tol))

    reasons = []
    solve = solve_on_support(game, reference_support, seed)
    if solve.profile is not None:
        if is_nash(game, solve.profile, 1e-8).ok:
            if under_ceiling(solve.profile):
                return PunishmentResult(solve.profile, "support_solve")
            reasons.append("support solve exceeds ceiling")
        else:
            reasons.append("support solve is not Nash (residuals violated)")
    else:
        reasons.append(f"support solve failed: {solve.status}")

    if seed is not None and is_nash(game, seed, 1e-8).ok and under_ceiling(seed):
        return PunishmentResult(seed, "seed")

    for prof in enumerate_pure_nash(game):
        pure = MixedProfile.pure(game.action_counts, prof)
        if under_ceiling(pure):
            return PunishmentResult(pure, "pure")
    reasons.append("no pure equilibrium under ceiling")

    enum = _support_enumeration(game, under_ceiling)
    if enum is not None:
        return PunishmentResult(enum, "support_enum")
    boundary = _boundary_semi_mixed(game, under_ceiling, tol)
    if boundary is not None:
        return PunishmentResult(boundary, "semi_mixed")
    return PunishmentResult(None, "none", "; ".join(reasons))


@dataclass(frozen=True)
class BatchPunishment:
    """Per-row outcome of `punish_batch`.

    `kinds[b]` is the kind `find_punishment_equilibrium` returns for row b.
    `best_response[b, i]` is player i's best-response payoff against that
    punishment and `payoffs[b, i]` its expected payoff; both are NaN on
    rows of kind "none".
    """

    kinds: tuple[str, ...]
    best_response: np.ndarray
    payoffs: np.ndarray


def punish_batch(utilities: np.ndarray, supports: Sequence[Sequence[int]],
                 seed: MixedProfile | None,
                 ceiling: Sequence[float]) -> BatchPunishment:
    """`find_punishment_equilibrium` over a stack of games, row for row.

    `utilities` has shape (B, n, N_1..N_n).  The first stage runs on the
    whole stack, the seed and pure-equilibrium checks on each row it leaves
    open.  Support enumeration then runs one `first_stage_batch` per
    support pattern on the rows still open, in the scalar order, so each
    row is settled by the pattern the scalar search would accept.  Only
    2x2 rows left over try the boundary equilibria.  Raises GameShapeError
    when an entry is not finite, as building the games would.
    """
    U = np.asarray(utilities, dtype=np.float64)
    if not np.all(np.isfinite(U)):
        raise GameShapeError("utilities must be finite")
    n, counts = U.shape[1], U.shape[2:]
    ceiling = np.asarray(ceiling, dtype=np.float64)

    first = first_stage_batch(U, supports, seed, ceiling)
    kinds = ["support_solve"] * len(U)
    best = np.stack([p.max(axis=1) for p in first.deviation_payoffs], axis=1)
    expected = first.payoffs.copy()
    rows = np.flatnonzero(~first.settled)
    best[rows] = expected[rows] = np.nan

    def accept(r, game, profile):
        """The scalar search's ceiling test; records the payoffs it passes."""
        u = np.array([expected_utility(game, profile, i) for i in range(n)])
        if not np.all(u <= ceiling + DEFAULT_TOL):
            return False
        best[r] = [np.max(deviation_payoffs(game, profile, i)) for i in range(n)]
        expected[r] = u
        return True

    games, still_open = {}, []
    for r in rows.tolist():
        game = games[r] = Game(U[r])
        if seed is not None and is_nash(game, seed, 1e-8).ok and accept(r, game, seed):
            kinds[r] = "seed"
        elif any(accept(r, game, MixedProfile.pure(counts, prof))
                 for prof in enumerate_pure_nash(game)):
            kinds[r] = "pure"
        else:
            kinds[r] = "none"
            still_open.append(r)

    rows = np.array(still_open, dtype=int)
    for pattern in _support_patterns(counts):
        if not rows.size:
            break
        if len(pattern[0]) != len(pattern[1]):
            # One block of the linear system has more rows than columns, and
            # its structural zeros stay exact under elimination: the scalar
            # solve meets a zero pivot on every game and accepts none.
            continue
        stage = first_stage_batch(U[rows], pattern, None, ceiling)
        hit = rows[stage.settled]
        for r in hit.tolist():
            kinds[r] = "support_enum"
        best[hit] = np.stack([p[stage.settled].max(axis=1)
                              for p in stage.deviation_payoffs], axis=1)
        expected[hit] = stage.payoffs[stage.settled]
        rows = rows[~stage.settled]
    for r in rows.tolist():
        if _boundary_semi_mixed(games[r], partial(accept, r, games[r]),
                                DEFAULT_TOL) is not None:
            kinds[r] = "semi_mixed"
    return BatchPunishment(tuple(kinds), best, expected)


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
    sampling can only falsify, never certify.
    """
    if not allow_degenerate:
        report = is_non_degenerate(game, profile)
        if not report.ok:
            raise DegenerateEquilibriumError(
                f"baseline profile is degenerate (det={report.det:.3g}, "
                f"min residual={report.min_residual:.3g})")
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
    failures = []
    for idx, kind in enumerate(found.kinds):
        if kind == "none":
            # The scalar search states why nothing qualified.
            pert = game.with_utilities(stack[idx])
            reason = find_punishment_equilibrium(pert, support, profile, ceiling).reason
            failures.append(ProbeFailure(idx, pert, reason))
    settled = np.array([kind != "none" for kind in found.kinds], dtype=bool)
    excess = np.max(found.payoffs[settled] - base_u, axis=1)
    worst = float(excess.max()) if excess.size else -np.inf
    return PunishabilityReport(epsilon, delta, len(stack), rng_seed,
                               tuple(failures), worst, content_hash(game))
