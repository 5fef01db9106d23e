"""Scalar reference for the equilibrium kernel and the deviation grid.

These are the one-game implementations that `commitment_games.equilibria`
carried before its checks became stacks: the best-response check, the
pure-equilibrium scan, the characteristic system with its contractions,
the support-constrained solve (linear for two players, damped Newton for
more), the non-degeneracy check and the punishment search with its
fallback chain.  They share no code with the stacked kernel, only the
result types, so the differential tests compare the kernel against an
independent computation of the same quantities.  The deviation grid is
here as the verifier built it before it was compiled into edit arrays:
`Pledge` lists per move, and their (flat cell, signed amount) edits.  So
is the fold before rounds were compiled: `apply_transfers` one pledge at a
time after `round_violation`, a `Game` per prefix, and `content_hash`
through a JSON dict.  `stage_groups` is the verifier's chunking before it
counted rows as arrays: one `rows(k)` call per prefix.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from typing import Sequence

import numpy as np

from commitment_games.equilibria import (
    DET_TOL,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    Component,
    NashCheck,
    NonDegeneracyReport,
    NotNashError,
    PunishmentResult,
    SupportError,
    SupportSolve,
)
from commitment_games.engine import BURN, Pledge
from commitment_games.games import (
    DEFAULT_TOL,
    Game,
    MixedProfile,
    TransferError,
    deviation_payoffs,
    expected_utility,
    round_violation,
)
from commitment_games.protocols import FoldError


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
            if float(u[(i, *prof)]) - float(u[idx].max()) < -tol:
                ok = False
                break
        if ok:
            out.append(tuple(int(a) for a in prof))
    return out

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


def is_non_degenerate(game: Game, profile: MixedProfile, *,
                      det_tol: float = DET_TOL,
                      nash_tol: float = 1e-8) -> NonDegeneracyReport:
    """Nonsingular Jacobian at the profile and strictly positive residuals.

    Raises NotNashError when the profile is not a Nash equilibrium.
    """
    check = is_nash(game, profile, nash_tol)
    if not check.ok:
        raise NotNashError(
            f"profile is not Nash: player {check.player + 1} gains {check.gain:.3g} "
            f"by action {check.action + 1}")
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


ADVERSARIAL_COMBO_OUTCOME_LIMIT = 20


def commitment_deviation_moves(game: Game, player: int, delta: float, mode: str,
                               amounts: Sequence[float]) -> list[tuple[str, list[Pledge]]]:
    """Finite grid of single-round deviations for one player: the empty
    round, per outcome and amount a burn there (P), burns at the player's
    other actions (M) and, in transfers mode, a transfer per recipient (T),
    then (for small games) pay-here/burn-there combinations (A)."""
    n = game.num_players
    outcomes = [tuple(int(a) for a in p) for p in game.pure_profiles()]
    moves: list[tuple[str, list[Pledge]]] = [("noop", [])]
    for o in outcomes:
        for x in amounts:
            moves.append((f"P{o}x{x:g}", [Pledge(player, o, BURN, x)]))
            m_pledges = [Pledge(player, tuple(a if j != player else b
                                              for j, a in enumerate(o)), BURN, x)
                         for b in range(game.action_counts[player])
                         if b != o[player]]
            moves.append((f"M{o}x{x:g}", m_pledges))
            if mode == "transfers":
                for r in range(n):
                    if r != player:
                        moves.append((f"T{o}->{r + 1}x{x:g}",
                                      [Pledge(player, o, r, x)]))
    if mode == "transfers" and len(outcomes) <= ADVERSARIAL_COMBO_OUTCOME_LIMIT:
        for r in range(n):
            if r == player:
                continue
            for pay in outcomes:
                for burn in outcomes:
                    if burn == pay:
                        continue
                    moves.append((f"A pay{pay}->{r + 1} burn{burn}",
                                  [Pledge(player, pay, r, delta),
                                   Pledge(player, burn, BURN, delta)]))
    return moves


def edit_lists(game: Game, pledge_lists) -> list[tuple[tuple[int, float], ...]]:
    """Each pledge list as (flat cell, signed amount) updates of a flattened
    utility tensor, in the order `apply_transfers` makes them: per pledge
    the payer's debit, then the recipient's credit."""
    shape = game.utilities.shape
    block, *strides = [int(np.prod(shape[j + 1:])) for j in range(len(shape))]
    lists = []
    for pledges in pledge_lists:
        edits = []
        for p in pledges:
            at = sum(map(operator.mul, p.outcome, strides))
            edits.append((p.payer * block + at, -float(p.amount)))
            if p.recipient != BURN:
                edits.append((p.recipient * block + at, float(p.amount)))
        lists.append(tuple(edits))
    return lists


def apply_transfers(game: Game, round, *, delta: float | None = None,
                    mode: str | None = None) -> Game:
    """Fold one round of pledges into a new game, one pledge at a time:
    TransferError for the first rule of `round_violation` the round breaks."""
    pledges = list(getattr(round, "pledges", round))
    violation = round_violation(game, pledges, delta, mode)
    if violation is not None:
        raise violation
    u = np.array(game.utilities)
    for p in pledges:
        u[(p.payer, *p.outcome)] -= p.amount
        if p.recipient != BURN:
            u[(p.recipient, *p.outcome)] += p.amount
    return game.with_utilities(u)


def fold_rounds(game: Game, rounds, delta: float, mode: str) -> list[Game]:
    """Every prefix game of `rounds` folded into `game`, `game` first;
    FoldError names the first round (0-based) that breaks a round rule."""
    games = [game]
    for k, r in enumerate(rounds):
        try:
            games.append(apply_transfers(games[-1], r, delta=delta, mode=mode))
        except TransferError as exc:
            raise FoldError(k, exc) from exc
    return games


def content_hash(game: Game) -> str:
    """Deterministic content hash over structure and exact payoff bits."""
    payload = {
        "counts": list(game.action_counts),
        "payoffs": [x.hex() for x in game.utilities.ravel().tolist()],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def stage_groups(plan, ks: Sequence[int], budget: int, rows=None):
    """Runs of consecutive prefixes among `ks` under one punishment stage,
    with that stage; a run holds at most `budget` rows, `rows(k)` for
    prefix k (one by default), and always at least one prefix."""
    rows, group, size = rows or (lambda k: 1), [], 0
    for k in ks:
        s = [i for i, st in enumerate(plan.punishment) if st.first_round <= k][-1]
        r = rows(k)
        if group and (s != stage or size + r > budget):
            yield plan.punishment[stage], group
            group, size = [], 0
        stage = s
        group.append(k)
        size += r
    if group:
        yield plan.punishment[stage], group
