"""Shared instance factories for the test suite.

Random games are constructed so that a chosen mixture is exactly an
equilibrium: sample utilities, then shift whole own-action slices so each
player is indifferent across her support against the others' mixtures.
Slice shifts preserve the difference structure, so non-degeneracy is a
property of the draw and is filtered for.
"""

from __future__ import annotations

import math
import os
import zlib
from pathlib import Path

import numpy as np
import pytest

from commitment_games import (
    Game,
    MixedProfile,
    build_2x2_plan,
    build_plan,
    deviation_payoffs,
    expected_utility,
    is_nash,
    is_non_degenerate,
    solve_on_support,
    welfare_max,
)
from commitment_games.equilibria import _support_patterns

# The CLI tests run `python -m commitment_games.cli` in child processes,
# which import the package from src/ as this process does, and turn a
# RuntimeWarning into an error as pyproject's `filterwarnings` does here.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
os.environ["PYTHONWARNINGS"] = "error::RuntimeWarning"


def full_support_two_player(rng, actions=3, min_prob=0.08, span=2.0):
    """Random 2-player game with a full-support non-degenerate equilibrium."""
    while True:
        p1 = rng.dirichlet(np.ones(actions) * 3.0)
        p2 = rng.dirichlet(np.ones(actions) * 3.0)
        if min(p1.min(), p2.min()) < min_prob:
            continue
        u1 = rng.uniform(-span, span, (actions, actions))
        u2 = rng.uniform(-span, span, (actions, actions))
        v1 = u1 @ p2
        u1 = u1 - (v1 - v1[0])[:, None]
        v2 = p1 @ u2
        u2 = u2 - (v2 - v2[0])[None, :]
        game = Game([u1, u2])
        sigma = MixedProfile([p1, p2])
        if not is_nash(game, sigma, 1e-9).ok:
            continue
        if not is_non_degenerate(game, sigma).ok:
            continue
        return game, sigma


def full_support_multiplayer(rng, players=3, actions=2, min_prob=0.2, span=2.0):
    """Random n-player game with a full-support non-degenerate equilibrium."""
    while True:
        probs = [rng.dirichlet(np.ones(actions) * 4.0) for _ in range(players)]
        if min(p.min() for p in probs) < min_prob:
            continue
        u = rng.uniform(-span, span, (players, *[actions] * players))
        game0 = Game(u)
        sigma = MixedProfile(probs)
        u = np.array(u)
        for i in range(players):
            vals = deviation_payoffs(game0, sigma, i)
            for a in range(1, actions):
                idx = [slice(None)] * players
                idx[i] = a
                u[(i, *idx)] += vals[0] - vals[a]
        game = Game(u)
        if not is_nash(game, sigma, 1e-9).ok:
            continue
        try:
            if not is_non_degenerate(game, sigma).ok:
                continue
        except ValueError:
            continue
        return game, sigma


def feasible_payoff_split(rng, game, sigma, min_spare=0.3):
    """Random welfare split strictly improving every player, or None."""
    w, _ = welfare_max(game)
    base = [expected_utility(game, sigma, i) for i in range(game.num_players)]
    spare = w - sum(base)
    if spare < min_spare:
        return None
    weights = rng.dirichlet(np.ones(game.num_players))
    return [base[i] + float(weights[i]) * spare for i in range(game.num_players)]


def game_distance(g1, g2) -> float:
    """Sup-norm distance between same-structure games, +inf otherwise: the
    reference for the verifier's step-size check (P1')."""
    if g1.num_players != g2.num_players or g1.action_counts != g2.action_counts:
        return math.inf
    return float(np.max(np.abs(g1.utilities - g2.utilities)))


def random_game(rng, players, counts, span=3.0, integer=False):
    shape = (players, *counts)
    if integer:
        u = rng.integers(-3, 4, shape).astype(float)
    else:
        u = rng.uniform(-span, span, shape)
    return Game(u)


def mismatching_two_by_two(rng):
    """A 2x2 game whose players' preference gaps mismatch, its mixed
    equilibrium, and the gap-narrowing plan toward (0, 0) at a cap of 0.3x
    the smallest gap."""
    def player(base):
        g0, g1 = rng.uniform(0.6, 2.0, 2)
        h = rng.uniform(0.4, 1.5)
        return base, base - h, base + g0, base - h - g1

    r1, r2 = rng.uniform(1.0, 3.0, 2)
    u1, u2 = np.zeros((2, 2)), np.zeros((2, 2))
    u1[0, 0], u1[0, 1], u1[1, 0], u1[1, 1] = player(r1)
    u2[0, 0], u2[1, 0], u2[0, 1], u2[1, 1] = player(r2)
    game = Game([u1, u2])
    sigma = solve_on_support(game, [(0, 1), (0, 1)]).profile
    gaps = np.abs([u1[0, 0] - u1[1, 0], u1[0, 1] - u1[1, 1],
                   u2[0, 0] - u2[0, 1], u2[1, 0] - u2[1, 1]])
    return game, build_2x2_plan(game, sigma, (0, 0), 0.3 * float(gaps.min()))


def small_integer_plan(rng, counts):
    """A two-player game with payoffs in -3..3 and a plan from its first
    non-degenerate equilibrium (support enumeration order): for 2x2 and 3x3
    games a transfers plan to a welfare split half of the time, else a burn
    plan to the first pure target that works.  Ties in such games send many
    deviation games past the first stage of the punishment search; a 4x4
    transfers grid can leave a hundred of them with no punishment, each
    costing a scalar search 225 support solves."""
    while True:
        game = random_game(rng, 2, counts, integer=True)
        for pattern in _support_patterns(counts):
            sigma = solve_on_support(game, pattern).profile
            try:
                if sigma is None or not is_non_degenerate(game, sigma).ok:
                    continue
            except ValueError:
                continue
            delta = float(rng.choice([0.25, 0.5, 1.0]))
            split = feasible_payoff_split(rng, game, sigma)
            attempts = [{"target": t} for t in game.pure_profiles()]
            if split and max(counts) <= 3 and rng.random() < 0.5:
                attempts.insert(0, {"payoffs": split})
            for kwargs in attempts:
                try:
                    return game, build_plan(game, sigma, delta=delta, **kwargs)
                except ValueError:
                    continue
            break


@pytest.fixture()
def rng(request):
    # deterministic per test and independent of execution order
    return np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))
