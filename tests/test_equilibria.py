import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from commitment_games import (
    Game,
    MixedProfile,
    NotNashError,
    Pledge,
    apply_transfers,
    build_characteristic_system,
    enumerate_pure_nash,
    expected_utility,
    find_punishment_equilibrium,
    is_nash,
    is_non_degenerate,
    probe_strong_punishability,
    solve_on_support,
)
from commitment_games import equilibria
from commitment_games.equilibria import (
    DegenerateEquilibriumError,
    ProbeFailure,
    PunishabilityReport,
    SupportError,
    first_stage_batch,
    nash_batch,
    non_degenerate_batch,
    punish_batch,
)
from commitment_games.games import (
    DEFAULT_TOL,
    GameShapeError,
    content_hash,
    deviation_payoffs,
    save_game,
)
from commitment_games.catalog import (
    chicken,
    chicken_bribe_round,
    prisoners_dilemma,
    spoiler_3x3,
    three_player_cycle,
    two_mode_mixing,
    unfair_split,
)
from commitment_games.protocols import build_plan

import scalar_reference as reference
from conftest import full_support_multiplayer, full_support_two_player, random_game


def test_is_nash_examples():
    game = unfair_split()
    assert is_nash(game, MixedProfile.pure((2, 2), (0, 0))).ok

    post = apply_transfers(chicken(), chicken_bribe_round(), delta=20.0)
    assert is_nash(post, MixedProfile.pure((2, 2), (1, 0))).ok
    check = is_nash(post, MixedProfile.pure((2, 2), (0, 1)))
    assert not check.ok
    assert check.player == 0 and check.action == 1  # row gains by Straight
    assert check.gain == pytest.approx(9.0, abs=1e-12)

    mix = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    assert is_nash(two_mode_mixing(), mix).ok


def test_enumerate_pure_nash_examples():
    assert enumerate_pure_nash(prisoners_dilemma()) == [(1, 1)]
    constant = Game(np.zeros((2, 2, 2)))
    assert enumerate_pure_nash(constant) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert enumerate_pure_nash(chicken()) == [(0, 1), (1, 0)]


def test_enumerate_matches_per_profile_deviation_scan(rng):
    for _ in range(100):
        players = int(rng.integers(2, 4))
        counts = tuple(int(rng.integers(1, 5)) for _ in range(players))
        game = random_game(rng, players, counts, integer=bool(rng.integers(2)))
        got = enumerate_pure_nash(game)
        expect = []
        for prof in game.pure_profiles():
            prof = tuple(int(a) for a in prof)
            ok = True
            for i in range(players):
                for a in range(counts[i]):
                    alt = list(prof)
                    alt[i] = a
                    if game.payoff(i, tuple(alt)) > game.payoff(i, prof) + 1e-9:
                        ok = False
            if ok:
                expect.append(prof)
        assert got == expect


def test_characteristic_system_display_matrix():
    system = build_characteristic_system(two_mode_mixing(), [(0, 1), (0, 1)])
    A, b = system.linear_system()
    assert np.array_equal(A, np.array([[1, 1, 0, 0], [4, -4, 0, 0],
                                       [0, 0, 1, 1], [0, 0, 4, -4]], float))
    assert np.array_equal(b, np.array([1.0, 0.0, 1.0, 0.0]))
    assert np.array_equal(system.x1, np.array([[1.0, 1.0], [4.0, -4.0]]))
    assert np.array_equal(system.x2, np.array([[1.0, 1.0], [4.0, -4.0]]))


def test_characteristic_system_singleton_supports():
    system = build_characteristic_system(unfair_split(), [(0,), (0,)])
    assert all(c.kind == "norm" for c in system.components)
    assert len(system.components) == 2
    x = system.profile_vector(MixedProfile.pure((2, 2), (0, 0)))
    assert np.array_equal(system.jacobian(x), np.eye(2))


def test_characteristic_system_three_player_coefficients():
    # binary 3-player: the player-1 indifference row's coefficients are the
    # payoff differences in lexicographic order over the others' profiles
    rng = np.random.default_rng(2)
    u = rng.uniform(-1, 1, (3, 2, 2, 2))
    game = Game(u)
    system = build_characteristic_system(game, [(0, 1)] * 3)
    comp = system.components[3]  # first indifference row of player 1
    assert comp.kind == "indiff" and comp.player == 0
    expect = [[u[0, 0, b2, b3] - u[0, 1, b2, b3] for b3 in range(2)]
              for b2 in range(2)]
    assert np.allclose(comp.coeffs, expect, atol=0)


def test_solve_examples():
    solve = solve_on_support(two_mode_mixing(), [(0, 1), (0, 1)])
    assert solve.status == "ok"
    for i in range(2):
        assert abs(solve.profile.probs[i][0] - 0.5) <= 1e-12
        assert abs(solve.profile.probs[i][1] - 0.5) <= 1e-12

    pure = solve_on_support(unfair_split(), [(0,), (0,)])
    assert pure.profile == MixedProfile.pure((2, 2), (0, 0))

    pennies = Game([[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]])
    mix = solve_on_support(pennies, [(0, 1), (0, 1)])
    assert np.allclose(mix.profile.probs[0], [0.5, 0.5], atol=1e-12)
    assert np.allclose(mix.profile.probs[1], [0.5, 0.5], atol=1e-12)


def test_solve_agrees_with_closed_form_two_by_two(rng):
    # p(opponent target) = d(other) / (d(other) - d(target)) for sign-opposed gaps
    found = 0
    while found < 25:
        u = rng.uniform(-2, 2, (2, 2, 2))
        game = Game(u)
        d1 = (u[0, 0, 0] - u[0, 1, 0], u[0, 0, 1] - u[0, 1, 1])
        d2 = (u[1, 0, 0] - u[1, 0, 1], u[1, 1, 0] - u[1, 1, 1])
        if d1[0] * d1[1] >= 0 or d2[0] * d2[1] >= 0:
            continue
        found += 1
        solve = solve_on_support(game, [(0, 1), (0, 1)])
        assert solve.status == "ok"
        p2_expect = d1[1] / (d1[1] - d1[0])
        p1_expect = d2[1] / (d2[1] - d2[0])
        assert abs(solve.profile.probs[1][0] - p2_expect) <= 1e-10
        assert abs(solve.profile.probs[0][0] - p1_expect) <= 1e-10


def test_solve_reports_degenerate_and_out_of_range():
    dup = Game([[[1, 1], [1, 1]], [[0, 1], [1, 0]]])
    res = solve_on_support(dup, [(0, 1), (0, 1)])
    assert res.profile is None and res.status in ("degenerate", "out_of_range")

    dominant = Game([[[2, 2], [0, 0]], [[0, 1], [1, 0]]])
    res = solve_on_support(dominant, [(0, 1), (0, 1)])
    assert res.profile is None


def test_newton_solver_multiplayer(rng):
    game, sigma = full_support_multiplayer(rng)
    perturbed = game.with_utilities(
        game.utilities + rng.uniform(-0.01, 0.01, game.utilities.shape))
    res = solve_on_support(perturbed, sigma.supports(), sigma)
    assert res.status == "ok"
    assert is_nash(perturbed, res.profile, 1e-8).ok
    for i in range(3):
        assert np.max(np.abs(res.profile.probs[i] - sigma.probs[i])) < 0.2


def test_newton_requires_seed():
    game = Game(np.zeros((3, 2, 2, 2)))
    with pytest.raises(SupportError):
        solve_on_support(game, [(0, 1)] * 3, None)


def test_non_degeneracy_examples():
    game = two_mode_mixing()
    mix = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    report = is_non_degenerate(game, mix)
    assert report.ok and report.min_residual > 0

    # duplicated rows for player 1 -> singular Jacobian
    dup = Game([[[3, 0], [3, 0]], [[1, 2], [2, 1]]])
    sigma = MixedProfile([[0.5, 0.5], [0.5, 0.5]])
    assert is_nash(dup, sigma).ok
    assert not is_non_degenerate(dup, sigma).ok

    from commitment_games.catalog import cyclic_with_prize
    game4 = cyclic_with_prize()
    uniform = MixedProfile.uniform_over((4, 4), [(0, 1, 2), (0, 1, 2)])
    assert is_non_degenerate(game4, uniform).ok


def test_non_degeneracy_requires_nash_input():
    game = unfair_split()
    with pytest.raises(NotNashError):
        is_non_degenerate(game, MixedProfile.pure((2, 2), (1, 1)))


def test_non_degeneracy_invariant_under_out_of_support_relabeling():
    # pad the mixing game with a strictly worse fourth action for player 1,
    # then swap the two out-of-support actions; the verdict must not move
    u = np.array(two_mode_mixing().utilities)
    u4 = np.zeros((2, 4, 3))
    u4[:, :3, :] = u
    u4[:, 3, :] = u[:, 2, :] - 1.0
    game = Game(u4)
    mix = MixedProfile([[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0]])
    before = is_non_degenerate(game, mix)
    swapped = Game(u4[:, [0, 1, 3, 2], :])
    after = is_non_degenerate(swapped, mix)
    assert before.ok == after.ok
    assert abs(abs(before.det) - abs(after.det)) <= 1e-9


def test_jacobian_matches_finite_differences(rng):
    for _ in range(100):
        players = int(rng.integers(2, 5))
        counts = tuple(int(rng.integers(2, 4)) for _ in range(players))
        game = random_game(rng, players, counts)
        supports = []
        for c in counts:
            size = int(rng.integers(2, c + 1))
            supports.append(tuple(sorted(rng.choice(c, size, replace=False).tolist())))
        system = build_characteristic_system(game, supports)
        x = np.concatenate([rng.dirichlet(np.ones(len(s))) for s in supports])
        J = system.jacobian(x)
        h = 1e-6
        for col in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[col] += h
            xm[col] -= h
            fd = (system.evaluate(xp) - system.evaluate(xm)) / (2 * h)
            assert np.max(np.abs(J[:, col] - fd)) <= 1e-5


def test_two_player_determinant_factorizes(rng):
    for _ in range(25):
        game, sigma = full_support_two_player(rng)
        system = build_characteristic_system(game, sigma.supports())
        x = system.profile_vector(sigma)
        det_full = np.linalg.det(system.jacobian(x))
        det_blocks = np.linalg.det(system.x1) * np.linalg.det(system.x2)
        assert abs(abs(det_full) - abs(det_blocks)) <= 1e-8 * max(1, abs(det_blocks))


def test_find_punishment_on_perturbed_mixing_game(rng):
    game = two_mode_mixing()
    sigma = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    pert = game.with_utilities(game.utilities
                               + rng.uniform(-0.01, 0.01, game.utilities.shape))
    result = find_punishment_equilibrium(pert, [(0, 1), (0, 1)], sigma, (4.0, 4.0))
    assert result.profile is not None
    for i in range(2):
        assert abs(expected_utility(pert, result.profile, i) - 3.0) < 0.1


def test_find_punishment_unperturbed_with_exact_ceiling():
    game = two_mode_mixing()
    sigma = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    ceiling = [expected_utility(game, sigma, i) for i in range(2)]
    result = find_punishment_equilibrium(game, [(0, 1), (0, 1)], sigma, ceiling)
    assert result.profile is not None
    for i in range(2):
        for a in range(2):
            assert abs(result.profile.probs[i][a] - sigma.probs[i][a]) <= 1e-12


def test_find_punishment_pure_fallback():
    # Player 1 sits in the deviation pattern: prefers switching against the
    # first column, indifferent against the second; the same-support solve
    # leaves the simplex, and (1, 1) is the equilibrium under the ceiling.
    u1 = [[1, 0], [2, 0]]
    u2 = [[1, 0], [0, 0]]
    game = Game([u1, u2])
    seed = MixedProfile([[0.5, 0.5], [0.5, 0.5]])
    result = find_punishment_equilibrium(game, [(0, 1), (0, 1)], seed, (1.0, 1.0))
    assert result.kind == "pure"
    assert result.profile.pure_profile() == (1, 1)


def test_probe_clean_on_mixing_game():
    game = two_mode_mixing()
    sigma = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    report = probe_strong_punishability(game, sigma, 1.0, 0.05, 100, 7)
    assert report.ok
    assert report.worst_excess < 1.0
    doc = report.to_dict()
    assert doc["samples"] == 100 and doc["failures"] == []


def test_probe_zero_delta_trivially_clean():
    game = two_mode_mixing()
    sigma = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    report = probe_strong_punishability(game, sigma, 0.5, 0.0, 20, 1)
    assert report.ok and report.worst_excess <= 1e-9


def test_probe_rejects_negative_sample_count():
    game = two_mode_mixing()
    sigma = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    with pytest.raises(ValueError, match="non-negative"):
        probe_strong_punishability(game, sigma, 1.0, 0.05, -3, 1)


@pytest.mark.parametrize("epsilon, delta", [(math.nan, 0.05), (math.inf, 0.05),
                                            (1.0, math.nan), (1.0, math.inf), (1.0, -0.05)])
def test_probe_rejects_a_non_finite_epsilon_or_delta_and_a_negative_delta(epsilon, delta):
    # A NaN epsilon fails every sample, an infinite one passes every sample,
    # and an infinite delta overflows NumPy's uniform draw.
    game = two_mode_mixing()
    sigma = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    with pytest.raises(ValueError, match="must be finite"):
        probe_strong_punishability(game, sigma, epsilon, delta, 10, 1)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_nash_check_rejects_a_non_finite_tolerance(tol):
    # No gain is above a NaN or infinite tolerance, so (1, 1) of the
    # prisoner's dilemma, which is not Nash, would pass.
    game, profile = prisoners_dilemma(), MixedProfile.pure((2, 2), (0, 0))
    assert not is_nash(game, profile).ok
    with pytest.raises(ValueError, match=f"tol must be finite, got {tol}"):
        is_nash(game, profile, tol)
    with pytest.raises(ValueError, match=f"tol must be finite, got {tol}"):
        nash_batch(game.utilities[None], profile, tol)


def test_probe_rejects_degenerate_profile():
    game = spoiler_3x3()
    anchor = MixedProfile.pure((3, 3), (0, 0))
    with pytest.raises(DegenerateEquilibriumError):
        probe_strong_punishability(game, anchor, 1.0, 0.1, 10, 0)


def test_probe_adversarial_direction_fails_below_gap():
    # pay delta to the opponent on (A, B), burn delta on (A, A): the anchor
    # equilibrium evaporates and the surviving equilibrium pays 9 > 5 + eps.
    game = spoiler_3x3()
    anchor = MixedProfile.pure((3, 3), (0, 0))
    delta = 0.1
    shift = np.zeros(game.utilities.shape)
    shift[0, 0, 0] -= delta  # burn on (A, A)
    shift[1, 0, 1] += delta  # pay the opponent on (A, B)
    report = probe_strong_punishability(game, anchor, 3.9, delta, 1, 0,
                                        perturbations=[shift],
                                        allow_degenerate=True)
    assert not report.ok
    report_high = probe_strong_punishability(game, anchor, 4.1, delta, 1, 0,
                                             perturbations=[shift],
                                             allow_degenerate=True)
    assert report_high.ok


def test_solve_output_is_nash_when_residuals_positive(rng):
    # whenever the solve returns a profile, it passes the best-response
    # check at 1e-8 on games whose residuals come out strictly positive
    hits = 0
    while hits < 30:
        game = random_game(rng, 2, (3, 3))
        res = solve_on_support(game, [(0, 1), (0, 1)])
        if res.profile is None or res.min_residual <= 0:
            continue
        hits += 1
        assert is_nash(game, res.profile, 1e-8).ok


def test_probe_thread_cap_is_deterministic(monkeypatch):
    game = two_mode_mixing()
    sigma = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    base = probe_strong_punishability(game, sigma, 1.0, 0.05, 40, 3)
    monkeypatch.setenv("COMMITMENT_GAMES_THREADS", "4")
    threaded = probe_strong_punishability(game, sigma, 1.0, 0.05, 40, 3)
    assert base.worst_excess == threaded.worst_excess
    assert len(base.failures) == len(threaded.failures) == 0


# ---------------------------------------------------------------------------
# The batched punishment chain against the scalar search.
# ---------------------------------------------------------------------------

def _assert_rows_match_scalar_search(stack, supports, seed, ceiling):
    """punish_batch against the reference search on every row: the same
    kind, reason and profile, and the same payoff bits; returns the batch
    result."""
    n = stack.shape[1]
    found = punish_batch(stack, supports, seed, ceiling)
    for r in range(len(stack)):
        g = Game(stack[r])
        pun = reference.find_punishment_equilibrium(g, supports, seed, ceiling)
        assert (found.kinds[r], found.reasons[r]) == (pun.kind, pun.reason)
        assert found.profile(r) == pun.profile
        if pun.profile is None:
            assert np.all(np.isnan(found.best_response[r]))
            pure = reference.enumerate_pure_nash(g)
            assert found.pure_best[r].tolist() == [
                max((g.payoff(i, p) for p in pure), default=-np.inf)
                for i in range(n)]
            continue
        best = [np.max(deviation_payoffs(g, pun.profile, i)) for i in range(n)]
        pay = [expected_utility(g, pun.profile, i) for i in range(n)]
        assert found.best_response[r].tobytes() == np.array(best).tobytes()
        assert found.payoffs[r].tobytes() == np.array(pay).tobytes()
    return found


def test_punish_batch_matches_scalar_search_row_for_row():
    # Small-integer games tie often, so rows end at every step of the chain;
    # row 0 of each stack is the zero game, where the support system is
    # singular and the seed stays an equilibrium.
    rng = np.random.default_rng(0)
    kinds = Counter()
    for counts, draws in (((2, 2), 8), ((3, 3), 6), ((4, 4), 3), ((2, 2, 2), 4)):
        n = len(counts)
        for _ in range(draws):
            base = random_game(rng, n, counts, integer=True)
            supports = [tuple(sorted(rng.choice(c, int(rng.integers(1, c + 1)),
                                                replace=False))) for c in counts]
            seed = MixedProfile.uniform_over(counts, supports)
            ceiling = rng.integers(0, 4, n).astype(float)
            stack = base.utilities + rng.integers(-1, 2, (8, *base.utilities.shape))
            stack[0] = 0.0
            found = _assert_rows_match_scalar_search(stack, supports, seed, ceiling)
            kinds.update(found.kinds)
    assert set(kinds) == {"support_solve", "seed", "pure", "support_enum",
                          "semi_mixed", "none"}

    # Rows the seed settles, and rows with tied pure equilibria of which
    # only a later one in lexicographic order is under the ceiling.
    supports = [(0, 1), (0, 1)]
    seed = MixedProfile.uniform_over((3, 3), supports)
    ceiling = (0.75, 0.75)
    # Four pure equilibria tie at 1, above the ceiling; (3, 3) pays 0.5.
    tied = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
    stack = np.stack([np.stack([tied, tied])] * 8)
    # Constant games leave the support system singular and the seed Nash,
    # here under the ceiling and within tolerance of it.
    stack[0] = 0.5
    stack[1] = 0.75 + 5e-10
    stack[2, 0, 0, 2] = 0.5 + 5e-10  # (3, 3) stays Nash within tolerance
    stack[3, 0, 0, 2] = 0.5 + 2e-9  # (3, 3) is not Nash any more
    stack[4, :, 2, 2] = 0.75 + 2e-9  # (3, 3) is Nash but over the ceiling
    # Each player's ties now differ by column or row: of the tied four only
    # (2, 2) is under the ceiling, and it comes before (3, 3).
    stack[5, 0, :2, 1] = stack[5, 1, 1, :2] = 0.6
    stack[6, 1] = tied.T - 1.0  # player 2 under the ceiling everywhere
    found = _assert_rows_match_scalar_search(stack, supports, seed, ceiling)
    assert found.kinds[:3] == ("seed", "seed", "pure")
    assert found.kinds[5:] == ("pure", "pure", "pure")
    assert found.payoffs[2].tolist() == [0.5, 0.5]
    assert found.payoffs[5].tolist() == [0.6, 0.6]
    assert found.payoffs[6].tolist() == [0.5, -0.5]
    assert found.pure_best[2].tolist() == [1.0, 1.0]
    assert np.all(np.isnan(found.pure_best[:2]))


def _spied(monkeypatch, names):
    """Patch each of `names` in `np.linalg` to record (name, shape of the
    matrix stack) in the returned list before it runs."""
    calls = []
    for name in names:
        def spy(a, *rest, _name=name, _f=getattr(np.linalg, name)):
            calls.append((_name, a.shape))
            return _f(a, *rest)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def _solve_sizes(monkeypatch):
    """Patch `equilibria._solve` to record the games of each call in the
    returned list."""
    sizes, solve = [], equilibria._solve

    def spied(system, *args, **kwargs):
        sizes.append(len(system.utilities))
        return solve(system, *args, **kwargs)

    monkeypatch.setattr(equilibria, "_solve", spied)
    return sizes


def test_bsolve_finds_the_singular_rows_from_one_factorisation(monkeypatch):
    rng = np.random.default_rng(5)
    A = rng.uniform(-1, 1, (64, 5, 5))
    b = rng.uniform(-1, 1, (64, 5))
    singular_rows = (0, 31, 63)
    A[list(singular_rows), :, 2] = 0.0  # a zero column: an exact zero pivot
    calls = _spied(monkeypatch, ("solve", "slogdet"))
    x, singular = equilibria._bsolve(A, b)
    everything_singular = equilibria._bsolve(np.zeros((2, 3, 3)), np.ones((2, 3)))
    monkeypatch.undo()
    assert np.flatnonzero(singular).tolist() == list(singular_rows)
    for r in range(len(A)):
        if r in singular_rows:
            assert np.all(np.isnan(x[r]))
        else:
            assert x[r].tobytes() == np.linalg.solve(A[r], b[r]).tobytes()
    # One failed solve, one factorisation, one solve of the other rows.
    assert calls[:3] == [("solve", (64, 5, 5)), ("slogdet", (64, 5, 5)),
                         ("solve", (61, 5, 5))]
    assert calls[3:] == [("solve", (2, 3, 3)), ("slogdet", (2, 3, 3)), ("solve", (0, 3, 3))]
    assert everything_singular[1].tolist() == [True, True]
    assert np.all(np.isnan(everything_singular[0]))


def _rows_open_to_enumeration():
    """Two 3x3 games that reach the support enumeration under full supports,
    a uniform seed and ceiling (10, 10): matching pennies on the first two
    actions with the third strictly dominated (it settles at the first size-2
    pattern), and the same game plus 100 (every equilibrium is over the
    ceiling); and rock-paper-scissors, which the first stage settles."""
    pennies = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [-2.0, -2.0, -2.0]])
    enum = np.stack([pennies, -pennies.T])
    enum[1, :, 2] = -2.0
    enum[1, 2, :2] = 0.0
    rps = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    return enum, enum + 100.0, np.stack([rps, -rps])


def test_support_enumeration_solves_once_per_support_size(monkeypatch):
    enum, over, settled = _rows_open_to_enumeration()
    stack = np.stack([settled] * 16 + [enum, over])  # 2 of 18 rows enumerate
    supports = [(0, 1, 2), (0, 1, 2)]
    seed = MixedProfile.uniform_over((3, 3), supports)
    sizes = _solve_sizes(monkeypatch)
    found = punish_batch(stack, supports, seed, (10.0, 10.0))
    monkeypatch.undo()
    assert found.kinds[:16] == ("support_solve",) * 16
    assert found.kinds[16:] == ("support_enum", "none")
    assert found.profile(16) == MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    # The first stage, then one stacked solve of the two open rows on the
    # nine size-2 patterns.  The size-1 patterns are the pure step's cells,
    # and the full supports are the stage's own, already rejected.
    assert sizes == [18, 18]
    _assert_rows_match_scalar_search(stack, supports, seed, (10.0, 10.0))


def _tolerance_band_game():
    """A 2x2 game whose cell (1, 1) sits in the tolerance band: player 1's
    gap x - y is -1e-9 to the last bit, where x + 1e-9 < y but fl(x - y) is
    not below -1e-9.  Its other equilibrium, cell (2, 2), pays (1, 2)."""
    x = float.fromhex("-0x1.36571b4339e5ep-30")
    y = float.fromhex("-0x1.1bb2e60663e47p-33")
    return np.array([[[x, 0.0], [y, 1.0]], [[0.0, -1.0], [0.0, 2.0]]])


def test_tolerance_band_game_gets_one_answer_on_every_path(tmp_path, capsys):
    from commitment_games.cli import main

    u = _tolerance_band_game()
    game = Game(u)
    # Every path accepts cell (1, 1) with the one test fl(u - best) >= -tol.
    # Exact arithmetic rejects it: player 1's gain y - x exceeds the
    # tolerance by about 2.6e-26, which the subtraction of these ~1e-9
    # payoffs rounds away.  The disagreement is documented, not mended by a
    # looser tolerance.
    excess = Fraction(u[0, 1, 0]) - Fraction(u[0, 0, 0]) - Fraction(DEFAULT_TOL)
    assert float(excess) == pytest.approx(2.6e-26, rel=0.05)
    assert (u[0, 0, 0] - u[0, 1, 0]) == -DEFAULT_TOL
    assert enumerate_pure_nash(game) == reference.enumerate_pure_nash(game) == [(0, 0), (1, 1)]
    pure = MixedProfile([[1.0, 0.0], [1.0, 0.0]])
    found = _assert_rows_match_scalar_search(u[None], [(0, 1), (0, 1)], None, (0.5, 0.5))
    assert found.kinds == ("pure",) and found.profile(0) == pure
    assert solve_on_support(game, [(0,), (0,)]).profile == pure
    path = tmp_path / "band.json"
    save_game(game, path)
    assert main(["analyze", str(path), "--support", "1x1"]) == 0
    out = capsys.readouterr().out
    assert "pure Nash: (a1,a1) (a2,a2)" in out
    assert "solution 1,0; 1,0" in out


def test_pure_nash_mask_matches_exact_arithmetic_near_the_tolerance():
    """Seeded near-tie cells at catalog payoff scale, within 4 ulps of
    best - u = tol: the mask's verdict is the exact verdict best - u <= tol.
    Two floats this close differ by a float (Sterbenz), so fl(u - best) is
    exact; the old form `u + tol < best` rounds the sum and misses some."""
    rng = np.random.default_rng(20260419)
    best = rng.uniform(-10.0, 10.0, 4000)
    u = best - DEFAULT_TOL
    steps = rng.integers(-4, 5, len(u))
    for s in range(4):
        u = np.where(steps > s, np.nextafter(u, np.inf), u)
        u = np.where(-steps > s, np.nextafter(u, -np.inf), u)
    U = np.zeros((len(u), 2, 2, 2))
    U[:, 0, 0, 0], U[:, 0, 1, 0] = u, best  # only player 1's column 1 matters
    exact = [Fraction(b) - Fraction(a) <= Fraction(DEFAULT_TOL)
             for a, b in zip(u.tolist(), best.tolist())]
    assert equilibria._pure_nash_mask(U)[:, 0, 0].tolist() == exact
    assert 0 < sum(exact) < len(exact)
    assert (~(u + DEFAULT_TOL < best) != np.array(exact)).any()


def test_full_support_2x2_stack_makes_no_enumeration_solve(monkeypatch):
    # The one-action patterns are the pure step's cells and the only larger
    # pattern is the stage's own, so every row the chain leaves open is
    # settled without a solve beyond the first stage's.
    rng = np.random.default_rng(21)
    supports = [(0, 1), (0, 1)]
    seed = MixedProfile.uniform_over((2, 2), supports)
    stack = rng.integers(-1, 2, (96, 2, 2, 2)).astype(float)
    band = _tolerance_band_game()
    stack[0], stack[1] = band, band[::-1].transpose(0, 2, 1)  # and with players swapped
    sizes = _solve_sizes(monkeypatch)
    found = punish_batch(stack, supports, seed, (0.5, 0.5))
    monkeypatch.undo()
    assert sizes == [len(stack)]
    assert found.kinds[:2] == ("pure", "pure")
    assert {"pure", "semi_mixed", "none"} <= set(found.kinds)
    _assert_rows_match_scalar_search(stack, supports, seed, (0.5, 0.5))


def test_support_enumeration_runs_hold_at_most_the_pair_budget(monkeypatch):
    # Every row reaches the enumeration of a 4x4 game (69 equal-size
    # patterns, 36 of size 2).  A run holds as many patterns as fit in the
    # budget of (pattern, game) pairs, however few rows the stack has, and
    # the budget changes no result.
    rng = np.random.default_rng(3)
    supports = [(0,), (0,)]
    seed = MixedProfile.uniform_over((4, 4), supports)
    draws = rng.integers(-1, 2, (96, 2, 4, 4)).astype(float)
    kinds = punish_batch(draws, supports, seed, (0.5, 0.5)).kinds
    stack = draws[[k in ("support_enum", "none") for k in kinds]][:12]
    found, runs = {}, {}
    for budget in (24, equilibria._SUPPORT_ENUM_PAIRS):
        monkeypatch.setattr(equilibria, "_SUPPORT_ENUM_PAIRS", budget)
        sizes = _solve_sizes(monkeypatch)
        found[budget] = punish_batch(stack, supports, seed, (0.5, 0.5))
        monkeypatch.undo()
        runs[budget] = sizes[1:]  # the first is the first stage's
        assert max(runs[budget]) <= budget
    assert len(stack) == 12 and set(found[24].kinds) == {"support_enum", "none"}
    # Two patterns of the 12 rows per run, against all 36 size-2 patterns.
    assert runs[24][0] == 2 * 12 and len(runs[24]) > 20
    assert runs[equilibria._SUPPORT_ENUM_PAIRS][0] == 36 * 12
    small, large = found[24], found[equilibria._SUPPORT_ENUM_PAIRS]
    assert (small.kinds, small.reasons) == (large.kinds, large.reasons)
    for name in ("best_response", "payoffs", "pure_best"):
        assert getattr(small, name).tobytes() == getattr(large, name).tobytes()


def _assert_rows_match_one_row_stacks(stack, supports, seed, ceiling):
    """first_stage_batch and punish_batch on `stack` against each row run
    as a one-row stack: the same statuses, kinds and reasons, and the same
    array bytes."""
    first = first_stage_batch(stack, supports, seed, ceiling)
    found = punish_batch(stack, supports, seed, ceiling)
    for r in range(len(stack)):
        one = first_stage_batch(stack[r:r + 1], supports, seed, ceiling)
        assert first.status[r] == one.status[0]
        for got, want in ((first.profiles, one.profiles),
                          (first.deviation_payoffs, one.deviation_payoffs)):
            assert all(g[r].tobytes() == w[0].tobytes() for g, w in zip(got, want))
        assert first.payoffs[r].tobytes() == one.payoffs[0].tobytes()
        alone = punish_batch(stack[r:r + 1], supports, seed, ceiling)
        assert (found.kinds[r], found.reasons[r]) == (alone.kinds[0], alone.reasons[0])
        assert all(g[r].tobytes() == w[0].tobytes()
                   for g, w in zip(found.profiles, alone.profiles))
        for name in ("best_response", "payoffs", "pure_best"):
            assert getattr(found, name)[r].tobytes() == getattr(alone, name)[0].tobytes()
    return first


def _repeated_block_stacks():
    """(stack, supports, seed) per support: 4x4 games on 3x3 and 2x2
    supports, drawn with many repeats of six support blocks.

    Block 0 is singular (all zero), block 1 a zero-sum cycle that settles
    while the out-of-support actions pay less.  Rows 0..5 hold blocks
    0..5; the extra rows differ from row 1 only outside the block, from
    row 2 only in the sign of its zeros, and from row 0 likewise.
    """
    rng = np.random.default_rng(11)
    cycles = {2: np.array([[1.0, -1.0], [-1.0, 1.0]]),
              3: np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])}
    for supports in ([(0, 1, 2), (0, 1, 2)], [(1, 3), (0, 2)]):
        seed = MixedProfile.uniform_over((4, 4), supports)
        cell = (slice(None), slice(None), *np.ix_(*supports))
        blocks = rng.integers(-2, 3, (6, 2, 4, 4)).astype(float)
        blocks[0] = 0.0
        cycle = cycles[len(supports[0])]
        blocks[1][cell[1:]] = np.stack([cycle, -cycle])
        blocks[2, 0, supports[0][0], supports[1][0]] = 0.0
        stack = blocks[np.concatenate([np.arange(6), rng.integers(0, 6, 84)])]
        outside = np.ones((4, 4), dtype=bool)
        outside[np.ix_(*supports)] = False
        stack[:, :, outside] = rng.integers(-9, -4, (90, 2, outside.sum()))
        twin = stack[1].copy()
        twin[:, outside] = 40.0  # out-of-support actions now pay more
        signed = np.where(stack[[2, 0]] == 0.0, -0.0, stack[[2, 0]])
        stack = np.concatenate([stack, [twin], signed])
        keys = [row.tobytes() for row in stack[cell]]
        assert keys[1] == keys[90] and keys[2] != keys[91] and keys[0] != keys[92]
        assert len(set(keys)) < len(stack)
        yield stack, supports, seed


def test_first_stage_rows_on_repeated_support_blocks_match_one_row_stacks():
    for stack, supports, seed in _repeated_block_stacks():
        first = _assert_rows_match_one_row_stacks(stack, supports, seed, (1.0, 1.0))
        assert equilibria.STATUSES[first.status[1]] == "ok"
        assert equilibria.STATUSES[first.status[90]] == "residual_negative"
        assert equilibria.STATUSES[first.status[0]] == "degenerate"


def test_first_stage_and_punishment_hash_no_rows(monkeypatch):
    # The verifier keys the rows it sends; the search hashes none of them,
    # on full supports or on partial ones with repeated blocks.
    rng = np.random.default_rng(12)
    supports = [(0, 1), (0, 1)]
    full = rng.integers(-2, 3, (4, 2, 2, 2)).astype(float)[[0, 1, 0, 2, 3, 1]]
    cases = [(full, supports, MixedProfile.uniform_over((2, 2), supports)),
             *_repeated_block_stacks()]
    monkeypatch.setattr(equilibria, "_distinct_rows", None)
    for stack, supports, seed in cases:
        _assert_rows_match_one_row_stacks(stack, supports, seed, (1.0, 1.0))


def _assert_newton_norm_is_a_fresh_evaluate(stack, supports, seed) -> int:
    """`_solve`'s norm on the rows that pass its norm check, against the
    norm of a fresh `evaluate` at its X, bit for bit; returns how many rows
    pass."""
    system = equilibria.StackedSystem(stack, supports)
    X, status, f_norm, _ = equilibria._solve(system, seed)
    fresh = np.abs(system.evaluate(X) - system.rhs).max(axis=1)
    passed = np.isin(status, [equilibria.STATUSES.index(s)
                              for s in ("ok", "out_of_range", "residual_negative")])
    assert f_norm[passed].tobytes() == fresh[passed].tobytes()
    return int(passed.sum())


def test_newton_norm_is_a_fresh_evaluate_on_ex6_stacks(monkeypatch):
    # Newton's last accepted F is f(X), row for row, so the norm is read
    # from it instead of evaluating the system again.
    from commitment_games import verifier

    game = three_player_cycle()
    sigma = MixedProfile.uniform_over((2, 2, 2), [(0, 1)] * 3)
    plan = build_plan(game, sigma, target=(0, 0, 0), delta=0.01)
    stacks, batch = [], verifier.punish_batch

    def recorded(utilities, *args):
        stacks.append((utilities, args))
        return batch(utilities, *args)

    monkeypatch.setattr(verifier, "punish_batch", recorded)
    verifier.verify_plan(game, plan)
    assert [len(u) for u, _ in stacks] == [2451]  # the stack of every key
    for utilities, (supports, seed, _) in stacks:
        assert _assert_newton_norm_is_a_fresh_evaluate(utilities, supports, seed) == len(utilities)


def test_newton_norm_is_a_fresh_evaluate_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    passed = 0

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4]),
           st.sampled_from([1e-3, 0.1, 1.0]))
    def run(seed, players, scale):
        nonlocal passed
        rng = np.random.default_rng(seed)
        game, sigma = full_support_multiplayer(rng, players=players)
        stack = game.utilities + rng.uniform(-scale, scale, (16, *game.utilities.shape))
        stack[0] = game.utilities
        passed += _assert_newton_norm_is_a_fresh_evaluate(stack, sigma.supports(), sigma)

    run()
    assert passed


@pytest.mark.parametrize("counts", [(3, 3), (2, 3, 2)])
def test_bpayoffs_reads_player_ones_payoff_as_bexpected_contracts_it(counts):
    rng = np.random.default_rng(4)
    B, n = 64, len(counts)
    U = rng.integers(-1, 2, (B, n, *counts)).astype(float)
    zeros = U == 0
    U[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    U[:8, 0] = -0.0  # player 1's payoff is exactly zero on these rows
    probs = []
    for c in counts:
        p = rng.random((B, c))
        p[rng.random((B, c)) < 0.3] = 0.0
        p[:, 0] += 1e-3
        probs.append(p / p.sum(axis=1, keepdims=True))
    pay, expected = equilibria._bpayoffs(U, probs)
    want = equilibria._bexpected(U, probs)
    # Bytes, so a zero's sign counts too.
    assert (expected[:, 0] == 0).sum() >= 8
    assert expected.tobytes() == want.tobytes()
    for got, wanted in zip(pay, equilibria._bdeviation_payoffs(U, probs)):
        assert got.tobytes() == wanted.tobytes()
    read = equilibria._bnash(pay, probs, 0.05, expected)
    again = equilibria._bnash(pay, probs, 0.05)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(read, again))
    assert (read[0] >= 0).any() and (read[0] < 0).any()


def _splitmix64_unshift(z: int, s: int) -> int:
    """The x with x ^ (x >> s) == z."""
    x = z
    for _ in range(64 // s):
        x = z ^ (x >> s)
    return x


def test_distinct_rows_compares_the_words_of_rows_whose_hashes_collide(monkeypatch):
    # The hash sums mix(w_j ^ j * golden) over a row's words j, where mix,
    # splitmix64's finalizer, is a bijection: raising mix of word 0 by t and
    # lowering mix of word 1 by t keeps the sum, a collision that np.unique
    # then settles.
    m, golden = 2 ** 64, int(equilibria._GOLDEN)
    mul1, mul2 = int(equilibria._MIX1), int(equilibria._MIX2)

    def mix(w):
        w ^= w >> 30
        w = w * mul1 % m
        w ^= w >> 27
        w = w * mul2 % m
        return w ^ (w >> 31)

    def unmix(z):
        z = _splitmix64_unshift(z, 31) * pow(mul2, -1, m) % m
        z = _splitmix64_unshift(z, 27) * pow(mul1, -1, m) % m
        return _splitmix64_unshift(z, 30)

    rng = np.random.default_rng(13)
    words = rng.integers(0, 2 ** 64, (5, 4), dtype=np.uint64)
    words[3] = words[4] = words[1]
    w0, w1, t = int(words[1, 0]), int(words[1, 1]), 12345
    words[4, :2] = [unmix((mix(w0) + t) % m), unmix((mix(w1 ^ golden) - t) % m) ^ golden]
    assert words[4].tobytes() != words[1].tobytes()
    calls, unique = [], np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    _assert_distinct_rows(words.view(np.float64), 4)
    assert calls == [1]
    _assert_distinct_rows(words.view(np.float64)[:0], 0)


def test_distinct_rows_hashes_a_block_apart_from_its_negation(monkeypatch):
    # Zero-sum blocks differ from their negations only in sign bits, which a
    # plain multiply-hash cancels in pairs; such rows must not reach the
    # exact fallback.
    rng = np.random.default_rng(14)
    block = rng.normal(size=(50, 2, 3, 3))
    block = np.concatenate([block, -block, block])
    monkeypatch.setattr(np, "unique", None)
    _assert_distinct_rows(block, 100)


def _assert_distinct_rows(block, patterns):
    """`_distinct_rows` finds `patterns` patterns, each row mapped to one
    with its bytes."""
    first, index = equilibria._distinct_rows(block)
    assert len(first) == patterns
    assert all(block[first[i]].tobytes() == row.tobytes() for i, row in zip(index, block))


def _settling_candidate(found, r):
    """Row r's punishment: its supports for kind "support_enum", its
    probabilities for "semi_mixed"."""
    if found.kinds[r] == "support_enum":
        return tuple(tuple(np.flatnonzero(p[r]).tolist()) for p in found.profiles)
    return tuple(tuple(p[r].tolist()) for p in found.profiles)


@pytest.mark.parametrize("counts", [(2, 2), (3, 3), (4, 4)])
def test_stacked_enumeration_and_boundary_match_scalar_search(counts):
    # Ties in -1..1 games leave many rows to the enumeration under a pure
    # anchor; they settle at different patterns (and, on 2x2, at different
    # boundary candidates).  Every other row keeps the anchor, so a run holds
    # two patterns or more, and the 4x4 stack still splits each size's runs.
    rng = np.random.default_rng(len(counts) + counts[0])
    supports = [(0,), (0,)]
    seed = MixedProfile.uniform_over(counts, supports)
    stack = rng.integers(-1, 2, (64 if counts == (4, 4) else 96, 2, *counts)).astype(float)
    stack[1::2] = -1.0
    stack[1::2, :, 0, 0] = 0.0
    found = _assert_rows_match_scalar_search(stack, supports, seed, (0.5, 0.5))
    kind = "semi_mixed" if counts == (2, 2) else "support_enum"
    assert len({_settling_candidate(found, r) for r in range(len(stack))
                if found.kinds[r] == kind}) >= 3


def test_array_built_boundary_step_matches_scalar_boundary_search():
    # Tie-heavy 2x2 games: entries k * s with k in -2..2 and s in 1, 1/2,
    # 1/3, so preference gaps close exactly and roots fall inside (0, 1);
    # the ceilings accept some candidates and refuse others.
    rng = np.random.default_rng(11)
    values = (np.arange(-2, 3)[:, None] * np.array([1.0, 0.5, 1 / 3])).ravel()
    tol = DEFAULT_TOL  # the tolerance the kernel reads
    settling = Counter()
    for _ in range(80):
        V = rng.choice(values, (10, 2, 2, 2))
        ceiling = rng.choice(values, 2) + rng.choice([0.0, 1.0, 3.0])
        settled, probs, pay, exp = equilibria._semi_mixed_batch(V, ceiling)
        for r in range(len(V)):
            game = Game(V[r])

            def under_ceiling(profile):
                return all(expected_utility(game, profile, i) <= ceiling[i] + tol
                           for i in range(2))

            want = reference._boundary_semi_mixed(game, under_ceiling, tol)
            assert settled[r] == (want is not None)
            if want is None:
                continue
            settling[tuple(tuple(p.tolist()) for p in want.probs)] += 1
            for i in range(2):
                assert probs[i][r].tobytes() == want.probs[i].tobytes()
                assert pay[i][r].tobytes() == deviation_payoffs(game, want, i).tobytes()
                assert exp[r, i] == expected_utility(game, want, i)
    # Pure corners and interior roots, for either player mixing, all settle.
    assert len(settling) > 20 and sum(settling.values()) > 120
    assert any(0 < p[0] < 1 for profile in settling for p in profile)


@pytest.mark.parametrize("case", ["full_2p", "full_3p", "partial_2p"])
def test_stacked_nash_and_non_degeneracy_match_scalar_checks(rng, case):
    # Perturbations from 1e-12 (the profile stays Nash) to 1 (it breaks);
    # row 1 is the zero game, where every Jacobian is singular.
    for _ in range(4):
        if case == "full_2p":
            game, sigma = full_support_two_player(rng)
        elif case == "full_3p":
            game, sigma = full_support_multiplayer(rng)
        else:
            game = two_mode_mixing()
            sigma = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
        scale = np.logspace(-12, 0, 12).reshape(-1, *[1] * game.utilities.ndim)
        stack = game.utilities + scale * rng.uniform(-1, 1, (12, *game.utilities.shape))
        stack[0], stack[1] = game.utilities, 0.0
        checks = nash_batch(stack, sigma, 1e-8)
        found = non_degenerate_batch(stack, sigma)
        for r in range(len(stack)):
            g = Game(stack[r])
            assert checks[r] == reference.is_nash(g, sigma, 1e-8)
            try:
                want = reference.is_non_degenerate(g, sigma)
            except NotNashError as exc:
                with pytest.raises(NotNashError) as raised:
                    found.report(r)
                assert str(raised.value) == str(exc)
                assert not found.ok[r]
            else:
                assert found.report(r) == want and found.ok[r] == want.ok
        assert found.ok[0] and not found.ok[1] and not all(c.ok for c in checks)


def test_nash_batch_rejects_a_profile_of_the_wrong_shape():
    stack = unfair_split().utilities[None]
    with pytest.raises(GameShapeError):
        nash_batch(stack, MixedProfile([[1.0], [1.0]]))


def test_unequal_support_sizes_never_solve(rng):
    # The batched support enumeration skips these patterns; the scalar
    # solve must fail on them for every game, integer ties included.
    for counts in ((2, 2), (3, 3), (4, 4), (2, 4)):
        for integer in (False, True):
            game = random_game(rng, 2, counts, integer=integer)
            for m1 in range(1, counts[0] + 1):
                for m2 in range(1, counts[1] + 1):
                    if m1 == m2:
                        continue
                    for s1 in combinations(range(counts[0]), m1):
                        for s2 in combinations(range(counts[1]), m2):
                            solve = reference.solve_on_support(game, (s1, s2))
                            assert solve.status == "degenerate"


def test_punish_batch_rejects_non_finite_rows():
    game = two_mode_mixing()
    stack = np.stack([game.utilities, game.utilities])
    stack[1, 0, 2, 2] = np.inf  # off the support: the first stage alone would pass it
    sigma = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    with pytest.raises(GameShapeError, match="finite"):
        punish_batch(stack, sigma.supports(), sigma, (10.0, 10.0))


def _scalar_probe(game, profile, epsilon, delta, samples, rng_seed,
                  perturbations=None):
    """Reference probe: one perturbed game and one reference search per
    sample."""
    base_u = np.array([expected_utility(game, profile, i)
                       for i in range(game.num_players)])
    ceiling = base_u + epsilon
    if perturbations is None:
        rng = np.random.default_rng(rng_seed)
        perturbations = [rng.uniform(-delta, delta, size=game.utilities.shape)
                         for _ in range(samples)]
    failures, worst = [], -np.inf
    for idx, shift in enumerate(perturbations):
        pert = game.with_utilities(game.utilities + shift)
        result = reference.find_punishment_equilibrium(pert, profile.supports(), profile,
                                                       ceiling)
        if result.profile is None:
            failures.append(ProbeFailure(idx, pert, result.reason))
        else:
            u = np.array([expected_utility(pert, result.profile, i)
                          for i in range(game.num_players)])
            worst = max(worst, float(np.max(u - base_u)))
    return PunishabilityReport(epsilon, delta, len(perturbations), rng_seed,
                               tuple(failures), worst, content_hash(game))


def _spoiler_shifts():
    delta = 0.1
    shifts = np.zeros((3, 2, 3, 3))
    shifts[0, 0, 0, 0] -= delta  # burn on (A, A) and pay the opponent on (A, B)
    shifts[0, 1, 0, 1] += delta
    shifts[1, 1, 0, 0] -= delta
    shifts[2] = np.random.default_rng(4).uniform(-delta, delta, (2, 3, 3))
    return shifts


PROBE_CASES = {
    # mix3x3 at its half-half equilibrium; at delta 2 some draws fall back
    # to pure and enumerated equilibria and some have no punishment.
    "mix3x3_seed3": lambda: (two_mode_mixing(),
                             MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]),
                             dict(epsilon=1.0, delta=0.05, samples=300, rng_seed=3)),
    "mix3x3_seed11_wide": lambda: (two_mode_mixing(),
                                   MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]),
                                   dict(epsilon=1.0, delta=2.0, samples=300,
                                        rng_seed=11)),
    "spoiler_adversarial": lambda: (spoiler_3x3(), MixedProfile.pure((3, 3), (0, 0)),
                                    dict(epsilon=3.9, delta=0.1, samples=3, rng_seed=0,
                                         perturbations=_spoiler_shifts())),
}


def _forbid_single_game_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a single-game search ran")

    for module in (equilibria, reference):
        for name in ("find_punishment_equilibrium", "is_non_degenerate"):
            monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize("case", sorted(PROBE_CASES))
def test_probe_is_byte_identical_to_scalar_loop(monkeypatch, case):
    game, profile, kwargs = PROBE_CASES[case]()
    scalar = _scalar_probe(game, profile, **kwargs)
    # The failure reasons come from the stack, not from a second search.
    _forbid_single_game_search(monkeypatch)
    batched = probe_strong_punishability(game, profile, allow_degenerate=True, **kwargs)
    assert batched.to_json() == scalar.to_json()
    if case != "mix3x3_seed3":
        assert batched.failures and all(f.reason for f in batched.failures)


# ---------------------------------------------------------------------------
# Reason codes: each way the first stage can fail, against the reference.
# ---------------------------------------------------------------------------

def _two_mode_mixing_with_a_better_third_row():
    u = two_mode_mixing().utilities.copy()
    u[0, 2] = 10.0  # player 1's third action beats the (0, 1) mix
    return Game(u)


_P3 = [(0, 1)] * 3
REASON_CASES = {
    # every indifference row vanishes: a singular linear system
    "degenerate": (lambda: Game(np.zeros((2, 2, 2))), [(0, 1), (0, 1)]),
    # a singular Newton Jacobian
    "degenerate_3p": (lambda: Game([[[[0, -1], [3, -2]], [[3, -3], [1, 1]]],
                                    [[[3, -1], [3, 1]], [[3, -2], [2, 3]]],
                                    [[[-3, -1], [1, -3]], [[0, 1], [2, 3]]]]), _P3),
    # Newton stops above its tolerance
    "no_converge": (lambda: Game([[[[-1, 0], [2, 3]], [[-3, 3], [0, -1]]],
                                  [[[1, 1], [-2, -1]], [[2, 1], [0, -1]]],
                                  [[[2, -1], [-1, 3]], [[-2, -2], [1, 1]]]]), _P3),
    # player 2's indifference needs a negative probability
    "out_of_range": (lambda: Game([[[2, 1], [0, 0]], [[0, 1], [1, 0]]]), [(0, 1), (0, 1)]),
    "residual_negative": (_two_mode_mixing_with_a_better_third_row, [(0, 1), (0, 1)]),
    # at payoffs near 1e10 the rounded mix leaves a gain above 1e-8
    "not_nash": (lambda: Game(np.array([[[2, 0], [0, 1]], [[1, 0], [0, 2]]]) + 1e10),
                 [(0, 1), (0, 1)]),
    "over_ceiling": (two_mode_mixing, [(0, 1), (0, 1)]),
}


@pytest.mark.parametrize("case", sorted(REASON_CASES))
def test_reason_codes_match_the_reference(case):
    make, supports = REASON_CASES[case]
    game = make()
    seed = MixedProfile.uniform_over(game.action_counts, supports)
    ceiling = (-100.0,) * game.num_players  # below every payoff: no fallback settles
    first = first_stage_batch(game.utilities[None], supports, seed, ceiling)
    assert equilibria.STATUSES[first.status[0]] == case.removesuffix("_3p")

    got, want = (solve_on_support(game, supports, seed),
                 reference.solve_on_support(game, supports, seed))
    assert (got.status, got.profile) == (want.status, want.profile)
    assert np.array_equal([got.f_norm, got.min_residual],
                          [want.f_norm, want.min_residual], equal_nan=True)

    got, want = (find_punishment_equilibrium(game, supports, seed, ceiling),
                 reference.find_punishment_equilibrium(game, supports, seed, ceiling))
    assert (got.kind, got.profile, got.reason) == ("none", None, want.reason)
    assert want.kind == "none"
    assert got.reason.endswith("; no pure equilibrium under ceiling")
