from collections import Counter
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
from commitment_games.equilibria import (
    DegenerateEquilibriumError,
    ProbeFailure,
    PunishabilityReport,
    SupportError,
    punish_batch,
)
from commitment_games.games import GameShapeError, content_hash, deviation_payoffs
from commitment_games.catalog import (
    chicken,
    chicken_bribe_round,
    prisoners_dilemma,
    spoiler_3x3,
    two_mode_mixing,
    unfair_split,
)

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
            found = punish_batch(stack, supports, seed, ceiling)
            for r in range(len(stack)):
                g = Game(stack[r])
                pun = find_punishment_equilibrium(g, supports, seed, ceiling)
                assert found.kinds[r] == pun.kind
                if pun.profile is None:
                    assert np.all(np.isnan(found.best_response[r]))
                    continue
                best = [np.max(deviation_payoffs(g, pun.profile, i)) for i in range(n)]
                pay = [expected_utility(g, pun.profile, i) for i in range(n)]
                assert found.best_response[r].tobytes() == np.array(best).tobytes()
                assert found.payoffs[r].tobytes() == np.array(pay).tobytes()
            kinds.update(found.kinds)
    assert set(kinds) == {"support_solve", "seed", "pure", "support_enum",
                          "semi_mixed", "none"}


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
                            assert solve_on_support(game, (s1, s2)).status == "degenerate"


def test_punish_batch_rejects_non_finite_rows():
    game = two_mode_mixing()
    stack = np.stack([game.utilities, game.utilities])
    stack[1, 0, 2, 2] = np.inf  # off the support: the first stage alone would pass it
    sigma = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    with pytest.raises(GameShapeError, match="finite"):
        punish_batch(stack, sigma.supports(), sigma, (10.0, 10.0))


def _scalar_probe(game, profile, epsilon, delta, samples, rng_seed,
                  perturbations=None):
    """Reference probe: one perturbed game and one scalar search per sample."""
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
        result = find_punishment_equilibrium(pert, profile.supports(), profile, ceiling)
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


@pytest.mark.parametrize("case", sorted(PROBE_CASES))
def test_probe_is_byte_identical_to_scalar_loop(case):
    game, profile, kwargs = PROBE_CASES[case]()
    batched = probe_strong_punishability(game, profile, allow_degenerate=True, **kwargs)
    scalar = _scalar_probe(game, profile, **kwargs)
    assert batched.to_json() == scalar.to_json()
    if case != "mix3x3_seed3":
        assert batched.failures and all(f.reason for f in batched.failures)
