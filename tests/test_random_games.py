"""Random games end to end through the CLI, in-process.

Hypothesis draws 2x2 to 4x4 and 2x2x2 games with half-integer payoffs,
which are tie-heavy, and a fixed cap.  `plan` runs on the default baseline,
or, for half of the 2x2 games, on a full-support equilibrium, toward a
drawn target or a welfare split; then `simulate`, `verify` and a
script run of the transcript.  Every `plan` run exits 2 or 3 without a
traceback, or writes a plan whose rounds keep the cap, whose checkpoint
hashes are those of the scalar reference fold, which `verify` judges as
`plan` did, and whose transcript replays to the reference fold's last
game bit for bit and to the plan's expected terminal payoffs within 1e-12.
"""

import json
from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from commitment_games.cli import _default_sigma, main
from commitment_games.engine import replay, transcript_from_dict
from commitment_games.equilibria import solve_on_support
from commitment_games.games import Game, expected_utility, round_violation, save_game
from commitment_games.protocols import (
    InfeasibleError,
    load_plan,
    plan_from_dict,
    plan_to_dict,
)

import scalar_reference as reference

SHAPES = [(2, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 2, 2)]


@st.composite
def cases(draw):
    """(game, plan options): a target half of the time, else a welfare split
    that hands each player a drawn share of the welfare maximum's surplus
    over the baseline (or any split when there is none).  Half of the 2x2
    games get best responses that cycle and pass their full-support
    equilibrium as the baseline."""
    counts = draw(st.sampled_from(SHAPES))
    n = len(counts)
    halves = draw(st.lists(st.integers(-6, 6), min_size=n * int(np.prod(counts)),
                           max_size=n * int(np.prod(counts))))
    u = np.array(halves, dtype=float).reshape(n, *counts) / 2
    options = ["--delta=" + draw(st.sampled_from(["0.25", "0.5", "1"]))]
    sigma = None
    if counts == (2, 2) and draw(st.booleans()):
        # Best responses that cycle (player 1 matches player 2's action and
        # player 2 mismatches player 1's), so the game has a full-support
        # equilibrium unless a tie makes it degenerate.
        u[0, :, 0], u[0, :, 1] = np.sort(u[0, :, 0])[::-1], np.sort(u[0, :, 1])
        u[1, 0], u[1, 1] = np.sort(u[1, 0]), np.sort(u[1, 1])[::-1]
        sigma = solve_on_support(Game(u), [(0, 1), (0, 1)]).profile
    if sigma is not None:
        # The 2x2 narrowing needs a cap below the smallest preference gap.
        options = ["--delta=0.25", "--sigma=" + ";".join(",".join(map(repr, p.tolist()))
                                                          for p in sigma.probs)]
    game = Game(u)
    if draw(st.booleans()):
        target = [draw(st.integers(1, c)) for c in counts]
        return game, ["--target=" + ",".join(map(str, target)), *options]
    try:
        base = [expected_utility(game, sigma or _default_sigma(game), i) for i in range(n)]
    except InfeasibleError:
        base = [0.0] * n
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    surplus = float(game.utilities.sum(axis=0).max()) - sum(base)
    split = [b + surplus * (w + 1) / (sum(weights) + n) for b, w in zip(base, weights)]
    return game, ["--payoffs=" + ",".join(map(repr, split)), *options]


def test_random_games_run_end_to_end(tmp_path, capsys):
    game_path, plan_path = str(tmp_path / "game.json"), str(tmp_path / "plan.json")
    transcript_path, script_out = str(tmp_path / "tr.json"), str(tmp_path / "script.json")
    outcomes, mixed_baselines, tagged = [], [], []

    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cases())
    def run(case):
        game, options = case
        save_game(game, game_path)
        capsys.readouterr()
        tmp_path.joinpath("plan.json").unlink(missing_ok=True)
        code = main(["plan", game_path, *options, "-o", plan_path])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        outcomes.append(code)
        if code in (2, 3):
            assert err.startswith(("error:", "infeasible:")), err
            return
        assert code in (0, 1), (options, code, err)
        plan = load_plan(plan_path)
        assert plan_from_dict(plan_to_dict(plan)) == plan
        tagged.append((plan.case_tag, code))
        assert all(round_violation(game, r, plan.delta, plan.mode) is None
                   for r in plan.rounds)
        games = reference.fold_rounds(game, plan.rounds, plan.delta, plan.mode)
        assert [c.game_hash for c in plan.checkpoints] == [
            reference.content_hash(games[c.rounds_applied]) for c in plan.checkpoints]
        mixed_baselines.append(len(plan.baseline.supports()[0]) == 2 == game.num_players)
        assert main(["verify", game_path, plan_path, "-o", str(tmp_path / "rep.json")]) == code
        assert main(["simulate", game_path, plan_path, "-o", transcript_path]) == 0
        doc = json.loads(tmp_path.joinpath("tr.json").read_text())
        base, transcript, delta, mode = transcript_from_dict(doc)
        replayed = replay(base, transcript, delta, mode)
        assert replayed.current_game.utilities.tobytes() == games[-1].utilities.tobytes()
        final = replayed.transcript.final_payoffs
        assert np.allclose(final, plan.expected_terminal_payoffs, rtol=0, atol=1e-12)
        assert main(["simulate", game_path, "--script", transcript_path,
                     "-o", script_out]) == 0
        script = json.loads(tmp_path.joinpath("script.json").read_text())
        assert script["final_payoffs"] == doc["final_payoffs"]

    run()
    # Per case tag, the written plans that `verify` rejects (exit 1) of all
    # written, so that a failure also shows how often `plan` wrote such a plan.
    written = Counter(tag for tag, _ in tagged)
    rejected = {tag: f"{sum(c == 1 for t, c in tagged if t == tag)}/{count}"
                for tag, count in sorted(written.items())}
    # The draws reach both ends: plans written, and runs refused; and some
    # written plans start from a mixed baseline.
    assert {0, 3} <= set(outcomes), (outcomes, rejected)
    assert any(mixed_baselines), rejected
