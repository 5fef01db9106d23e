import json
import math
import subprocess
import sys
import warnings

import pytest

CLI = [sys.executable, "-m", "commitment_games.cli"]


def run(*args, cwd=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          cwd=cwd)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    for example in ("ex1", "ex3", "ex4", "mix3x3"):
        res = run("export", example, "-o", str(d / f"{example}.json"))
        assert res.returncode == 0, res.stderr
    return d


def test_analyze_reports_nash_and_welfare(workdir):
    res = run("analyze", str(workdir / "ex3.json"))
    assert res.returncode == 0
    assert "pure Nash: (A,A)" in res.stdout
    assert "welfare max: 7 at (B,B)" in res.stdout


def test_analyze_support_solve(workdir):
    res = run("analyze", str(workdir / "mix3x3.json"), "--support", "1,2x1,2")
    assert res.returncode == 0
    assert "0.5,0.5,0; 0.5,0.5,0" in res.stdout
    assert "non-degenerate: yes" in res.stdout


def test_analyze_malformed_file_exits_2(workdir):
    bad = workdir / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    res = run("analyze", str(bad))
    assert res.returncode == 2
    assert "error" in res.stderr


def test_game_files_need_no_schema_version(workdir, capsys):
    doc = json.loads((workdir / "ex3.json").read_text(encoding="utf-8"))
    del doc["schema_version"]
    path = workdir / "ex3_unversioned.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _main(capsys, "analyze", str(path))[0] == 0


def test_plan_simulate_verify_chain(workdir):
    plan_path = workdir / "plan3.json"
    res = run("plan", str(workdir / "ex3.json"), "--payoffs", "4,3",
              "--delta", "1", "-o", str(plan_path), "--grid", "0.5,1")
    assert res.returncode == 0, res.stderr
    assert "rounds=6" in res.stdout
    doc = json.loads(plan_path.read_text())
    assert len(doc["rounds"]) == 6
    assert doc["meta"]["tool"]["name"] == "commitment-games"

    tr_path = workdir / "tr3.json"
    res = run("simulate", str(workdir / "ex3.json"), str(plan_path),
              "-o", str(tr_path))
    assert res.returncode == 0, res.stderr
    assert "final payoffs: 4,3" in res.stdout
    tr = json.loads(tr_path.read_text())
    assert tr["final_payoffs"] == [4.0, 3.0]

    rep_path = workdir / "rep3.json"
    res = run("verify", str(workdir / "ex3.json"), str(plan_path),
              "-o", str(rep_path))
    assert res.returncode == 0, res.stderr
    rep = json.loads(rep_path.read_text())
    assert rep["accepted"] is True


def test_plan_output_is_deterministic(workdir):
    a, b = workdir / "det_a.json", workdir / "det_b.json"
    for path in (a, b):
        res = run("plan", str(workdir / "ex3.json"), "--payoffs", "4,3",
                  "--delta", "1", "-o", str(path))
        assert res.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_plan_rejects_infeasible_split(workdir):
    res = run("plan", str(workdir / "ex3.json"), "--payoffs", "8,-1",
              "--delta", "1")
    assert res.returncode == 3
    assert "strictly improve" in res.stderr


def test_plan_burn_target(workdir):
    plan_path = workdir / "plan4.json"
    res = run("plan", str(workdir / "ex4.json"), "--sigma",
              "0.33333333333333333,0.33333333333333333,0.33333333333333334,0;"
              "0.33333333333333333,0.33333333333333333,0.33333333333333334,0",
              "--target", "4,4", "--delta", "0.5", "-o", str(plan_path))
    assert res.returncode == 0, res.stderr
    doc = json.loads(plan_path.read_text())
    assert doc["mode"] == "burn_only"
    assert doc["case_tag"] == "partial_support_disjoint"


def test_plan_mode_burn_is_an_alias_of_burn_only(workdir, capsys):
    sigma = "0.33333333333333333,0.33333333333333333,0.33333333333333334,0"
    plans = []
    for mode in ("burn_only", "burn"):
        path = workdir / f"plan4_{mode}.json"
        code, _ = _main(capsys, "plan", str(workdir / "ex4.json"), "--sigma",
                        f"{sigma};{sigma}", "--target", "4,4", "--delta", "0.5",
                        "--mode", mode, "-o", str(path))
        assert code == 0
        plans.append(path.read_bytes())
        code, err = _main(capsys, "plan", str(workdir / "ex3.json"), "--payoffs", "4,3",
                          "--delta", "1", "--mode", mode)
        assert code == 3 and "payoff splits need transfers" in err
    assert plans[0] == plans[1]


def test_verify_rejects_mismatched_game(workdir):
    res = run("verify", str(workdir / "ex1.json"), _written_plan(workdir, "mismatched_plan3.json"))
    assert res.returncode == 2
    assert "mismatch" in res.stderr


def test_reproduce_all(workdir):
    res = run("reproduce")
    assert res.returncode == 0, res.stdout + res.stderr
    for example in ("ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "mix3x3",
                    "counter3x3"):
        assert f"{example}" in res.stdout
    assert "FAIL" not in res.stdout


def test_export_unknown_example():
    res = run("export", "nope")
    assert res.returncode == 2


def test_simulate_script(workdir):
    script = workdir / "script.json"
    script.write_text(json.dumps({
        "delta": 1.0,
        "mode": "transfers",
        "rounds": [[{"payer": 1, "outcome": [2, 2], "recipient": 2,
                     "amount": 1.0}]],
        "votes": [[False, False]],
        "terminal_actions": [1, 1],
    }), encoding="utf-8")
    out = workdir / "script_tr.json"
    res = run("simulate", str(workdir / "ex3.json"), "--script", str(script),
              "-o", str(out))
    assert res.returncode == 0, res.stderr
    tr = json.loads(out.read_text())
    assert tr["final_payoffs"] == [0.0, 0.0]
    assert tr["rounds"][0][0]["recipient"] == 2


def test_simulate_with_a_plan_and_a_script_exits_2(workdir, capsys):
    script = workdir / "plan_and_script.json"
    script.write_text(json.dumps({"delta": 1.0, "rounds": [_pay(1.0)],
                                  "votes": [[False, False]], "terminal_actions": [1, 1]}),
                      encoding="utf-8")
    plan_path = workdir / "plan_and_script_plan.json"
    plan_path.write_text(json.dumps(_ex3_plan_doc(workdir)), encoding="utf-8")
    out = workdir / "plan_and_script_transcript.json"
    assert _main(capsys, "simulate", str(workdir / "ex3.json"), str(plan_path),
                 "--script", str(script), "-o", str(out)) == (
        2, "error: give a plan file or --script, not both\n")
    assert not out.exists()


def _pay(amount):
    return [{"payer": 1, "outcome": [2, 2], "recipient": 2, "amount": amount}]


# The texts a script that breaks a session rule at its second round exits
# with, as the per-round session loop gave them.
@pytest.mark.parametrize("rounds, votes, text", [
    ([_pay(1.0), _pay(1.5)], [[True, True], [False, False]],
     "error: malformed script document: TransferError: "
     "player 1 pays 1.5 > delta=1 at outcome (2, 2)\n"),
    ([_pay(1.0), _pay(1.0)], [[False, True], [False, False]],
     "error: malformed script document: SessionError: "
     "cannot submit a round in phase 'playing'\n"),
], ids=["cap_at_round_2", "round_after_stop"])
def test_a_script_that_breaks_a_rule_at_round_2_exits_2(workdir, capsys, rounds, votes, text):
    script = workdir / "round_2_script.json"
    script.write_text(json.dumps({"delta": 1.0, "rounds": rounds, "votes": votes,
                                  "terminal_actions": [2, 2]}), encoding="utf-8")
    assert _main(capsys, "simulate", str(workdir / "ex3.json"), "--script", str(script),
                 "-o", str(workdir / "round_2_transcript.json")) == (2, text)


def test_a_script_round_without_a_vote_row_continues(workdir, capsys):
    script = workdir / "short_votes_script.json"
    script.write_text(json.dumps({"delta": 1.0, "rounds": [_pay(1.0), _pay(0.5), []],
                                  "votes": [[True, True]]}), encoding="utf-8")
    out = workdir / "short_votes_transcript.json"
    assert _main(capsys, "simulate", str(workdir / "ex3.json"), "--script", str(script),
                 "-o", str(out)) == (0, "")
    doc = json.loads(out.read_text())
    assert doc["votes"] == [[True, True]] * 3 and len(doc["rounds"]) == 3
    assert doc["terminal_actions"] is None  # still committing: nothing is played


# Scripts follow the session rules `replay` enforces on transcripts.
@pytest.mark.parametrize("rounds, votes, text", [
    ([_pay(1.0), _pay(0.5), []], [[True, True]],
     "error: malformed script document: SessionError: "
     "terminal actions recorded but phase is 'committing'\n"),
    ([_pay(1.0)], [[False, False]] * 3,
     "error: malformed script document: SessionError: more votes than rounds\n"),
], ids=["terminal_actions_while_committing", "votes_past_the_last_round"])
def test_a_script_that_breaks_a_replay_rule_exits_2(workdir, capsys, rounds, votes, text):
    script = workdir / "replay_rule_script.json"
    script.write_text(json.dumps({"delta": 1.0, "rounds": rounds, "votes": votes,
                                  "terminal_actions": [1, 1]}), encoding="utf-8")
    assert _main(capsys, "simulate", str(workdir / "ex3.json"), "--script", str(script),
                 "-o", str(workdir / "replay_rule_transcript.json")) == (2, text)


def test_an_overflowing_script_fold_prints_only_its_error(workdir, capsys):
    burn = [{"payer": 1, "outcome": [1, 1], "recipient": "BURN", "amount": 1.7e308}]
    script = workdir / "overflow_script.json"
    script.write_text(json.dumps({"delta": 1.7e308, "rounds": [burn, burn],
                                  "votes": [[True, True], [False, False]]}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _main(capsys, "simulate", str(workdir / "ex3.json"), "--script", str(script),
                     "-o", str(workdir / "overflow_transcript.json")) == (
            2, "error: malformed script document: GameShapeError: utilities must be finite\n")


@pytest.mark.parametrize("mode", ["transfers", "burn_only"])
def test_an_overflowing_deviation_game_prints_only_its_error(workdir, capsys, mode):
    # 24 rounds on a 2x2 game where player 1 gets -0.6 of the largest float
    # at (2, 2); round 21 burns 0.3 of it there, as may every move of delta,
    # so a deviation game of the grid leaves the float range.
    import numpy as np

    from commitment_games import (BURN, CommitmentRound, Game, MixedProfile, Pledge,
                                  save_game, save_plan)
    from commitment_games.games import OutcomeTarget, content_hash
    from commitment_games.protocols import ProtocolPlan, PunishmentStage

    big = float(np.finfo(float).max)
    u = np.random.default_rng(11).uniform(-3, 3, (2, 2, 2))
    u[0, :, 0], u[1, 0, :] = (2.0, 1.0), (2.0, 1.0)  # (1, 1) is Nash
    u[0, 1, 1] = -0.6 * big
    game = Game(u)
    rounds = [CommitmentRound(())] * 24
    rounds[20] = CommitmentRound((Pledge(0, (1, 1), BURN, 0.3 * big),))
    first = MixedProfile.pure((2, 2), (0, 0))
    plan = ProtocolPlan("partial_support_disjoint", mode, 0.3 * big, tuple(rounds),
                        OutcomeTarget((0, 0), "pareto_improver"), first,
                        (PunishmentStage(0, first.supports(), first, (3.0, 3.0)),), (),
                        (0.0, 0.0), content_hash(game))
    game_path, plan_path = workdir / "overflow_game.json", workdir / "overflow_plan.json"
    save_game(game, game_path)
    save_plan(plan, plan_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _main(capsys, "verify", str(game_path), str(plan_path)) == (
            2, "error: a deviation game of the grid leaves the float range: "
               "utilities must be finite\n")


def test_verify_witness_dump(workdir):
    # build a game+naive plan pair that fails verification, dump witnesses
    from commitment_games import save_game, save_plan
    from commitment_games.catalog import naive_spoiler_plan, spoiler_3x3

    game_path = workdir / "spoiler.json"
    plan_path = workdir / "naive.json"
    save_game(spoiler_3x3(), game_path)
    save_plan(naive_spoiler_plan(0.5), plan_path)
    witness_path = workdir / "witness.json"
    res = run("verify", str(game_path), str(plan_path),
              "-o", str(workdir / "naive_report.json"),
              "--witness", str(witness_path))
    assert res.returncode == 1
    doc = json.loads(witness_path.read_text())
    assert doc["witnesses"]
    first = doc["witnesses"][0]
    assert "deviation" in first and first["mode"] == "transfers"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_plan_rejects_non_finite_delta(workdir, value):
    res = run("plan", str(workdir / "ex3.json"), "--payoffs", "4,3",
              f"--delta={value}")
    assert res.returncode == 2
    assert "--delta must be finite" in res.stderr
    assert "Traceback" not in res.stderr


def _ex3_plan_doc(workdir):
    from commitment_games import MixedProfile, build_plan, load_game, plan_to_dict

    game = load_game(workdir / "ex3.json")
    plan = build_plan(game, MixedProfile.pure((2, 2), (0, 0)), payoffs=(4.0, 3.0),
                      delta=1.0)
    return plan_to_dict(plan)


@pytest.mark.parametrize("broken", ["no_version", "missing_key", "bad_version"])
def test_verify_malformed_plan_exits_2(workdir, broken):
    doc = {
        "no_version": {"case_tag": "x"},
        "missing_key": {"schema_version": 1, "case_tag": "x"},
        "bad_version": {**_ex3_plan_doc(workdir), "schema_version": 2},
    }[broken]
    plan_path = workdir / f"malformed_{broken}.json"
    plan_path.write_text(json.dumps(doc), encoding="utf-8")
    res = run("verify", str(workdir / "ex3.json"), str(plan_path))
    assert res.returncode == 2
    assert "error:" in res.stderr and "Traceback" not in res.stderr


def _main(capsys, *args):
    """cli.main in-process; an exception escaping it fails the test."""
    from commitment_games.cli import main

    code = main(list(args))
    return code, capsys.readouterr().err


# `cli.main` builds its parser on first use and keeps it for the process;
# each call still gets its own namespace, and dispatches to the `cmd_*`
# function the module holds when it is called.

def _main_output(capsys, *args):
    """cli.main in-process: its exit code, standard output and standard error."""
    from commitment_games.cli import main

    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _written_plan(workdir, name):
    plan_path = workdir / name
    plan_path.write_text(json.dumps(_ex3_plan_doc(workdir)), encoding="utf-8")
    return str(plan_path)


def test_repeated_in_process_calls_match_fresh_processes(workdir, capsys):
    plan = _written_plan(workdir, "repeated_plan3.json")
    for args in [("export", "ex3"),
                 ("analyze", str(workdir / "mix3x3.json"), "--support", "1,2x1,2"),
                 ("verify", str(workdir / "ex3.json"), plan, "--budget", "2"),
                 ("verify", str(workdir / "ex1.json"), plan),
                 ("plan", str(workdir / "ex3.json"), "--payoffs", "8,-1", "--delta", "1"),
                 ("export", "nope")]:
        fresh = run(*args)
        first, second = (_main_output(capsys, *args) for _ in range(2))
        assert first == second == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_a_grid_does_not_carry_over_to_the_next_call(workdir, capsys):
    plan, report = _written_plan(workdir, "grid_once_plan3.json"), workdir / "grid_once.json"
    grids = []
    for extra in (["--grid=0.05"], []):
        code, _, _ = _main_output(capsys, "verify", str(workdir / "ex3.json"), plan,
                                  "-o", str(report), *extra)
        assert code == 0
        grids.append(json.loads(report.read_text(encoding="utf-8"))["grid"]["amounts"])
    assert grids == [[0.05], [0.5, 1.0]]  # the plan's delta is 1


def test_analyze_supports_do_not_accumulate(workdir, capsys):
    game = str(workdir / "mix3x3.json")
    first, second, other = (_main_output(capsys, "analyze", game, "--support", spec)
                            for spec in ("1,2x1,2", "1,2x1,2", "1x1"))
    assert first == second and first[1].count("support ") == 1
    assert other[1].count("support ") == 1 and "support 1x1:" in other[1]


def test_a_patched_command_is_the_one_that_runs(workdir, capsys, monkeypatch):
    from commitment_games import cli

    assert _main_output(capsys, "export", "nope")[0] == 2  # the parser is built
    ran = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: ran.append(args.plan) or 7)
    assert cli.main(["verify", "game.json", "plan.json"]) == 7 and ran == ["plan.json"]


@pytest.mark.parametrize("args", [[], ["nope"], ["plan"], ["verify", "g.json", "p.json",
                                                            "--budget", "one"]])
def test_usage_errors_exit_2_on_every_call(capsys, args):
    from commitment_games.cli import main

    fresh = run(*args)
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(args)
        captured = capsys.readouterr()
        assert (info.value.code, captured.out, captured.err) == (2, "", fresh.stderr)
    assert fresh.returncode == 2 and fresh.stderr.startswith("usage: commitment-games")


def test_importing_the_cli_builds_no_parser():
    probe = "\n".join([
        "import argparse, contextlib, io",
        "built, init = [], argparse.ArgumentParser.__init__",
        "def counted(self, *args, **kwargs):",
        "    built.append(1)",
        "    init(self, *args, **kwargs)",
        "argparse.ArgumentParser.__init__ = counted",
        "from commitment_games import cli",
        "counts = [len(built)]",
        "for _ in range(3):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert cli.main(['export', 'ex3']) == 0",
        "    counts.append(len(built))",
        "print(counts)"])
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    # None at import; the root parser and its six subcommands on the first call.
    assert json.loads(res.stdout) == [0, 7, 7, 7]


@pytest.mark.parametrize("args", [["--grid=-1"], ["--grid=inf"], ["--grid=nan"],
                                  ["--grid=0.5,2"], ["--budget=0"], ["--budget=-1"]])
def test_verify_rejects_bad_grid_arguments(workdir, capsys, args):
    plan_path = workdir / "grid_args_plan.json"
    plan_path.write_text(json.dumps(_ex3_plan_doc(workdir)), encoding="utf-8")
    code, err = _main(capsys, "verify", str(workdir / "ex3.json"), str(plan_path),
                      "-o", str(workdir / "grid_args_report.json"), *args)
    assert code == 2
    assert "error:" in err


def test_verify_checks_the_plan_against_its_game_once(workdir, capsys, monkeypatch):
    from commitment_games import cli, protocols, verifier

    checked, check = [], protocols.check_plan_for_game

    def counted(plan, game):
        checked.append(plan)
        return check(plan, game)

    monkeypatch.setattr(verifier, "check_plan_for_game", counted)
    monkeypatch.setattr(cli, "check_plan_for_game", counted)
    plan_path = workdir / "checked_once_plan.json"
    plan_path.write_text(json.dumps(_ex3_plan_doc(workdir)), encoding="utf-8")
    code, _ = _main(capsys, "verify", str(workdir / "ex3.json"), str(plan_path),
                    "-o", str(workdir / "checked_once_report.json"))
    assert code == 0 and len(checked) == 1
    # `verify_plan` makes the one check, so a bad --grid is reported first.
    code, err = _main(capsys, "verify", str(workdir / "ex1.json"), str(plan_path),
                      "--grid=0.5,2")
    assert code == 2 and "--grid amounts must not exceed the plan's delta" in err


@pytest.mark.parametrize("args", [
    ["--payoffs", "nan,3", "--delta", "1"],
    ["--payoffs", "inf,3", "--delta", "1"],
    ["--payoffs", "4,3", "--delta", "-1"],
    ["--payoffs", "4,3", "--delta", "0"],
    ["--payoffs", "4,3", "--delta", "1", "--grid", "2"],
])
def test_plan_parameter_errors_exit_2(workdir, capsys, args):
    code, err = _main(capsys, "plan", str(workdir / "ex3.json"), *args)
    assert code == 2
    assert "error:" in err


def test_plan_tiny_delta_is_infeasible_before_any_round(workdir):
    # Without the cap guard this call grows without bound; the subprocess
    # timeout stops it.
    res = subprocess.run(CLI + ["plan", str(workdir / "ex3.json"), "--payoffs", "4,3",
                                "--delta", "1e-300"],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 3
    assert "too many rounds" in res.stderr and "Traceback" not in res.stderr


def _input_error_case(workdir, case):
    """argv for one malformed CLI input."""
    game = str(workdir / "ex3.json")
    if case.startswith("script"):
        script = workdir / f"{case}.json"
        nan_pledge = {"payer": 1, "outcome": [2, 2], "recipient": "BURN",
                      "amount": math.nan}
        # One idle round, a unanimous stop and the terminal play (1, 1).
        stop = {"delta": 1.0, "rounds": [[]], "votes": [[False, False]],
                "terminal_actions": [1, 1]}
        script.write_text(json.dumps({"script_missing_delta": {"rounds": 3},
                                      "script_not_object": [1, 2],
                                      "script_rounds_not_list": {"delta": 1.0,
                                                                 "rounds": 3},
                                      "script_pledge_nan": {"delta": 1.0,
                                                            "rounds": [[nan_pledge]]},
                                      "script_delta_inf": {"delta": math.inf,
                                                           "rounds": []},
                                      "script_votes_string": {**stop, "votes": [["no", True]]},
                                      "script_votes_int": {**stop, "votes": [[0, 1]]},
                                      "script_terminal_bool": {**stop,
                                                               "terminal_actions": [True, 1]},
                                      "script_terminal_fraction": {
                                          **stop, "terminal_actions": [1.5, 1]},
                                      "script_delta_string": {**stop, "delta": "1"},
                                      "script_terminal_out_of_range": {
                                          **stop, "terminal_actions": [1, 9]},
                                      }[case]),
                          encoding="utf-8")
        return ["simulate", game, "--script", str(script), "-o", "-"]
    if case.startswith("game"):
        doc = json.loads((workdir / "ex3.json").read_text(encoding="utf-8"))
        key, value = {"game_players_inf": ("players", math.inf),
                      "game_action_counts_inf": ("action_counts", [math.inf, 2]),
                      "game_players_fraction": ("players", 2.9),
                      "game_action_counts_fraction": ("action_counts", [2.5, 2]),
                      "game_action_counts_string": ("action_counts", ["2", 2]),
                      "game_payoff_string": ("payoffs", [["3", 0.0], *doc["payoffs"][1:]]),
                      "game_payoff_bool": ("payoffs", [[True, 0.0], *doc["payoffs"][1:]]),
                      "game_schema_version_2": ("schema_version", 2),
                      "game_schema_version_bool": ("schema_version", True),
                      "game_action_name_number": ("action_names",
                                                  [[1.5, "B"], doc["action_names"][1]]),
                      }[case]
        doc[key] = value
        path = workdir / f"{case}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return ["analyze", str(path)]
    if case == "plan_baseline_nan":
        doc = _ex3_plan_doc(workdir)
        doc["baseline"] = [[math.nan, 1.0], [0.5, 0.5]]
        plan_path = workdir / "baseline_nan.json"
        plan_path.write_text(json.dumps(doc), encoding="utf-8")
        return ["verify", game, str(plan_path), "-o", str(workdir / "nan_report.json")]
    return {
        "simulate_without_plan": ["simulate", game],
        "reproduce_unknown_id": ["reproduce", "ex99"],
        "sigma_nan": ["plan", game, "--sigma", "nan,1;0.5,0.5", "--payoffs", "4,3",
                      "--delta", "0.5"],
        "support_repeated": ["analyze", game, "--support", "1,1x1,1"],
    }[case]


# The field a document error names, with 1-based labels.
_NAMED_FIELDS = {
    "game_players_fraction": "players must be an integer, got 2.9",
    "game_action_counts_fraction": "action_counts entry 1 must be an integer, got 2.5",
    "game_action_counts_string": "action_counts entry 1 must be an integer, got '2'",
    "game_payoff_string": "payoffs entry 1 entry 1 must be a number, got '3'",
    "game_payoff_bool": "payoffs entry 1 entry 1 must be a number, got True",
    "game_schema_version_2": "game schema_version is 2, expected 1",
    "game_schema_version_bool": "game schema_version is True, expected 1",
    "game_action_name_number": "action_names entry 1 entry 1 must be a string, got 1.5",
    "script_votes_string": "votes entry 1 entry 1 must be true or false, got 'no'",
    "script_votes_int": "votes entry 1 entry 1 must be true or false, got 0",
    "script_terminal_bool": "terminal_actions entry 1 must be an integer label, got True",
    "script_terminal_fraction": "terminal_actions entry 1 must be an integer label, got 1.5",
    "script_delta_string": "delta must be a number, got '1'",
    "script_terminal_out_of_range": "SessionError: terminal actions (1, 9) out of range",
    "target_fraction": "target profile entry 1 must be an integer label, got 2.5",
    "target_bool": "target profile entry 1 must be an integer label, got True",
    "first_round_fraction": "punishment stage 1 first_round must be an integer, got 1.9",
    "first_round_bool": "punishment stage 1 first_round must be an integer, got True",
    "rounds_applied_fraction": "checkpoint 2 rounds_applied must be an integer, got 1.5",
    "welfare_rounds_bool": "welfare_stage_rounds must be an integer, got True",
    "punishment_reversed": "punishment stages must start at rounds ascending from 0",
    "stage_past_end": "to at most 6, got [0, 999]",
    "support_fraction": "punishment stage 1 supports entry 1 entry 1 must be an integer "
                        "label, got 1.5",
    "support_bool": "punishment stage 1 supports entry 1 entry 1 must be an integer "
                    "label, got True",
    "action_orders_bool": "action_orders entry 1 entry 1 must be an integer label, got True",
    "delta_string": "delta must be a number, got '1'",
    "delta_bool": "delta must be a number, got True",
    "ceiling_string": "punishment stage 1 ceiling entry 1 must be a number, got '4.0'",
    "expected_payoff_string": "expected_terminal_payoffs entry 1 must be a number, got '4'",
    "baseline_string": "baseline entry 1 entry 1 must be a number, got '1'",
    "baseline_bool": "baseline entry 1 entry 1 must be a number, got True",
    "case_tag_list": "case_tag must be a string, got ['pure_anchor']",
    "mode_bool": "mode must be a string, got True",
    "role_number": "target role must be a string, got 1",
    "label_bool": "punishment stage 1 label must be a string, got True",
    "game_hash_number": "checkpoint 1 game_hash must be a string, got 0",
    "base_game_hash_number": "base_game_hash must be a string, got 0",
}


@pytest.mark.parametrize("case", ["simulate_without_plan", "script_missing_delta",
                                  "script_not_object", "script_rounds_not_list",
                                  "script_pledge_nan", "script_delta_inf",
                                  "script_votes_string", "script_votes_int",
                                  "script_terminal_bool", "script_terminal_fraction",
                                  "script_delta_string",
                                  "script_terminal_out_of_range",
                                  "reproduce_unknown_id", "sigma_nan",
                                  "plan_baseline_nan", "support_repeated",
                                  "game_players_inf", "game_action_counts_inf",
                                  "game_players_fraction", "game_action_counts_fraction",
                                  "game_action_counts_string", "game_payoff_string",
                                  "game_payoff_bool", "game_schema_version_2",
                                  "game_schema_version_bool", "game_action_name_number"])
def test_malformed_inputs_exit_2_without_traceback(workdir, capsys, case):
    code, err = _main(capsys, *_input_error_case(workdir, case))
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert _NAMED_FIELDS.get(case, "") in err


@pytest.mark.parametrize("option, value, message", [
    ("--support", "1,1x1,1", "player 1: bad support (1, 1)"),
    ("--support", "1,2x2,2", "player 2: bad support (2, 2)"),
    ("--sigma", "0.7,0.7;0.5,0.5", "bad --sigma: player 1: probabilities sum to 1.4"),
    ("--sigma", "0.5,0.5;1.5,-0.5", "bad --sigma: player 2: probabilities outside [0, 1]"),
    ("--sigma", "0.5,0.25,0.25;0.5,0.5", "bad --sigma: player 1: profile length 3 != 2 actions"),
    ("--sigma", "0.5,0.5;0.5,0.5;1", "bad --sigma: profile has 3 players, the game has 2"),
])
def test_support_and_sigma_errors_use_one_based_labels(workdir, capsys, option, value,
                                                       message):
    argv = ([option, value] if option == "--support" else
            [option, value, "--payoffs", "4,3", "--delta", "0.5"])
    code, err = _main(capsys, "analyze" if option == "--support" else "plan",
                      str(workdir / "ex3.json"), *argv)
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("option, message", [
    ("--target=6,1", "player 1: target action 6 is not among actions 1..2"),
    ("--target=0,1", "player 1: target action 0 is not among actions 1..2"),
    ("--target=1", "target needs one action per player: got 1 for 2 players"),
    ("--target=1,1,1", "target needs one action per player: got 3 for 2 players"),
    ("--payoffs=4,3,0", "payoff split needs one entry per player: got 3 for 2 players"),
    ("--payoffs=4,3,2", "payoff split needs one entry per player: got 3 for 2 players"),
    ("--payoffs=4", "payoff split needs one entry per player: got 1 for 2 players"),
    ("--payoffs=nan,3", "player 1: payoff nan is not finite"),
])
@pytest.mark.parametrize("delta", ["0.5", "auto"])
def test_malformed_targets_and_splits_exit_2(workdir, capsys, option, message, delta):
    code, err = _main(capsys, "plan", str(workdir / "ex3.json"), option, "--delta", delta)
    assert code == 2
    assert err == f"error: {message}\n"


# Plan documents that decode but break what every built plan meets.
_PLAN_EDITS = {
    "no_punishment": lambda d: d.update(punishment=[]),
    "checkpoint_past_end": lambda d: d["checkpoints"][-1].update(
        rounds_applied=len(d["rounds"]) + 1),
    "full_support_tag": lambda d: d.update(case_tag="full_support_2p",
                                           baseline=[[0.5, 0.5], [1.0, 0.0]]),
    "unknown_case_tag": lambda d: d.update(case_tag="nonsense"),
    "mode_barter": lambda d: d.update(mode="barter"),
    "target_out_of_range": lambda d: d["target"].update(profile=[3, 1]),
    "expected_payoffs_short": lambda d: d.update(expected_terminal_payoffs=[4.0]),
    "action_orders_not_permutations": lambda d: d.update(
        action_orders=[[1, 2], [1, 2, 3]]),
    "delta_nan": lambda d: d.update(delta=math.nan),
    "delta_inf": lambda d: d.update(delta=math.inf),
    "delta_zero": lambda d: d.update(delta=0.0),
    "delta_negative": lambda d: d.update(delta=-0.5),
    "pledge_nan": lambda d: d["rounds"][0][0].update(amount=math.nan),
    "pledge_inf": lambda d: d["rounds"][0][0].update(amount=math.inf),
    "pledge_over_cap": lambda d: d["rounds"][0][0].update(amount=5.0),
    "baseline_three_actions": lambda d: d.update(baseline=[[1.0, 0.0, 0.0],
                                                           [1.0, 0.0, 0.0]]),
    "support_names_action_7": lambda d: d["punishment"][0].update(supports=[[7], [1]]),
    "welfare_rounds_past_end": lambda d: d.update(welfare_stage_rounds=999),
    "welfare_rounds_negative": lambda d: d.update(welfare_stage_rounds=-3),
    "expected_payoff_nan": lambda d: d.update(expected_terminal_payoffs=[math.nan, 3.0]),
    "ceiling_inf": lambda d: d["punishment"][0].update(ceiling=[math.inf, math.inf]),
    "welfare_rounds_inf": lambda d: d.update(welfare_stage_rounds=math.inf),
    "first_round_inf": lambda d: d["punishment"][0].update(first_round=math.inf),
    "rounds_applied_inf": lambda d: d["checkpoints"][0].update(rounds_applied=math.inf),
    "payer_inf": lambda d: d["rounds"][0][0].update(payer=math.inf),
    "payer_fraction": lambda d: d["rounds"][0][0].update(payer=1.9),
    "payer_bool": lambda d: d["rounds"][0][0].update(payer=True),
    "recipient_fraction": lambda d: d["rounds"][0][0].update(recipient=2.5),
    "outcome_fraction": lambda d: d["rounds"][0][0].update(outcome=[1.7, 1]),
    "outcome_bool": lambda d: d["rounds"][0][0].update(outcome=[True, 1]),
    "amount_string": lambda d: d["rounds"][0][0].update(amount="0.5"),
    "amount_bool": lambda d: d["rounds"][0][0].update(amount=True),
    "target_fraction": lambda d: d["target"].update(profile=[2.5, 2]),
    "target_bool": lambda d: d["target"].update(profile=[True, 2]),
    "first_round_fraction": lambda d: d["punishment"][0].update(first_round=1.9),
    "first_round_bool": lambda d: d["punishment"][0].update(first_round=True),
    "rounds_applied_fraction": lambda d: d["checkpoints"][1].update(
        rounds_applied=d["checkpoints"][1]["rounds_applied"] + 0.5),
    "welfare_rounds_bool": lambda d: d.update(welfare_stage_rounds=True),
    "support_fraction": lambda d: d["punishment"][0].update(supports=[[1.5], [1]]),
    "support_bool": lambda d: d["punishment"][0].update(supports=[[True], [1]]),
    "action_orders_bool": lambda d: d.update(action_orders=[[True, 2], [1, 2]]),
    "delta_string": lambda d: d.update(delta="1"),
    "delta_bool": lambda d: d.update(delta=True),
    "ceiling_string": lambda d: d["punishment"][0].update(
        ceiling=[str(x) for x in d["punishment"][0]["ceiling"]]),
    "expected_payoff_string": lambda d: d.update(expected_terminal_payoffs=["4", 3]),
    "baseline_string": lambda d: d.update(baseline=[["1", 0], [1, 0]]),
    "baseline_bool": lambda d: d.update(baseline=[[True, 0], [1, 0]]),
    "case_tag_list": lambda d: d.update(case_tag=["pure_anchor"]),
    "mode_bool": lambda d: d.update(mode=True),
    "role_number": lambda d: d["target"].update(role=1),
    "label_bool": lambda d: d["punishment"][0].update(label=True),
    "game_hash_number": lambda d: d["checkpoints"][0].update(game_hash=0),
    "base_game_hash_number": lambda d: d.update(base_game_hash=0),
    # stage_for reads stages as ascending from round 0 inside the plan
    "punishment_reversed": lambda d: d["punishment"].reverse(),
    "first_stage_at_3": lambda d: d["punishment"][0].update(first_round=3),
    "stage_past_end": lambda d: d["punishment"][-1].update(first_round=999),
}


def _edited_plan(workdir, edit):
    doc = _ex3_plan_doc(workdir)
    _PLAN_EDITS[edit](doc)
    plan_path = workdir / f"edited_{edit}.json"
    plan_path.write_text(json.dumps(doc), encoding="utf-8")
    return str(plan_path)


@pytest.mark.parametrize("command, edit", [
    (command, edit) for edit in _PLAN_EDITS for command in ("verify", "simulate")
    # verify reports an over-cap round as a failed round_cap property
    if (command, edit) != ("verify", "pledge_over_cap")])
def test_bad_plan_documents_exit_2_without_traceback(workdir, capsys, command, edit):
    code, err = _main(capsys, command, str(workdir / "ex3.json"),
                      _edited_plan(workdir, edit),
                      "-o", str(workdir / f"edited_{edit}_{command}.json"))
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert _NAMED_FIELDS.get(edit, "") in err


_ONE_BASED_PLAN_EDITS = {
    "support_6": (lambda d: d["punishment"][0].update(supports=[[1], [6]]),
                  ("punishment stage 1: player 2: bad support (6)",)),
    "baseline_sum": (lambda d: d.update(baseline=[[0.7, 0.7], [0.5, 0.5]]),
                     ("ProfileError: player 1: probabilities sum to 1.4",)),
    "seed_sum": (lambda d: d["punishment"][0].update(seed=[[1.0, 0.0], [0.6, 0.6]]),
                 ("ProfileError: player 2: probabilities sum to 1.2",)),
}


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_plan_against_game_errors_use_one_based_labels(workdir, capsys, command):
    for name, (edit, texts) in _ONE_BASED_PLAN_EDITS.items():
        doc = _ex3_plan_doc(workdir)
        edit(doc)
        plan_path = workdir / f"{name}_{command}.json"
        plan_path.write_text(json.dumps(doc), encoding="utf-8")
        code, err = _main(capsys, command, str(workdir / "ex3.json"), str(plan_path),
                          "-o", str(workdir / f"{name}_{command}_out.json"))
        assert code == 2
        assert all(text in err for text in texts), err


def test_not_nash_sigma_is_reported_with_one_based_labels(workdir, capsys):
    code, err = _main(capsys, "plan", str(workdir / "ex3.json"), "--payoffs", "4,3",
                      "--delta", "0.5", "--sigma", "0,1;1,0",
                      "-o", str(workdir / "not_nash_plan.json"))
    assert code == 3
    assert "profile is not Nash: player 1 gains 2 by action 1" in err


def test_verify_reports_an_over_cap_round_as_round_cap_failure(workdir, capsys):
    report = workdir / "over_cap_report.json"
    code, _ = _main(capsys, "verify", str(workdir / "ex3.json"),
                    _edited_plan(workdir, "pledge_over_cap"), "-o", str(report))
    assert code == 1
    round_cap = json.loads(report.read_text())["properties"]["round_cap"]
    assert round_cap == {"status": "fail",
                         "detail": "round 1: player 1 pays 5 > delta=1 at outcome (2, 2)"}


def test_simulate_names_an_over_cap_round_with_one_based_labels(workdir, capsys):
    code, err = _main(capsys, "simulate", str(workdir / "ex3.json"),
                      _edited_plan(workdir, "pledge_over_cap"),
                      "-o", str(workdir / "over_cap_transcript.json"))
    assert code == 2
    assert ("plan round 1 breaks a session rule: "
            "player 1 pays 5 > delta=1 at outcome (2, 2)") in err, err


def _fields(doc, path=()):
    """The path of every value below the top of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from _fields(value, (*path, key))


def test_one_field_mutations_exit_cleanly(workdir, capsys):
    """One field of ex3's game, plan, transcript or script replaced by a
    bool, fraction, numeric string, null, list, object, Infinity, NaN, 0 or
    a negative integer: every run exits 0-3 or raises a document error.
    Where a field gets a value of another JSON type (or an integer field a
    fraction), the run exits 2; null is allowed where a field is optional."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from commitment_games.engine import transcript_from_dict
    from commitment_games.games import DocumentError, GameShapeError

    game = str(workdir / "ex3.json")
    plan_path = workdir / "fuzz_plan.json"
    plan_path.write_text(json.dumps(_ex3_plan_doc(workdir)), encoding="utf-8")
    assert _main(capsys, "simulate", game, str(plan_path),
                 "-o", str(workdir / "fuzz_transcript.json"))[0] == 0
    transcript = json.loads((workdir / "fuzz_transcript.json").read_text())
    del transcript["meta"]
    docs = {"game": json.loads((workdir / "ex3.json").read_text()),
            "plan": json.loads(plan_path.read_text()), "transcript": transcript,
            "script": {"delta": 1.0, "mode": "burn_only", "votes": [[True, True], [False, True]],
                       "rounds": [[{"payer": 1, "outcome": [2, 1], "recipient": "BURN",
                                    "amount": 0.5}], []],
                       "terminal_actions": [1, 2]}}
    fields = [(kind, path) for kind, doc in docs.items() for path in _fields(doc)]
    optional = ("action_names", "action_orders", "lambda", "terminal_actions",
                "final_payoffs")
    values = [True, 1.5, "1", None, [1], {"x": 1}, math.inf, math.nan, 0, -2]

    def json_type(value):
        return {bool: "bool", int: "number", float: "number", str: "string",
                type(None): "null", list: "list", dict: "object"}[type(value)]

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.sampled_from(fields), st.sampled_from(values), st.booleans())
    def run(field, value, simulate):
        kind, path = field
        doc = json.loads(json.dumps(docs[kind]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old, parent[path[-1]] = parent[path[-1]], value
        wrong_type = json_type(old) != "null" and (
            json_type(value) != json_type(old)
            or type(old) is int and isinstance(value, float) and math.isfinite(value))
        if value is None and path[-1] in optional:
            wrong_type = False
        if kind == "transcript":
            try:
                transcript_from_dict(doc)
            except (DocumentError, GameShapeError):
                return
            assert not wrong_type, (path, value)
            return
        target = workdir / f"fuzz_{kind}.json"
        target.write_text(json.dumps(doc), encoding="utf-8")
        argv = {"game": ["analyze", str(target)],
                "plan": ["simulate" if simulate else "verify", game, str(target)],
                "script": ["simulate", game, "--script", str(target)]}[kind]
        code, err = _main(capsys, *argv, *(() if kind == "game" else
                                           ("-o", str(workdir / "fuzz_out.json"))))
        assert code in (0, 1, 2, 3), (path, value, err)
        assert code == 2 or not wrong_type, (path, value, code)

    run()
