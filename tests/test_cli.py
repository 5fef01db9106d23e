import json
import math
import subprocess
import sys

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


def test_verify_rejects_mismatched_game(workdir):
    res = run("verify", str(workdir / "ex1.json"), str(workdir / "plan3.json"))
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


@pytest.mark.parametrize("args", [["--grid=-1"], ["--grid=inf"], ["--grid=nan"],
                                  ["--grid=0.5,2"], ["--budget=0"], ["--budget=-1"]])
def test_verify_rejects_bad_grid_arguments(workdir, capsys, args):
    plan_path = workdir / "grid_args_plan.json"
    plan_path.write_text(json.dumps(_ex3_plan_doc(workdir)), encoding="utf-8")
    code, err = _main(capsys, "verify", str(workdir / "ex3.json"), str(plan_path),
                      "-o", str(workdir / "grid_args_report.json"), *args)
    assert code == 2
    assert "error:" in err


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
        script.write_text(json.dumps({"script_missing_delta": {"rounds": 3},
                                      "script_not_object": [1, 2],
                                      "script_rounds_not_list": {"delta": 1.0,
                                                                 "rounds": 3},
                                      "script_pledge_nan": {"delta": 1.0,
                                                            "rounds": [[nan_pledge]]},
                                      }[case]),
                          encoding="utf-8")
        return ["simulate", game, "--script", str(script), "-o", "-"]
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


@pytest.mark.parametrize("case", ["simulate_without_plan", "script_missing_delta",
                                  "script_not_object", "script_rounds_not_list",
                                  "script_pledge_nan",
                                  "reproduce_unknown_id", "sigma_nan",
                                  "plan_baseline_nan", "support_repeated"])
def test_malformed_inputs_exit_2_without_traceback(workdir, capsys, case):
    code, err = _main(capsys, *_input_error_case(workdir, case))
    assert code == 2
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("option, value, message", [
    ("--support", "1,1x1,1", "player 1: bad support '1,1'"),
    ("--support", "1,2x2,2", "player 2: bad support '2,2'"),
    ("--sigma", "0.7,0.7;0.5,0.5", "bad --sigma: player 1: probabilities sum to 1.4"),
    ("--sigma", "0.5,0.5;1.5,-0.5", "bad --sigma: player 2: probabilities outside [0, 1]"),
    ("--sigma", "0.5,0.25,0.25;0.5,0.5", "bad --sigma: player 1: 3 probabilities for 2 actions"),
    ("--sigma", "0.5,0.5;0.5,0.5;1", "bad --sigma: expected 2 probability vectors, got 3"),
])
def test_support_and_sigma_errors_use_one_based_labels(workdir, capsys, option, value,
                                                       message):
    argv = ([option, value] if option == "--support" else
            [option, value, "--payoffs", "4,3", "--delta", "0.5"])
    code, err = _main(capsys, "analyze" if option == "--support" else "plan",
                      str(workdir / "ex3.json"), *argv)
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


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_plan_against_game_errors_use_one_based_labels(workdir, capsys, command):
    doc = _ex3_plan_doc(workdir)
    doc["punishment"][0]["supports"] = [[1], [6]]
    plan_path = workdir / f"support_6_{command}.json"
    plan_path.write_text(json.dumps(doc), encoding="utf-8")
    code, err = _main(capsys, command, str(workdir / "ex3.json"), str(plan_path),
                      "-o", str(workdir / f"support_6_{command}_out.json"))
    assert code == 2
    assert "player 2's support [6]" in err and "1..2" in err


def test_verify_reports_an_over_cap_round_as_round_cap_failure(workdir, capsys):
    report = workdir / "over_cap_report.json"
    code, _ = _main(capsys, "verify", str(workdir / "ex3.json"),
                    _edited_plan(workdir, "pledge_over_cap"), "-o", str(report))
    assert code == 1
    round_cap = json.loads(report.read_text())["properties"]["round_cap"]
    assert round_cap == {"status": "fail",
                         "detail": "round 0: player 0 pays 5 > delta=1 at outcome (1, 1)"}
