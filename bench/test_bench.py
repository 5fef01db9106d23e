"""Tests of the benchmark itself: trace counts against report counts, the
spoiler's exhausted searches, wrapper removal, metric names and the
refusal to run without the library.

    python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_library()

import layertrace  # noqa: E402
import workloads  # noqa: E402
from commitment_games import catalog, protocols  # noqa: E402


def _traced(workload: str, workdir) -> list[tuple]:
    runner = run.Runner(workloads.WORKLOADS[workload](1, str(workdir)))
    _, spans = run.traced_pass(runner)
    assert runner.failures == []
    return spans


def _job_metrics(spans, job: str) -> dict:
    return layertrace.layer_metrics([s for s in spans if s[5] == job])


def test_grid_2p_trace_reconciles_with_report_counts(tmp_path):
    spans = _traced("grid-2p", tmp_path)
    verify = _job_metrics(spans, "verify ex4")
    commitment, early_stop = workloads.FIXED_COUNTS["ex4"]
    rounds = 100
    # One search per commitment game, one per early-stop prefix (shared by
    # both players) and one per on-path checkpoint (all R + 1 probed).
    assert verify["equilibria.find_punishment.calls"] == (
        commitment + early_stop // 2 + rounds + 1)
    assert verify["verifier.dev_games"] == commitment + early_stop
    assert verify["games.apply_transfers.calls"] == commitment + 2 * rounds
    probe = _job_metrics(spans, "probe mix3x3")
    assert probe["equilibria.find_punishment.calls"] == workloads.PROBE_SAMPLES
    assert layertrace.layer_metrics(spans)["equilibria.first_stage_hit_ratio"] == 1.0


def test_grid_3p_first_stage_always_hits(tmp_path):
    spans = _traced("grid-3p", tmp_path)
    metrics = layertrace.layer_metrics(spans)
    assert metrics["equilibria.first_stage_hit_ratio"] == 1.0
    assert metrics["verifier.dev_games"] == sum(workloads.FIXED_COUNTS["ex6"])


def test_reject_fallback_spoiler_exhausts_574_searches(tmp_path):
    spans = _traced("reject-fallback", tmp_path)
    spoiler = _job_metrics(spans, "verify spoiler")
    assert spoiler["equilibria.punish_kind.none"] == 574
    assert spoiler["verifier.structural_failures"] == 574
    assert spoiler["cli.main.verify.s"] > 0
    metrics = layertrace.layer_metrics(spans)
    searches_s = metrics["equilibria.find_punishment.s"]
    assert metrics["equilibria.fallback.s"] > 0.5 * searches_s


def test_traced_pass_restores_every_library_attribute(tmp_path):
    before = {(m.__name__, k): v for m in layertrace.package_modules()
              for k, v in vars(m).items()}
    runner = run.Runner(workloads.WORKLOADS["cli-auto"](1, str(tmp_path)))
    _, spans = run.traced_pass(runner)
    after = {(m.__name__, k): v for m in layertrace.package_modules()
             for k, v in vars(m).items()}
    assert spans and runner.failures == []
    assert layertrace.leftover_wrappers() == []
    assert all(after[key] is value for key, value in before.items())


def test_grid_counts_match_the_verifier_grid():
    game = catalog.spoiler_3x3()
    plan = catalog.naive_spoiler_plan(0.1)
    assert workloads.grid_counts(game, plan) == workloads.FIXED_COUNTS["spoiler"]
    game = catalog.cyclic_with_prize()
    sigma = workloads.games.MixedProfile.uniform_over((4, 4), [(0, 1, 2)] * 2)
    plan = protocols.build_plan(game, sigma, target=(3, 3), delta=0.02)
    assert workloads.grid_counts(game, plan) == workloads.FIXED_COUNTS["ex4"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layertrace.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_the_library(tmp_path, trace):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-2p", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not Path(tmp_path / "bench" / "out").exists()
