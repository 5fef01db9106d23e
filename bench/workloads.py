"""The benchmark's four workloads: input generation, jobs and correctness gates.

Each workload's `setup(seed, workdir)` builds its inputs and returns the
list of jobs one pass runs, in order.  A job is a `(name, fn)` pair; `fn()`
returns a `JobResult` whose `problems` list is empty when every gate held.
Library functions are always reached through their module attribute
(`verifier.verify_plan`, not an imported name) so the tracer sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from commitment_games import catalog, cli, engine, equilibria, games, protocols, verifier

# (commitment, early_stop) deviation games of the full grid for the fixed
# inputs; a shrunken grid would inflate dev_games_per_s.
FIXED_COUNTS = {
    "ex4": (13000, 198),
    "ex6": (4950, 147),
    "spoiler": (2540, 18),
    "ex3": (3478, 92),
    "ex5": (5200, 78),
}

# SHA-256 of each fixed report in canonical form (see `canonical_digest`).
# A change that alters a report on purpose updates these; the failing job's
# problem text prints the new digest.
GOLDEN = {
    "ex4": "3c7069e544678708666df6ef8b4ca609a02112727a1edcf5936d3d713fb3311b",
    "ex6": "f3f11374918a0bf0a5a8caedea02dc1d21170b8b46335478287efb7a352acdab",
    "spoiler": "1f2e73ac45125cbebfec088c55b4f9dec300cdeac8c363d450234084d1bff0ba",
    "ex3": "82877ca7d2d6c16e06fb5302597b85655c0b92f43cfd3149c444d0199e3b3f14",
    "ex5": "1300550f878888fa2249530f6e7f34dc058533d3164dd89b99fb19a4ec9b0e5a",
}

EX5_SIGMA = ("0.3333333333333333,0.3333333333333333,0.3333333333333334,0;"
             "0.3333333333333333,0.3333333333333333,0.3333333333333334,0")
CLI_GAMES = (
    ("ex3", ["--payoffs", "4,3"]),
    ("ex5", ["--target", "4,3", "--sigma", EX5_SIGMA]),
)
TWO_BY_TWO_GAMES = 20
PROBE_SAMPLES = 2000


@dataclass
class JobResult:
    problems: list[str] = field(default_factory=list)
    dev_games: int = 0      # commitment + early_stop games counted for the rate
    verify_s: float = 0.0   # time in verify_plan (or the `verify` subcommand)
    digest: str | None = None  # exact digest, must repeat across passes

    def expect(self, ok: bool, text: str) -> None:
        if not ok:
            self.problems.append(text)


def exact_digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest()


_NUMBER = re.compile(r"-?\d+\.\d*(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")


def _round(x: float) -> float:
    return 0.0 if abs(x) < 1e-9 else float(f"{x:.9g}")


def _canonical(x):
    if isinstance(x, float):
        return _round(x)
    if isinstance(x, str):
        return _NUMBER.sub(lambda m: repr(_round(float(m.group()))), x)
    if isinstance(x, dict):
        return {k: _canonical(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_canonical(v) for v in x]
    return x


def canonical_digest(doc: dict) -> str:
    """Digest of a report with numbers rounded to 9 significant digits and
    magnitudes below 1e-9 zeroed, including numbers inside text.

    Exact bytes repeat on one machine (checked across passes), but the last
    bits of a LAPACK solve may differ between CPU kernels, so the golden
    comparison uses this form.
    """
    return exact_digest(_canonical(doc))


def grid_counts(game, plan) -> tuple[int, int]:
    """(commitment, early_stop) games a full default grid checks, counted
    from the grid's definition: per player the no-op, then per outcome and
    amount a single burn, a move burn and (transfers) one transfer per
    recipient, plus pay-and-burn pairs when transfers meet a small game."""
    n = game.num_players
    outcomes = math.prod(game.action_counts)
    transfers = plan.mode == "transfers"
    moves = 1 + outcomes * 2 * (2 + (n - 1 if transfers else 0))
    if transfers and outcomes <= verifier.ADVERSARIAL_COMBO_OUTCOME_LIMIT:
        moves += (n - 1) * outcomes * (outcomes - 1)
    rounds = len(plan.rounds)
    return rounds * n * moves, max(rounds - 1, 0) * n


def check_report(res: JobResult, doc: dict, key: str, *, accepted: bool,
                 counts: tuple[int, int]) -> None:
    """Verdict, grid size and digest gates on a report dict without `meta`."""
    dev = doc["deviations"]
    got = (dev["commitment"]["checked"], dev["early_stop"]["checked"])
    res.dev_games = sum(got)
    res.expect(doc["accepted"] == accepted,
               f"{key}: accepted={doc['accepted']}, expected {accepted}")
    res.expect(got == tuple(counts), f"{key}: deviation counts {got} != {counts}")
    res.digest = exact_digest(doc)
    if key in GOLDEN:
        digest = canonical_digest(doc)
        res.expect(digest == GOLDEN[key],
                   f"{key}: report digest {digest} != golden {GOLDEN[key]}")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call cli.main in-process with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def read_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("meta", None)
    return doc


def verify_job(game, plan, key: str, counts=None):
    """A library verify of a plan that must be accepted."""
    counts = counts or FIXED_COUNTS[key]

    def run() -> JobResult:
        res = JobResult()
        t0 = perf_counter()
        report = verifier.verify_plan(game, plan)
        res.verify_s = perf_counter() - t0
        check_report(res, report.to_dict(), key, accepted=True, counts=counts)
        return res
    return run


def grid_2p(seed: int, workdir: str) -> list:
    """ex4 at delta=0.02 (100 rounds), then the probe on the mix3x3 anchor."""
    game = catalog.cyclic_with_prize()
    sigma = games.MixedProfile.uniform_over(game.action_counts, [(0, 1, 2), (0, 1, 2)])
    plan = protocols.build_plan(game, sigma, target=(3, 3), delta=0.02)
    mix = catalog.two_mode_mixing()
    anchor = equilibria.solve_on_support(mix, [(0, 1), (0, 1)]).profile

    def probe() -> JobResult:
        res = JobResult()
        report = equilibria.probe_strong_punishability(
            mix, anchor, epsilon=1.0, delta=0.05, samples=PROBE_SAMPLES,
            rng_seed=seed)
        res.expect(report.samples == PROBE_SAMPLES,
                   f"probe drew {report.samples} samples")
        res.expect(report.ok, f"probe: {len(report.failures)} failures")
        res.digest = exact_digest(report.to_dict())
        return res

    return [("verify ex4", verify_job(game, plan, "ex4")), ("probe mix3x3", probe)]


def grid_3p(seed: int, workdir: str) -> list:
    """ex6 at delta=0.01 (50 rounds), full grid."""
    game = catalog.three_player_cycle()
    sigma = games.MixedProfile.uniform_over(game.action_counts, [(0, 1)] * 3)
    plan = protocols.build_plan(game, sigma, target=(0, 0, 0), delta=0.01)
    return [("verify ex6", verify_job(game, plan, "ex6"))]


def _mismatch_player(rng, base: float) -> tuple[float, float, float, float]:
    g0, g1 = rng.uniform(0.6, 2.0, 2)
    h = rng.uniform(0.4, 1.5)
    return base, base - h, base + g0, base - h - g1


def two_by_two_instance(rng):
    """A mismatching-gap 2x2 game with its mixed anchor and gap-narrowing plan
    at delta = 0.3 x the smallest preference gap."""
    r1, r2 = rng.uniform(1.0, 3.0, 2)
    u1 = np.zeros((2, 2))
    u2 = np.zeros((2, 2))
    u1[0, 0], u1[0, 1], u1[1, 0], u1[1, 1] = _mismatch_player(rng, r1)
    u2[0, 0], u2[1, 0], u2[0, 1], u2[1, 1] = _mismatch_player(rng, r2)
    game = games.Game([u1, u2])
    sigma = equilibria.solve_on_support(game, [(0, 1), (0, 1)]).profile
    gaps = [abs(u1[0, 0] - u1[1, 0]), abs(u1[0, 1] - u1[1, 1]),
            abs(u2[0, 0] - u2[0, 1]), abs(u2[1, 0] - u2[1, 1])]
    plan = protocols.build_2x2_plan(game, sigma, (0, 0), 0.3 * min(gaps))
    return game, plan


def reject_fallback(seed: int, workdir: str) -> list:
    """The spoiler negative control through `verify`, then seeded 2x2 plans."""
    spoiler = catalog.spoiler_3x3()
    game_path = os.path.join(workdir, "spoiler.json")
    plan_path = os.path.join(workdir, "spoiler.plan.json")
    report_path = os.path.join(workdir, "spoiler.report.json")
    games.save_game(spoiler, game_path)
    protocols.save_plan(catalog.naive_spoiler_plan(0.1), plan_path)

    def verify_spoiler() -> JobResult:
        res = JobResult()
        t0 = perf_counter()
        code, out = run_cli(["verify", game_path, plan_path, "-o", report_path])
        res.verify_s = perf_counter() - t0
        res.expect(code == 1, f"spoiler verify exited {code}, expected 1: {out[-200:]}")
        doc = read_report(report_path)
        check_report(res, doc, "spoiler", accepted=False,
                     counts=FIXED_COUNTS["spoiler"])
        commitment = doc["deviations"]["commitment"]
        res.expect((commitment["worst_gain"] or 0.0) > 0,
                   f"spoiler worst gain {commitment['worst_gain']} is not positive")
        res.expect(commitment["structural_failures"] >= 1,
                   "spoiler reported no structural failure")
        return res

    jobs = [("verify spoiler", verify_spoiler)]
    rng = np.random.default_rng(seed)
    for i in range(TWO_BY_TWO_GAMES):
        game, plan = two_by_two_instance(rng)
        jobs.append((f"verify 2x2 #{i + 1}",
                     verify_job(game, plan, f"2x2 #{i + 1}",
                                counts=grid_counts(game, plan))))
    return jobs


def cli_auto(seed: int, workdir: str) -> list:
    """export, plan --delta auto, simulate, replay, verify for ex3 and ex5."""
    jobs = []
    for key, plan_args in CLI_GAMES:
        path = {kind: os.path.join(workdir, f"{key}.{kind}.json")
                for kind in ("game", "plan", "plan_report", "transcript", "report")}
        plan_digest: dict[str, str] = {}

        def step(argv, check=None):
            def run() -> JobResult:
                res = JobResult()
                t0 = perf_counter()
                code, out = run_cli(argv)
                elapsed = perf_counter() - t0
                res.expect(code == 0, f"{' '.join(argv[:2])} exited {code}: {out[-200:]}")
                if code == 0 and check is not None:
                    check(res, elapsed)
                return res
            return run

        def check_plan(res, elapsed, key=key, path=path, plan_digest=plan_digest):
            doc = read_report(path["plan_report"])
            res.expect(doc["accepted"], f"{key}: plan report not accepted")
            plan_digest["exact"] = exact_digest(doc)

        def check_verify(res, elapsed, key=key, path=path, plan_digest=plan_digest):
            res.verify_s = elapsed
            doc = read_report(path["report"])
            check_report(res, doc, key, accepted=True, counts=FIXED_COUNTS[key])
            res.expect(res.digest == plan_digest.get("exact"),
                       f"{key}: verify report differs from the plan's report")

        def replay(key=key, path=path) -> JobResult:
            res = JobResult()
            base, transcript, delta, mode = engine.load_transcript(path["transcript"])
            state = engine.replay(base, transcript, delta, mode)
            got = state.transcript.final_payoffs
            want = transcript.final_payoffs
            res.expect(want is not None and len(got) == len(want) and all(
                abs(a - b) <= 1e-12 for a, b in zip(got, want)),
                f"{key}: replayed payoffs {got} != recorded {want}")
            return res

        jobs += [
            (f"export {key}", step(["export", key, "-o", path["game"]])),
            (f"plan {key}", step(["plan", path["game"], *plan_args, "--delta", "auto",
                                  "-o", path["plan"], "--report", path["plan_report"]],
                                 check_plan)),
            (f"simulate {key}", step(["simulate", path["game"], path["plan"],
                                      "-o", path["transcript"]])),
            (f"replay {key}", replay),
            (f"verify {key}", step(["verify", path["game"], path["plan"],
                                    "-o", path["report"]], check_verify)),
        ]
    return jobs


WORKLOADS = {
    "grid-2p": grid_2p,
    "grid-3p": grid_3p,
    "reject-fallback": reject_fallback,
    "cli-auto": cli_auto,
}
