"""Command-line workbench.

Subcommands: analyze a game file, build and verify a plan, simulate a plan
into a transcript, verify a plan file, replay the worked-example corpus,
and export a catalog game.  Exit codes: 0 success, 1 verification failure,
2 input error, 3 infeasibility (construction hypotheses unmet).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from functools import cache

from . import __version__
from .catalog import GAMES, RUNNERS, reproduce
from .engine import (
    MODES,
    CommitmentRound,
    ReplayError,
    Transcript,
    _session_fields,
    replay,
    transcript_to_dict,
)
from .equilibria import (
    DegenerateEquilibriumError,
    NotNashError,
    SupportError,
    enumerate_pure_nash,
    is_non_degenerate,
    solve_on_support,
)
from .games import (
    MALFORMED,
    DocumentError,
    Game,
    GameShapeError,
    MixedProfile,
    ProfileError,
    _check_profile,
    _decoding,
    _write_json,
    content_hash,
    expected_utility,
    format_matrix,
    load_game,
    save_game,
    welfare_max,
)
from .protocols import (
    InfeasibleError,
    build_plan,
    check_plan_for_game,
    choose_delta,
    load_plan,
    save_plan,
)
from .verifier import verify_plan

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3


class InputError(ValueError):
    pass


def _file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _meta(args, inputs: dict) -> dict:
    return {
        "tool": {"name": "commitment-games", "version": __version__},
        "rng_seed": getattr(args, "seed", 0),
        "inputs": inputs,
    }


def _load_game(path) -> Game:
    try:
        return load_game(path)
    except (OSError, *MALFORMED) as exc:
        raise InputError(f"cannot read game file {path}: {exc}") from exc


def _parse_profile_indices(text: str, game: Game) -> tuple[int, ...]:
    """0-based actions of 1-based indices or action names, comma-separated;
    the library checks them against the game."""
    out = []
    for i, token in enumerate(p.strip() for p in text.split(",")):
        names = game.action_names[i] if game.action_names and i < game.num_players else ()
        if token in names:
            out.append(names.index(token))
            continue
        try:
            out.append(int(token) - 1)
        except ValueError as exc:
            raise InputError(f"player {i + 1}: unknown action {token!r}") from exc
    return tuple(out)


def _parse_supports(text: str) -> list[tuple[int, ...]]:
    """0-based index lists of per-player 1-based ones, e.g. '1,2x1,2' for two
    players; `MixedProfile.uniform_over` checks them against the game."""
    try:
        return [tuple(int(t) - 1 for t in block.split(",") if t.strip())
                for block in text.split("x")]
    except ValueError as exc:
        raise InputError(f"bad --support: {exc}") from exc


def _parse_sigma(text: str, game: Game) -> MixedProfile:
    """Per-player probability vectors, ';'-separated, ','-separated entries."""
    try:
        sigma = MixedProfile([[float(x) for x in block.split(",")]
                              for block in text.split(";")])
        _check_profile(game.action_counts, sigma)
    except ValueError as exc:  # a bad float, ProfileError or GameShapeError
        raise InputError(f"bad --sigma: {exc}") from exc
    return sigma


def _default_sigma(game: Game) -> MixedProfile:
    """First pure Nash profile (lex order) that is non-degenerate.  Its Nash
    check passes: it is `enumerate_pure_nash`'s test at the looser NASH_TOL."""
    for prof in enumerate_pure_nash(game):
        sigma = MixedProfile.pure(game.action_counts, prof)
        if is_non_degenerate(game, sigma).ok:
            return sigma
    raise InfeasibleError("no non-degenerate pure equilibrium to default to; "
                          "pass --sigma explicitly")


def _profile_label(game: Game, profile) -> str:
    return "(" + ",".join(game.action_label(i, a)
                          for i, a in enumerate(profile)) + ")"


def _write_doc(doc: dict, path) -> None:
    if path in (None, "-"):
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        _write_json(doc, path)


def cmd_analyze(args) -> int:
    game = _load_game(args.game)
    print(format_matrix(game))
    pure = enumerate_pure_nash(game)
    print("pure Nash:", " ".join(_profile_label(game, p) for p in pure) or "none")
    w, prof = welfare_max(game)
    print(f"welfare max: {w:g} at {_profile_label(game, prof)}")
    for spec in args.support or []:
        supports = _parse_supports(spec)
        solve = solve_on_support(game, supports,
                                 MixedProfile.uniform_over(game.action_counts, supports))
        print(f"support {spec}:")
        if solve.profile is None:
            print(f"  no equilibrium ({solve.status})")
            continue
        probs = "; ".join(",".join(f"{x:.6g}" for x in p)
                          for p in solve.profile.probs)
        print(f"  solution {probs}")
        utils = ", ".join(f"{expected_utility(game, solve.profile, i):.6g}"
                          for i in range(game.num_players))
        print(f"  expected utilities {utils}")
        report = is_non_degenerate(game, solve.profile)
        print(f"  non-degenerate: {'yes' if report.ok else 'no'} "
              f"(|det|={abs(report.det):.6g}, threshold={report.det_threshold:.3g}, "
              f"min residual={report.min_residual:.6g})")
    return EXIT_OK


def _describe_round(game: Game, round, index: int) -> str:
    if not round.pledges:
        return f"  round {index}: (idle)"
    bits = []
    for p in round.pledges:
        target = "burn" if p.recipient == "BURN" else f"to P{p.recipient + 1}"
        bits.append(f"P{p.payer + 1} {p.amount:g} {target} on "
                    f"{_profile_label(game, p.outcome)}")
    return f"  round {index}: " + "; ".join(bits)


def _parse_delta(text: str) -> float | None:
    """None for 'auto', else a finite positive float."""
    if text == "auto":
        return None
    try:
        delta = float(text)
    except ValueError as exc:
        raise InputError(f"bad --delta: {exc}") from exc
    if not math.isfinite(delta):
        raise InputError(f"--delta must be finite, got {text}")
    if not delta > 0:
        raise InputError(f"--delta must be positive, got {text}")
    return delta


def _parse_payoffs(text: str) -> list[float]:
    """The split's entries; the welfare stage checks them against the game."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --payoffs: {exc}") from exc


def _parse_grid(args) -> None:
    """Sets args.grid_amounts (None for the default grid) from --grid and
    checks --budget."""
    args.grid_amounts = None
    if args.grid:
        try:
            args.grid_amounts = tuple(float(x) for x in args.grid.split(","))
        except ValueError as exc:
            raise InputError(f"bad --grid: {exc}") from exc
        if not all(math.isfinite(x) and x >= 0 for x in args.grid_amounts):
            raise InputError(f"--grid amounts must be finite and >= 0, got {args.grid}")
    if args.budget is not None and args.budget < 1:
        raise InputError(f"--budget must be at least 1, got {args.budget}")


def _verify(args, game: Game, plan):
    """verify_plan on the --grid/--budget grid; amounts may not exceed the
    plan's cap."""
    if args.grid_amounts and max(args.grid_amounts) > plan.delta:
        raise InputError(f"--grid amounts must not exceed the plan's delta "
                         f"{plan.delta:g}, got {args.grid}")
    return verify_plan(game, plan, amounts=args.grid_amounts, budget=args.budget)


def cmd_plan(args) -> int:
    delta = _parse_delta(args.delta)
    game = _load_game(args.game)
    sigma = _parse_sigma(args.sigma, game) if args.sigma else _default_sigma(game)
    target = payoffs = None
    if args.target is not None and args.payoffs is not None:
        raise InputError("give either --target or --payoffs, not both")
    if args.target is not None:
        target = _parse_profile_indices(args.target, game)
        if args.mode == "transfers":
            raise InputError("--target plans are burn-only constructions")
    elif args.payoffs is not None:
        payoffs = _parse_payoffs(args.payoffs)
        if args.mode == "burn_only":
            raise InfeasibleError("payoff splits need transfers; burning "
                                  "cannot redistribute welfare")
    else:
        raise InputError("one of --target or --payoffs is required")

    if delta is None:
        delta, plan = choose_delta(game, sigma, target=target, payoffs=payoffs)
    else:
        plan = build_plan(game, sigma, target=target, payoffs=payoffs,
                          delta=delta)
    report = _verify(args, game, plan)
    print(f"case: {plan.case_tag}; delta={delta:g}; rounds={plan.num_rounds}")
    for k, r in enumerate(plan.rounds):
        print(_describe_round(game, r, k + 1))
    print(f"target {_profile_label(game, plan.target.profile)}, expected payoffs "
          + ",".join(f"{x:g}" for x in plan.expected_terminal_payoffs))
    print(f"verification: {'accepted' if report.accepted else 'REJECTED'}")
    meta = _meta(args, {"game": _file_sha256(args.game),
                        "game_content": content_hash(game)})
    if args.out:
        save_plan(plan, args.out, extra=meta)
        print(f"plan written to {args.out}")
    if args.report:
        doc = report.to_dict()
        doc["meta"] = meta
        _write_doc(doc, args.report)
    return EXIT_OK if report.accepted else EXIT_VERIFICATION


def _run_script(game: Game, path):
    """The session a script document drives; DocumentError when the script
    is malformed or breaks a session rule."""
    with open(path, "r", encoding="utf-8") as fh:
        script = json.load(fh)
    with _decoding("script"):
        state, rounds, votes, actions = _session_fields(game, script, rounds=[], votes=[])
        # A round without a vote row continues.
        votes += ((True,) * game.num_players,) * (len(rounds) - len(votes))
        try:
            return replay(game, Transcript(rounds, votes, actions), state.delta, state.mode)
        except ReplayError as exc:
            raise exc.__cause__ from None


def cmd_simulate(args) -> int:
    game = _load_game(args.game)
    if args.script and args.plan is not None:
        raise InputError("give a plan file or --script, not both")
    if args.script:
        state = _run_script(game, args.script)
    elif args.plan is None:
        raise InputError("give a plan file or --script")
    else:
        plan = check_plan_for_game(load_plan(args.plan), game)
        rounds = plan.rounds or (CommitmentRound(),)  # stop at once without rounds
        votes = ((True,) * game.num_players,) * (len(rounds) - 1) + ((False,) * game.num_players,)
        try:
            state = replay(game, Transcript(rounds, votes, plan.target.profile),
                           plan.delta, plan.mode)
        except ReplayError as exc:
            raise DocumentError(f"plan round {exc.step + 1} breaks a session rule: "
                                f"{exc.__cause__}") from exc.__cause__
        payoffs = state.transcript.final_payoffs
        print("final payoffs:", ",".join(f"{x:.12g}" for x in payoffs))
    doc = transcript_to_dict(state)
    doc["meta"] = _meta(args, {"game": _file_sha256(args.game)})
    _write_doc(doc, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    game = _load_game(args.game)
    plan = load_plan(args.plan)  # `verify_plan` checks that it fits `game`
    report = _verify(args, game, plan)
    doc = report.to_dict()
    doc["meta"] = _meta(args, {"game": _file_sha256(args.game),
                               "plan": _file_sha256(args.plan)})
    _write_doc(doc, args.out)
    if args.witness and report.witnesses:
        _write_doc({"witnesses": report.witnesses}, args.witness)
    print(f"verification: {'accepted' if report.accepted else 'REJECTED'}")
    return EXIT_OK if report.accepted else EXIT_VERIFICATION


def cmd_reproduce(args) -> int:
    unknown = [e for e in args.examples if e not in RUNNERS]
    if unknown:
        raise InputError(f"unknown example id(s) {', '.join(unknown)}; "
                         f"known: {', '.join(RUNNERS)}")
    ids = args.examples or None
    rows = reproduce(ids)
    width = max(len(r.example) for r in rows)
    for r in rows:
        mark = "PASS" if r.ok else "FAIL"
        print(f"{r.example.ljust(width)}  {mark}  {r.detail}")
    return EXIT_OK if all(r.ok for r in rows) else EXIT_VERIFICATION


def cmd_export(args) -> int:
    if args.example not in GAMES:
        raise InputError(f"unknown example {args.example!r}; "
                         f"known: {', '.join(sorted(GAMES))}")
    game = GAMES[args.example]()
    if args.out in (None, "-"):
        from .games import game_to_dict
        _write_doc(game_to_dict(game), None)
    else:
        save_game(game, args.out)
        print(f"{args.example} written to {args.out}")
    return EXIT_OK


def _add_grid_args(p):
    p.add_argument("--grid", default=None,
                   help="comma-separated deviation amounts (default: delta/2,delta)")
    p.add_argument("--budget", type=int, default=None,
                   help="max number of prefixes probed per deviation class")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="commitment-games",
        description="workbench for staged side-payment commitment games")
    ap.add_argument("--seed", type=int, default=0,
                    help="rng seed recorded in output artifacts")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="pure Nash set, welfare max, support solves")
    p.add_argument("game")
    p.add_argument("--support", action="append",
                   help="per-player 1-based support lists, e.g. 1,2x1,2")

    p = sub.add_parser("plan", help="build and verify a commitment schedule")
    p.add_argument("game")
    p.add_argument("--sigma", help="baseline profile, e.g. 0.5,0.5,0;0.5,0.5,0")
    p.add_argument("--target", help="pure target outcome, e.g. 4,4 or B,B")
    p.add_argument("--payoffs", help="welfare split, e.g. 4,3")
    p.add_argument("--delta", default="auto", help="per-round cap or 'auto'")
    p.add_argument("--mode", choices=MODES, type=lambda m: {"burn": "burn_only"}.get(m, m),
                   help="burn is an alias of burn_only")
    p.add_argument("-o", "--out", help="plan file to write")
    p.add_argument("--report", help="verification report file")
    _add_grid_args(p)

    p = sub.add_parser("simulate", help="replay a plan into a transcript")
    p.add_argument("game")
    p.add_argument("plan", nargs="?")
    p.add_argument("--script", help="interactive script JSON instead of a plan")
    p.add_argument("-o", "--out", default="-", help="transcript file")

    p = sub.add_parser("verify", help="verify a plan file against its game")
    p.add_argument("game")
    p.add_argument("plan")
    p.add_argument("-o", "--out", default="-", help="report file")
    p.add_argument("--witness", help="dump counterexample transcripts here")
    _add_grid_args(p)

    p = sub.add_parser("reproduce", help="replay the worked-example corpus")
    p.add_argument("examples", nargs="*",
                   help="example ids (default: all)")

    p = sub.add_parser("export", help="write a catalog game to a JSON file")
    p.add_argument("example")
    p.add_argument("-o", "--out", default="-")
    return ap


# The parser, built on first use and kept for the process, like the imports.
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if hasattr(args, "grid"):
            _parse_grid(args)
        return globals()[f"cmd_{args.command}"](args)  # looked up per call, so patchable
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InfeasibleError, DegenerateEquilibriumError, NotNashError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (GameShapeError, ProfileError, SupportError, DocumentError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
