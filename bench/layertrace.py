"""Outside-in layer tracer for the benchmark.

`Tracer.install` replaces the public functions listed in `TRACED` with
timing wrappers at every module attribute of `commitment_games` that binds
them, so calls made through a name imported with `from .x import f` are
traced too.  Each call records one span (id, parent id, name, start, end,
job id, tag) in memory; `uninstall` puts the original functions back.
`layer_metrics` turns one pass worth of spans into the per-layer numbers.

The span stack is shared, so the tracer assumes a single thread:
COMMITMENT_GAMES_THREADS unset or 1.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "commitment_games"

PUNISH_KINDS = ("support_solve", "seed", "pure", "support_enum", "semi_mixed",
                "none")
IO_SPANS = frozenset({"games.save_game", "games.load_game", "games.content_hash",
                      "protocols.save_plan", "protocols.load_plan"})


def _report_tag(args, report):
    d = report.deviations
    return (d["commitment"].checked + d["early_stop"].checked,
            sum(len(r.structural_failures) for r in d.values()))


# (module, function, span name, tag(args, result) or None)
TRACED = (
    ("games", "apply_transfers", "games.apply_transfers", None),
    ("games", "save_game", "games.save_game", None),
    ("games", "load_game", "games.load_game", None),
    ("games", "content_hash", "games.content_hash", None),
    ("protocols", "save_plan", "protocols.save_plan", None),
    ("protocols", "load_plan", "protocols.load_plan", None),
    ("equilibria", "find_punishment_equilibrium", "equilibria.find_punishment",
     lambda args, r: r.kind),
    ("equilibria", "solve_on_support", "equilibria.solve_on_support",
     lambda args, r: r.status),
    ("equilibria", "build_characteristic_system",
     "equilibria.build_characteristic_system", None),
    ("equilibria", "is_nash", "equilibria.is_nash", None),
    ("equilibria", "enumerate_pure_nash", "equilibria.enumerate_pure_nash", None),
    ("equilibria", "is_non_degenerate", "equilibria.is_non_degenerate", None),
    ("equilibria", "probe_strong_punishability", "equilibria.probe",
     lambda args, r: r.samples),
    ("engine", "submit_round", "engine.submit_round", None),
    ("engine", "replay", "engine.replay", None),
    ("protocols", "build_plan", "protocols.build_plan", None),
    ("protocols", "choose_delta", "protocols.choose_delta", None),
    ("verifier", "verify_plan", "verifier.verify_plan", _report_tag),
    ("verifier", "check_on_path", "verifier.check_on_path", None),
    ("verifier", "check_deviations", "verifier.check_deviations", None),
    # The benchmark calls cli.main with the subcommand first.
    ("cli", "main", "cli.main", lambda args, r: args[0][0]),
)

CLI_COMMANDS = ("export", "plan", "simulate", "verify")

# Every per-layer metric with its unit and direction, in report order.
PER_LAYER = (
    ("games.apply_transfers.calls", "count", "lower"),
    ("games.apply_transfers.s", "s", "lower"),
    ("games.io.s", "s", "lower"),
    ("equilibria.find_punishment.calls", "count", "lower"),
    ("equilibria.find_punishment.s", "s", "lower"),
    *((f"equilibria.punish_kind.{k}", "count",
       "higher" if k == "support_solve" else "lower") for k in PUNISH_KINDS),
    ("equilibria.first_stage_hit_ratio", "ratio", "higher"),
    ("equilibria.fallback.s", "s", "lower"),
    ("equilibria.solve_on_support.calls", "count", "lower"),
    ("equilibria.solve_on_support.s", "s", "lower"),
    ("equilibria.solve_on_support.ok_ratio", "ratio", "higher"),
    ("equilibria.solve_on_support.first_stage.calls", "count", "lower"),
    ("equilibria.solve_on_support.first_stage.s", "s", "lower"),
    ("equilibria.build_characteristic_system.calls", "count", "lower"),
    ("equilibria.build_characteristic_system.s", "s", "lower"),
    ("equilibria.is_nash.calls", "count", "lower"),
    ("equilibria.is_nash.s", "s", "lower"),
    ("equilibria.enumerate_pure_nash.calls", "count", "lower"),
    ("equilibria.enumerate_pure_nash.s", "s", "lower"),
    ("equilibria.is_non_degenerate.s", "s", "lower"),
    ("equilibria.probe.s", "s", "lower"),
    ("equilibria.probe.samples_per_s", "1/s", "higher"),
    ("engine.submit_round.calls", "count", "lower"),
    ("engine.submit_round.s", "s", "lower"),
    ("engine.replay.s", "s", "lower"),
    ("protocols.build_plan.calls", "count", "lower"),
    ("protocols.build_plan.s", "s", "lower"),
    ("protocols.choose_delta.s", "s", "lower"),
    ("protocols.choose_delta.attempts", "count", "lower"),
    ("verifier.verify_plan.s", "s", "lower"),
    ("verifier.check_on_path.s", "s", "lower"),
    ("verifier.check_deviations.s", "s", "lower"),
    ("verifier.check_deviations.self_s", "s", "lower"),
    ("verifier.dev_games", "count", "higher"),
    ("verifier.structural_failures", "count", "lower"),
    *((f"cli.main.{c}.s", "s", "lower") for c in CLI_COMMANDS),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


class Tracer:
    """Span recorder; `job` names the benchmark job the next spans belong to."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = ""
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []

    def _wrap(self, fn, name, tag):
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                label = None if tag is None or result is None else tag(args, result)
                spans.append((sid, parent, name, t0, t1, self.job, label))

        traced.bench_span = name
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for module, attr, name, tag in TRACED:
            original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
            wrapper = self._wrap(original, name, tag)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def uninstall(self) -> None:
        while self._patched:
            m, key, original = self._patched.pop()
            setattr(m, key, original)

    def take_spans(self) -> list[tuple]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def leftover_wrappers() -> list[str]:
    """Package attributes that are still tracing wrappers (should be none)."""
    return [f"{m.__name__}.{key}" for m in package_modules()
            for key, value in vars(m).items() if hasattr(value, "bench_span")]


def layer_metrics(spans: list[tuple], slowdown: float = 1.0) -> dict[str, float]:
    """Per-layer totals, counts, ratios and self times for one traced pass.

    Times are divided by the host `slowdown` measured over the pass, so they
    are reference seconds like the end-to-end metrics.
    """
    name_of = {s[0]: s[2] for s in spans}
    calls: Counter = Counter()
    secs: defaultdict = defaultdict(float)
    child_s: defaultdict = defaultdict(float)
    first_child: dict[int, int] = {}
    for sid, parent, name, t0, t1, _job, _tag in spans:
        calls[name] += 1
        secs[name] += t1 - t0
        child_s[parent] += t1 - t0
        # Spans are appended when they end and siblings never overlap, so
        # the first span seen for a parent is its first child.
        first_child.setdefault(parent, sid)

    kinds: Counter = Counter()
    fallback_s = first_calls = first_s = io_s = dev_games = structural = 0.0
    solve_ok = probe_samples = attempts = 0
    cli_s: defaultdict = defaultdict(float)
    self_s = 0.0
    for sid, parent, name, t0, t1, _job, tag in spans:
        dur = t1 - t0
        parent_name = name_of.get(parent)
        if name == "equilibria.find_punishment":
            kinds[tag] += 1
            if tag != "support_solve":
                fallback_s += dur
        elif name == "equilibria.solve_on_support":
            solve_ok += tag == "ok"
            if parent_name == "equilibria.find_punishment" and first_child[parent] == sid:
                first_calls += 1
                first_s += dur
        elif name in IO_SPANS:
            if parent_name not in IO_SPANS:
                io_s += dur
        elif name == "equilibria.probe":
            probe_samples += tag or 0
        elif name == "protocols.build_plan":
            attempts += parent_name == "protocols.choose_delta"
        elif name == "verifier.verify_plan" and tag is not None:
            dev_games += tag[0]
            structural += tag[1]
        elif name == "verifier.check_deviations":
            self_s += dur - child_s[sid]
        elif name == "cli.main":
            cli_s[tag] += dur

    searches = calls["equilibria.find_punishment"]
    solves = calls["equilibria.solve_on_support"]
    out = {
        "games.apply_transfers.calls": calls["games.apply_transfers"],
        "games.apply_transfers.s": secs["games.apply_transfers"],
        "games.io.s": io_s,
        "equilibria.find_punishment.calls": searches,
        "equilibria.find_punishment.s": secs["equilibria.find_punishment"],
        **{f"equilibria.punish_kind.{k}": kinds[k] for k in PUNISH_KINDS},
        "equilibria.first_stage_hit_ratio":
            kinds["support_solve"] / searches if searches else 0.0,
        "equilibria.fallback.s": fallback_s,
        "equilibria.solve_on_support.calls": solves,
        "equilibria.solve_on_support.s": secs["equilibria.solve_on_support"],
        "equilibria.solve_on_support.ok_ratio": solve_ok / solves if solves else 0.0,
        "equilibria.solve_on_support.first_stage.calls": first_calls,
        "equilibria.solve_on_support.first_stage.s": first_s,
        "equilibria.probe.samples_per_s":
            probe_samples / secs["equilibria.probe"] if probe_samples else 0.0,
        "protocols.choose_delta.attempts":
            attempts / calls["protocols.choose_delta"]
            if calls["protocols.choose_delta"] else 0.0,
        "verifier.check_deviations.self_s": self_s,
        "verifier.dev_games": dev_games,
        "verifier.structural_failures": structural,
        **{f"cli.main.{c}.s": cli_s[c] for c in CLI_COMMANDS},
        "trace.spans": len(spans),
    }
    for base in ("equilibria.build_characteristic_system", "equilibria.is_nash",
                 "equilibria.enumerate_pure_nash", "engine.submit_round",
                 "protocols.build_plan"):
        out[f"{base}.calls"] = calls[base]
        out[f"{base}.s"] = secs[base]
    for base in ("equilibria.is_non_degenerate", "equilibria.probe", "engine.replay",
                 "protocols.choose_delta", "verifier.verify_plan",
                 "verifier.check_on_path", "verifier.check_deviations"):
        out[f"{base}.s"] = secs[base]
    for name, unit, _ in PER_LAYER:
        if name in out and unit == "s":
            out[name] /= slowdown
        elif name in out and unit == "1/s":
            out[name] *= slowdown
    return out


def write_spans(path, spans: list[tuple]) -> None:
    """One JSON array per line: id, parent, name, start, end, job, tag."""
    origin = min((s[3] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, t0, t1, job, tag in sorted(spans, key=lambda s: s[3]):
            fh.write(json.dumps([sid, parent, name, round(t0 - origin, 9),
                                 round(t1 - origin, 9), job, tag]) + "\n")
