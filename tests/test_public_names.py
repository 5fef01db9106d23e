"""The names other code binds stay in place: every name the package
exports, every function the benchmark's layer tracer wraps, and the
equilibrium functions the benchmark calls directly.  The benchmark looks
these up by name at run time, so a deleted or renamed one would otherwise
surface only when the benchmark runs."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import commitment_games

ROOT = Path(__file__).resolve().parents[1]

# The single-game equilibrium names keep their signatures as one-row stacks.
SIGNATURES = {
    "is_nash": "(game: 'Game', profile: 'MixedProfile', tol: 'float' = 1e-09)"
               " -> 'NashCheck'",
    "enumerate_pure_nash": "(game: 'Game') -> 'list[tuple[int, ...]]'",
    "build_characteristic_system": "(game: 'Game', supports: 'Sequence[Sequence[int]]')"
                                   " -> 'CharacteristicSystem'",
    "solve_on_support": "(game: 'Game', supports: 'Sequence[Sequence[int]]',"
                        " seed: 'MixedProfile | None' = None) -> 'SupportSolve'",
    "is_non_degenerate": "(game: 'Game', profile: 'MixedProfile') -> 'NonDegeneracyReport'",
    "find_punishment_equilibrium": "(game: 'Game', reference_support:"
                                   " 'Sequence[Sequence[int]]', seed: 'MixedProfile | None',"
                                   " ceiling: 'Sequence[float]') -> 'PunishmentResult'",
}

# The plan builders, the cap search and the round bound take no tuning knobs.
_BUILDER = ("(game: 'Game', sigma: 'MixedProfile', target: 'Sequence[int]',"
            " delta: 'float', *, validate: 'bool' = True) -> 'ProtocolPlan'")
SIGNATURES.update({
    "build_partial_support_plan": _BUILDER,
    "build_two_player_full_support_plan": _BUILDER,
    "build_multiplayer_plan": _BUILDER,
    "build_2x2_plan": _BUILDER,
    "build_welfare_transfer_stage": "(game: 'Game', sigma: 'MixedProfile', payoff_targets:"
                                    " 'Sequence[float]', delta: 'float')"
                                    " -> 'tuple[ProtocolPlan, Game]'",
    "build_plan": "(game: 'Game', sigma: 'MixedProfile', *, target: 'Sequence[int] | None'"
                  " = None, payoffs: 'Sequence[float] | None' = None, delta: 'float')"
                  " -> 'ProtocolPlan'",
    "choose_delta": "(game: 'Game', sigma: 'MixedProfile', *, target: 'Sequence[int] | None'"
                    " = None, payoffs: 'Sequence[float] | None' = None)"
                    " -> 'tuple[float, ProtocolPlan]'",
    "round_bound_check": "(plan: 'ProtocolPlan', game: 'Game') -> 'BoundCheck'",
})

# The verifier's entry points take no tolerance knob.
SIGNATURES.update({
    "verify_plan": "(game: 'Game', plan: 'ProtocolPlan', *, amounts: 'Sequence[float] | None'"
                   " = None, budget: 'int | None' = None, checkpoint_budget: 'int | None'"
                   " = None) -> 'VerificationReport'",
    "check_on_path": "(game: 'Game', plan: 'ProtocolPlan', checkpoint_budget: 'int | None'"
                     " = None, *, stack: 'np.ndarray | None' = None, punishments:"
                     " 'PrefixPunishments | None' = None) -> 'dict[str, PropertyResult]'",
    "check_deviations": "(game: 'Game', plan: 'ProtocolPlan', *, amounts: 'Sequence[float]"
                        " | None' = None, budget: 'int | None' = None, stack: 'np.ndarray"
                        " | None' = None, punishments: 'PrefixPunishments | None' = None)"
                        " -> 'dict[str, DeviationClassResult]'",
})

# The session path: `run_rounds` folds a session's rounds once, and
# `submit_round` (its one-round case) and `replay` keep the names the
# benchmark's layer tracer wraps.
SIGNATURES.update({
    "run_rounds": "(state: 'SessionState', rounds: 'Sequence[CommitmentRound]',"
                  " votes: 'Sequence[Sequence[bool]]') -> 'SessionState'",
    "submit_round": "(state: 'SessionState', round: 'CommitmentRound') -> 'SessionState'",
    "replay": "(base: 'Game', transcript: 'Transcript', delta: 'float',"
              " mode: 'str' = 'transfers') -> 'SessionState'",
})


def _exported_names():
    tree = ast.parse((ROOT / "src" / "commitment_games" / "__init__.py").read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _layertrace(monkeypatch):
    """bench/layertrace.py, loaded without writing anything under bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layertrace",
                                                  ROOT / "bench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_equilibria_calls():
    """`equilibria.<name>` attributes the benchmark scripts read."""
    names = set()
    for path in (ROOT / "bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "equilibria"):
                names.add(node.attr)
    return sorted(names)


def test_every_exported_name_resolves():
    exported = _exported_names()
    assert len(exported) > 50
    for module, name in exported:
        source = importlib.import_module(f"commitment_games.{module}")
        assert getattr(commitment_games, name) is getattr(source, name)
    for name, signature in SIGNATURES.items():
        assert str(inspect.signature(getattr(commitment_games, name))) == signature


def test_every_name_the_benchmark_binds_resolves(monkeypatch):
    traced = _layertrace(monkeypatch).TRACED
    assert len(traced) > 10
    for module, function, _span, _tag in traced:
        assert callable(getattr(importlib.import_module(f"commitment_games.{module}"),
                                function, None)), f"{module}.{function}"
    calls = _bench_equilibria_calls()
    assert "worker_count" in calls and "solve_on_support" in calls
    equilibria = importlib.import_module("commitment_games.equilibria")
    for name in calls:
        assert callable(getattr(equilibria, name, None)), f"equilibria.{name}"
