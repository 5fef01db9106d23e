"""Every tolerance of the package is a name from the table in `games`: no
module of `src/` writes a float literal of magnitude below 1e-5 except as a
module-level assignment in that table, or as one of the few small constants
that are not tolerances.  The table keeps its values, and the old names
resolve to its entries.  No function takes a tolerance or a validation
switch as a parameter, except where callers pass two values."""

import ast
from pathlib import Path

from commitment_games import equilibria, games, protocols, verifier

SRC = Path(__file__).resolve().parents[1] / "src" / "commitment_games"

TABLE = {
    "SUPPORT_EPSILON": 1e-9, "DEFAULT_TOL": 1e-9, "SYSTEM_TOL": 1e-10,
    "NEWTON_TOL": 1e-12, "NASH_TOL": 1e-8, "DET_TOL": 1e-8, "GAIN_TOL": 1e-9,
    "PROFILE_SLACK": 1e-6, "CAP_SLACK": 1e-12, "EXACT_SLACK": 1e-12,
    "PAYOFF_SLACK": 1e-9, "DRIFT_TOL": 1e-7, "AMOUNT_FLOOR": 1e-15,
    "ROOT_FLOOR": 1e-15,
}

# Small constants that are not tolerances: the smallest cap `choose_delta` tries.
ALLOWED = {("protocols", "DELTA_FLOOR")}


# The functions callers pass two values of a tolerance or a switch:
# `is_nash` and its kernels run at NASH_TOL and GAIN_TOL, a profile is read
# at DEFAULT_TOL and PROFILE_SLACK, and the orchestration calls the plan
# builders with `validate=False` once it has classified the case.
KNOBS_IN_USE = {
    ("equilibria", "is_nash"), ("equilibria", "nash_batch"), ("equilibria", "_bnash"),
    ("games", "MixedProfile.__init__"),
    ("protocols", "build_partial_support_plan"),
    ("protocols", "build_two_player_full_support_plan"),
    ("protocols", "build_multiplayer_plan"), ("protocols", "build_2x2_plan"),
}


def _is_knob(name):
    return name in ("tol", "eps", "validate") or name.endswith("_tol")


def _knob_parameters(node, scope=()):
    """(qualified name, parameter) of every function under `node` with a
    parameter named `tol`, `eps`, `*_tol` or `validate`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = ".".join((*scope, child.name))
            if not isinstance(child, ast.ClassDef):
                a = child.args
                for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                    if arg is not None and _is_knob(arg.arg):
                        yield name, arg.arg
            yield from _knob_parameters(child, (*scope, child.name))
        else:
            yield from _knob_parameters(child, scope)


def test_no_tolerance_parameter_outside_the_functions_that_need_one():
    found, kept = [], set()
    for path in sorted(SRC.glob("*.py")):
        for name, param in _knob_parameters(ast.parse(path.read_text())):
            if (path.stem, name) in KNOBS_IN_USE:
                kept.add((path.stem, name))
            else:
                found.append(f"{path.stem}.{name}({param})")
    assert not found, f"read the table constant instead: {found}"
    assert kept == KNOBS_IN_USE


def _small_literals(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, float) and 0 < abs(node.value) < 1e-5]


def test_no_tolerance_literal_outside_the_table():
    found, table = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {}
        for node in tree.body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                named[id(node.value)] = node.targets[0].id
        for node in _small_literals(tree):
            name = named.get(id(node))
            if path.stem == "games" and name in TABLE:
                table[name] = node.value
            elif (path.stem, name) not in ALLOWED:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, f"tolerance literals outside the table in games.py: {found}"
    assert table == TABLE


def test_old_names_resolve_to_the_table():
    assert {name: getattr(games, name) for name in TABLE} == TABLE
    assert equilibria.DET_TOL is games.DET_TOL
    assert equilibria.NEWTON_TOL is games.NEWTON_TOL
    assert verifier.TOLERANCE is games.GAIN_TOL
    assert protocols._AMOUNT_FLOOR is games.AMOUNT_FLOOR
