"""Document fields go through the typed readers in `games`: the decoders of
game, plan, pledge, transcript and script documents, and the private
helpers they decode with, never convert a field with a bare `int`,
`float` or `bool`, which would read `true` as 1 or 1.9 as 1."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "commitment_games"

DECODERS = {
    "games": ("game_from_dict",),
    "engine": ("pledge_from_dict", "_read_rounds", "_session_fields", "transcript_from_dict"),
    "protocols": ("_read_stage", "_read_checkpoint", "plan_from_dict"),
    "cli": ("_run_script",),
}


def test_decoders_call_no_bare_conversions():
    for module, names in DECODERS.items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        functions = {node.name: node for node in tree.body
                     if isinstance(node, ast.FunctionDef)}
        for name in names:
            bare = [f"line {node.lineno}: {node.func.id}()"
                    for node in ast.walk(functions[name])
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("int", "float", "bool")]
            assert not bare, f"{module}.{name} converts a field itself: {bare}"
