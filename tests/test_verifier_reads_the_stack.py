"""The verifier reads the plan's prefix stack and builds no game per prefix:
`verifier.py` calls none of the per-game fold, construction or payoff
helpers, and hashes only the base game with `content_hash` (the checkpoint
hashes come from `stack_hashes` over the stack's rows)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "commitment_games"

PER_PREFIX = ("apply_transfers", "Game", "with_utilities", "expected_utility", "fold_plan",
              "_cell_edits")


def _calls(module: str) -> list[tuple[str, ast.Call]]:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [(node.func.id if isinstance(node.func, ast.Name) else node.func.attr, node)
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))]


def test_verifier_builds_no_game_per_prefix():
    calls = _calls("verifier")
    found = [f"line {node.lineno}: {name}()" for name, node in calls if name in PER_PREFIX]
    assert not found, f"verifier.py calls a per-prefix path: {found}"


def test_verifier_hashes_only_the_base_game():
    hashed = [node for name, node in _calls("verifier") if name == "content_hash"]
    assert hashed
    for node in hashed:
        assert [ast.unparse(a) for a in node.args] == ["game"] and not node.keywords, \
            f"line {node.lineno}: content_hash({ast.unparse(node.args[0])})"
    assert any(name == "stack_hashes" for name, _ in _calls("verifier"))
