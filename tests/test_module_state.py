"""No module of nsopt keeps solver state at module level.

Memos belong to the object whose lifetime they share (a tower lineage, an
Evaluator), so a result never depends on what ran earlier in the process.
A module-level name bound to an empty container is how a process-global
cache starts, so none may exist.
"""

import ast
from pathlib import Path

import nsopt


def _is_empty_container(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "list", "set")
        and not node.args
        and not node.keywords
    )


def test_no_module_level_empty_containers():
    found = []
    for path in sorted(Path(nsopt.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                    node.value is not None and _is_empty_container(node.value):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
