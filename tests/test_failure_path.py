"""Every failure leaves nsopt through cli.main's table of exit codes.

A command that raises SystemExit or calls sys.exit itself forks that
single path, so only the `if __name__ == "__main__":` block of cli may.
"""

import ast
from pathlib import Path

import nsopt


def _exits(node) -> bool:
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return ast.unparse(exc) == "SystemExit"
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.exit"


def _is_main_guard(node) -> bool:
    return isinstance(node, ast.If) and \
        ast.unparse(node.test) == "__name__ == '__main__'"


def test_only_cli_main_guard_exits():
    found = []
    for path in sorted(Path(nsopt.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if path.name == "cli.py" and _is_main_guard(top):
                continue
            found += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(top) if _exits(node)]
    assert found == []
