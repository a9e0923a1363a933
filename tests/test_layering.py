"""The modules of nsopt form one stack, and each imports only from below.

algebra -> dfield -> telescope -> expr -> cli: a module may import the
modules to its left and never one to its right, not even inside a
function, where a deferred import would hide the cycle from a reader.
"""

import ast
from pathlib import Path

import nsopt

ORDER = ("algebra", "dfield", "telescope", "expr", "cli")


def _imported(node):
    """Names of the nsopt modules one import statement pulls in."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names
                if a.name.startswith("nsopt.")]
    module = node.module or ""
    if node.level == 0 and module != "nsopt":
        return [module.split(".")[1]] if module.startswith("nsopt.") else []
    if module and node.level:
        return [module.split(".")[0]]
    return [a.name for a in node.names]  # from . import x, from nsopt import x


def test_every_module_has_a_layer():
    names = {p.stem for p in Path(nsopt.__file__).parent.glob("*.py")}
    assert names - {"__init__"} == set(ORDER)


def test_no_module_imports_from_above():
    found = []
    for path in sorted(Path(nsopt.__file__).parent.glob("*.py")):
        if path.stem not in ORDER:
            continue
        rank = ORDER.index(path.stem)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for mod in _imported(node):
                if mod in ORDER and ORDER.index(mod) > rank:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
