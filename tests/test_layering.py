"""The modules of nsopt form one stack, and each imports only from below.

algebra -> dfield -> telescope -> expr -> cli: a module may import the
modules to its left and never one to its right, not even inside a
function, where a deferred import would hide the cycle from a reader.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_cli_import_adds_neither_dataclasses_nor_inspect():
    # both cost most of the import of nsopt.cli, which every CLI run pays
    code = (
        "import sys; before = set(sys.modules); import nsopt.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    src = str(Path(nsopt.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.strip() == "[]"


def test_every_name_the_benchmark_patches_exists():
    # perfbench/spans.py wraps these names where nsopt's callers look them
    # up; a refactor that drops one would otherwise show only in a traced
    # benchmark run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for _name, module, attr in spans.PATCHES
               if not hasattr(importlib.import_module(module), attr)]
    assert spans.PATCHES and missing == []
