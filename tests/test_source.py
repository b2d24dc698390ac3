"""Checks on the package's source text, with the standard library alone."""
from __future__ import annotations

import ast
from pathlib import Path

import fstclock

PACKAGE = Path(fstclock.__file__).parent


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each name a module imports and never reads.

    ``from __future__`` imports and names on a line marked ``noqa: F401`` are
    exempt; ``import a.b`` binds ``a``.
    """
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read and "noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno} {name}")
    return unused


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [u for path in modules for u in unused_imports(path)] == []


def test_the_unused_import_check_sees_what_it_should(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,  # noqa: F401  (kept for callers)\n"
        ")\n"
        "from re import compile\n"
        "def f():\n"
        "    import math\n"
        "    return os.sep, compile\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["m.py:3 np", "m.py:5 dumps", "m.py:10 math"]
