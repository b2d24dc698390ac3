"""Checks on the package's source text, with the standard library alone."""
from __future__ import annotations

import ast
from pathlib import Path

import fstclock

PACKAGE = Path(fstclock.__file__).parent


def imported_names(path: Path) -> list[tuple[int, str, bool]]:
    """``(line, name, kept)`` for each name a module imports, ``from
    __future__`` aside; ``kept`` when its line is marked ``noqa: F401``.
    ``import a.b`` binds ``a``."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    names = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            names.append((alias.lineno, name, "noqa: F401" in lines[alias.lineno - 1]))
    return names


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each name a module imports and never reads,
    kept names (see ``imported_names``) exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for line, name, kept in imported_names(path)
            if name not in read and not kept]


def tracer_targets(path: Path) -> set[tuple[str, str]]:
    """The ``(module, name)`` pairs of ``TARGETS`` in the benchmark tracer's
    source: its literal pairs, and those it makes of a module and each name
    of a literal tuple (``(module, name) for name in NAMES``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    values = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)}
    pairs = set()
    for node in ast.walk(values["TARGETS"]):
        if isinstance(node, ast.Tuple) and len(node.elts) == 2 and all(
                isinstance(e, ast.Constant) for e in node.elts):
            pairs.add((node.elts[0].value, node.elts[1].value))
        elif isinstance(node, ast.GeneratorExp):
            module = node.elt.elts[0].value
            names = ast.literal_eval(values[node.generators[0].iter.id])
            pairs.update((module, name) for name in names)
    return pairs


def dead_private_names(paths: list[Path]) -> list[str]:
    """``file:line name`` for each private module-level constant, function or
    class that no module of ``paths`` reads: as a name, as an attribute, or
    by importing it.

    Assigning into a name (``_t[0] = 1``, ``_t.x = 1``) does not read it.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    read = set()
    for tree in trees.values():
        assigned_into = {
            id(node.value) for node in ast.walk(tree)
            if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(node.ctx, ast.Store)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if id(node) not in assigned_into:
                    read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [(node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [(n.id, n.lineno) for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            dead += [f"{path.name}:{line} {name}" for name, line in defined
                     if name.startswith("_") and not name.startswith("__") and name not in read]
    return dead


def names_by_function(path: Path) -> dict[str, set[str]]:
    """The names each module-level function of a module reads, as a name or
    as an attribute, called or not, nested functions included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name: {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                    if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
        for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def dict_value_names(path: Path, name: str) -> list[str]:
    """The names that are the values of the module-level dict literal ``name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)]
    return [v.id for v in value.values]


def test_main_alone_loads_a_run_s_series():
    # the one load in cli.main is where every command's series is read, so a
    # change to what the commands see (an in-memory hand-off, dithered ticks) is made once
    cli_py = PACKAGE / "cli.py"
    names = names_by_function(cli_py)
    assert [f for f, read in names.items() if "_load_filtered" in read] == ["main"]
    loaders = {"_load_filtered", "load_series", "load_cache", "ingest_csv"}
    commands = dict_value_names(cli_py, "COMMANDS")
    assert len(commands) == 6
    assert {f: sorted(names[f] & loaders) for f in commands} == {f: [] for f in commands}


def test_the_function_name_reader_sees_what_it_should(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import io\n"
        "X = 1\n"
        "def f(a):\n"
        "    g = lambda: io.load(a)\n"
        "    return _load(X), g\n"
        "def h(b):\n"
        "    b.loaded = 1\n"
        "    return functools.partial(save, b)\n"
        "TABLE = {'f': f, 'h': h}\n",
        encoding="utf-8",
    )
    assert names_by_function(module) == {"f": {"io", "load", "a", "_load", "X", "g"},
                                         "h": {"b", "functools", "partial", "save"}}
    assert dict_value_names(module, "TABLE") == ["f", "h"]


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


def test_every_kept_import_is_a_name_the_benchmark_tracer_wraps():
    # a name imported only so that the tracer can wrap it goes with its target
    targets = tracer_targets(Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
    kept = [(f"fstclock.{path.stem}", name) for path in sorted(PACKAGE.glob("*.py"))
            for _, name, is_kept in imported_names(path) if is_kept]
    assert [pair for pair in kept if pair not in targets] == []


def test_the_tracer_target_reader_sees_what_it_should(tmp_path):
    tracer = tmp_path / "tracing.py"
    tracer.write_text(
        "NAMES = ('f', 'g')\n"
        "TARGETS = tuple(('p.cli', name) for name in NAMES) + (\n"
        "    ('p.clock', 'h'),\n"
        ")\n"
        "OTHER = (('p.ks', 'k'),)\n",
        encoding="utf-8",
    )
    assert tracer_targets(tracer) == {("p.cli", "f"), ("p.cli", "g"), ("p.clock", "h")}


def test_no_private_name_of_the_package_goes_unread():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert dead_private_names(modules) == []


def test_the_dead_private_name_check_sees_what_it_should(tmp_path):
    m, n = tmp_path / "m.py", tmp_path / "n.py"
    m.write_text(
        "import n\n"
        "__version__ = '1'\n"
        "_USED = 1\n"
        "_TABLE = [0] * 3\n"
        "_TABLE[1:2] = [5]\n"
        "_A, _B = 1, 2\n"
        "_C: int = 3\n"
        "def _helper():\n"
        "    return _USED + _A\n"
        "def _dead():\n"
        "    _local = 1\n"
        "    return _local\n"
        "class _Gone:\n"
        "    pass\n"
        "def public():\n"
        "    return _helper(), n._by_attribute\n",
        encoding="utf-8",
    )
    n.write_text("from m import _C\ndef _by_attribute():\n    pass\n", encoding="utf-8")
    assert dead_private_names([m, n]) == ["m.py:4 _TABLE", "m.py:6 _B", "m.py:10 _dead", "m.py:13 _Gone"]
