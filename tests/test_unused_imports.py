"""No module of the package imports a name it never reads, except the few
that the benchmark tracer needs to find there; nor does ``tests/helpers.py``,
and each helper it defines is read by a test module or ``tests/cli_corpus.py``,
directly or through another helper, so no dead oracle stays behind.

The scan is ``ast`` only, so it needs no linter. ``__init__.py`` is skipped:
its imports are the public names, which ``test_public_api.py`` pins.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "varsplit"

#: Imports no package code reads. ``perfbench/tracing.py`` wraps each by its
#: module and name, so it must stay importable from that module until the
#: package traces itself.
TRACER_ONLY = [
    "cli.empirical",
    "cli.es_of_tranche",
    "structuring.mass_in",
    "structuring.var_of_tranche",
]


def unused_imports(source: str) -> list[str]:
    """Names an import binds in ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_every_import_is_read_or_kept_for_the_tracer():
    found = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == TRACER_ONLY


def test_the_scan_sees_an_unread_import():
    source = "import os, numpy as np\nfrom .errors import A, B as C\nprint(np.pi, A)\n"
    assert unused_imports(source) == ["C", "os"]


def unread_helpers(helpers: str, readers: list[str]) -> list[str]:
    """Top-level names that ``helpers`` defines and no reader imports from
    it, either directly or through a helper that one imports."""
    defined = {}
    for node in ast.parse(helpers).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined[node.target.id] = node
    todo = [
        alias.name
        for source in readers
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "helpers"
        for alias in node.names
    ]
    reached = set()
    while todo:
        name = todo.pop()
        if name in defined and name not in reached:
            reached.add(name)
            todo += [n.id for n in ast.walk(defined[name]) if isinstance(n, ast.Name)]
    return sorted(set(defined) - reached)


def test_the_test_helpers_are_all_read():
    helpers = (TESTS / "helpers.py").read_text(encoding="utf-8")
    readers = [
        path.read_text(encoding="utf-8")
        for path in sorted(TESTS.glob("*.py"))
        if path.name != "helpers.py"
    ]
    assert unused_imports(helpers) == []
    assert unread_helpers(helpers, readers) == []


def test_the_scan_sees_an_unread_helper():
    helpers = "N = 2\ndef a():\n    return b() * N\ndef b():\n    return 1\ndef c():\n    return 0\n"
    assert unread_helpers(helpers, ["from helpers import a\n"]) == ["c"]
    assert unread_helpers(helpers, []) == ["N", "a", "b", "c"]
