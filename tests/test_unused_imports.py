"""No module of the package imports a name it never reads, except the few
that the benchmark tracer needs to find there.

The scan is ``ast`` only, so it needs no linter. ``__init__.py`` is skipped:
its imports are the public names, which ``test_public_api.py`` pins.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "varsplit"

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
