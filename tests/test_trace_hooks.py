"""The benchmark tracer wraps functions by module attribute; each must exist.

``perfbench/tracing.py`` replaces ``module.attribute`` for every entry of its
``WRAPS`` table, at the place where the CLI pipeline looks the function up.
A refactor that renames or stops importing one of them would break
``perfbench/run.py --trace 1``; this test catches that in the tier-1 suite.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_attribute_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.WRAPS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.WRAPS and missing == []
