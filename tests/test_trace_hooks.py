"""The benchmark tracer wraps functions by module attribute; each must exist.

``perfbench/tracing.py`` replaces ``module.attribute`` for every entry of its
``WRAPS`` table, at the place where the CLI pipeline looks the function up.
A refactor that renames or stops importing one of them would break
``perfbench/run.py --trace 1``; this test catches that in the tier-1 suite.
Its hooks also read a model's ``kind``, ``values`` and ``samples``, which
``LossModel`` keeps for it alone; the second test feeds them real models.
"""

import importlib
from pathlib import Path

import pytest

from varsplit import atoms, load_losses_csv, solve_with_overhead

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_traced_attribute_resolves(tracing):
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.WRAPS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.WRAPS and missing == []


def test_hooks_read_atoms_and_csv_models(tracing, tmp_path):
    hooks = {name: after for _, _, name, after in tracing.WRAPS}
    tracer = tracing.Tracer()
    path = tmp_path / "book.csv"
    path.write_text("loss\n" + "".join(f"{k % 7}.5\n" for k in range(50)))
    book = load_losses_csv(path)
    hooks["loss_model.load_csv"](tracer, (path,), {}, book)
    assert tracer.counts["loss_model.rows_ingested"] == 50

    atom_model = atoms([0.0, 5.0, 10.0], [0.5, 0.3, 0.2])
    for model in (atom_model, book):
        res = solve_with_overhead(model, 0.95, 3)
        hooks["capital_solver.solve_with_overhead"](tracer, (model, 0.95, 3), {}, res)
    assert sorted(tracer.solves) == [
        ("atoms", 3, 10.0, 0.95, 3),
        ("empirical", 50, 6.5, 0.95, 3),
    ]
    assert (tracer.positive_atoms(atom_model), tracer.positive_atoms(book)) == (2, 7)
