"""A property draws the same examples whichever other modules the run loads.

Hypothesis (6.155, for one) mixes the literal constants of every loaded
local module into its draws; ``tests/conftest.py`` turns that pool off.
Each case here runs one property in two child pytest processes, alone and
beside modules that load ``varsplit.cli`` and ``perfbench``, and compares
every example drawn.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Runs pytest with a plugin that records each example's arguments before the
#: property sees them, then writes the exit code and the examples as JSON.
PROBE = """
import json, sys
import pytest

class Record:
    drawn = []

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        inner = item.obj.hypothesis.inner_test

        def record(**kwargs):
            self.drawn.append(repr(sorted(kwargs.items())))
            return inner(**kwargs)

        item.obj.hypothesis.inner_test = record

out, name, *paths = sys.argv[1:]
code = pytest.main(["-q", "-p", "no:cacheprovider", "-k", name, *paths], plugins=[Record()])
with open(out, "w") as fh:
    json.dump([int(code), Record.drawn], fh)
"""


def drawn(tmp_path, name, selections):
    """The examples each selection of test files draws, from child pytest
    processes that run side by side."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    outs = [tmp_path / f"drawn{i}.json" for i in range(len(selections))]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", PROBE, str(out), name, *paths],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for out, paths in zip(outs, selections)
    ]
    assert [proc.wait(timeout=300) for proc in procs] == [0] * len(procs)
    runs = [json.loads(out.read_text()) for out in outs]
    assert [code for code, _ in runs] == [0] * len(runs)
    return [examples for _, examples in runs]


@pytest.mark.parametrize(
    "module, name, examples",
    [("tests/test_price.py", "test_es_is_within_the_exact_bound_on_random_laws", 300)],
)
def test_examples_do_not_depend_on_the_modules_loaded(tmp_path, module, name, examples):
    """Before the pool was emptied, the 19th example drew alpha 0.95 alone and
    0.5 beside the other modules."""
    alone, beside = drawn(
        tmp_path, name, [[module], [module, "tests/test_cli.py", "tests/test_trace_hooks.py"]]
    )
    assert len(alone) == examples
    assert alone[18] == beside[18]
    assert alone == beside
