"""Shared pytest set-up: every hypothesis property runs the same examples each
time, whichever modules the run loads, and every test gets its own empty
cache directory.

Hypothesis (6.155, for one) draws some values from a pool of the literal
constants it finds in every loaded local module (``src`` and ``perfbench``;
never a test file). The pool grows with the selection, so ``pytest
tests/test_price.py`` and the full suite drew different examples for the
same property, and a changed constant in ``src`` changed them all. The
pool is kept empty here; ``tests/test_hypothesis_examples.py`` checks that
the examples no longer depend on the selection.

``--hypothesis-profile=explore`` draws fresh examples on each run instead and
prints the blob that reproduces a failure; the weekly CI run uses it.

The CLI keeps the laws of the CSV books it has read under
``$XDG_CACHE_HOME``. Pointing that at a fresh directory per test means no
test reads an entry another test wrote (a test that watches the parse would
otherwise see none), and no test writes under the real home directory.
Subprocesses inherit the variable.
"""

import pytest
from hypothesis import settings

try:
    from hypothesis.internal.conjecture import providers
except ImportError:  # a hypothesis without the pool
    providers = None
if hasattr(providers, "_get_local_constants"):
    providers._get_local_constants = providers.Constants

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.register_profile(
    "explore", derandomize=False, database=None, deadline=None, print_blob=True
)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def _own_cache_home(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
