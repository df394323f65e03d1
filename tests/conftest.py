"""Shared pytest set-up: every hypothesis property runs the same examples each
time, and every test gets its own empty cache directory.

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

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.register_profile(
    "explore", derandomize=False, database=None, deadline=None, print_blob=True
)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def _own_cache_home(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
