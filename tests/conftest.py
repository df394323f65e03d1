"""Shared pytest set-up: every hypothesis property runs the same examples each time.

``--hypothesis-profile=explore`` draws fresh examples on each run instead and
prints the blob that reproduces a failure; the weekly CI run uses it.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.register_profile(
    "explore", derandomize=False, database=None, deadline=None, print_blob=True
)
settings.load_profile("deterministic")
