"""Shared pytest set-up: every hypothesis property runs the same examples each time."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
