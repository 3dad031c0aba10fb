"""Shared pytest set-up: a derandomised hypothesis profile.

Property tests draw the same examples on every run and keep no example
database, so the suite stays deterministic. No per-example deadline
applies: a slow host must not turn a correct example into a failure.
"""

from hypothesis import settings

settings.register_profile("halfdepth", derandomize=True, database=None, deadline=None)
settings.load_profile("halfdepth")
