"""Suite-wide hypothesis settings: every property runs the same examples on
every run (no example database, no deadline), so tier-1 stays deterministic.
Each test sets only its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
