"""Shared test configuration.

Every ``hypothesis`` test runs under one deterministic profile: examples
are derived from the test itself rather than drawn at random, no example
database is kept between runs, and no per-example deadline applies, so
the suite's time and outcome are the same on every run.  Each test
still sets its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
