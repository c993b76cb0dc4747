"""Shared pytest configuration.

The property tests in ``test_specfun_fuzz.py`` run under a derandomized
hypothesis profile (no example database, examples seeded from each test),
so the suite draws the same points on every run.
"""

try:
    from hypothesis import settings
except ImportError:  # the fuzz module skips itself without hypothesis
    pass
else:
    settings.register_profile("lzdrive", derandomize=True, deadline=None)
    settings.load_profile("lzdrive")
