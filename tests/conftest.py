"""Shared pytest configuration.

Property tests run derandomized, so every run draws the same examples, and
without a per-example deadline, since solver timings vary with the host.
"""

from hypothesis import settings

settings.register_profile("drnets", derandomize=True, deadline=None)
settings.load_profile("drnets")
