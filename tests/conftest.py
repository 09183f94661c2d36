"""Hypothesis profiles for the test suite.

`HYPOTHESIS_PROFILE=ci` (the tier-1 workflow sets it) draws every example from a fixed
seed and prints the reproduction blob of a failing one, so a fuzz failure in CI
reproduces from its log.  Example counts and deadlines stay those each test sets.
"""

import os

try:
    from hypothesis import settings
except ImportError:    # test-only: without it just the property-test modules fail to import
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
