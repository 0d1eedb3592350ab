"""Test-suite settings: hypothesis draws the same examples on every run.

derandomize seeds each property test from a hash of the test itself, so a
run of the suite is deterministic and a failure reproduces as it was seen.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
