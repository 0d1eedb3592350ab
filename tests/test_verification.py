"""The verify suites at their default sizes hold for any generator seed."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab.verification import dispersion_checks, sections_checks, winding_checks


@pytest.mark.parametrize("suite", [winding_checks, dispersion_checks, sections_checks])
@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_seeded_suites_pass_for_any_seed(suite, seed):
    failed = [check for check in suite(seed=seed) if not check.passed]
    assert not failed, failed
