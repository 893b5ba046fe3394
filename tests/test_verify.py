"""The `verify` checks are the shared invariant set: pytest runs each one.

Tests elsewhere keep what no check asserts: frozen reference values,
property-based draws, error paths and timing.
"""

import numpy as np
import pytest

from ionquench.verify import FAST_CHECKS, FULL_ONLY_CHECKS


@pytest.mark.parametrize("check", FAST_CHECKS + FULL_ONLY_CHECKS, ids=lambda fn: fn.__name__)
def test_check_passes(check):
    result = check(np.random.default_rng(0))
    assert result.passed, f"{result.name}: {result.detail}"
