"""Shared test guard: no test may leave the dimension cap changed."""

import pytest

from qgamelab.linalg import dimension_limit, set_dimension_limit


@pytest.fixture(autouse=True)
def _dimension_cap_is_restored():
    """Record ``dimension_limit()`` before each test; a test that leaves it
    changed gets it restored and fails, so the next test runs under the
    default cap."""
    before = dimension_limit()
    yield
    after = dimension_limit()
    if after != before:
        set_dimension_limit(before)
        pytest.fail(f"the test left the dimension cap at {after}, not "
                    f"{before}")
