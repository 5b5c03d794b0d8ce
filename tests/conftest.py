"""Fixtures shared by the test modules."""

import pytest

from affhecke.flags import shared_context


@pytest.fixture
def fresh_shared_contexts():
    """No shared context, nor a table in one, outlives the test or predates
    it; for tests that patch FlagContext, so test order cannot hide an audit."""
    shared_context.cache_clear()
    yield
    shared_context.cache_clear()
