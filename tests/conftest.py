"""Fixtures shared by the test modules."""

import pytest

from affhecke.hecke import clear_bar_table
from affhecke.flags import shared_context


@pytest.fixture
def fresh_shared_contexts():
    """No shared context, nor a table in one, outlives the test or predates
    it; for tests that patch FlagContext, so test order cannot hide an audit."""
    shared_context.cache_clear()
    yield
    shared_context.cache_clear()


@pytest.fixture
def fresh_bar_table():
    """The shared table of packed inverses starts empty and is freed
    after the test, so test order cannot hide a stale entry."""
    clear_bar_table()
    yield
    clear_bar_table()
