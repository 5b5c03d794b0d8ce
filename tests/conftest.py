"""Fixtures shared by the test modules."""

import pytest

from affhecke.hecke import clear_bar_table
from affhecke.flags import FlagContext, shared_context


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


@pytest.fixture
def one_flag_moved(monkeypatch):
    """``FlagContext._image`` with its first point moved into the fiber of
    another point of the component, for every source and component."""
    exact = FlagContext._image

    def moved(self, source, forgotten):
        image = list(exact(self, source, forgotten))
        image[0] = next(j for j in image if j != image[0])
        return image

    monkeypatch.setattr(FlagContext, "_image", moved)
