"""Fixtures shared by the test modules."""

import pytest

from qmink import scalars as sc


@pytest.fixture
def count_reductions(monkeypatch):
    """count_reductions(fn): the number of `scalars._reduce` calls made by
    fn()."""
    def count(fn):
        calls = []
        reduce_split = sc._reduce

        def counting(*args):
            calls.append(1)
            return reduce_split(*args)

        monkeypatch.setattr(sc, "_reduce", counting)
        fn()
        monkeypatch.setattr(sc, "_reduce", reduce_split)
        return len(calls)

    return count
