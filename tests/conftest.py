"""Shared fixtures."""

import pytest

from iasltools import labeling, search


@pytest.fixture
def cold_search():
    """Start from empty process caches: no label table, kept odd-cycle
    verdict or classify edge record left by an earlier test."""
    search._uniform_table.cache_clear()
    search._ground_table.cache_clear()
    labeling._EDGES.clear()
