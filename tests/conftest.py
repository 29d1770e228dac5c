"""Shared fixtures: small mined databases, reused across the whole suite."""

from __future__ import annotations

import pytest

from repro.config import MiningParams
from repro.index import build_indexes
from repro.testing import small_database


@pytest.fixture(scope="session")
def small_db():
    """30 small random graphs over labels A/B/C."""
    return small_database(seed=0, num_graphs=30)


@pytest.fixture(scope="session")
def small_params():
    return MiningParams(min_support=0.2, size_threshold=3, max_fragment_edges=6)


@pytest.fixture(scope="session")
def small_indexes(small_db, small_params):
    return build_indexes(small_db, small_params)


@pytest.fixture(scope="session")
def medium_db():
    """A slightly larger corpus for integration tests."""
    return small_database(seed=7, num_graphs=60, labels="ABCD", max_nodes=8)


@pytest.fixture(scope="session")
def medium_params():
    return MiningParams(min_support=0.15, size_threshold=3, max_fragment_edges=7)


@pytest.fixture(scope="session")
def medium_indexes(medium_db, medium_params):
    return build_indexes(medium_db, medium_params)

