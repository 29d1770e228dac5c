"""Action-aware indexes (A2F and A2I) plus construction and persistence."""

from repro.index.a2f import A2FIndex, A2FVertex, FragmentCluster
from repro.index.a2i import A2IEntry, A2IIndex
from repro.index.builder import ActionAwareIndexes, build_indexes, database_fingerprint
from repro.index.maintenance import AppendReport, IncrementalIndexMaintainer
from repro.index.persistence import (
    a2f_size_bytes,
    a2i_size_bytes,
    load_indexes,
    load_indexes_arena,
    pickled_size_bytes,
    prague_index_size_bytes,
    save_indexes,
    save_indexes_arena,
)

__all__ = [
    "A2FIndex",
    "A2FVertex",
    "FragmentCluster",
    "A2IIndex",
    "A2IEntry",
    "ActionAwareIndexes",
    "build_indexes",
    "database_fingerprint",
    "a2f_size_bytes",
    "a2i_size_bytes",
    "prague_index_size_bytes",
    "pickled_size_bytes",
    "save_indexes",
    "load_indexes",
    "save_indexes_arena",
    "load_indexes_arena",
    "IncrementalIndexMaintainer",
    "AppendReport",
]
