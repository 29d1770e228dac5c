"""The shared-memory arena: codec round-trips, format, lifecycle.

The arena is answer-critical infrastructure — pool workers verify against
*decoded* graphs — so the codec tests pin structural identity, the format
test pins what the buffer holds, and the lifecycle tests pin the
publish/attach/dispose contract (including "dispose really unlinks": the
no-orphaned-segments guarantee CI checks after the suite).
"""

import json

import pytest

from repro.exceptions import IndexError_
from repro.graph.database import GraphDatabase
from repro.graph.labeled_graph import Graph
from repro.index.arena import (
    FORMAT_VERSION,
    MAGIC,
    IndexArena,
    db_fingerprint,
    encode_arena,
)
from repro.testing import small_database


@pytest.fixture(scope="module")
def db():
    return small_database(seed=9, num_graphs=25, max_nodes=7)


def _header(data: bytes) -> dict:
    start = len(MAGIC) + 4
    length = int.from_bytes(data[len(MAGIC):start], "little")
    return json.loads(data[start:start + length])


def assert_same_structure(a: Graph, b: Graph) -> None:
    assert set(a.nodes()) == set(b.nodes())
    assert a.num_edges == b.num_edges
    for n in a.nodes():
        assert a.label(n) == b.label(n)
    for u, v in a.edges():
        assert b.has_edge(u, v)
        assert a.edge_label(u, v) == b.edge_label(u, v)


class TestCodec:
    def test_every_graph_round_trips(self, db):
        arena = IndexArena.build(db)
        for gid, g in db.items():
            assert_same_structure(g, arena.graph(gid))

    def test_decoded_graphs_are_memoised(self, db):
        arena = IndexArena.build(db)
        assert arena.graph(0) is arena.graph(0)

    def test_non_dense_node_ids_round_trip(self):
        g = Graph()
        g.add_node("left", "A")
        g.add_node("right", "B")
        g.add_node(7, "A")
        g.add_edge("left", "right", "x")
        g.add_edge("right", 7, None)
        db = GraphDatabase()
        db.add(g)
        arena = IndexArena.build(db)
        assert_same_structure(g, arena.graph(0))

    def test_version_is_the_db_fingerprint(self, db):
        arena = IndexArena.build(db)
        assert arena.version == db_fingerprint(db)

    def test_add_changes_the_fingerprint(self):
        db = small_database(seed=3, num_graphs=5)
        before = db_fingerprint(db)
        g = Graph()
        g.add_node(0, "A")
        g.add_node(1, "B")
        g.add_edge(0, 1)
        db.add(g)
        assert db_fingerprint(db) != before

    def test_graph_id_out_of_range(self, db):
        arena = IndexArena.build(db)
        with pytest.raises(IndexError_, match="outside arena"):
            arena.graph(len(db))

    def test_bad_magic_rejected(self):
        with pytest.raises(IndexError_, match="bad magic"):
            IndexArena(b"NOTANARENA" + b"\x00" * 32)

    def test_missing_section_reported(self):
        header = json.dumps({
            "format": FORMAT_VERSION, "version": "v", "db_size": 1,
            "sections": {},
        }).encode()
        arena = IndexArena(MAGIC + len(header).to_bytes(4, "little") + header)
        with pytest.raises(IndexError_, match="no 'graphs' section"):
            arena.graph(0)


class TestSharedMemoryLifecycle:
    def test_publish_attach_round_trip(self, db):
        arena = IndexArena.build(db)
        name = arena.publish()
        if name is None:
            pytest.skip("shared memory unavailable on this platform")
        try:
            assert arena.publish() == name  # memoised, no second segment
            attached = IndexArena.attach(name, expected_version=arena.version)
            assert attached.version == arena.version
            assert_same_structure(db[0], attached.graph(0))
            attached.close()
        finally:
            arena.dispose()

    def test_attach_rejects_version_mismatch(self, db):
        arena = IndexArena.build(db)
        name = arena.publish()
        if name is None:
            pytest.skip("shared memory unavailable on this platform")
        try:
            with pytest.raises(IndexError_, match="version mismatch"):
                IndexArena.attach(name, expected_version="not-the-version")
        finally:
            arena.dispose()

    def test_dispose_unlinks_the_segment(self, db):
        from multiprocessing import shared_memory

        arena = IndexArena.build(db)
        name = arena.publish()
        if name is None:
            pytest.skip("shared memory unavailable on this platform")
        arena.dispose()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_attached_dispose_does_not_unlink(self, db):
        arena = IndexArena.build(db)
        name = arena.publish()
        if name is None:
            pytest.skip("shared memory unavailable on this platform")
        try:
            attached = IndexArena.attach(name)
            attached.dispose()  # non-owner: close only
            again = IndexArena.attach(name)  # still there
            again.close()
        finally:
            arena.dispose()


class TestEncodeArenaBytes:
    def test_buffer_is_self_describing(self, db):
        data = encode_arena(db)
        arena = IndexArena(data)
        assert arena.nbytes == len(data)
        assert arena.db_size == len(db)
        header = _header(data)
        assert header["version"] == db_fingerprint(db)
        # A store of graphs and nothing else.
        assert set(header["sections"]) == {"labels", "graphs"}
