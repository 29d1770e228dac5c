"""The shared-memory graph store of the verification pool — a compact
read-only arena.

PRAGUE's residual work runs in a verification pool, and everything a worker
needs used to travel *by value*: candidate graphs re-pickled into every chunk
payload.  The arena inverts that: the database's graphs are serialized
**once** into a versioned, read-only byte buffer that lives in
``multiprocessing.shared_memory``.  Workers attach at spawn and chunk
payloads shrink to ``(arena_version, chunk_ids)`` tuples.

Layout (all integers little-endian)::

    MAGIC "PRGARENA" | u32 header_len | header JSON
    ...sections at the offsets the header records...

The header carries the format version, the **arena version** — a content
fingerprint of the database (:func:`db_fingerprint`), so a ``db.add()``
necessarily produces a different version and invalidates every attached
consumer — and the section table.  Sections:

========== ==========================================================
section     contents
========== ==========================================================
``labels``  pickled node/edge label table (index 0 ≙ unlabeled edge)
``graphs``  offset table + one compact binary record per data graph
========== ==========================================================

Graph records use dense int arrays (label indices + edge index triples);
non-integer node ids degrade to an attached pickled id list.  Decoding is
lazy and memoised per consumer: a pool worker decodes each graph at most
once per arena version, no matter how many chunks touch it.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import IndexError_
from repro.graph.database import GraphDatabase
from repro.graph.labeled_graph import Graph

MAGIC = b"PRGARENA"
FORMAT_VERSION = 1

_GRAPH_HEAD = struct.Struct("<BII")  # flags, num_nodes, num_edges
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

_FLAG_DENSE_IDS = 1


def db_fingerprint(db: GraphDatabase) -> str:
    """Content fingerprint of the database — the arena version string.

    Folds every graph's cached structural fingerprint (order-invariant) plus
    its exact node/edge counts; ``db.add()`` changes the length and therefore
    the digest, which is what invalidates published arenas.
    """
    h = hashlib.sha256()
    h.update(_U64.pack(len(db)))
    for _, g in db.items():
        h.update(struct.pack("<qII", g.fingerprint(), g.num_nodes, g.num_edges))
    return h.hexdigest()[:24]


# ----------------------------------------------------------------------
# graph records
# ----------------------------------------------------------------------
def _encode_graph(g: Graph, label_of: Dict[Optional[str], int]) -> bytes:
    nodes = list(g.nodes())
    n = len(nodes)
    dense = all(isinstance(x, int) for x in nodes) and sorted(nodes) == list(
        range(n)
    )
    if dense:
        nodes = list(range(n))
    pos = {node: i for i, node in enumerate(nodes)}
    out = io.BytesIO()
    out.write(_GRAPH_HEAD.pack(_FLAG_DENSE_IDS if dense else 0, n, g.num_edges))
    for node in nodes:
        out.write(_U32.pack(label_of[g.label(node)]))
    for u, v in g.edges():
        out.write(_U32.pack(pos[u]))
        out.write(_U32.pack(pos[v]))
        out.write(_U32.pack(label_of[g.edge_label(u, v)]))
    if not dense:
        out.write(pickle.dumps(nodes, protocol=pickle.HIGHEST_PROTOCOL))
    return out.getvalue()


def _decode_graph(buf: memoryview, labels: Sequence[Optional[str]]) -> Graph:
    flags, n, m = _GRAPH_HEAD.unpack_from(buf, 0)
    off = _GRAPH_HEAD.size
    label_idx = [
        _U32.unpack_from(buf, off + 4 * i)[0] for i in range(n)
    ]
    off += 4 * n
    edges = [
        tuple(_U32.unpack_from(buf, off + 12 * i + 4 * j)[0] for j in range(3))
        for i in range(m)
    ]
    off += 12 * m
    if flags & _FLAG_DENSE_IDS:
        nodes: List = list(range(n))
    else:
        nodes = pickle.loads(bytes(buf[off:]))
    g = Graph()
    for node, li in zip(nodes, label_idx):
        g.add_node(node, labels[li])
    for u_i, v_i, e_i in edges:
        g.add_edge(nodes[u_i], nodes[v_i], labels[e_i])
    return g


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def encode_arena(db: GraphDatabase) -> bytes:
    """Serialize ``db``'s graphs into one arena byte string."""
    label_of: Dict[Optional[str], int] = {None: 0}
    for g in db:
        for node in g.nodes():
            label_of.setdefault(g.label(node), len(label_of))
        for u, v in g.edges():
            label_of.setdefault(g.edge_label(u, v), len(label_of))
    labels = [None] * len(label_of)
    for label, idx in label_of.items():
        labels[idx] = label

    blobs = [_encode_graph(g, label_of) for _, g in db.items()]
    offsets = [0]
    for blob in blobs:
        offsets.append(offsets[-1] + len(blob))
    graphs = io.BytesIO()
    graphs.write(_U32.pack(len(blobs)))
    for off in offsets:
        graphs.write(_U64.pack(off))
    for blob in blobs:
        graphs.write(blob)
    sections = {
        "labels": pickle.dumps(labels, protocol=pickle.HIGHEST_PROTOCOL),
        "graphs": graphs.getvalue(),
    }

    # Section offsets are relative to the end of the header, so the header's
    # own length never feeds back into them.
    import json

    order = sorted(sections)
    offset = 0
    table = {}
    for name in order:
        table[name] = [offset, len(sections[name])]
        offset += len(sections[name])
    header = {
        "format": FORMAT_VERSION,
        "version": db_fingerprint(db),
        "db_size": len(db),
        "sections": table,
    }
    encoded = json.dumps(header).encode()

    out = io.BytesIO()
    out.write(MAGIC)
    out.write(_U32.pack(len(encoded)))
    out.write(encoded)
    for name in order:
        out.write(sections[name])
    return out.getvalue()


# ----------------------------------------------------------------------
# the arena object
# ----------------------------------------------------------------------
class IndexArena:
    """A parsed arena over any buffer (bytes or shared memory).

    The instance memoises decoded graphs — in a pool worker that makes graph
    materialization a once-per-arena-version cost, amortized across every
    chunk the worker ever processes.
    """

    def __init__(self, buffer, shm=None, owner: bool = False) -> None:
        import json

        self._buf = memoryview(buffer)
        self._shm = shm
        self._owner = owner
        if bytes(self._buf[: len(MAGIC)]) != MAGIC:
            raise IndexError_("not an arena buffer (bad magic)")
        (header_len,) = _U32.unpack_from(self._buf, len(MAGIC))
        header = json.loads(
            bytes(self._buf[len(MAGIC) + 4 : len(MAGIC) + 4 + header_len])
        )
        if header.get("format", 0) > FORMAT_VERSION:
            raise IndexError_(
                f"arena format {header.get('format')} is newer than this "
                f"reader (max {FORMAT_VERSION})"
            )
        self.version: str = header["version"]
        self.db_size: int = header["db_size"]
        data_start = len(MAGIC) + 4 + header_len
        self._sections: Dict[str, Tuple[int, int]] = {
            name: (data_start + off, length)
            for name, (off, length) in header["sections"].items()
        }
        self._labels: Optional[List[Optional[str]]] = None
        self._graph_cache: Dict[int, Graph] = {}
        self._graph_offsets: Optional[List[int]] = None

    # -- section access ------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self._buf.nbytes

    def _section(self, name: str) -> memoryview:
        try:
            off, length = self._sections[name]
        except KeyError:
            raise IndexError_(f"arena has no {name!r} section") from None
        return self._buf[off : off + length]

    def labels(self) -> List[Optional[str]]:
        if self._labels is None:
            self._labels = pickle.loads(bytes(self._section("labels")))
        return self._labels

    # -- graphs --------------------------------------------------------
    def _offsets(self) -> Tuple[List[int], int]:
        section = self._section("graphs")
        (count,) = _U32.unpack_from(section, 0)
        if self._graph_offsets is None:
            self._graph_offsets = [
                _U64.unpack_from(section, 4 + 8 * i)[0] for i in range(count + 1)
            ]
        return self._graph_offsets, 4 + 8 * (count + 1)

    def graph(self, gid: int) -> Graph:
        """Decode data graph ``gid`` (memoised per arena instance)."""
        cached = self._graph_cache.get(gid)
        if cached is not None:
            return cached
        if not 0 <= gid < self.db_size:
            raise IndexError_(f"graph id {gid} outside arena (|D|={self.db_size})")
        offsets, base = self._offsets()
        section = self._section("graphs")
        record = section[base + offsets[gid] : base + offsets[gid + 1]]
        g = _decode_graph(record, self.labels())
        self._graph_cache[gid] = g
        return g

    def items(self, ids: Sequence[int]) -> List[Tuple[int, Graph]]:
        """``(gid, graph)`` pairs for a chunk of ids — the worker fetch API."""
        return [(gid, self.graph(gid)) for gid in ids]

    # -- shared-memory lifecycle ---------------------------------------
    @classmethod
    def build(cls, db: GraphDatabase) -> "IndexArena":
        """Encode ``db``'s graphs into a bytes-backed arena."""
        return cls(encode_arena(db))

    def publish(self) -> Optional[str]:
        """Copy the arena into a ``SharedMemory`` segment (memoised).

        Returns the segment name pool workers attach with, or ``None`` when
        shared memory is unavailable on this platform — callers then verify
        serially in-process.
        """
        if self._shm is not None:
            return self._shm.name
        try:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(create=True, size=self._buf.nbytes)
        except Exception:
            return None
        shm.buf[: self._buf.nbytes] = self._buf
        # Re-point the view at the shared buffer; the private copy is freed.
        # Slice to nbytes: the OS may round the segment up to a page.
        self._buf = shm.buf[: self._buf.nbytes]
        self._shm = shm
        self._owner = True
        return shm.name

    @classmethod
    def attach(cls, name: str, expected_version: Optional[str] = None) -> "IndexArena":
        """Open a published arena by segment name (worker side)."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        arena = cls(shm.buf, shm=shm, owner=False)
        if expected_version is not None and arena.version != expected_version:
            arena.close()
            raise IndexError_(
                f"arena version mismatch: attached {arena.version}, "
                f"expected {expected_version}"
            )
        return arena

    def close(self) -> None:
        """Release this process's mapping (does not destroy the segment)."""
        self._buf.release()
        self._buf = memoryview(b"")
        if self._shm is not None:
            shm, self._shm = self._shm, None
            shm.close()

    def dispose(self) -> None:
        """Close and, when this process owns the segment, unlink it."""
        shm, owner = self._shm, self._owner
        self.close()
        if shm is not None and owner:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
