"""The spindle-shaped graph (SPIG) data structure — Section V, Definition 4.

One SPIG ``S_ℓ`` is created per drawn edge ``e_ℓ``.  Its vertices represent
the connected subgraphs of the current query fragment that *contain* ``e_ℓ``,
leveled by edge count: level 1 holds only ``e_ℓ`` (the source vertex), the top
level holds the whole fragment (the target vertex) — hence the spindle shape.

Each vertex carries (Definition 4):

* ``cam`` — the canonical code of the fragment it represents;
* the *Edge List* — which query-edge-id sets realise the fragment.  Following
  the paper's observation that nodes often share labels ("only two vertexes
  are in the fourth level of S6"), vertices are deduplicated by canonical code
  within a level; we keep *every* realising edge-id set so that edge-deletion
  maintenance (Algorithm 6) stays exact.  All Fragment List attributes are
  isomorphism-invariant, so the deduplication is lossless;
* the *Fragment List* ``(freqId, difId, Φ, Υ)``:

  1. fragment indexed in A2F  -> ``freqId = a2fId(g)``, rest empty;
  2. fragment indexed in A2I  -> ``difId = a2iId(g)``, rest empty;
  3. otherwise (a NIF)        -> ``Φ`` = a2f ids of all largest proper
     subgraphs (size |g|−1) in A2F, ``Υ`` = a2i ids of *all* subgraphs in A2I.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.exceptions import SpigError
from repro.graph.canonical import CanonicalCode
from repro.graph.labeled_graph import Graph


class FragmentList:
    """The 4-attribute identifier record of Definition 4.

    ``dead`` is a small extension beyond the paper: it marks fragments that
    provably have zero matches because they use a node or edge label that
    never occurs in the database.  The paper's GUI cannot produce such
    fragments (Panel 2 only offers labels present in the dataset), but the
    library is also usable programmatically, where foreign labels are legal.
    """

    __slots__ = ("freq_id", "dif_id", "phi", "upsilon", "dead")

    def __init__(
        self,
        freq_id: Optional[int] = None,
        dif_id: Optional[int] = None,
        phi: FrozenSet[int] = frozenset(),
        upsilon: FrozenSet[int] = frozenset(),
        dead: bool = False,
    ) -> None:
        self.freq_id = freq_id
        self.dif_id = dif_id
        self.phi = phi
        self.upsilon = upsilon
        self.dead = dead

    @property
    def is_indexed(self) -> bool:
        """True iff the fragment itself is in A2F or A2I."""
        return self.freq_id is not None or self.dif_id is not None

    def __repr__(self) -> str:
        return (
            f"FragmentList(freq={self.freq_id}, dif={self.dif_id}, "
            f"phi={sorted(self.phi)}, upsilon={sorted(self.upsilon)}, "
            f"dead={self.dead})"
        )


class SpigVertex:
    """One isomorphism class of connected subgraphs containing ``e_ℓ``."""

    __slots__ = (
        "spig_id",
        "position",
        "code",
        "level",
        "fragment",
        "edge_sets",
        "fragment_list",
        "parents",
        "children",
    )

    def __init__(
        self,
        spig_id: int,
        position: int,
        code: CanonicalCode,
        level: int,
        fragment: Graph,
    ) -> None:
        self.spig_id = spig_id          # ℓ of the owning SPIG
        self.position = position       # k in the paper's v_(ℓ,k)
        self.code = code
        self.level = level              # fragment size (edge count)
        self.fragment = fragment       # representative labeled graph
        self.edge_sets: Set[FrozenSet[int]] = set()
        self.fragment_list = FragmentList()
        self.parents: Set["SpigVertex"] = set()
        self.children: Set["SpigVertex"] = set()

    @property
    def vertex_id(self) -> Tuple[int, int]:
        """The paper's pair identifier ``(ℓ, k)``."""
        return (self.spig_id, self.position)

    @property
    def primary_edge_set(self) -> FrozenSet[int]:
        return min(self.edge_sets, key=sorted)

    def __repr__(self) -> str:
        return (
            f"SpigVertex(v({self.spig_id},{self.position}), level={self.level}, "
            f"sets={len(self.edge_sets)})"
        )

    def __hash__(self) -> int:
        return id(self)


class SPIG:
    """One spindle-shaped graph ``S_ℓ = (V_ℓ, E_ℓ)``.

    ``dedup=False`` disables the per-level canonical-code deduplication so
    every edge-subset gets its own vertex (one vertex per C(n−1, k−1) subset,
    the worst case of Section V-B) — used by the dedup ablation benchmark.
    """

    def __init__(self, edge_id: int, dedup: bool = True) -> None:
        self.edge_id = edge_id
        self.dedup = dedup
        self._levels: Dict[int, List[SpigVertex]] = {}
        self._by_code: Dict[Tuple[int, CanonicalCode], SpigVertex] = {}
        self._positions = 0
        #: Duration of the ``spig.construct`` region that built this SPIG.
        self.construct_seconds = 0.0

    # ------------------------------------------------------------------
    def get_or_create(
        self, level: int, code: CanonicalCode, fragment: Graph
    ) -> Tuple[SpigVertex, bool]:
        """Vertex for ``code`` at ``level``; created if absent."""
        key = (level, code) if self.dedup else (level, code, self._positions)
        v = self._by_code.get(key) if self.dedup else None
        if v is not None:
            return v, False
        self._positions += 1
        v = SpigVertex(self.edge_id, self._positions, code, level, fragment)
        self._by_code[key] = v
        self._levels.setdefault(level, []).append(v)
        return v, True

    def remove_vertex(self, v: SpigVertex) -> None:
        """Detach ``v`` from the SPIG (Algorithm 6, lines 13-14)."""
        for key, existing in self._by_code.items():
            if existing is v:
                break
        else:
            raise SpigError("vertex does not belong to this SPIG")
        del self._by_code[key]
        self._levels[v.level].remove(v)
        if not self._levels[v.level]:
            del self._levels[v.level]
        for p in v.parents:
            p.children.discard(v)
        for c in v.children:
            c.parents.discard(v)
        v.parents.clear()
        v.children.clear()

    # ------------------------------------------------------------------
    def levels(self) -> List[int]:
        return sorted(self._levels)

    def vertices_at(self, level: int) -> List[SpigVertex]:
        return list(self._levels.get(level, ()))

    def vertices(self) -> Iterator[SpigVertex]:
        for level in sorted(self._levels):
            yield from self._levels[level]

    @property
    def num_vertices(self) -> int:
        return len(self._by_code)

    @property
    def source_vertex(self) -> SpigVertex:
        """``S_ℓ.v_source`` — the level-1 vertex representing ``e_ℓ`` itself."""
        vertices = self._levels.get(1)
        if not vertices:
            raise SpigError(f"SPIG {self.edge_id} has no source vertex")
        return vertices[0]

    @property
    def target_vertex(self) -> SpigVertex:
        """``S_ℓ.v_target`` — the vertex of the full query fragment.

        Meaningful right after construction; after later steps the full-query
        vertex lives in the newest SPIG instead.
        """
        top = max(self._levels)
        vertices = self._levels[top]
        if len(vertices) != 1:
            raise SpigError("target level must hold exactly one vertex")
        return vertices[0]

    def __repr__(self) -> str:
        return f"SPIG(e{self.edge_id}, vertices={self.num_vertices})"
