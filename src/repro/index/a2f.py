"""The action-aware frequent index (A2F) — Section III.

A2F is a DAG over all frequent fragments: an edge ``f' → f`` whenever
``f' ⊂ f`` and ``|f| = |f'| + 1``.  It has two components:

* the memory-resident **MF-index** holding fragments of size ≤ β (small,
  frequently probed while the user draws the first edges);
* the disk-resident **DF-index**, an array of *fragment clusters* for
  fragments of size > β.  Each leaf of the MF-index (size = β) carries a
  cluster list pointing at the clusters whose roots are its supergraphs.

Space optimisation (from FG-Index, the paper's [2]): since ``f' ⊂ f`` implies
``fsgIds(f) ⊆ fsgIds(f')``, each vertex stores only the *delta*
``delId(f) = fsgIds(f) − ⋃_{children c} fsgIds(c)``; full FSG-id lists are
reconstructed on demand (memoised).

Because all fragments here are *frequent*, the DAG edges can be computed
without isomorphism tests: every (k−1)-edge connected subgraph of a frequent
fragment is frequent, hence in the catalog, so parent links come from
canonical-code lookups of one-smaller subgraphs.
"""

from __future__ import annotations

import pickle
import time
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.exceptions import IndexError_
from repro.graph.canonical import CanonicalCode
from repro.mining.dif import connected_one_smaller_subgraphs
from repro.mining.fragments import Fragment, FragmentCatalog
from repro.graph.canonical import canonical_code
from repro.obs.histogram import observe
from repro.obs.metrics import count
from repro.obs.recorder import RECORDER


class A2FVertex:
    """One frequent fragment in the A2F DAG."""

    __slots__ = ("a2f_id", "code", "size", "del_ids", "children", "parents",
                 "cluster_list")

    def __init__(self, a2f_id: int, code: CanonicalCode, size: int) -> None:
        self.a2f_id = a2f_id
        self.code = code
        self.size = size
        self.del_ids: FrozenSet[int] = frozenset()
        self.children: Tuple[int, ...] = ()
        self.parents: Tuple[int, ...] = ()
        # Only populated on MF leaves (size == beta): DF cluster ids whose
        # root is a supergraph of this fragment.
        self.cluster_list: Tuple[int, ...] = ()


class FragmentCluster:
    """A DF-index cluster: a weakly-connected DAG of size > β fragments.

    The paper describes one root per cluster; when several minimal fragments
    are weakly connected we keep them in one cluster with multiple roots
    (recorded in ``roots``) — the functional behaviour (probe by code, fetch
    FSG ids) is identical and the size accounting stays honest.
    """

    __slots__ = ("cluster_id", "vertex_ids", "roots")

    def __init__(self, cluster_id: int, vertex_ids: Tuple[int, ...],
                 roots: Tuple[int, ...]) -> None:
        self.cluster_id = cluster_id
        self.vertex_ids = vertex_ids
        self.roots = roots


class A2FIndex:
    """Lookup: canonical code -> a2fId -> FSG ids (reconstructed from deltas)."""

    def __init__(self, frequent: FragmentCatalog, beta: int) -> None:
        if beta < 1:
            raise IndexError_("beta (fragment size threshold) must be >= 1")
        self.beta = beta
        self._vertices: List[A2FVertex] = []
        self._by_code: Dict[CanonicalCode, int] = {}
        self._fsg_cache: Dict[int, FrozenSet[int]] = {}
        self._bits_cache: Dict[int, int] = {}
        self.clusters: List[FragmentCluster] = []
        self._build(frequent)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, frequent: FragmentCatalog) -> None:
        ordered = sorted(frequent.values(), key=lambda f: (f.size, f.code))
        for frag in ordered:
            vid = len(self._vertices)
            self._vertices.append(A2FVertex(vid, frag.code, frag.size))
            self._by_code[frag.code] = vid
        # Parent/child edges through one-smaller connected subgraphs.
        children: Dict[int, Set[int]] = {v.a2f_id: set() for v in self._vertices}
        parents: Dict[int, Set[int]] = {v.a2f_id: set() for v in self._vertices}
        for frag in ordered:
            vid = self._by_code[frag.code]
            if frag.size == 1:
                continue
            for sub in connected_one_smaller_subgraphs(frag.graph):
                pcode = canonical_code(sub)
                pid = self._by_code.get(pcode)
                if pid is None:
                    raise IndexError_(
                        "frequent catalog is not downward closed; "
                        "mine with the same thresholds"
                    )
                children[pid].add(vid)
                parents[vid].add(pid)
        for v in self._vertices:
            v.children = tuple(sorted(children[v.a2f_id]))
            v.parents = tuple(sorted(parents[v.a2f_id]))
        # delId deltas: fsgIds(f) minus the union of the children's fsgIds.
        by_code_frag = {frag.code: frag for frag in ordered}
        for v in self._vertices:
            full = by_code_frag[v.code].fsg_ids
            covered: Set[int] = set()
            for cid in v.children:
                covered |= by_code_frag[self._vertices[cid].code].fsg_ids
            v.del_ids = frozenset(full - covered)
        self._build_clusters()

    def _build_clusters(self) -> None:
        """Group size > β fragments into weakly-connected DF clusters."""
        df_ids = [v.a2f_id for v in self._vertices if v.size > self.beta]
        df_set = set(df_ids)
        unassigned = set(df_ids)
        cluster_of: Dict[int, int] = {}
        while unassigned:
            seed = min(unassigned)
            component = {seed}
            stack = [seed]
            while stack:
                vid = stack.pop()
                for nb in self._vertices[vid].children + self._vertices[vid].parents:
                    if nb in df_set and nb not in component:
                        component.add(nb)
                        stack.append(nb)
            cid = len(self.clusters)
            members = tuple(sorted(component))
            roots = tuple(
                sorted(
                    vid
                    for vid in component
                    if not any(p in df_set for p in self._vertices[vid].parents)
                )
            )
            self.clusters.append(FragmentCluster(cid, members, roots))
            for vid in members:
                cluster_of[vid] = cid
            unassigned -= component
        # MF leaves (size == beta) point at the clusters of their supergraphs.
        for v in self._vertices:
            if v.size != self.beta:
                continue
            cids = {cluster_of[c] for c in v.children if c in cluster_of}
            v.cluster_list = tuple(sorted(cids))

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def lookup(self, code: CanonicalCode) -> Optional[int]:
        """``a2fId`` of the fragment with this canonical code, if frequent."""
        start = time.perf_counter()
        a2f_id = self._by_code.get(code)
        observe("index.a2f.lookup", time.perf_counter() - start)
        count("a2f.lookup.hit" if a2f_id is not None else "a2f.lookup.miss")
        RECORDER.transition(
            "a2f.lookup", "hit" if a2f_id is not None else "miss"
        )
        return a2f_id

    def __contains__(self, code: CanonicalCode) -> bool:
        return code in self._by_code

    def __len__(self) -> int:
        return len(self._vertices)

    def vertex(self, a2f_id: int) -> A2FVertex:
        return self._vertices[a2f_id]

    def fsg_ids(self, a2f_id: int) -> FrozenSet[int]:
        """Reconstruct ``fsgIds`` from delta lists (memoised)."""
        cached = self._fsg_cache.get(a2f_id)
        if cached is not None:
            count("a2f.fsg_cache.hit")
            return cached
        count("a2f.fsg_cache.miss")
        v = self._vertices[a2f_id]
        ids: Set[int] = set(v.del_ids)
        for cid in v.children:
            ids |= self.fsg_ids(cid)
        out = frozenset(ids)
        self._fsg_cache[a2f_id] = out
        return out

    def fsg_bits(self, a2f_id: int) -> int:
        """``fsgIds`` as an int bitmask (memoised) — the A2F/bitset boundary."""
        cached = self._bits_cache.get(a2f_id)
        if cached is None:
            count("a2f.bits_cache.miss")
            # Local import: repro.core pulls in the index package at init.
            from repro.core.candidates import bits_of

            cached = bits_of(self.fsg_ids(a2f_id))
            self._bits_cache[a2f_id] = cached
        else:
            count("a2f.bits_cache.hit")
        return cached

    def support(self, a2f_id: int) -> int:
        return len(self.fsg_ids(a2f_id))

    # ------------------------------------------------------------------
    # components / accounting
    # ------------------------------------------------------------------
    def mf_vertices(self) -> List[A2FVertex]:
        """Memory-resident component: fragments of size ≤ β."""
        return [v for v in self._vertices if v.size <= self.beta]

    def df_vertices(self) -> List[A2FVertex]:
        """Disk-resident component: fragments of size > β."""
        return [v for v in self._vertices if v.size > self.beta]

    def spill_df_index(self, directory: Path) -> List[Path]:
        """Serialise each DF cluster to its own file (disk residency).

        Returns the written paths; used by the index-size benchmarks to
        account the MF (memory) and DF (disk) components separately.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for cluster in self.clusters:
            payload = {
                "cluster_id": cluster.cluster_id,
                "roots": cluster.roots,
                "vertices": [
                    (v.a2f_id, v.code, v.size, v.del_ids, v.children, v.parents)
                    for v in (self._vertices[i] for i in cluster.vertex_ids)
                ],
            }
            path = directory / f"cluster_{cluster.cluster_id:05d}.pkl"
            with path.open("wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            paths.append(path)
        return paths
