"""The bitmask candidate algebra against the paper's definitions.

Primitive ops are checked against plain set ops; Algorithm 3's ``Rq``,
Algorithm 4's Rfree/Rver buckets and Algorithm 6's deletion suggestion are
checked against reference implementations written from their definitions on
plain sets, on every SPIG vertex of randomized queries.  Each comparison runs
twice: over the indexed database, and over a universe with two graphs
appended after the index build (ids the FSG lists never saw)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import candidates as cand
from repro.core.exact import exact_sub_candidates, exact_sub_candidates_bits
from repro.core.modify import DeletionSuggestion, deletable_edges
from repro.core.similar import similar_sub_candidates
from repro.graph.generators import perturb_with_new_edge
from repro.query_graph import VisualQuery
from repro.spig import SpigManager
from repro.testing import connected_order, sample_subgraph

id_sets = st.sets(st.integers(0, 200), max_size=60)


class TestPrimitives:
    @given(ids=id_sets)
    def test_bits_roundtrip(self, ids):
        mask = cand.bits_of(ids)
        assert cand.ids_of(mask) == frozenset(ids)
        assert list(cand.iter_ids(mask)) == sorted(ids)
        assert cand.count(mask) == len(ids)

    @given(a=id_sets, b=id_sets)
    def test_union_intersection_difference(self, a, b):
        ba, bb = cand.bits_of(a), cand.bits_of(b)
        assert cand.ids_of(ba | bb) == frozenset(a | b)
        assert cand.ids_of(ba & bb) == frozenset(a & b)
        assert cand.ids_of(ba & ~bb) == frozenset(a - b)

    @given(sets=st.lists(id_sets, min_size=1, max_size=6))
    def test_intersect_all_matches_set_fold(self, sets):
        expected = frozenset.intersection(*map(frozenset, sets))
        got = cand.intersect_all([cand.bits_of(s) for s in sets])
        assert cand.ids_of(got) == expected

    @given(n=st.integers(0, 300))
    def test_full_mask(self, n):
        assert cand.ids_of(cand.full_mask(n)) == frozenset(range(n))
        assert cand.count(cand.full_mask(n)) == n


# ----------------------------------------------------------------------
# the definitions, on plain sets
# ----------------------------------------------------------------------
def _reference_rq(vertex, indexes, db_ids):
    """Algorithm 3: an indexed fragment's FSG ids, else the intersection of
    its Φ and Υ id sets (all graphs when both are empty); graphs appended
    after the build are in every answer."""
    fl = vertex.fragment_list
    appended = frozenset(gid for gid in db_ids if gid >= indexes.db_size)
    if fl.dead:
        return appended
    if fl.freq_id is not None:
        return indexes.a2f.fsg_ids(fl.freq_id) | appended
    if fl.dif_id is not None:
        return indexes.a2i.fsg_ids(fl.dif_id) | appended
    id_sets = [indexes.a2f.fsg_ids(i) for i in fl.phi]
    id_sets += [indexes.a2i.fsg_ids(i) for i in fl.upsilon]
    if not id_sets:
        return db_ids
    return frozenset.intersection(*id_sets) | appended


def _reference_buckets(query, sigma, manager, indexes, db_ids):
    """Algorithm 4: per level, the indexed vertices' candidates are
    verification-free (appended graphs excepted); the rest must be
    verified."""
    appended = {gid for gid in db_ids if gid >= indexes.db_size}
    free, ver = {}, {}
    q_size = query.num_edges
    for level in range(q_size, max(q_size - sigma, 1) - 1, -1):
        indexed, other = set(), set()
        for vertex in manager.vertices_at_level(level):
            rq = _reference_rq(vertex, indexes, db_ids)
            (indexed if vertex.fragment_list.is_indexed else other).update(rq)
        free[level] = indexed - appended
        ver[level] = (indexed | other) - free[level]
    return free, ver


def _reference_suggestion(query, manager, indexes, db_ids):
    """Algorithm 6, lines 3-8: the first deletable edge whose remainder has
    the most candidates."""
    best = None
    for eid in deletable_edges(query):
        rest = query.edge_id_set() - {eid}
        vertex = manager.vertex_for(rest) if rest else None
        if vertex is None:
            continue
        rq = _reference_rq(vertex, indexes, db_ids)
        if best is None or len(rq) > len(best.candidates):
            best = DeletionSuggestion(edge_id=eid, candidates=rq)
    return best


# ----------------------------------------------------------------------
# randomized SPIG/A2F fixtures: every vertex of every level
# ----------------------------------------------------------------------
def _spig_states(indexes, g):
    """The live (query, SPIG set) after each edge of a formulation of g."""
    query = VisualQuery()
    for node in g.nodes():
        query.add_node(node, g.label(node))
    manager = SpigManager(indexes)
    for u, v in connected_order(g):
        eid = query.add_edge(u, v, g.edge_label(u, v))
        manager.on_new_edge(query, eid)
        yield query, manager


def _spig_state(indexes, g):
    """The live (query, SPIG set) once all of g is drawn."""
    *_, last = _spig_states(indexes, g)
    return last


def _sample_query(seed, db):
    rng = random.Random(seed)
    q = sample_subgraph(rng, db, 2, 5)
    if rng.random() < 0.5:
        q = perturb_with_new_edge(rng, q, db.node_label_universe())
    return q, rng.randint(1, 3)


def _universes(db):
    """The indexed database, and the same plus two appended graph ids."""
    db_ids = frozenset(db.ids())
    return db_ids, db_ids | {len(db), len(db) + 1}


class TestAlgorithm3Equivalence:
    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=30, deadline=None)
    def test_bits_agree_with_sets_on_every_vertex(
        self, seed, small_db, small_indexes
    ):
        q, _ = _sample_query(seed, small_db)
        query, manager = _spig_state(small_indexes, q)
        for db_ids in _universes(small_db):
            db_bits = cand.bits_of(db_ids)
            for level in range(1, query.num_edges + 1):
                for vertex in manager.vertices_at_level(level):
                    via_bits = cand.ids_of(exact_sub_candidates_bits(
                        vertex, small_indexes, db_bits
                    ))
                    assert via_bits == _reference_rq(
                        vertex, small_indexes, db_ids
                    )

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=20, deadline=None)
    def test_public_api_agrees_with_sets(
        self, seed, small_db, small_indexes
    ):
        """exact_sub_candidates (the frozenset form) returns the same Rq."""
        q, _ = _sample_query(seed, small_db)
        query, manager = _spig_state(small_indexes, q)
        vertex = manager.target_vertex(query)
        for db_ids in _universes(small_db):
            assert exact_sub_candidates(
                vertex, small_indexes, db_ids
            ) == _reference_rq(vertex, small_indexes, db_ids)


class TestAlgorithm4Equivalence:
    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=20, deadline=None)
    def test_rfree_rver_agree_with_sets(
        self, seed, small_db, small_indexes
    ):
        q, sigma = _sample_query(seed, small_db)
        query, manager = _spig_state(small_indexes, q)
        for db_ids in _universes(small_db):
            cands = similar_sub_candidates(
                query, sigma, manager, small_indexes, db_ids
            )
            got = (
                {lvl: set(cands.free_at(lvl)) for lvl in cands.levels()},
                {lvl: set(cands.ver_at(lvl)) for lvl in cands.levels()},
            )
            assert got == _reference_buckets(
                query, sigma, manager, small_indexes, db_ids
            )


class TestAlgorithm6Equivalence:
    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=15, deadline=None)
    def test_suggestion_agrees_with_sets(
        self, seed, small_db, small_indexes
    ):
        from repro.core.modify import suggest_deletion

        q, _ = _sample_query(seed, small_db)
        # Every formulation step, not only the final query.
        for query, manager in _spig_states(small_indexes, q):
            for db_ids in _universes(small_db):
                assert suggest_deletion(
                    query, manager, small_indexes, db_ids
                ) == _reference_suggestion(
                    query, manager, small_indexes, db_ids
                )
