"""A2I-index: the DIF array of Section III."""

import pytest

from repro.index.a2i import A2IIndex
from repro.mining import mine_catalogs
from repro.testing import small_database


@pytest.fixture(scope="module")
def setup():
    db = small_database(seed=2, num_graphs=25, max_nodes=7)
    _, difs = mine_catalogs(db, 5, 4)
    return difs, A2IIndex(difs)


class TestA2I:
    def test_all_difs_indexed(self, setup):
        difs, a2i = setup
        assert len(a2i) == len(difs)
        for code in difs:
            assert code in a2i

    def test_ascending_size_order(self, setup):
        """The paper: 'an array of DIFs arranged in ascending order of sizes'."""
        _, a2i = setup
        sizes = [e.size for e in a2i.entries()]
        assert sizes == sorted(sizes)

    def test_ids_are_array_positions(self, setup):
        _, a2i = setup
        for i, entry in enumerate(a2i.entries()):
            assert entry.a2i_id == i
            assert a2i.entry(i) is entry

    def test_fsg_ids_preserved(self, setup):
        difs, a2i = setup
        for code, frag in difs.items():
            assert a2i.fsg_ids(a2i.lookup(code)) == frag.fsg_ids

    def test_unknown_code(self, setup):
        _, a2i = setup
        assert a2i.lookup((("nope",),)) is None

    def test_empty_catalog(self):
        a2i = A2IIndex({})
        assert len(a2i) == 0
        assert a2i.entries() == ()
