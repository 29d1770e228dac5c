"""The command-line interface, end to end (in-process, via cli.main)."""

import pytest

from repro.cli import main
from repro.graph.serialization import read_database, write_database
from repro.testing import small_database


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny database + index pair on disk."""
    root = tmp_path_factory.mktemp("cli")
    db_path = root / "db.lg"
    write_database(small_database(seed=2, num_graphs=25), db_path)
    idx_path = root / "db.idx"
    rc = main([
        "index", str(db_path), "--alpha", "0.2", "--beta", "2",
        "--max-edges", "4", "--out", str(idx_path),
    ])
    assert rc == 0
    return root, db_path, idx_path


class TestGenerateAndStats:
    def test_generate_aids(self, tmp_path, capsys):
        out = tmp_path / "a.lg"
        rc = main(["generate", "--kind", "aids", "--size", "15",
                   "--out", str(out)])
        assert rc == 0
        assert len(read_database(out)) == 15
        assert "wrote" in capsys.readouterr().out

    def test_generate_graphgen(self, tmp_path):
        out = tmp_path / "g.lg"
        rc = main(["generate", "--kind", "graphgen", "--size", "10",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        assert len(read_database(out)) == 10

    def test_stats(self, workspace, capsys):
        _, db_path, _ = workspace
        assert main(["stats", str(db_path)]) == 0
        out = capsys.readouterr().out
        assert "graphs     : 25" in out
        assert "node labels" in out


class TestQuery:
    def _write_query(self, path, lines):
        path.write_text("\n".join(lines) + "\n")

    def test_exact_query(self, workspace, tmp_path, capsys):
        root, db_path, idx_path = workspace
        qpath = tmp_path / "q.lg"
        self._write_query(qpath, ["t # 0", "v 0 A", "v 1 B", "e 0 1"])
        rc = main(["query", str(db_path), str(idx_path),
                   "--query", str(qpath)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "query:" in out
        assert "e1:" in out

    def test_query_with_dot_output(self, workspace, tmp_path):
        root, db_path, idx_path = workspace
        qpath = tmp_path / "q.lg"
        self._write_query(qpath, ["t # 0", "v 0 A", "v 1 A", "e 0 1"])
        dot = tmp_path / "q.dot"
        rc = main(["query", str(db_path), str(idx_path),
                   "--query", str(qpath), "--dot", str(dot)])
        assert rc == 0
        assert dot.read_text().startswith('graph "query"')

    def test_similarity_query(self, workspace, tmp_path, capsys):
        root, db_path, idx_path = workspace
        qpath = tmp_path / "q.lg"
        # A/B/C triangle is unlikely to match exactly; sigma=2 allows misses.
        self._write_query(qpath, [
            "t # 0", "v 0 A", "v 1 B", "v 2 C",
            "e 0 1", "e 1 2", "e 0 2",
        ])
        rc = main(["query", str(db_path), str(idx_path),
                   "--query", str(qpath), "--sigma", "2"])
        assert rc == 0

    def test_catalog_of_another_database_is_refused(
        self, workspace, tmp_path, capsys
    ):
        """The index file was mined from another corpus of the same size:
        the query must fail, not answer from the wrong catalog."""
        root, db_path, idx_path = workspace
        other = tmp_path / "other.lg"
        write_database(small_database(seed=3, num_graphs=25), other)
        qpath = tmp_path / "q.lg"
        self._write_query(qpath, ["t # 0", "v 0 A", "v 1 B", "e 0 1"])
        with pytest.raises(SystemExit) as exit_info:
            main(["query", str(other), str(idx_path),
                  "--query", str(qpath)])
        assert exit_info.value.code == 1
        assert "different database" in capsys.readouterr().err


class TestSession:
    def test_full_session(self, workspace, tmp_path, capsys):
        root, db_path, idx_path = workspace
        script = tmp_path / "s.txt"
        script.write_text(
            "# demo session\n"
            "node a A\n"
            "node b B\n"
            "node c A\n"
            "edge a b\n"
            "edge b c\n"
            "delete 2\n"
            "run\n"
        )
        rc = main(["session", str(db_path), str(idx_path),
                   "--script", str(script)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "edge e1" in out
        assert "deleted e2" in out
        assert "session statistics" in out

    def test_relabel_action(self, workspace, tmp_path, capsys):
        root, db_path, idx_path = workspace
        script = tmp_path / "s.txt"
        script.write_text(
            "node a A\nnode b B\nedge a b\nrelabel b C\nrun\n"
        )
        rc = main(["session", str(db_path), str(idx_path),
                   "--script", str(script)])
        assert rc == 0
        assert "relabeled b -> C" in capsys.readouterr().out

    def test_unknown_action_fails(self, workspace, tmp_path, capsys):
        root, db_path, idx_path = workspace
        script = tmp_path / "s.txt"
        script.write_text("explode\n")
        rc = main(["session", str(db_path), str(idx_path),
                   "--script", str(script)])
        assert rc == 2

    def test_domain_error_reported(self, workspace, tmp_path, capsys):
        root, db_path, idx_path = workspace
        script = tmp_path / "s.txt"
        script.write_text("node a A\nedge a a\n")  # self loop
        rc = main(["session", str(db_path), str(idx_path),
                   "--script", str(script)])
        assert rc == 1
        assert "!!" in capsys.readouterr().err


class TestOracleSmoke:
    def test_bounded_sweep_is_divergence_free(self, tmp_path, capsys):
        import json

        manifest_path = tmp_path / "oracle_smoke.json"
        rc = main(["oracle-smoke", "--sessions", "3",
                   "--out", str(manifest_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "oracle-smoke OK (divergence-free)" in out
        manifest = json.loads(manifest_path.read_text())
        assert manifest["divergence_free"] is True
        assert manifest["sessions"] == 3
        assert manifest["failures"] == []
