"""Durable façade wiring: ``Database.open``/``recover``/``close``,
``register_durable``, the ``QueryService`` WAL knob and the durability
CLI surface."""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

from repro.api import Database
from repro.exceptions import WalError
from repro.graph.builder import GraphBuilder
from repro.live.delta import AddEdge, AddVertex
from repro.live.live_graph import LiveGraph
from repro.service.service import QueryService
from repro.wal.snapshot import list_snapshots
from repro.wal.writer import LOG_NAME


def _base_graph():
    builder = GraphBuilder()
    builder.add_vertices(["a", "b", "c"])
    builder.add_edge("a", "b", ["x"])
    builder.add_edge("b", "c", ["x"])
    return builder.build()


def _rendered(live: LiveGraph):
    g = live.to_graph()
    edges = sorted(
        (
            g.vertex_name(g.src(e)),
            g.vertex_name(g.tgt(e)),
            tuple(g.label_names_of(e)),
        )
        for e in g.edges()
    )
    names = sorted(str(g.vertex_name(v)) for v in g.vertices())
    return names, edges


class TestOpenRecoverClose:
    def test_fresh_dir_bootstraps_snapshot_zero(self, tmp_path) -> None:
        db = Database.open(str(tmp_path), graph=_base_graph())
        try:
            assert [lsn for lsn, _ in list_snapshots(str(tmp_path))] == [0]
            assert db.wal_writer().last_lsn == 0
        finally:
            db.close()

    def test_mutations_survive_restart(self, tmp_path) -> None:
        db = Database.open(str(tmp_path), graph=_base_graph(), sync="always")
        db.mutate([AddEdge("c", "a", ("y",))])
        live = db.live()
        before = _rendered(live)
        db.close()

        reopened = Database.open(str(tmp_path), graph=_base_graph())
        try:
            assert _rendered(reopened.live()) == before
            assert reopened.wal_writer().last_lsn >= 1
        finally:
            reopened.close()

    def test_durable_state_wins_over_bootstrap_graph(self, tmp_path) -> None:
        db = Database.open(str(tmp_path), graph=_base_graph(), sync="always")
        db.mutate([AddEdge("c", "a", ("y",))])
        want = _rendered(db.live())
        db.close()

        # A different bootstrap graph must be ignored on restart.
        other = GraphBuilder()
        other.add_edge("zzz", "qqq", ["w"])
        reopened = Database.open(str(tmp_path), graph=other.build())
        try:
            assert _rendered(reopened.live()) == want
        finally:
            reopened.close()

    def test_recover_classmethod_is_read_only(self, tmp_path) -> None:
        db = Database.open(str(tmp_path), graph=_base_graph(), sync="always")
        db.mutate([AddEdge("c", "a", ("y",))])
        want = _rendered(db.live())
        db.close()

        ro = Database.recover(str(tmp_path))
        assert _rendered(ro.live()) == want
        assert ro.wal_writer() is None
        assert ro.last_recovery.last_lsn >= 1
        # Mutating the read-only recovery logs nothing.
        size = os.path.getsize(os.path.join(str(tmp_path), "wal.log"))
        ro.mutate([AddEdge("a", "c", ("z",))])
        assert os.path.getsize(
            os.path.join(str(tmp_path), "wal.log")
        ) == size

    def test_closed_writer_aborts_mutation_pre_commit(self, tmp_path) -> None:
        db = Database.open(str(tmp_path), graph=_base_graph(), sync="always")
        db.mutate([AddEdge("c", "a", ("y",))])
        before = _rendered(db.live())
        db.close()
        # The hook stays attached with a closed writer: a mutation must
        # fail loudly *before* touching the graph, never go undurable.
        with pytest.raises(WalError):
            db.mutate([AddEdge("a", "c", ("z",))])
        assert _rendered(db.live()) == before

    def test_livegraph_bootstrap_is_rejected(self, tmp_path) -> None:
        db = Database()
        with pytest.raises(WalError):
            db.register_durable(
                "g", str(tmp_path), graph=LiveGraph(_base_graph())
            )

    def test_non_scalar_vertex_name_aborts_batch(self, tmp_path) -> None:
        db = Database.open(str(tmp_path), graph=_base_graph())
        try:
            before = _rendered(db.live())
            with pytest.raises(WalError):
                db.mutate([AddEdge(("tuple", 1), "b", ("x",))])
            assert _rendered(db.live()) == before
        finally:
            db.close()

    @pytest.mark.parametrize(
        "name", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    def test_unsnapshottable_name_is_refused_before_logging(
        self, tmp_path, name
    ) -> None:
        """A batch no snapshot could hold never reaches the log: the
        segment's vertex-name rule runs in the pre-append check."""
        db = Database.open(str(tmp_path), graph=_base_graph())
        log = os.path.join(str(tmp_path), LOG_NAME)
        try:
            db.mutate([AddEdge("a", "b", ("x",))])
            before = Path(log).read_bytes()
            with pytest.raises(WalError, match="vertex names"):
                db.mutate([AddEdge(name, "b", ("x",))])
            with pytest.raises(WalError, match="vertex names"):
                db.mutate([AddVertex(name)])
            assert Path(log).read_bytes() == before
        finally:
            db.close()
        # Recovery still resolves every name it logged.
        recovered = Database.recover(str(tmp_path)).live()
        assert recovered.vertex_id("a") == 0


class TestCompactionAndWriterLifecycle:
    def test_forced_compaction_snapshots_and_keeps_writer(
        self, tmp_path
    ) -> None:
        db = Database.open(str(tmp_path), graph=_base_graph(), sync="always")
        try:
            writer = db.wal_writer()
            db.mutate([AddEdge("c", "a", ("y",))], compact=True)
            # The compaction path re-registers the same LiveGraph; the
            # writer must survive and keep numbering the same log.
            assert db.wal_writer() is writer
            assert not writer.closed
            lsns = [lsn for lsn, _ in list_snapshots(str(tmp_path))]
            assert lsns[0] == writer.last_lsn
            db.mutate([AddEdge("a", "c", ("z",))], compact=False)
            assert writer.last_lsn == lsns[0] + 1
        finally:
            db.close()

    def test_replacing_graph_closes_stale_writer(self, tmp_path) -> None:
        db = Database.open(str(tmp_path), graph=_base_graph())
        writer = db.wal_writer()
        db.register("default", _base_graph())
        assert writer.closed
        assert db.wal_writer() is None

    def test_unregister_closes_writer(self, tmp_path) -> None:
        db = Database.open(str(tmp_path), graph=_base_graph())
        writer = db.wal_writer()
        db.unregister("default")
        assert writer.closed


class TestQueryServiceWal:
    def test_register_graph_routes_to_wal_dir(self, tmp_path) -> None:
        service = QueryService(wal_dir=str(tmp_path), wal_sync="always")
        try:
            service.register_graph("g", _base_graph())
            assert os.path.isdir(os.path.join(str(tmp_path), "g"))
            assert service._db.wal_writer("g") is not None
        finally:
            service.close()

    def test_without_wal_dir_nothing_is_durable(self, tmp_path) -> None:
        service = QueryService()
        service.register_graph("g", _base_graph())
        assert service._db.wal_writer("g") is None
        service.close()


class TestCli:
    def _seed(self, tmp_path) -> str:
        wal_dir = str(tmp_path / "wal")
        db = Database.open(wal_dir, graph=_base_graph(), sync="always")
        db.mutate([AddEdge("c", "a", ("y",))])
        db.close()
        return wal_dir

    def test_recover_subcommand(self, tmp_path, capsys) -> None:
        from repro.cli import main

        wal_dir = self._seed(tmp_path)
        assert main(["recover", wal_dir]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["last_lsn"] >= 1
        assert payload["torn_tail"] is False

    def test_follow_once(self, tmp_path, capsys) -> None:
        from repro.cli import main

        wal_dir = self._seed(tmp_path)
        code = main(
            [
                "follow",
                wal_dir,
                "--once",
                "--query",
                "x x",
                "--source",
                "a",
                "--target",
                "c",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["last_lsn"] >= 1
        assert payload["lam"] == 2

    def test_mutate_wal_dir(self, tmp_path, capsys) -> None:
        from repro.cli import main
        from repro.graph.io import save_json

        graph_path = str(tmp_path / "g.json")
        save_json(_base_graph(), graph_path)
        ops_path = str(tmp_path / "ops.jsonl")
        with open(ops_path, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {"op": "add_edge", "src": "c", "tgt": "a", "labels": ["y"]}
                )
                + "\n"
            )
        wal_dir = str(tmp_path / "wal")
        code = main(
            ["mutate", graph_path, ops_path, "--wal-dir", wal_dir]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["wal_lsn"] >= 1
        assert os.path.exists(os.path.join(wal_dir, "wal.log"))
