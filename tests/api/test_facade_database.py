"""Unit tests for :class:`repro.api.Database` — registry and caches."""

import pytest

from repro.api import Database
from repro.api.database import _shared
from repro.exceptions import QueryError, ReproError
from repro.graph.builder import GraphBuilder
from repro.workloads.fraud import example9_graph

QUERY = "h* s (h | s)*"


@pytest.fixture
def db():
    return Database(example9_graph())


class TestRegistry:
    def test_constructor_registers_default(self, db):
        assert db.graphs() == {"default": 1}
        assert db.version("default") == 1

    def test_register_returns_bumped_versions(self):
        database = Database()
        b = GraphBuilder()
        b.add_edge("a", "b", ["x"])
        assert database.register("g", b.build()) == 1
        assert database.register("g", b.build()) == 2
        assert database.version("g") == 2

    def test_versions_never_reused_across_reregistration(self):
        database = Database()
        b = GraphBuilder()
        b.add_edge("a", "b", ["x"])
        v1 = database.register("g", b.build())
        database.unregister("g")
        v2 = database.register("g", b.build())
        assert v2 > v1

    def test_unknown_graph_raises(self, db):
        with pytest.raises(ReproError, match="other"):
            db.query(QUERY).on("other").from_("Alix").to("Bob").run()

    def test_ambiguous_default_graph_raises(self):
        database = Database()
        b = GraphBuilder()
        b.add_edge("a", "b", ["x"])
        database.register("one", b.build())
        database.register("two", b.build())
        with pytest.raises(QueryError, match="names no graph"):
            database.query("x").from_("a").to("b").run()

    def test_reregistration_invalidates_caches(self):
        database = Database()
        b = GraphBuilder()
        b.add_edge("a", "b", ["x"])
        database.register("g", b.build())
        first = database.query("x | y").on("g").from_("a").to("b").run()
        assert len(first.all()) == 1

        grown = GraphBuilder()
        grown.add_edge("a", "b", ["x"])
        grown.add_edge("a", "b", ["y"])
        database.register("g", grown.build())
        after = database.query("x | y").on("g").from_("a").to("b").run()
        assert len(after.all()) == 2
        assert after.stats["cached"] == {"plan": False, "annotation": False}


class TestCaching:
    def test_repeat_query_hits_both_caches(self, db):
        """Acceptance: repeated identical interactive queries are
        served from the plan + annotation caches."""
        query = db.query(QUERY).from_("Alix").to("Bob")
        first = query.run()
        assert first.stats["cached"] == {"plan": False, "annotation": False}
        first_edges = [row.walk.edges for row in first]
        repeat = query.run()
        assert repeat.stats["cached"] == {"plan": True, "annotation": True}
        assert [row.walk.edges for row in repeat] == first_edges
        stats = db.stats()
        assert stats["plan_cache"]["hits"] >= 1
        assert stats["annotation_cache"]["hits"] >= 1

    def test_annotation_shared_across_targets_and_shapes(self, db):
        db.query(QUERY).from_("Alix").to("Bob").run().all()
        other = db.query(QUERY).from_("Alix").to("Eve").run()
        assert other.stats["cached"]["annotation"] is True
        fan = db.query(QUERY).from_("Alix").to_all().run()
        assert fan.stats["cached"]["annotation"] is True

    def test_cheapest_and_shortest_do_not_share_annotations(self, db):
        db.query(QUERY).from_("Alix").to("Bob").run().all()
        cheap = db.query(QUERY).cheapest().from_("Alix").to("Bob").run()
        assert cheap.stats["cached"]["annotation"] is False

    def test_cold_database_reports_no_hits(self):
        cold = Database(
            example9_graph(), plan_cache_size=0, annotation_cache_size=0
        )
        warm = Database(example9_graph())
        for _ in range(2):
            c = cold.query(QUERY).from_("Alix").to("Bob").run()
            w = warm.query(QUERY).from_("Alix").to("Bob").run()
            assert [r.walk.edges for r in c] == [r.walk.edges for r in w]
            assert c.stats["cached"] == {"plan": False, "annotation": False}
        assert cold.stats()["plan_cache"]["hits"] == 0
        assert cold.stats()["annotation_cache"]["hits"] == 0

    def test_for_graph_shares_one_database(self):
        graph = example9_graph()
        db1 = Database.for_graph(graph)
        db2 = Database.for_graph(graph)
        assert db1 is db2
        assert Database.for_graph(example9_graph()) is not db1

    def test_for_graph_map_is_bounded(self):
        from repro.api.database import _SHARED_CAPACITY

        graphs = [example9_graph() for _ in range(_SHARED_CAPACITY + 4)]
        for graph in graphs:
            Database.for_graph(graph)
        assert len(_shared) <= _SHARED_CAPACITY

    def test_multi_target_accessor_returns_independent_instances(self):
        """Interleaved eager enumerations from two to_all_targets()
        calls do not disturb each other."""
        from repro.query import rpq

        graph = example9_graph()
        query = rpq(QUERY)
        mt1 = query.to_all_targets(graph, "Alix")
        mt2 = query.to_all_targets(graph, "Alix")
        assert mt1 is not mt2
        it1 = mt1.walks_to("Bob")
        it2 = mt2.walks_to("Eve")
        assert next(it1) is not None
        assert next(it2) is not None

    def test_all_pairs_stats_valid_before_drain(self, db):
        cold = db.query("h").all_pairs().run()
        assert cold.stats["cached"]["annotation"] is False
        assert cold.stats["timings"]["annotate"] > 0.0
        _ = cold.all()
        warm = db.query("h").all_pairs().run()
        # Valid immediately — before the stream is consumed.
        assert warm.stats["cached"]["annotation"] is True

    def test_timeout_budget_covers_preprocessing(self):
        # A zero budget is exhausted by the (cold) preprocessing, so
        # the first pagination check must fire: at most one row comes
        # back even though the full enumeration would be instant.
        database = Database(example9_graph())
        rs = (
            database.query(QUERY).from_("Alix").to("Bob")
            .timeout_ms(0.0).run()
        )
        rows = rs.all()
        assert rs.timed_out and len(rows) <= 1

    def test_classic_rpq_helpers_share_the_graph_cache(self):
        """The shim layer's point: one-shot RPQ calls reuse caches."""
        from repro.query import rpq

        graph = example9_graph()
        query = rpq(QUERY)
        list(query.shortest_walks(graph, "Alix", "Bob"))
        shared = Database.for_graph(graph)
        before = shared.stats()["annotation_cache"]["hits"]
        assert query.count(graph, "Alix", "Bob") == 4
        assert shared.stats()["annotation_cache"]["hits"] > before


class TestValidation:
    def test_query_must_be_expression_or_rpq(self, db):
        with pytest.raises(QueryError):
            db.query("")
        with pytest.raises(QueryError):
            db.query(42)

    def test_unknown_vertex_propagates(self, db):
        with pytest.raises(ReproError, match="Nobody"):
            db.query(QUERY).from_("Nobody").to("Bob").run()
