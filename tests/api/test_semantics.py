"""The semantics axis of the façade: trails / simple / any-walk.

Covers what the differential matrix (``tests/property``) does not:

* builder **copy-on-write** across the new restriction axis and its
  validation rules (``cheapest`` × restriction; ``count()`` counts by
  the DP under ``walks`` only);
* **cache-key isolation** — the same regex under different semantics
  occupies distinct plan *and* annotation cache entries, so a cached
  plan can never serve a different semantics;
* **pagination and timeout-resume cursors** under trails/simple, in
  both execution regimes — including the crafted fallback instance
  (shortest trail strictly longer than the shortest walk, where
  length-λ filtering is unsound and the guided product-DFS takes over);
* **ε-heavy regexes** end to end through every semantics (ε is closed
  at compile time; the ε-native Annotate lives on the oracle only).
"""

import pytest

from repro.api import Database
from repro.automata import regex_to_nfa
from repro.baselines.oracle import oracle_restricted_set
from repro.exceptions import QueryError
from repro.graph.builder import GraphBuilder
from repro.workloads.fraud import example9_graph

QUERY = "h* s (h | s)*"


@pytest.fixture
def db():
    return Database(example9_graph())


def _drain_pages(query, page_size):
    rows = []
    cursor = None
    for _ in range(100):
        rs = query.limit(page_size).cursor(cursor).run()
        rows.extend(rs.all())
        cursor = rs.next_cursor
        if cursor is None:
            break
    else:  # pragma: no cover — safety against infinite paging
        pytest.fail("cursor paging did not terminate")
    return rows


def fallback_graph():
    """Walk λ = 3 from v0 to v1, but every length-3 walk repeats the
    v0 ↔ v1 2-cycle — the shortest trail/simple path has 5 edges, and
    there are two of them (two parallel 5-chains)."""
    b = GraphBuilder()
    b.add_vertices([f"v{i}" for i in range(10)])
    b.add_edge("v0", "v1", ["a"])  # e0: the 2-cycle …
    b.add_edge("v1", "v0", ["a"])  # e1
    for lo in (2, 6):  # … and two disjoint 5-chains v0 → … → v1.
        prev = "v0"
        for v in (f"v{lo}", f"v{lo + 1}", f"v{lo + 2}", f"v{lo + 3}"):
            b.add_edge(prev, v, ["a"])
            prev = v
        b.add_edge(prev, "v1", ["a"])
    return b.build()


FALLBACK_REGEX = "(a a a) (a a)?"  # Accepts lengths 3 and 5 only.


class TestBuilderAxis:
    def test_copy_on_write(self, db):
        base = db.query(QUERY).from_("Alix").to("Bob")
        trails = base.trails()
        simple = base.simple_paths()
        anyw = base.any_walk()
        # Forks carry their restriction; the base stays on walks.
        assert base._restriction == "walks"
        assert trails._restriction == "trails"
        assert simple._restriction == "simple"
        assert anyw._restriction == "any"
        assert base.run().lam == 3 and len(base.run().all()) == 4
        assert len(anyw.run().all()) == 1
        # walks() forks back off a restricted query.
        assert trails.walks()._restriction == "walks"

    def test_semantics_selects_either_sub_axis(self, db):
        q = db.query(QUERY).from_("Alix").to("Bob")
        assert q.semantics("trails")._restriction == "trails"
        assert q.semantics("any")._restriction == "any"
        assert q.semantics("cheapest")._semantics == "cheapest"
        assert q.semantics("shortest")._semantics == "shortest"
        with pytest.raises(QueryError, match="semantics"):
            q.semantics("shortest-trails")

    def test_repr_shows_restriction(self, db):
        assert "restriction='trails'" in repr(
            db.query(QUERY).from_("Alix").trails()
        )

    def test_cheapest_rejects_restrictions(self, db):
        for restricted in ("trails", "simple", "any"):
            q = (
                db.query(QUERY).from_("Alix").to("Bob")
                .cheapest().semantics(restricted)
            )
            with pytest.raises(QueryError, match="cheapest"):
                q.run()

    def test_dp_count_is_walks_only(self, db):
        """``walks`` counts by the DP; the restricted answer sets, which
        are no products of per-level counts, count by enumerating."""
        q = db.query(QUERY).from_("Alix").to("Bob")
        assert q.count() == 4
        for restricted in ("trails", "simple", "any"):
            with pytest.raises(TypeError):
                q.semantics(restricted).count(method="dp")
            assert q.semantics(restricted).count() == len(
                q.semantics(restricted).run().all()
            )


class TestCacheKeyIsolation:
    def test_distinct_entries_per_semantics(self):
        db = Database(example9_graph())
        pair = db.query(QUERY).from_("Alix").to("Bob")
        hits = [
            query.run().stats["cached"]["annotation"]
            for query in (pair, pair.trails(), pair.simple_paths())
        ]
        pair.any_walk().run()
        # One plan entry per semantics (the plan text differs), but one
        # annotation entry per (query, source): walks, trails and
        # simple read the same unrestricted object — built once, then
        # hit twice.  Any-walk bypasses the annotation cache entirely
        # (BFS per request).
        assert len(db._plan_cache) == 4
        assert len(db._annotation_cache) == 1
        assert hits == [False, True, True]
        stats = db.cache_stats()["annotation_cache"]
        assert (stats["misses"], stats["hits"]) == (1, 2)
        restrictions = sorted(key[-1] for key in db._plan_cache._data)
        assert restrictions == ["any", "simple", "trails", "walks"]

    def test_repeat_restricted_query_hits_both_caches(self, db):
        query = db.query(QUERY).from_("Alix").to("Bob").trails()
        query.run()
        stats = query.run().stats
        assert stats["cached"] == {"plan": True, "annotation": True}

    def test_restricted_results_not_served_across_semantics(self):
        graph = fallback_graph()
        db = Database(graph)
        pair = db.query(FALLBACK_REGEX).from_("v0").to("v1")
        assert pair.run().lam == 3
        for kind in ("trails", "simple"):
            rs = pair.semantics(kind).run()
            assert rs.lam == 5, kind
        # And back: the walks entry was not clobbered.
        assert pair.run().lam == 3


class TestRestrictedPagination:
    def test_filter_regime_pages(self, db):
        for kind in ("trails", "simple"):
            query = db.query(QUERY).from_("Alix").to("Bob").semantics(kind)
            full = [r.walk.edges for r in query.run()]
            assert len(full) == 4  # Every λ-walk of example9 is simple.
            for size in (1, 2, 3):
                paged = [
                    r.walk.edges for r in _drain_pages(query, size)
                ]
                assert paged == full, (kind, size)

    def test_fallback_regime_pages(self):
        graph = fallback_graph()
        db = Database(graph)
        for kind in ("trails", "simple"):
            query = (
                db.query(FALLBACK_REGEX).from_("v0").to("v1")
                .semantics(kind)
            )
            rs = query.run()
            full = [r.walk.edges for r in rs]
            assert rs.lam == 5 and len(full) == 2, kind
            assert [r.walk.edges for r in _drain_pages(query, 1)] == full
            # The oracle agrees on both rλ and the answer set.
            rlam, rset = oracle_restricted_set(
                graph, regex_to_nfa(FALLBACK_REGEX), 0, 1, kind
            )
            assert (rlam, sorted(full)) == (5, rset), kind

    def test_fallback_pages_on_cold_database(self):
        # annotation_cache_size=0 builds a pair's annotation stopped
        # at its target; the restricted probe and fallback stream must
        # work over that too.
        db = Database(fallback_graph(), annotation_cache_size=0)
        query = (
            db.query(FALLBACK_REGEX).from_("v0").to("v1").trails()
        )
        full = [r.walk.edges for r in query.run()]
        assert len(full) == 2
        assert [r.walk.edges for r in _drain_pages(query, 1)] == full

    def test_bucketed_restricted_pages(self, db):
        query = db.query(QUERY).from_("Alix").to_all().trails()
        full = [(r.target, r.walk.edges) for r in query.run()]
        assert full  # Non-degenerate.
        for size in (1, 3):
            paged = [
                (r.target, r.walk.edges)
                for r in _drain_pages(query, size)
            ]
            assert paged == full, size

    def test_any_walk_bucketed_pages(self, db):
        query = db.query(QUERY).from_("Alix").to_all().any_walk()
        full = [(r.target, r.walk.edges) for r in query.run()]
        assert len(full) == len({t for t, _ in full})  # One per target.
        paged = [
            (r.target, r.walk.edges) for r in _drain_pages(query, 1)
        ]
        assert paged == full

    def test_timeout_resume_under_trails(self):
        graph = fallback_graph()
        db = Database(graph)
        query = (
            db.query(FALLBACK_REGEX).from_("v0").to("v1").trails()
        )
        full = [r.walk.edges for r in query.run()]
        rs = query.timeout_ms(0.0).run()
        partial = [r.walk.edges for r in rs]
        assert rs.timed_out and len(partial) < len(full)
        # Wherever the budget cut, resuming from the partial page's
        # cursor covers exactly the remainder, in order.
        resumed = [
            r.walk.edges for r in query.cursor(rs.next_cursor).run()
        ]
        assert partial + resumed == full

    def test_stale_cursor_rejected_across_semantics(self):
        graph = fallback_graph()
        db = Database(graph)
        pair = db.query(FALLBACK_REGEX).from_("v0").to("v1")
        [walks_row] = pair.run().all()
        token = walks_row.walk.edges
        assert len(token) == 3
        # A walks cursor (λ=3) is budget-invalid under trails (rλ=5).
        with pytest.raises(QueryError, match="cursor"):
            pair.trails().cursor(token).run().all()


class TestEpsilonFastPath:
    def test_facade_epsilon_queries_across_semantics(self):
        """End-to-end: an ε-heavy regex through every semantics mode
        (the packed ε Annotate feeds the trails/simple filter and the
        walks enumeration; any-walk has its own ε handling)."""
        expression = "(h)* (s)? (h | s)*"
        assert regex_to_nfa(expression).has_epsilon
        db = Database(example9_graph())
        base = db.query(expression).from_("Alix").to("Bob")
        rs = base.run()
        walks = [r.walk.edges for r in rs]
        assert rs.lam is not None and walks
        for kind in ("trails", "simple"):
            restricted = [
                r.walk.edges for r in base.semantics(kind).run()
            ]
            # Every λ-walk of this instance is simple, so the filter
            # regime passes them all through in enumeration order.
            assert restricted == walks, kind
        anyw = base.any_walk().run().all()
        assert len(anyw) == 1 and len(anyw[0].walk.edges) == rs.lam
