"""Cursor/pagination tests for :class:`repro.api.ResultSet`."""

import json

import pytest

from repro.api import Cursor, Database
from repro.exceptions import QueryError
from repro.graph.generators import chain
from repro.service import QueryService, read_requests_jsonl
from repro.workloads.fraud import example9_graph
from repro.workloads.worstcase import diamond_chain

QUERY = "h* s (h | s)*"


@pytest.fixture
def db():
    return Database(example9_graph())


def _edges(rows):
    return [row.walk.edges for row in rows]


def _drain_pages(query, page_size):
    """Page through a query one cursor at a time; returns all rows."""
    rows = []
    cursor = None
    for _ in range(100):
        rs = query.limit(page_size).cursor(cursor).run()
        page = rs.all()
        rows.extend(page)
        cursor = rs.next_cursor
        if cursor is None:
            break
    else:  # pragma: no cover — safety against infinite paging
        pytest.fail("cursor paging did not terminate")
    return rows


class TestPairCursors:
    def test_cursor_round_trip_reassembles(self, db):
        query = db.query(QUERY).from_("Alix").to("Bob")
        full = _edges(query.run())
        for page_size in (1, 2, 3):
            assert _edges(_drain_pages(query, page_size)) == full, page_size

    def test_cursor_portable_across_modes(self, db):
        query = db.query(QUERY).from_("Alix").to("Bob")
        first = query.mode("memoryless").limit(2).run()
        head = _edges(first)
        token = first.next_cursor
        for mode in ("iterative", "memoryless"):
            rest = query.mode(mode).cursor(token).run()
            assert head + _edges(rest) == _edges(query.run()), mode
        with pytest.raises(QueryError, match="unknown mode"):
            query.mode("recursive")

    def test_cursor_accepts_equivalent_encodings(self, db):
        query = db.query(QUERY).from_("Alix").to("Bob")
        first = query.limit(1).run()
        _ = first.all()
        token = first.next_cursor
        as_cursor = _edges(query.cursor(token).run())
        as_dict = _edges(query.cursor(token.to_dict()).run())
        as_edges = _edges(query.cursor(list(token.edges)).run())
        assert as_cursor == as_dict == as_edges

    def test_exhausted_page_has_no_cursor(self, db):
        rs = db.query(QUERY).from_("Alix").to("Bob").limit(100).run()
        assert len(rs.all()) == 4
        assert rs.next_cursor is None

    def test_exact_boundary_page_has_no_cursor(self, db):
        rs = db.query(QUERY).from_("Alix").to("Bob").limit(4).run()
        assert len(rs.all()) == 4
        assert rs.next_cursor is None

    def test_offset_and_skipped(self, db):
        query = db.query(QUERY).from_("Alix").to("Bob")
        full = _edges(query.run())
        rs = query.offset(2).run()
        assert _edges(rs) == full[2:]
        assert rs.skipped == 2

    def test_stale_cursor_length_rejected(self, db):
        # Edge 6 ends at Bob, so the shape check passes — but a
        # 1-edge cursor cannot be an output of a λ=3 enumeration.
        with pytest.raises(QueryError, match="λ"):
            db.query(QUERY).from_("Alix").to("Bob").cursor([6]).run().all()

    def test_unknown_edge_cursor_rejected(self, db):
        with pytest.raises(QueryError, match="cursor"):
            (
                db.query(QUERY).from_("Alix").to("Bob")
                .cursor([999999]).run().all()
            )

    def test_unchained_edges_cursor_is_a_query_error(self):
        """Edges that exist but do not concatenate are a cursor error,
        not the walk constructor's ``GraphError``."""
        query = (
            Database(chain(4, ("a", "b"), parallel=2))
            .query("(a|b)*").from_("v0").to("v4")
        )
        with pytest.raises(QueryError, match="0 and 5 do not concatenate"):
            query.cursor({"edges": [0, 5, 4, 6]}).run().all()

    def test_foreign_walk_cursor_rejected(self):
        # [1, 4, 6] is a real λ-length walk ending at Bob — it passes
        # every shape check — that is not an answer: in no mode and at
        # no tier may it silently resume into a page.
        foreign = [1, 4, 6]
        service = QueryService()
        service.register_graph("default", example9_graph())
        for mode in ("auto", "iterative", "memoryless"):
            for cache_size in (128, 0):
                base = (
                    Database(example9_graph(), annotation_cache_size=cache_size)
                    .query(QUERY).from_("Alix").mode(mode)
                )
                queries = {
                    "pair": base.to("Bob").cursor(foreign),
                    "to_all": base.to_all().cursor(
                        {"edges": foreign, "target": "Bob"}
                    ),
                    "cheapest": base.to("Bob").cheapest().cursor(foreign),
                }
                for shape, query in queries.items():
                    with pytest.raises(
                        QueryError, match="cursor does not match"
                    ):
                        query.run().all()
                        pytest.fail(f"page served: {mode} {cache_size} {shape}")
            # The same request as one JSONL line through the service.
            line = json.dumps(
                {"query": QUERY, "source": "Alix", "target": "Bob",
                 "mode": mode, "cursor": foreign}
            )
            (request,) = read_requests_jsonl([line])
            response = service.execute(request).to_dict()
            assert response["status"] == "error", mode
            assert "cursor does not match" in response["error"], mode
            assert not response.get("walks"), mode

    def test_timeout_returns_partial_resumable_page(self):
        graph, _, s, t = diamond_chain(12, parallel=2)
        database = Database(graph)
        rs = database.query("a*").from_(s).to(t).timeout_ms(0.0).run()
        partial = rs.all()
        assert rs.timed_out
        assert len(partial) < 2 ** 12
        resumed = (
            database.query("a*").from_(s).to(t)
            .cursor(rs.next_cursor).limit(3).run()
        )
        assert len(resumed.all()) == 3 and not resumed.timed_out


class TestOneSeekPerPage:
    """Every mode pages through one DFS: a first page never seeks, a
    resumed page seeks once from its cursor — not once per row."""

    @pytest.fixture
    def seeks(self, monkeypatch):
        import repro.core.enumerate as enumerate_module

        calls = []
        real = enumerate_module._seek

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(enumerate_module, "_seek", counting)
        return calls

    @pytest.mark.parametrize("mode", ["auto", "iterative", "memoryless"])
    def test_a_page_seeks_at_most_once(self, seeks, mode):
        graph, _, s, t = diamond_chain(5, parallel=2)
        query = Database(graph).query("a*").from_(s).to(t).mode(mode)
        full = _edges(Database(graph).query("a*").from_(s).to(t).run())
        seeks.clear()
        first = query.limit(10).run()
        head = _edges(first)
        assert len(head) == 10 and len(seeks) == 0
        second = query.limit(10).cursor(first.next_cursor).run()
        rest = _edges(second)
        assert len(rest) == 10 and len(seeks) == 1
        assert head + rest == full[:20]


class TestOnePassPerPage:
    """A cache-hit page does its bookkeeping once per cell and once per
    page, never once per row: one ``settle`` and one ``target_info``
    for a pair's cell, no vertex resolved by name beyond the request's
    two endpoints, and a :class:`Cursor` built only when the page stops
    early (at its limit or its deadline)."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from repro.core.annotate import Annotation
        from repro.core.engine import PreparedWalks
        from repro.graph.database import Graph

        counts = {}

        def count(owner, attribute):
            real = getattr(owner, attribute)

            def counting(*args, **kwargs):
                counts[attribute] = counts.get(attribute, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, attribute, counting)

        count(PreparedWalks, "settle")
        count(Annotation, "target_info")
        count(Graph, "resolve_vertex")
        count(Cursor, "__init__")
        return counts

    @pytest.fixture
    def warm(self):
        graph, _, s, t = diamond_chain(5, parallel=2)
        database = Database(graph)
        query = database.query("a*").from_(s).to(t)
        full = _edges(query.run())
        assert len(full) == 32
        return query, full

    @staticmethod
    def _page(counts, query):
        counts.clear()
        rs = query.run()
        rows = _edges(rs)
        return rs, rows, dict(counts)

    def test_a_page_that_stops_at_its_limit(self, counts, warm):
        query, full = warm
        rs, rows, seen = self._page(counts, query.limit(10))
        assert rows == full[:10] and rs.next_cursor.edges == full[9]
        assert seen == {
            "settle": 1, "target_info": 1, "resolve_vertex": 2,
            "__init__": 1,
        }

    def test_a_page_that_runs_out(self, counts, warm):
        query, full = warm
        rs, rows, seen = self._page(counts, query.limit(100))
        assert rows == full and rs.next_cursor is None
        assert seen == {"settle": 1, "target_info": 1, "resolve_vertex": 2}

    def test_a_page_that_stops_at_its_deadline(self, counts, warm):
        query, full = warm
        rs, rows, seen = self._page(counts, query.timeout_ms(0.0))
        assert rs.timed_out and rs.next_cursor.edges == full[len(rows) - 1]
        assert seen["settle"] == 1 and seen["target_info"] == 1
        assert seen["resolve_vertex"] == 2 and seen["__init__"] == 1

    def test_a_resumed_page(self, counts, warm):
        query, full = warm
        resumed = query.cursor(Cursor(edges=full[9])).limit(10)
        rs, rows, seen = self._page(counts, resumed)
        assert rows == full[10:20] and rs.next_cursor.edges == full[19]
        # The request's cursor is built by the builder, not the page.
        assert seen == {
            "settle": 1, "target_info": 1, "resolve_vertex": 2,
            "__init__": 1,
        }


class TestPaginationEdges:
    """Where ``next_cursor`` points when a page stops early."""

    def test_offset_then_limit_points_at_the_last_row_emitted(self, db):
        query = db.query(QUERY).from_("Alix").to("Bob")
        full = _edges(query.run())
        rs = query.offset(1).limit(2).run()
        assert _edges(rs) == full[1:3] and rs.skipped == 1
        assert rs.next_cursor.edges == full[2]
        assert _edges(query.cursor(rs.next_cursor).run()) == full[3:]

    def test_a_deadline_in_the_offset_phase_points_at_the_last_skip(self):
        graph, _, s, t = diamond_chain(5, parallel=2)
        query = Database(graph).query("a*").from_(s).to(t)
        full = _edges(query.run())
        # A spent budget stops the page after its first consumed row,
        # here a skipped one: the cursor resumes right after it.
        rs = query.offset(5).timeout_ms(0.0).run()
        assert rs.all() == [] and rs.timed_out and rs.skipped == 1
        assert rs.next_cursor.edges == full[0]
        rest = query.cursor(rs.next_cursor).offset(5 - rs.skipped).run()
        assert _edges(rest) == full[5:]
        # From a resumed request the anchor moves past its own cursor.
        resumed = query.cursor(Cursor(edges=full[9])).offset(3)
        rs = resumed.timeout_ms(0.0).run()
        assert rs.all() == [] and rs.timed_out and rs.skipped == 1
        assert rs.next_cursor.edges == full[10]

    def test_a_spent_budget_on_an_exhausted_stream_is_no_timeout(self):
        """``timed_out`` means the stream had more: a deadline that
        passes at the last walk leaves no cursor to resume from."""
        query = (
            Database(chain(3, ("a", "b")))
            .query("a a a").from_("v0").to("v3")
        )
        rs = query.timeout_ms(0.0).run()
        assert len(rs.all()) == 1
        assert not rs.timed_out and rs.next_cursor is None
        # Past the deadline in the offset phase, at the last walk.
        rs = query.offset(1).timeout_ms(0.0).run()
        assert rs.all() == [] and rs.skipped == 1
        assert not rs.timed_out and rs.next_cursor is None

    def test_an_offset_across_buckets_names_the_last_rows_bucket(self, db):
        query = db.query(QUERY).from_("Alix").to_all()
        full = [(r.target, r.walk.edges) for r in query.run()]
        assert len({target for target, _ in full}) == 4
        # Every offset, so the skip phase crosses each bucket boundary.
        for offset in range(1, len(full) - 1):
            rs = query.offset(offset).limit(1).run()
            assert [(r.target, r.walk.edges) for r in rs] == [full[offset]]
            token = rs.next_cursor
            assert token.source == "Alix", offset
            assert (token.target, token.edges) == full[offset], offset
            rest = query.cursor(token).run()
            assert [(r.target, r.walk.edges) for r in rest] == full[offset + 1:]


class TestBucketedCursors:
    def test_one_to_all_pages_across_buckets(self, db):
        query = db.query(QUERY).from_("Alix").to_all()
        full = [(r.target, r.walk.edges) for r in query.run()]
        for page_size in (1, 3):
            paged = [
                (r.target, r.walk.edges)
                for r in _drain_pages(query, page_size)
            ]
            assert paged == full, page_size

    def test_bucketed_cursor_carries_the_bucket(self, db):
        rs = db.query(QUERY).from_("Alix").to_all().limit(1).run()
        row = rs.all()[0]
        token = rs.next_cursor
        assert isinstance(token, Cursor)
        assert token.target == row.target
        assert token.edges == row.walk.edges

    def test_all_pairs_pages_across_sources(self, db):
        query = db.query("h | s").all_pairs()
        full = [(r.source, r.target, r.walk.edges) for r in query.run()]
        paged = [
            (r.source, r.target, r.walk.edges)
            for r in _drain_pages(query, 2)
        ]
        assert paged == full and len(full) >= 8

    def test_from_any_pages_across_sources(self, db):
        query = db.query("(h | s)").from_any(["Cassie", "Dan"]).to("Eve")
        full = [(r.source, r.walk.edges) for r in query.run()]
        paged = [
            (r.source, r.walk.edges) for r in _drain_pages(query, 1)
        ]
        assert paged == full and len(full) == 3

    def test_pair_cursor_without_bucket_rejected_on_bucketed_query(self, db):
        rs = db.query(QUERY).from_("Alix").to_all().limit(1).run()
        _ = rs.all()
        bare_edges = list(rs.next_cursor.edges)
        with pytest.raises(QueryError, match="cursor"):
            (
                db.query(QUERY).from_("Alix").to_all()
                .cursor(bare_edges).run().all()
            )

    def test_unmatched_bucket_cursor_rejected(self, db):
        with pytest.raises(QueryError, match="cursor"):
            (
                db.query(QUERY).from_("Alix").to_all()
                .cursor({"edges": [0], "target": "Dan", "source": "Bob"})
                .run().all()
            )


class TestResultSetSurface:
    def test_walks_and_to_dicts(self, db):
        rs = db.query(QUERY).from_("Alix").to("Bob").run()
        walks = list(rs.walks())
        assert len(walks) == 4 and all(w.length == 3 for w in walks)
        dicts = db.query(QUERY).from_("Alix").to("Bob").run().to_dicts()
        assert dicts[0]["source"] == "Alix"
        assert dicts[0]["target"] == "Bob"
        assert dicts[0]["length"] == 3 and dicts[0]["lam"] == 3

    def test_first_and_is_empty(self, db):
        rs = db.query(QUERY).from_("Alix").to("Bob").run()
        assert rs.first() is not None
        empty = db.query("h").from_("Bob").to("Alix").run()
        assert empty.is_empty and empty.first() is None

    def test_single_use_iteration(self, db):
        rs = db.query(QUERY).from_("Alix").to("Bob").run()
        assert len(list(rs)) == 4
        assert list(rs) == []  # Exhausted, not restarted.

    def test_enumerate_timing_accrues(self, db):
        rs = db.query(QUERY).from_("Alix").to("Bob").run()
        _ = rs.all()
        assert rs.stats["timings"]["enumerate"] >= 0.0
