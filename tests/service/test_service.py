"""End-to-end tests for the batched :class:`QueryService`."""

import json
import threading

import pytest

from repro.core.engine import DistinctShortestWalks
from repro.graph.builder import GraphBuilder
from repro.service import (
    MutationRequest,
    QueryRequest,
    QueryService,
    RequestError,
    read_requests_jsonl,
)
from repro.workloads.fraud import example9_graph
from repro.workloads.worstcase import diamond_chain

QUERY = "h* s (h | s)*"


@pytest.fixture
def service():
    svc = QueryService()
    svc.register_graph("fraud", example9_graph())
    return svc


def _edges(response):
    return [tuple(w["edges"]) for w in response.walks]


def _engine_edges(graph, expression, source, target):
    from repro.automata import regex_to_nfa

    engine = DistinctShortestWalks(
        graph, regex_to_nfa(expression), source, target
    )
    return [w.edges for w in engine.enumerate()]


class TestExecution:
    def test_matches_direct_engine(self, service):
        response = service.execute(QueryRequest(QUERY, "Alix", "Bob"))
        assert response.status == "ok"
        assert response.lam == 3
        assert _edges(response) == _engine_edges(
            example9_graph(), QUERY, "Alix", "Bob"
        )

    def test_mode_overrides_agree(self, service):
        base = service.execute(QueryRequest(QUERY, "Alix", "Bob"))
        for mode in ("iterative", "memoryless"):
            got = service.execute(
                QueryRequest(QUERY, "Alix", "Bob", mode=mode)
            )
            assert _edges(got) == _edges(base), mode

    def test_recursive_mode_is_a_typed_rejection(self, service):
        request = QueryRequest(QUERY, "Alix", "Bob", mode="recursive")
        with pytest.raises(RequestError, match="unknown mode 'recursive'"):
            request.validate()
        response = service.execute(request)
        assert response.status == "error"
        assert "unknown mode 'recursive'" in response.error

    def test_no_matching_walk_is_empty_status(self, service):
        response = service.execute(QueryRequest("h", "Bob", "Alix"))
        assert response.status == "empty"
        assert response.lam is None and response.walks == []

    def test_trivial_lambda_zero_walk(self, service):
        response = service.execute(QueryRequest("h*", "Alix", "Alix"))
        assert response.status == "ok"
        assert response.lam == 0
        assert _edges(response) == [()]

    def test_unknown_vertex_is_error_status(self, service):
        response = service.execute(QueryRequest(QUERY, "Nobody", "Bob"))
        assert response.status == "error"
        assert "Nobody" in response.error

    def test_bad_regex_is_error_status(self, service):
        response = service.execute(QueryRequest("h |", "Alix", "Bob"))
        assert response.status == "error"

    def test_unknown_graph_is_error_status(self, service):
        response = service.execute(
            QueryRequest(QUERY, "Alix", "Bob", graph="other")
        )
        assert response.status == "error"
        assert "other" in response.error

    def test_bool_endpoint_is_an_unknown_vertex(self):
        """``false``/``true`` in a JSONL line are no vertex ids, though
        ``False == 0`` and ``True == 1``."""
        builder = GraphBuilder()
        builder.add_edge("x", "y", ["a"])
        svc = QueryService()
        svc.register_graph("g", builder.build())
        request = QueryRequest.from_dict(
            json.loads('{"query": "a", "source": false, "target": true}')
        )
        response = svc.execute(request)
        assert response.status == "error" and response.code is None
        assert "unknown vertex" in response.error

    def test_deep_nesting_is_an_input_error(self, service):
        deep = "(" * 3000 + "h" + ")" * 3000
        response = service.execute(QueryRequest(deep, "Alix", "Dan"))
        assert response.status == "error" and response.code is None
        assert "nested deeper" in response.error
        capped = "(" * 100 + "h" + ")" * 100
        response = service.execute(QueryRequest(capped, "Alix", "Dan"))
        assert response.status == "ok" and response.lam == 1

    def test_request_id_echoed(self, service):
        response = service.execute(
            QueryRequest(QUERY, "Alix", "Bob", id="req-7")
        )
        assert response.id == "req-7"

    def test_validation_error_is_error_status(self, service):
        response = service.execute(
            QueryRequest(QUERY, "Alix", "Bob", mode="warp")
        )
        assert response.status == "error"
        assert "warp" in response.error


class TestPagination:
    def test_cursor_pages_reassemble_full_enumeration(self, service):
        full = service.execute(QueryRequest(QUERY, "Alix", "Bob"))
        pages = []
        cursor = None
        for _ in range(10):
            page = service.execute(
                QueryRequest(QUERY, "Alix", "Bob", limit=1, cursor=cursor)
            )
            if not page.walks:
                break
            pages.extend(_edges(page))
            cursor = page.next_cursor
            if cursor is None:
                break
        assert pages == _edges(full)

    def test_cursor_portable_across_modes(self, service):
        first = service.execute(
            QueryRequest(QUERY, "Alix", "Bob", limit=2, mode="memoryless")
        )
        rest_eager = service.execute(
            QueryRequest(
                QUERY, "Alix", "Bob",
                cursor=first.next_cursor, mode="iterative",
            )
        )
        rest_memoryless = service.execute(
            QueryRequest(
                QUERY, "Alix", "Bob",
                cursor=first.next_cursor, mode="memoryless",
            )
        )
        assert _edges(rest_eager) == _edges(rest_memoryless)
        full = service.execute(QueryRequest(QUERY, "Alix", "Bob"))
        assert _edges(first) + _edges(rest_eager) == _edges(full)

    def test_offset(self, service):
        full = service.execute(QueryRequest(QUERY, "Alix", "Bob"))
        page = service.execute(
            QueryRequest(QUERY, "Alix", "Bob", offset=2)
        )
        assert _edges(page) == _edges(full)[2:]
        assert page.skipped == 2

    def test_exhausted_page_has_no_cursor(self, service):
        response = service.execute(
            QueryRequest(QUERY, "Alix", "Bob", limit=100)
        )
        assert response.next_cursor is None

    def test_exact_boundary_page_has_no_cursor(self, service):
        full = service.execute(QueryRequest(QUERY, "Alix", "Bob"))
        response = service.execute(
            QueryRequest(QUERY, "Alix", "Bob", limit=len(full.walks))
        )
        assert len(response.walks) == len(full.walks)
        assert response.next_cursor is None

    def test_out_of_range_cursor_is_error_not_crash(self, service):
        for mode in ("memoryless", "iterative"):
            response = service.execute(
                QueryRequest(QUERY, "Alix", "Bob", cursor=[999999], mode=mode)
            )
            assert response.status == "error", mode
            assert "cursor" in response.error

    def test_negative_cursor_id_rejected(self, service):
        response = service.execute(
            QueryRequest(QUERY, "Alix", "Bob", cursor=[-1])
        )
        assert response.status == "error"

    def test_non_walk_cursor_is_error(self, service):
        # Edges 6 and 0 exist but do not concatenate — and even a
        # wrong-length prefix like [0] must not pretend exhaustion.
        for cursor in ([6, 0, 0], [0]):
            for mode in ("memoryless", "iterative"):
                response = service.execute(
                    QueryRequest(
                        QUERY, "Alix", "Bob", cursor=cursor, mode=mode
                    )
                )
                assert response.status == "error", (cursor, mode)

    def test_foreign_walk_cursor_is_error_in_eager_mode(self, service):
        # [1, 4, 6] (Dan→Cassie→Eve→Bob) is a real λ-length walk
        # ending at Bob, but it is not an answer of the query (wrong
        # source) — the eager skip must report it rather than return
        # an empty "exhausted" page.
        response = service.execute(
            QueryRequest(QUERY, "Alix", "Bob", cursor=[1, 4, 6],
                         mode="iterative")
        )
        assert response.status == "error"
        assert response.walks == []

    def test_batch_survives_poison_cursor(self, service):
        requests = [
            QueryRequest(QUERY, "Alix", "Bob", cursor=[999999], id="bad"),
            QueryRequest(QUERY, "Alix", "Bob", id="good"),
        ]
        responses = service.execute_batch(requests)
        assert [r.status for r in responses] == ["error", "ok"]

    def test_zero_limit_rejected(self, service):
        response = service.execute(
            QueryRequest(QUERY, "Alix", "Bob", limit=0)
        )
        assert response.status == "error"

    def test_timeout_returns_partial_page_and_resume_cursor(self):
        svc = QueryService()
        graph, nfa, s, t = diamond_chain(12, parallel=2)
        svc.register_graph("diamond", graph)
        response = svc.execute(
            QueryRequest("a*", s, t, timeout_ms=0.0)
        )
        assert response.status == "timeout"
        # The 2**12-answer enumeration cannot finish in 0 ms; the
        # partial page resumes from the returned cursor.
        assert len(response.walks) < 2 ** 12
        resumed = svc.execute(
            QueryRequest("a*", s, t, cursor=response.next_cursor, limit=3)
        )
        assert resumed.status == "ok" and len(resumed.walks) == 3


class TestCachingAndInvalidation:
    def test_plan_and_annotation_hits_on_repeat(self, service):
        first = service.execute(QueryRequest(QUERY, "Alix", "Bob"))
        assert first.cached == {"plan": False, "annotation": False}
        repeat = service.execute(QueryRequest(QUERY, "Alix", "Bob"))
        assert repeat.cached == {"plan": True, "annotation": True}

    def test_annotation_shared_across_targets(self, service):
        service.execute(QueryRequest(QUERY, "Alix", "Bob"))
        other_target = service.execute(QueryRequest(QUERY, "Alix", "Eve"))
        # Different target, same (query, source): annotation cache hit.
        assert other_target.cached["annotation"] is True
        assert other_target.status == "ok"

    def test_repeated_pair_mix_misses_once_per_plan_and_pair(self, service):
        """A dashboard-like mix — 2 queries x 2 sources x 4 targets,
        visited 3 times — builds one plan per query text and one
        annotation per (query, source) pair; every other request hits."""
        queries, sources = [QUERY, "(h | s)+"], ["Alix", "Bob"]
        block = [
            QueryRequest(query, source, target, limit=20)
            for query in queries
            for source in sources
            for target in ("Bob", "Cassie", "Dan", "Eve")
        ]
        responses = service.execute_batch(block * 3)
        assert all(r.status != "error" for r in responses)
        stats = service.stats()
        n = len(responses)
        assert (stats["plan_cache"]["misses"], stats["plan_cache"]["hits"]) \
            == (2, n - 2)
        annotations = stats["annotation_cache"]
        assert (annotations["misses"], annotations["hits"]) == (4, n - 4)
        assert annotations["evictions"] == 0

    def test_reregistration_bumps_version_and_invalidates(self):
        svc = QueryService()
        builder = GraphBuilder()
        builder.add_edge("a", "b", ["x"])
        assert svc.register_graph("g", builder.build()) == 1
        before = svc.execute(QueryRequest("x | y", "a", "b", graph="g"))
        assert before.lam == 1 and len(before.walks) == 1

        grown = GraphBuilder()
        grown.add_edge("a", "b", ["x"])
        grown.add_edge("a", "b", ["y"])
        assert svc.register_graph("g", grown.build()) == 2
        assert svc.graph_version("g") == 2
        after = svc.execute(QueryRequest("x | y", "a", "b", graph="g"))
        # A stale cached annotation would still report one answer.
        assert len(after.walks) == 2
        assert after.cached == {"plan": False, "annotation": False}

    def test_cold_path_applies_cursor(self):
        svc = QueryService(plan_cache_size=0, annotation_cache_size=0)
        svc.register_graph("fraud", example9_graph())
        page1 = svc.execute(QueryRequest(QUERY, "Alix", "Bob", limit=2))
        assert page1.next_cursor is not None
        page2 = svc.execute(
            QueryRequest(QUERY, "Alix", "Bob", cursor=page1.next_cursor)
        )
        combined = _edges(page1) + _edges(page2)
        assert combined == _engine_edges(example9_graph(), QUERY, "Alix", "Bob")

    def test_integer_vertex_names_resolve_once(self):
        # resolve_vertex prefers names over ids; a graph whose vertex
        # *names* are the integers 1 and 0 exposes any double
        # resolution (id 0 would re-resolve to the vertex *named* 0).
        builder = GraphBuilder()
        builder.add_vertex(1)
        builder.add_vertex(0)
        builder.add_edge(1, 0, ["a"])
        graph = builder.build()
        for sizes in ((128, 128), (0, 0)):
            svc = QueryService(
                plan_cache_size=sizes[0], annotation_cache_size=sizes[1]
            )
            svc.register_graph("ints", graph)
            response = svc.execute(QueryRequest("a", 1, 0))
            assert response.status == "ok", sizes
            assert response.lam == 1
            assert _edges(response) == [(0,)]

    def test_version_counter_never_reused_across_reregistration(self):
        svc = QueryService()
        builder = GraphBuilder()
        builder.add_edge("a", "b", ["x"])
        v1 = svc.register_graph("g", builder.build())
        svc.unregister_graph("g")
        v2 = svc.register_graph("g", builder.build())
        assert v2 > v1  # A stale in-flight build can never alias v2.

    def test_unregister_then_error(self, service):
        service.unregister_graph("fraud")
        response = service.execute(QueryRequest(QUERY, "Alix", "Bob"))
        assert response.status == "error"

    def test_cold_service_never_reports_cache_hits(self):
        svc = QueryService(plan_cache_size=0, annotation_cache_size=0)
        svc.register_graph("fraud", example9_graph())
        warm = QueryService()
        warm.register_graph("fraud", example9_graph())
        for _ in range(2):
            cold_resp = svc.execute(QueryRequest(QUERY, "Alix", "Bob"))
            warm_resp = warm.execute(QueryRequest(QUERY, "Alix", "Bob"))
            assert _edges(cold_resp) == _edges(warm_resp)
        assert cold_resp.cached == {"plan": False, "annotation": False}
        stats = svc.stats()
        assert stats["plan_cache"]["hits"] == 0
        assert stats["annotation_cache"]["hits"] == 0

    def test_stats_shape(self, service):
        service.execute(QueryRequest(QUERY, "Alix", "Bob"))
        service.execute(QueryRequest(QUERY, "Alix", "Bob"))
        stats = service.stats()
        assert stats["requests"] == 2
        assert stats["plan_cache"]["hit_rate"] == pytest.approx(0.5)
        assert stats["graphs"] == {"fraud": 1}
        json.dumps(stats)  # Must be JSON-serializable for the CLI.


class TestBatchExecutor:
    def test_batch_preserves_order_and_shares_caches(self, service):
        targets = ["Bob", "Cassie", "Dan", "Eve"] * 5
        requests = [
            QueryRequest(QUERY, "Alix", t, id=i)
            for i, t in enumerate(targets)
        ]
        responses = service.execute_batch(requests)
        assert [r.id for r in responses] == list(range(len(targets)))
        for response, target in zip(responses, targets):
            assert response.status == "ok"
            assert _edges(response) == _engine_edges(
                example9_graph(), QUERY, "Alix", target
            ), target
        stats = service.stats()
        # One plan build, one annotation build, everything else hits.
        assert stats["plan_cache"]["misses"] == 1
        assert stats["annotation_cache"]["misses"] == 1
        assert stats["annotation_cache"]["hits"] == len(targets) - 1

    def test_max_workers_is_accepted_and_selects_nothing(self, service):
        """Still accepted from older callers; a batch runs in order."""
        requests = [QueryRequest(QUERY, "Alix", t) for t in ("Bob", "Dan")]
        other = QueryService(max_workers=4)
        other.register_graph("fraud", example9_graph())
        assert [_edges(r) for r in other.execute_batch(requests)] == [
            _edges(r) for r in service.execute_batch(requests)
        ]

    def test_batch_mixes_modes_and_errors(self, service):
        requests = [
            QueryRequest(QUERY, "Alix", "Bob", mode="iterative"),
            QueryRequest(QUERY, "Alix", "Bob", mode="recursive"),
            QueryRequest(QUERY, "Nobody", "Bob"),
            QueryRequest(QUERY, "Alix", "Bob", mode="memoryless"),
        ]
        responses = service.execute_batch(requests)
        assert [r.status for r in responses] == [
            "ok", "error", "error", "ok",
        ]
        assert "unknown mode" in responses[1].error
        assert _edges(responses[0]) == _edges(responses[3])

    def test_concurrent_first_use_single_flight(self):
        """Many threads, cold caches, one shared (query, source):
        the plan and annotation must be built exactly once."""
        svc = QueryService()
        graph, _, s, t = diamond_chain(8, parallel=2)
        svc.register_graph("diamond", graph, warm=False)
        barrier = threading.Barrier(6, timeout=10)
        results = []

        def worker():
            barrier.wait()
            results.append(
                svc.execute(QueryRequest("a*", s, t, limit=4))
            )

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(results) == 6
        expected = _edges(results[0])
        for response in results:
            assert response.status == "ok" and _edges(response) == expected
        stats = svc.stats()
        assert stats["plan_cache"]["misses"] == 1
        assert stats["annotation_cache"]["misses"] == 1


class TestRequestParsing:
    def test_jsonl_round_trip(self):
        lines = [
            '{"query": "h*", "source": "Alix", "target": "Bob"}',
            "# a comment",
            "",
            '{"query": "s", "source": "A", "target": "B", "limit": 3,'
            ' "cursor": [1, 2], "mode": "memoryless", "id": 9}',
        ]
        requests = list(read_requests_jsonl(lines))
        assert len(requests) == 2
        assert requests[0].query == "h*" and requests[0].limit is None
        assert requests[1].cursor == (1, 2) and requests[1].id == 9
        # to_dict drops defaults and survives a re-parse.
        again = QueryRequest.from_dict(requests[1].to_dict())
        assert again == requests[1]

    def test_invalid_json_names_line(self):
        with pytest.raises(RequestError, match="line 2"):
            list(
                read_requests_jsonl(
                    ['{"query": "a", "source": 1, "target": 2}', "{nope"]
                )
            )

    def test_unknown_field_rejected(self):
        with pytest.raises(RequestError, match="walk_limit"):
            QueryRequest.from_dict(
                {"query": "a", "source": 1, "target": 2, "walk_limit": 5}
            )

    def test_missing_field_rejected(self):
        with pytest.raises(RequestError, match="target"):
            QueryRequest.from_dict({"query": "a", "source": 1})

    def test_bad_knobs_rejected(self):
        nan, inf = float("nan"), float("inf")
        for payload in (
            {"query": "a", "source": 1, "target": 2, "limit": -1},
            {"query": "a", "source": 1, "target": 2, "offset": -2},
            {"query": "a", "source": 1, "target": 2, "cursor": ["x"]},
            {"query": "a", "source": 1, "target": 2, "timeout_ms": -5},
            {"query": "", "source": 1, "target": 2},
            # JSON true is a Python int, but no count, budget or edge id.
            {"query": "a", "source": 1, "target": 2, "limit": True},
            {"query": "a", "source": 1, "target": 2, "offset": True},
            {"query": "a", "source": 1, "target": 2, "timeout_ms": True},
            {"query": "a", "source": 1, "target": 2, "timeout_ms": "5"},
            {"query": "a", "source": 1, "target": 2, "timeout_ms": nan},
            {"query": "a", "source": 1, "target": 2, "timeout_ms": inf},
            {"query": "a", "source": 1, "target": 2, "cursor": [True]},
        ):
            with pytest.raises(RequestError):
                QueryRequest.from_dict(payload)

    @pytest.mark.parametrize("field", ["source", "target", "graph"])
    def test_unhashable_names_are_request_errors(self, service, field):
        payload = {"query": QUERY, "source": "Alix", "target": "Bob"}
        payload[field] = [payload.get(field, "fraud")]
        with pytest.raises(RequestError, match=f"'{field}' must be hashable"):
            QueryRequest.from_dict(payload)
        response = service.execute(QueryRequest(**payload))
        assert response.status == "error"
        assert response.code is None
        assert "must be hashable" in response.error

    @pytest.mark.parametrize("line", ["NaN", "Infinity"])
    def test_non_finite_timeout_is_a_request_error(self, service, line):
        """``json.loads`` parses NaN and Infinity; a NaN deadline would
        never expire, so both are refused before any work runs."""
        payload = json.loads(
            '{"query": "%s", "source": "Alix", "target": "Bob", '
            '"timeout_ms": %s}' % (QUERY, line)
        )
        with pytest.raises(RequestError, match="timeout_ms"):
            QueryRequest.from_dict(payload)
        response = service.execute(QueryRequest(**payload))
        assert response.status == "error"
        assert "timeout_ms" in response.error


    def test_a_parsed_request_is_validated_once(self, service, monkeypatch):
        """``from_dict`` ends in ``validate()``; executing the parsed
        request does not run the pass again."""
        calls = []
        real = QueryRequest.validate

        def counting(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(QueryRequest, "validate", counting)
        payload = {"query": QUERY, "source": "Alix", "target": "Bob",
                   "graph": "fraud", "cursor": [0, 3, 6]}
        request = QueryRequest.from_dict(payload)
        assert len(calls) == 1
        response = service.execute(request)
        assert response.status == "ok" and len(calls) == 1
        (line_request,) = read_requests_jsonl([json.dumps(payload)])
        assert service.execute(line_request).status == "ok"
        assert len(calls) == 2

    def test_a_constructed_request_is_still_validated(self, service):
        bad = QueryRequest(
            query=QUERY, source="Alix", target="Bob", graph="fraud", limit=0
        )
        response = service.execute(bad)
        assert response.status == "error" and "limit" in response.error
        # The pass still normalises a directly constructed request.
        good = QueryRequest(
            query=QUERY, source="Alix", target="Bob", graph="fraud",
            cursor=[0, 3, 6],
        )
        response = service.execute(good)
        assert response.status == "ok" and good.cursor == (0, 3, 6)


class TestInternalErrorCode:
    """Unexpected exceptions surface as structured code="internal"."""

    def test_query_backstop_sets_internal_code(self, service, monkeypatch):
        def boom(request):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(service, "_execute_checked", boom)
        response = service.execute(
            QueryRequest.from_dict(
                {"query": "h", "source": "Alix", "target": "Dan", "id": 4}
            )
        )
        assert response.status == "error"
        assert response.code == "internal"
        assert "engine exploded" in response.error
        assert response.id == 4
        assert response.to_dict()["code"] == "internal"

    def test_mutation_backstop_sets_internal_code(self, service, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("owner exploded")

        monkeypatch.setattr(service._db, "mutate", boom)
        response = service.execute(
            MutationRequest.from_dict(
                {"mutate": [{"op": "add_vertex", "name": "Z"}],
                 "graph": "fraud"}
            )
        )
        assert response.status == "error"
        assert response.code == "internal"
        assert "owner exploded" in response.error

    def test_expected_errors_carry_no_internal_code(self, service):
        response = service.execute(
            QueryRequest.from_dict(
                {"query": "h", "source": "ghost", "target": "Dan"}
            )
        )
        assert response.status == "error"
        assert response.code is None
