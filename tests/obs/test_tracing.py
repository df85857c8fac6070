"""Span-tree tests: trace plumbing and the shapes the executor emits.

The shape tests pin the tentpole contract: one request decomposes
into ``parse -> compile -> annotate -> trim -> enumerate`` spans with
cache-hit/miss tags and how far the BFS went, a warm request collapses
to the post-hoc cached ``annotate`` (tagged ``deepened`` when the entry
had to go further) plus ``enumerate``, and ``semantics="any"`` has no trim
stage (the witness engine runs on the untrimmed product).
"""

import pytest

from repro.graph.builder import GraphBuilder
from repro.obs import Observability, Trace
from repro.obs import trace as obs_trace
from repro.service import QueryService
from repro.service.requests import QueryRequest


def _demo_graph():
    builder = GraphBuilder()
    for src, tgt, labels in [
        ("Alix", "Dan", "hs"),
        ("Dan", "Eve", "h"),
        ("Eve", "Bob", "s"),
        ("Alix", "Eve", "t"),
        ("Dan", "Bob", "t"),
    ]:
        for label in labels:
            builder.add_edge(src, tgt, label)
    return builder.build()


def _span_names(spans):
    return [span["name"] for span in spans]


def _span_by_name(spans, name):
    matches = [span for span in spans if span["name"] == name]
    assert len(matches) == 1, f"expected one {name!r} span, got {matches}"
    return matches[0]


class TestTracePrimitives:
    def test_span_nesting_builds_a_tree(self):
        trace = Trace()
        token = obs_trace.activate(trace)
        try:
            with obs_trace.span("outer", kind="test"):
                with obs_trace.span("inner"):
                    pass
                with obs_trace.span("inner2"):
                    pass
        finally:
            obs_trace.deactivate(token)
        tree = trace.to_dict()["spans"]
        assert _span_names(tree) == ["outer"]
        assert tree[0]["tags"] == {"kind": "test"}
        assert _span_names(tree[0]["children"]) == ["inner", "inner2"]
        assert tree[0]["duration_ms"] >= 0.0

    def test_add_span_attaches_post_hoc(self):
        trace = Trace()
        token = obs_trace.activate(trace)
        try:
            obs_trace.add_span("cached-thing", 0.005, cached=True)
        finally:
            obs_trace.deactivate(token)
        (span,) = trace.to_dict()["spans"]
        assert span["name"] == "cached-thing"
        assert span["tags"] == {"cached": True}
        assert span["duration_ms"] == pytest.approx(5.0)

    def test_timings_sums_top_level_by_name(self):
        trace = Trace()
        trace.add_span("annotate", 0.5)
        trace.add_span("annotate", 0.25)
        trace.add_span("trim", 0.125)
        assert trace.timings() == {"annotate": 0.75, "trim": 0.125}

    def test_no_active_trace_is_the_shared_null_path(self):
        assert obs_trace.current_trace() is None
        # Both entry points must be allocation-free no-ops: span()
        # returns the one shared null context manager.
        assert obs_trace.span("a") is obs_trace.span("b")
        with obs_trace.span("ignored"):
            pass
        obs_trace.add_span("ignored", 1.0)
        assert obs_trace.current_trace() is None

    def test_deactivate_restores_outer_state(self):
        outer = Trace()
        token_outer = obs_trace.activate(outer)
        inner = Trace()
        token_inner = obs_trace.activate(inner)
        assert obs_trace.current_trace() is inner
        obs_trace.deactivate(token_inner)
        assert obs_trace.current_trace() is outer
        obs_trace.deactivate(token_outer)
        assert obs_trace.current_trace() is None


@pytest.fixture()
def service():
    svc = QueryService()
    svc.register_graph("default", _demo_graph())
    yield svc
    svc.close()


def _run(service, **fields):
    payload = {
        "query": "h* s (h | s)*",
        "source": "Alix",
        "target": "Bob",
        **fields,
    }
    response = service.execute(QueryRequest.from_dict(payload))
    assert response.status == "ok", response.to_dict()
    return response


class TestExecutorSpanShapes:
    @pytest.mark.parametrize("mode", ["iterative", "memoryless"])
    def test_cold_request_has_all_five_phases(self, service, mode):
        _run(service, mode=mode)
        entry = service.obs.slowlog.entries()[-1]
        spans = entry["spans"]
        assert _span_names(spans) == [
            "parse",
            "compile",
            "annotate",
            "trim",
            "enumerate",
        ]
        # One construction: the parse has nothing to tag.
        assert "tags" not in _span_by_name(spans, "parse")
        annotate = _span_by_name(spans, "annotate")
        assert annotate["tags"]["cached"] is False

    def test_compile_span_says_what_was_compiled(self, service):
        """Thompson's ``h* s (h | s)*``: 14 states as built, 5 of them
        co-accessible, 2 classes of same-past states."""
        _run(service)
        spans = service.obs.slowlog.entries()[-1]["spans"]
        assert _span_by_name(spans, "compile")["tags"] == {
            "states": 14, "co_accessible": 5, "merged": 2,
        }

    @pytest.mark.parametrize("mode", ["iterative", "memoryless"])
    def test_warm_request_collapses_to_cached_annotate(self, service, mode):
        _run(service, mode=mode)
        _run(service, mode=mode)
        entry = service.obs.slowlog.entries()[-1]
        spans = entry["spans"]
        assert _span_names(spans) == ["annotate", "enumerate"]
        assert _span_by_name(spans, "annotate")["tags"] == {"cached": True}

    def test_annotate_span_says_how_far_the_bfs_went(self, service):
        """A cold pair's BFS stops at its target's level (Alix → Dan:
        λ = 1).  A hit for a farther target deepens the cached entry:
        its span is tagged, its time accrues into
        ``annotation_build_s`` and it is counted as a deepen in the
        cache statistics and the metrics export.  A hit that needs no
        more levels is the plain cached span."""
        _run(service, target="Dan")
        spans = service.obs.slowlog.entries()[-1]["spans"]
        assert _span_by_name(spans, "annotate")["tags"] == {
            "cached": False, "levels": 1, "exhausted": False,
        }
        built = service.stats()["annotation_build_s"]

        _run(service, target="Bob")
        spans = service.obs.slowlog.entries()[-1]["spans"]
        assert _span_names(spans) == ["annotate", "enumerate"]
        assert _span_by_name(spans, "annotate")["tags"] == {
            "cached": True, "deepened": True, "levels": 3, "exhausted": False,
        }
        stats = service.stats()
        assert stats["annotation_build_s"] > built
        assert stats["annotation_cache"]["deepens"] == 1
        counters = service.obs.registry.snapshot()["counters"]
        assert counters["cache.annotation_cache.deepens"] == 1

        _run(service, target="Eve")  # λ = 2: settled by the deepen.
        spans = service.obs.slowlog.entries()[-1]["spans"]
        assert _span_by_name(spans, "annotate")["tags"] == {"cached": True}
        assert service.stats()["annotation_cache"]["deepens"] == 1

    def test_recursive_mode_is_refused_before_any_phase_runs(self, service):
        request = QueryRequest(
            "h* s (h | s)*", "Alix", "Bob", mode="recursive"
        )
        response = service.execute(request)
        assert response.status == "error"
        assert "unknown mode 'recursive'" in response.error
        entry = service.obs.slowlog.entries()[-1]
        assert entry["status"] == "error" and entry["spans"] == []

    def test_any_walk_has_no_trim_span(self, service):
        _run(service, semantics="any")
        spans = service.obs.slowlog.entries()[-1]["spans"]
        assert _span_names(spans) == ["parse", "compile", "annotate",
                                      "enumerate"]
        annotate = _span_by_name(spans, "annotate")
        assert annotate["tags"] == {
            "semantics": "any", "cached": False, "levels": 3,
            "exhausted": False,
        }

    def test_restricted_semantics_keep_the_trim_span(self, service):
        _run(service, semantics="trails")
        spans = service.obs.slowlog.entries()[-1]["spans"]
        assert _span_names(spans) == [
            "parse",
            "compile",
            "annotate",
            "trim",
            "enumerate",
        ]


class TestSlowLogEntries:
    def test_entry_shape(self, service):
        _run(service)
        (entry,) = service.obs.slowlog.entries()
        assert entry["kind"] == "query"
        assert entry["status"] == "ok"
        assert entry["total_ms"] >= 0.0
        assert entry["request"]["query"] == "h* s (h | s)*"
        assert entry["request"]["source"] == "Alix"
        assert entry["request"]["target"] == "Bob"
        assert entry["explain"]["lam"] == 3
        assert entry["explain"]["walks"] >= 1
        assert "total" in entry["explain"]["timings"]

    def test_threshold_filters_fast_requests(self):
        svc = QueryService(slow_ms=60_000.0)
        svc.register_graph("default", _demo_graph())
        try:
            _run(svc)
            assert svc.obs.slowlog.entries() == []
        finally:
            svc.close()

    def test_ring_buffer_drops_oldest(self):
        svc = QueryService(slowlog_capacity=2)
        svc.register_graph("default", _demo_graph())
        try:
            for i in range(3):
                _run(svc, id=f"req-{i}")
            kept = [e["id"] for e in svc.obs.slowlog.entries()]
            assert kept == ["req-1", "req-2"]
        finally:
            svc.close()


class TestDisabledObservability:
    def test_disabled_service_records_nothing(self):
        svc = QueryService(obs=Observability.disabled())
        svc.register_graph("default", _demo_graph())
        try:
            response = _run(svc)
            assert svc.obs.slowlog.entries() == []
            assert svc.obs.registry.snapshot()["counters"] == {}
            assert getattr(response, "trace", None) is None
            # Legacy stats() keys still answer (all zero counters).
            assert svc.stats()["requests"] == 0
        finally:
            svc.close()

    def test_no_trace_leaks_out_of_a_request(self, service):
        _run(service)
        assert obs_trace.current_trace() is None
