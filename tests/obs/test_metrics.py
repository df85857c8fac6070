"""Unit tests for the metrics registry: bucket math, merge, exposition.

The histogram boundary cases pin the Prometheus ``le`` convention
(observations equal to a bound land in that bound's bucket) and the
quantile interpolation; the merge tests pin the cross-worker
aggregation semantics (sum counters, max gauges, element-wise bucket
adds).  The disabled-mode tests are the no-op overhead contract: a
disabled registry hands out *shared null singletons*, so the
per-event cost is one no-op method call with no allocation.
"""

import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    histogram_quantile,
    merge_snapshots,
    render_prometheus,
)


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c.inc()
        c.inc(2.5)
        assert reg.counter_value("hits") == pytest.approx(3.5)

    def test_counter_is_shared_by_name(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.counter("x").inc()
        assert reg.counter_value("x") == 2.0

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0.0

    def test_gauge_set_and_inc(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10.0)
        g.inc(-3.0)
        assert reg.snapshot()["gauges"]["depth"] == pytest.approx(7.0)

    def test_counter_thread_safety(self):
        reg = MetricsRegistry()
        c = reg.counter("contended")
        n, per = 8, 2000

        def worker():
            for _ in range(per):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter_value("contended") == n * per


class TestHistogramBuckets:
    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_value_on_bound_lands_in_that_bucket(self):
        # Prometheus `le` semantics: bucket i counts v <= bounds[i].
        h = Histogram("h", bounds=(1.0, 2.0, 4.0))
        h.observe(1.0)
        snap = h.snapshot()
        assert snap["counts"] == [1, 0, 0, 0]

    def test_value_just_over_bound_moves_up(self):
        h = Histogram("h", bounds=(1.0, 2.0, 4.0))
        h.observe(1.0000001)
        assert h.snapshot()["counts"] == [0, 1, 0, 0]

    def test_overflow_bucket(self):
        h = Histogram("h", bounds=(1.0, 2.0))
        h.observe(99.0)
        snap = h.snapshot()
        assert snap["counts"] == [0, 0, 1]
        assert snap["max"] == 99.0

    def test_zero_lands_in_first_bucket(self):
        h = Histogram("h", bounds=(1.0, 2.0))
        h.observe(0.0)
        assert h.snapshot()["counts"] == [1, 0, 0]

    def test_sum_and_count(self):
        h = Histogram("h", bounds=(1.0, 2.0))
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.0)

    def test_default_bounds_cover_latency_range(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.0001
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 10.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            DEFAULT_LATENCY_BUCKETS
        )


class TestQuantiles:
    def test_empty_histogram_quantile_is_zero(self):
        h = Histogram("h", bounds=(1.0, 2.0))
        assert h.quantile(0.5) == 0.0

    def test_quantile_interpolates_within_bucket(self):
        # 10 observations all in the (1.0, 2.0] bucket: the p50 rank
        # is halfway through it, so interpolation gives ~1.5.
        h = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for _ in range(10):
            h.observe(1.5)
        assert h.quantile(0.5) == pytest.approx(1.5, abs=0.11)

    def test_quantile_uses_observed_max_in_overflow(self):
        h = Histogram("h", bounds=(1.0,))
        h.observe(7.0)
        # The overflow bucket has no upper bound; the observed max
        # caps the interpolation so p99 is never infinite.
        assert h.quantile(0.99) <= 7.0

    def test_quantile_validates_q(self):
        snap = Histogram("h", bounds=(1.0,)).snapshot()
        with pytest.raises(ValueError):
            histogram_quantile(snap, 0.0)
        with pytest.raises(ValueError):
            histogram_quantile(snap, 1.5)

    def test_snapshot_annotates_p50_p95_p99(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(1.0, 2.0))
        h.observe(0.5)
        snap = reg.snapshot()["histograms"]["lat"]
        for key in ("p50", "p95", "p99"):
            assert key in snap


class TestMerge:
    def _snap(self, requests, depth, lat_counts):
        return {
            "counters": {"requests": requests},
            "gauges": {"depth": depth},
            "histograms": {
                "lat": {
                    "buckets": [1.0, 2.0],
                    "counts": list(lat_counts),
                    "count": sum(lat_counts),
                    "sum": 1.0,
                    "max": 2.0,
                }
            },
        }

    def test_counters_sum_gauges_max_buckets_add(self):
        merged = merge_snapshots(
            [self._snap(3, 5, [1, 0, 0]), self._snap(4, 2, [0, 2, 1])]
        )
        assert merged["counters"]["requests"] == 7
        assert merged["gauges"]["depth"] == 5
        assert merged["histograms"]["lat"]["counts"] == [1, 2, 1]
        assert merged["histograms"]["lat"]["count"] == 4

    def test_merge_skips_none_entries(self):
        merged = merge_snapshots([None, self._snap(2, 1, [1, 0, 0]), None])
        assert merged["counters"]["requests"] == 2

    def test_bucket_layout_skew_keeps_first(self):
        # Version skew between workers: incompatible layouts must not
        # produce garbage element-wise adds.
        a = self._snap(1, 1, [1, 0, 0])
        b = self._snap(1, 1, [5, 0, 0])
        b["histograms"]["lat"]["buckets"] = [10.0, 20.0]
        merged = merge_snapshots([a, b])
        assert merged["histograms"]["lat"]["counts"] == [1, 0, 0]

    def test_merged_histograms_have_quantiles(self):
        merged = merge_snapshots([self._snap(1, 1, [4, 4, 2])])
        assert "p95" in merged["histograms"]["lat"]


class TestPrometheusRender:
    def test_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("service.requests").inc(3)
        reg.gauge("live.overlay_edges").set(12)
        h = reg.histogram("wal.fsync_seconds", bounds=(0.001, 0.01))
        h.observe(0.0005)
        h.observe(0.5)
        text = render_prometheus(reg.snapshot())
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "repro_service_requests 3" in lines
        assert "repro_live_overlay_edges 12" in lines
        # Cumulative buckets plus the +Inf catch-all.
        assert 'repro_wal_fsync_seconds_bucket{le="0.001"} 1' in lines
        assert 'repro_wal_fsync_seconds_bucket{le="0.01"} 1' in lines
        assert 'repro_wal_fsync_seconds_bucket{le="+Inf"} 2' in lines
        assert "repro_wal_fsync_seconds_count 2" in lines
        assert any(
            line.startswith("# TYPE repro_service_requests counter")
            for line in lines
        )


class TestDisabledMode:
    def test_disabled_registry_hands_out_shared_nulls(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a") is NULL_COUNTER
        assert reg.counter("b") is NULL_COUNTER
        assert reg.gauge("g") is NULL_GAUGE
        assert reg.histogram("h") is NULL_HISTOGRAM

    def test_null_instruments_are_inert(self):
        NULL_COUNTER.inc()
        NULL_GAUGE.set(5.0)
        NULL_HISTOGRAM.observe(1.0)
        reg = MetricsRegistry(enabled=False)
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_disabled_overhead_is_noop_scale(self):
        # The disabled-bundle contract (test_tracing.py checks that a
        # disabled service records nothing; the spine's
        # obs.trace_overhead_frac row measures the cost when enabled):
        # an event against a null instrument is one attribute-free
        # method call.
        # Assert it stays within a small constant factor of an empty
        # function call rather than asserting wall-clock numbers.
        import timeit

        c = MetricsRegistry(enabled=False).counter("x")

        def noop():
            pass

        base = min(
            timeit.repeat(noop, number=20000, repeat=5)
        )
        null = min(
            timeit.repeat(lambda: c.inc(), number=20000, repeat=5)
        )
        assert null < base * 10 + 0.05


class TestCollectors:
    def test_collector_partials_merge_into_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("own").inc()
        reg.register_collector(
            lambda: {
                "counters": {"pulled.hits": 4},
                "gauges": {"pulled.entries": 2},
            }
        )
        snap = reg.snapshot()
        assert snap["counters"]["own"] == 1.0
        assert snap["counters"]["pulled.hits"] == 4
        assert snap["gauges"]["pulled.entries"] == 2

    def test_failing_collector_does_not_break_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("own").inc()

        def bad():
            raise RuntimeError("cache is mid-teardown")

        reg.register_collector(bad)
        assert reg.snapshot()["counters"]["own"] == 1.0
