"""EXP-T18 — the memoryless variant (Theorem 18).

The memoryless enumerator recomputes its position from the previous
output on every call: one fresh ``enumerate(resume_after=w)`` stream
per output, the seek every cursor uses.  Theorem 18 promises the same
O(λ × |A|) delay.  We verify (a) the sequences are identical, (b) the
per-output delay is within a modest constant factor of the eager
enumerator's, and (c) the delay stays flat as |D| grows.
"""

from __future__ import annotations

import pytest

from repro.bench import loglog_slope, measure_delays
from repro.core.engine import DistinctShortestWalks
from repro.workloads.worstcase import diamond_chain

from benchmarks.bench_delay import _accept_all, _diamond_with_bulk


def _one_seek_per_output(engine):
    """Each walk from a fresh stream resumed after the previous one."""
    walk = next(engine.enumerate(), None)
    while walk is not None:
        yield walk
        walk = next(engine.enumerate(resume_after=walk.edges), None)


def _reads(engine, mode):
    """The engine's walks read straight through or one seek each."""
    if mode == "memoryless":
        return lambda: _one_seek_per_output(engine)
    return engine.enumerate


def test_memoryless_equals_eager_sequence(benchmark):
    graph, nfa, s, t = diamond_chain(10, parallel=2)
    engine = DistinctShortestWalks(graph, nfa, s, t)
    eager = [w.edges for w in engine.enumerate()]
    lazy = benchmark.pedantic(
        lambda: [w.edges for w in _one_seek_per_output(engine)],
        rounds=2, iterations=1,
    )
    assert eager == lazy


def test_memoryless_delay_comparison(benchmark, print_table):
    graph, nfa, s, t = diamond_chain(10, parallel=2)
    engine = DistinctShortestWalks(graph, nfa, s, t)
    engine.preprocess()
    rows = []
    stats_by_mode = {}
    for mode in ("iterative", "memoryless"):
        stats = measure_delays(_reads(engine, mode))
        stats_by_mode[mode] = stats
        rows.append(
            [
                mode,
                stats.outputs,
                f"{stats.mean_delay_s * 1e6:.2f} µs",
                f"{stats.max_delay_s * 1e6:.2f} µs",
            ]
        )
    benchmark.pedantic(
        lambda: sum(1 for _ in _one_seek_per_output(engine)),
        rounds=2, iterations=1,
    )
    ratio = (
        stats_by_mode["memoryless"].mean_delay_s
        / max(stats_by_mode["iterative"].mean_delay_s, 1e-9)
    )
    rows.append(["ratio", "", f"{ratio:.2f}x", ""])
    print_table(
        "EXP-T18: memoryless vs eager delay (1024 answers, λ=10)",
        ["mode", "outputs", "mean delay", "max delay"],
        rows,
    )
    # Memoryless pays the guided re-descent: allow a generous constant
    # factor, but it must stay a *constant* (same asymptotics).
    assert ratio < 60, f"memoryless overhead not constant-like: {ratio:.1f}x"


def test_memoryless_delay_independent_of_database(benchmark, print_table):
    k = 8
    sizes, delays, rows = [], [], []
    for bulk in (0, 8_000, 32_000):
        graph = _diamond_with_bulk(k, 2, bulk)
        engine = DistinctShortestWalks(graph, _accept_all(), "v0", f"v{k}")
        engine.preprocess()
        stats = measure_delays(_reads(engine, "memoryless"))
        assert stats.outputs == 2 ** k
        sizes.append(graph.size())
        delays.append(stats.mean_delay_s)
        rows.append(
            [graph.size(), f"{stats.mean_delay_s * 1e6:.2f} µs"]
        )
    slope = loglog_slope(sizes, delays)
    rows.append(["slope", f"{slope:.3f}"])
    benchmark.pedantic(
        lambda: sum(1 for _ in _one_seek_per_output(engine)),
        rounds=2, iterations=1,
    )
    print_table(
        "EXP-T18: memoryless delay vs |D| — flat (slope ≈ 0)",
        ["|D|", "mean delay"],
        rows,
    )
    assert slope < 0.3


@pytest.mark.parametrize("mode", ["iterative", "memoryless"])
def test_enumeration_modes_benchmark(benchmark, mode):
    graph, nfa, s, t = diamond_chain(9, parallel=2)
    engine = DistinctShortestWalks(graph, nfa, s, t)
    engine.preprocess()
    read = _reads(engine, mode)
    count = benchmark(lambda: sum(1 for _ in read()))
    assert count == 2 ** 9
