"""EXP-T2-DELAY — Theorem 2's delay bound O(λ × |A|).

Three experiments:

* **independence from |D|** — the headline property.  Diamond-chain
  answers embedded in increasingly large unrelated graph bulk: the
  per-output delay must stay flat (slope ≈ 0) while |D| grows 16×;
* **linearity in λ** — chains of growing length;
* **growth with |A|** — complete m-state automata, compiled **as
  written** (the engine's compile merges their m same-past states into
  two); the delay may grow with |Δ| (the bound allows it) and must stay
  well below quadratic.
"""

from __future__ import annotations

import pytest

from repro.bench import loglog_slope, measure_delays
from repro.core.compile import compile_epsilon_free
from repro.core.engine import DistinctShortestWalks
from repro.graph.builder import GraphBuilder
from repro.workloads.worstcase import wide_nfa

from repro.automata.nfa import NFA


def _accept_all(labels=("a",)):
    nfa = NFA(1)
    for a in labels:
        nfa.add_transition(0, a, 0)
    nfa.set_initial(0)
    nfa.set_final(0)
    return nfa


def _diamond_with_bulk(k: int, parallel: int, bulk_edges: int):
    """A diamond chain plus ``bulk_edges`` of irrelevant edges."""
    import random

    rng = random.Random(99)
    builder = GraphBuilder()
    for i in range(k):
        for _ in range(parallel):
            builder.add_edge(f"v{i}", f"v{i + 1}", ["a"])
    n_bulk = max(2, bulk_edges // 4)
    names = [f"bulk{j}" for j in range(n_bulk)]
    for _ in range(bulk_edges):
        builder.add_edge(rng.choice(names), rng.choice(names), ["b"])
    return builder.build()


def test_delay_independent_of_database_size(benchmark, print_table):
    k, parallel = 9, 2  # 512 answers of length 9.
    sizes, delays, rows = [], [], []
    for bulk in (0, 4_000, 16_000, 64_000):
        graph = _diamond_with_bulk(k, parallel, bulk)
        engine = DistinctShortestWalks(graph, _accept_all(), "v0", f"v{k}")
        engine.preprocess()
        stats = measure_delays(engine.enumerate)
        assert stats.outputs == parallel ** k
        sizes.append(graph.size())
        delays.append(stats.mean_delay_s)
        rows.append(
            [
                graph.size(),
                stats.outputs,
                f"{stats.mean_delay_s * 1e6:.2f} µs",
                f"{stats.max_delay_s * 1e6:.2f} µs",
            ]
        )
    slope = loglog_slope(sizes, delays)
    rows.append(["slope", "", f"{slope:.3f}", ""])
    benchmark.pedantic(
        lambda: sum(1 for _ in engine.enumerate()), rounds=2, iterations=1
    )
    print_table(
        "EXP-T2-DELAY (a): delay vs |D| — must be flat (slope ≈ 0)",
        ["|D|", "outputs", "mean delay", "max delay"],
        rows,
    )
    # 16× database growth must not translate into delay growth; allow
    # generous noise but rule out any real dependence.
    assert slope < 0.3, f"delay depends on |D|: slope {slope:.2f}"


def test_delay_grows_linearly_with_lambda(benchmark, print_table):
    lams, delays, rows = [], [], []
    for k in (8, 16, 32, 64):
        graph = _diamond_with_bulk(k, 2, 0)
        engine = DistinctShortestWalks(graph, _accept_all(), "v0", f"v{k}")
        engine.preprocess()
        stats = measure_delays(engine.enumerate, limit=2_000)
        lams.append(k)
        delays.append(stats.mean_delay_s)
        rows.append(
            [k, stats.outputs, f"{stats.mean_delay_s * 1e6:.2f} µs"]
        )
    slope = loglog_slope(lams, delays)
    rows.append(["slope", "", f"{slope:.3f}"])
    benchmark.pedantic(
        lambda: len(engine.first(500)), rounds=2, iterations=1
    )
    print_table(
        "EXP-T2-DELAY (b): delay vs λ — at most linear (slope ≤ 1)",
        ["λ", "outputs measured", "mean delay"],
        rows,
    )
    assert slope < 1.4, f"delay super-linear in λ: slope {slope:.2f}"


def test_delay_growth_with_automaton(benchmark, print_table):
    k = 10
    graph = _diamond_with_bulk(k, 2, 0)
    sizes, delays, rows = [], [], []
    for m in (1, 2, 4, 8):
        nfa = wide_nfa(m, ("a",))
        engine = DistinctShortestWalks(
            graph, nfa, "v0", f"v{k}",
            compiled=compile_epsilon_free(graph, nfa),
        )
        engine.preprocess()
        stats = measure_delays(engine.enumerate)
        assert stats.outputs == 2 ** k
        sizes.append(nfa.size())
        delays.append(stats.mean_delay_s)
        rows.append(
            [m, nfa.transition_count, f"{stats.mean_delay_s * 1e6:.2f} µs"]
        )
    slope = loglog_slope(sizes, delays)
    rows.append(["slope", "", f"{slope:.3f}"])
    benchmark.pedantic(
        lambda: sum(1 for _ in engine.enumerate()), rounds=2, iterations=1
    )
    print_table(
        "EXP-T2-DELAY (c): delay vs |A| as written — bounded by O(λ × |A|)",
        ["|Q|", "|Δ|", "mean delay"],
        rows,
    )
    assert slope < 1.3, f"delay super-linear in |A|: slope {slope:.2f}"


@pytest.mark.parametrize("k", [10])
def test_enumeration_throughput(benchmark, k):
    """pytest-benchmark timing for a full 1024-answer enumeration."""
    graph = _diamond_with_bulk(k, 2, 0)
    engine = DistinctShortestWalks(graph, _accept_all(), "v0", f"v{k}")
    engine.preprocess()

    def run():
        return sum(1 for _ in engine.enumerate())

    count = benchmark(run)
    assert count == 2 ** k
