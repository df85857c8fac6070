"""EXP-T1 / EXP-NAIVE / EXP-SIMPLE — the paper's algorithm vs baselines.

* **EXP-NAIVE**: on the duplicate bomb, the naive product enumeration
  visits m^k product paths to emit ONE answer; the paper's algorithm
  emits it directly.  We measure the visited-path counter and the
  wall-clock gap.
* **EXP-T1**: the Martens–Trautner reduction is output-equivalent but
  its delay degrades with |D| (its alphabet *is* the edge set), while
  Theorem 2's delay does not.
* **EXP-SIMPLE**: on the deterministic single-label setting, the
  folklore O(λ)-delay product-BFS enumerator against the general
  algorithm — a baseline comparison the general engine wins on its
  flat cells (no assertion on the direction, only on the outputs).
"""

from __future__ import annotations

import time

import pytest

from repro.baselines.martens_trautner import martens_trautner_walks
from repro.baselines.naive import NaiveStats, naive_enumerate
from repro.baselines.simple import SimpleShortestWalks
from repro.bench import measure_delays
from repro.core.compile import compile_epsilon_free
from repro.core.engine import DistinctShortestWalks
from repro.graph.generators import grid
from repro.workloads.worstcase import diamond_chain, duplicate_bomb

from repro.automata.nfa import NFA


def test_naive_duplicate_blowup(benchmark, print_table):
    rows = []
    for k, m in ((4, 3), (6, 3), (8, 3)):
        graph, nfa, s, t = duplicate_bomb(k, m)
        cq = compile_epsilon_free(graph, nfa)
        sid, tid = graph.vertex_id(s), graph.vertex_id(t)

        started = time.perf_counter()
        stats = NaiveStats()
        naive_walks = list(naive_enumerate(cq, sid, tid, stats))
        naive_time = time.perf_counter() - started

        started = time.perf_counter()
        engine = DistinctShortestWalks(graph, nfa, sid, tid)
        our_walks = list(engine.enumerate())
        our_time = time.perf_counter() - started

        assert len(naive_walks) == len(our_walks) == 1
        assert stats.product_paths == m ** k
        rows.append(
            [
                f"k={k}, m={m}",
                stats.product_paths,
                stats.duplicates_suppressed,
                f"{naive_time * 1e3:.2f} ms",
                f"{our_time * 1e3:.2f} ms",
                f"{naive_time / max(our_time, 1e-9):.1f}x",
            ]
        )
    benchmark.pedantic(
        lambda: list(DistinctShortestWalks(graph, nfa, sid, tid).enumerate()),
        rounds=2,
        iterations=1,
    )
    print_table(
        "EXP-NAIVE: duplicate bomb — naive visits m^k paths for 1 answer",
        ["instance", "product paths", "dups", "naive", "ours", "speedup"],
        rows,
    )
    # The blowup is the claim: last instance suppresses 3^8 - 1 copies.
    assert rows[-1][2] == 3 ** 8 - 1


def test_martens_trautner_delay_grows_with_database(benchmark, print_table):
    """Same answers; the reduction's cost scales with |D|, ours not.

    The extra database bulk is a long 'a'-labeled tail *reachable from
    the source* but never on a shortest s→t walk.  Theorem 2's
    ``Annotate`` stops at BFS level λ and never walks the tail past
    depth λ; the reduction's product automaton A′ must materialize the
    whole reachable product and run λ backward-layer sweeps over it, so
    its time-to-first-output grows with |D| while our delay stays flat.
    """
    k, parallel = 8, 2
    rows = []
    our_delays, mt_firsts, sizes = [], [], []
    from repro.graph.builder import GraphBuilder

    for bulk in (0, 4_000, 16_000):
        builder = GraphBuilder()
        for i in range(k):
            for _ in range(parallel):
                builder.add_edge(f"v{i}", f"v{i + 1}", ["a"])
        # Reachable tail: v0 -> c0 -> c1 -> ... (same label as the query).
        previous = "v0"
        for j in range(bulk):
            builder.add_edge(previous, f"c{j}", ["a"])
            previous = f"c{j}"
        graph = builder.build()
        nfa = NFA(1)
        nfa.add_transition(0, "a", 0)
        nfa.set_initial(0)
        nfa.set_final(0)
        cq = compile_epsilon_free(graph, nfa)
        s, t = graph.vertex_id("v0"), graph.vertex_id(f"v{k}")

        engine = DistinctShortestWalks(graph, nfa, s, t)
        engine.preprocess()
        ours = measure_delays(engine.enumerate)
        theirs = measure_delays(lambda: martens_trautner_walks(cq, s, t))
        assert ours.outputs == theirs.outputs == parallel ** k

        sizes.append(graph.size())
        our_delays.append(ours.mean_delay_s)
        mt_firsts.append(theirs.first_output_s)
        rows.append(
            [
                graph.size(),
                f"{ours.mean_delay_s * 1e6:.1f} µs",
                f"{theirs.mean_delay_s * 1e6:.1f} µs",
                f"{theirs.first_output_s * 1e3:.1f} ms",
            ]
        )
    benchmark.pedantic(
        lambda: sum(1 for _ in martens_trautner_walks(cq, s, t)),
        rounds=2,
        iterations=1,
    )
    print_table(
        "EXP-T1: ours vs Martens–Trautner as |D| grows (same answers)",
        ["|D|", "our mean delay", "MT mean delay", "MT first output"],
        rows,
    )
    # 400×+ database growth: the reduction's first output degrades by a
    # large factor, our per-output delay stays flat (< 3x noise).
    assert mt_firsts[-1] > 3 * mt_firsts[0]
    assert our_delays[-1] < 3 * max(our_delays[0], 1e-6)


def test_simple_fast_path_constant_factor(benchmark, print_table):
    """EXP-SIMPLE: the folklore O(λ)-delay product-BFS baseline vs the
    general algorithm (which wins on its flat cells; see EXPERIMENTS.md)."""
    g = grid(7, 7)
    nfa = NFA(13)
    for i in range(12):
        nfa.add_transition(i, "r", i + 1)
        nfa.add_transition(i, "d", i + 1)
    nfa.set_initial(0)
    nfa.set_final(12)

    simple = SimpleShortestWalks(g, nfa, "n0_0", "n6_6")
    simple.preprocess()
    stats_simple = measure_delays(simple.enumerate)

    general = DistinctShortestWalks(g, nfa, "n0_0", "n6_6")
    general.preprocess()
    stats_general = measure_delays(general.enumerate)

    assert stats_simple.outputs == stats_general.outputs == 924  # C(12,6)
    benchmark.pedantic(
        lambda: sum(1 for _ in simple.enumerate()), rounds=2, iterations=1
    )
    print_table(
        "EXP-SIMPLE: simple-setting baseline vs general algorithm "
        "(7×7 grid, 924 answers)",
        ["engine", "outputs", "mean delay", "max delay"],
        [
            [
                "simple (product BFS)",
                stats_simple.outputs,
                f"{stats_simple.mean_delay_s * 1e6:.1f} µs",
                f"{stats_simple.max_delay_s * 1e6:.1f} µs",
            ],
            [
                "general (Theorem 2)",
                stats_general.outputs,
                f"{stats_general.mean_delay_s * 1e6:.1f} µs",
                f"{stats_general.max_delay_s * 1e6:.1f} µs",
            ],
        ],
    )


@pytest.mark.parametrize(
    "algorithm", ["ours", "martens_trautner", "naive"]
)
def test_algorithms_on_diamond_chain(benchmark, algorithm):
    """pytest-benchmark head-to-head on 256 answers."""
    graph, nfa, s, t = diamond_chain(8, parallel=2)
    cq = compile_epsilon_free(graph, nfa)
    sid, tid = graph.vertex_id(s), graph.vertex_id(t)

    if algorithm == "ours":
        run = lambda: sum(
            1 for _ in DistinctShortestWalks(graph, nfa, sid, tid).enumerate()
        )
    elif algorithm == "martens_trautner":
        run = lambda: sum(1 for _ in martens_trautner_walks(cq, sid, tid))
    else:
        run = lambda: sum(1 for _ in naive_enumerate(cq, sid, tid))

    count = benchmark(run)
    assert count == 2 ** 8
