"""EXP-COUNT — answer counting without enumeration.

Two tables:

* (a) the DP counter (:func:`repro.core.count.count_distinct_shortest`)
  vs full enumeration on diamond chains with ``2**k`` answers: the
  enumeration cost doubles with ``k`` while the DP stays flat (its keys
  collapse shared suffixes — diamond chains have O(k) node types);
* (b) the duplicate-blowup measures of Section 1, computed exactly:
  shortest product paths and total multiplicities per answer on
  ``duplicate_bomb`` instances, without running the naive baseline.
"""

from __future__ import annotations

import time

from repro.core.compile import compile_epsilon_free
from repro.core.count import (
    count_shortest_product_paths,
    count_total_multiplicity,
)
from repro.core.engine import DistinctShortestWalks
from repro.workloads.worstcase import diamond_chain, duplicate_bomb


def test_dp_count_vs_enumeration(benchmark, print_table):
    rows = []
    dp_times, enum_times = [], []
    for k in (8, 10, 12, 14):
        graph, nfa, s, t = diamond_chain(k, parallel=2)
        engine = DistinctShortestWalks(graph, nfa, s, t)
        engine.preprocess()

        t0 = time.perf_counter()
        dp = engine.count()
        t1 = time.perf_counter()
        full = sum(1 for _ in engine.enumerate())
        t2 = time.perf_counter()
        assert dp == full == 2 ** k
        dp_times.append(t1 - t0)
        enum_times.append(t2 - t1)
        rows.append(
            [
                k,
                dp,
                f"{(t1 - t0) * 1e3:.3f} ms",
                f"{(t2 - t1) * 1e3:.3f} ms",
            ]
        )
    benchmark.pedantic(
        engine.count, rounds=3, iterations=1
    )
    print_table(
        "EXP-COUNT (a): DP count vs enumeration — DP flat, enum ∝ answers",
        ["k", "answers", "DP count", "enumeration"],
        rows,
    )
    # Enumeration scales with the answer count (×64 answers from k=8 to
    # k=14); the DP must not.
    assert enum_times[-1] > 8 * enum_times[0]
    assert dp_times[-1] < max(4 * dp_times[0], 0.01)


def test_blowup_measures(benchmark, print_table):
    rows = []
    ratios = []
    for k, m in ((6, 2), (6, 3), (10, 3), (14, 3)):
        graph, nfa, s, t = duplicate_bomb(k, m)
        cq = compile_epsilon_free(graph, nfa)
        si, ti = graph.vertex_id(s), graph.vertex_id(t)
        lam, paths = count_shortest_product_paths(cq, si, ti)
        _, mult = count_total_multiplicity(cq, si, ti)
        engine = DistinctShortestWalks(graph, nfa, s, t)
        answers = engine.count()
        assert lam == k and answers == 1 and paths == m ** k
        ratios.append(paths / answers)
        rows.append([f"k={k}, m={m}", answers, paths, mult])
    benchmark.pedantic(
        lambda: count_shortest_product_paths(cq, si, ti),
        rounds=3,
        iterations=1,
    )
    print_table(
        "EXP-COUNT (b): duplicate blowup (product paths per answer)",
        ["instance", "answers", "product paths", "total multiplicity"],
        rows,
    )
    assert ratios[-1] == 3 ** 14  # Exponential copies of one answer.
