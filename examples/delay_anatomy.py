#!/usr/bin/env python
"""Why this algorithm exists: the duplicate explosion, measured.

The paper's introduction: in the product D × A, one walk of D can be
witnessed by exponentially many product paths once edges carry several
labels or the query is nondeterministic.  This script builds that
worst case (the "duplicate bomb"), runs the naive strawman and the
paper's algorithm side by side, and prints the delay statistics for a
large answer set — the numbers behind Theorem 2.

Run:  python examples/delay_anatomy.py
"""

import time

from repro import DistinctShortestWalks
from repro.baselines.naive import NaiveStats, naive_enumerate
from repro.bench import measure_delays
from repro.core.compile import compile_epsilon_free
from repro.workloads.worstcase import diamond_chain, duplicate_bomb


def duplicate_explosion() -> None:
    print("=" * 64)
    print("1. The duplicate bomb: one answer, m^k product paths")
    print("=" * 64)
    k, m = 9, 3
    graph, nfa, s, t = duplicate_bomb(k, m)
    cq = compile_epsilon_free(graph, nfa)  # the bomb as written
    sid, tid = graph.vertex_id(s), graph.vertex_id(t)

    started = time.perf_counter()
    stats = NaiveStats()
    naive_answers = list(naive_enumerate(cq, sid, tid, stats))
    naive_time = time.perf_counter() - started

    started = time.perf_counter()
    engine = DistinctShortestWalks(graph, nfa, sid, tid)
    our_answers = list(engine.enumerate())
    our_time = time.perf_counter() - started

    assert len(naive_answers) == len(our_answers) == 1
    print(f"chain length k={k}, automaton states m={m}")
    print(f"  naive:   visited {stats.product_paths} product paths "
          f"({stats.duplicates_suppressed} duplicates) in {naive_time:.3f}s")
    print(f"  ours:    1 output, no duplicates possible, in {our_time*1e3:.2f}ms")
    print(f"  speedup: {naive_time / max(our_time, 1e-9):.0f}x — and the gap")
    print("  doubles with every +1 to k while ours stays linear.")


def bounded_delay() -> None:
    print()
    print("=" * 64)
    print("2. Bounded delay on a large answer set (2^12 walks)")
    print("=" * 64)
    graph, nfa, s, t = diamond_chain(12, parallel=2)
    engine = DistinctShortestWalks(graph, nfa, s, t)
    engine.preprocess()
    print(f"preprocessing: {engine.timings['total'] * 1e3:.2f} ms "
          f"(|D| = {graph.size()}, λ = {engine.lam})")

    stats = measure_delays(engine.enumerate)
    print(f"outputs:    {stats.outputs}")
    print(f"first out:  {stats.first_output_s * 1e6:.1f} µs")
    print(f"mean delay: {stats.mean_delay_s * 1e6:.2f} µs")
    print(f"p95 delay:  {stats.percentile_delay_s(0.95) * 1e6:.2f} µs")
    print(f"max delay:  {stats.max_delay_s * 1e6:.2f} µs")
    print("The max/mean ratio stays small: no output ever waits for an")
    print("exponential duplicate scan — that is Theorem 2's guarantee.")


def memoryless_resume() -> None:
    print()
    print("=" * 64)
    print("3. Memoryless resume: the successor of any previous answer")
    print("=" * 64)
    graph, nfa, s, t = diamond_chain(5, parallel=2)
    engine = DistinctShortestWalks(graph, nfa, s, t)
    walks = list(engine.enumerate())
    print(f"{len(walks)} answers; picking #10 and asking for its successor")
    tenth = walks[9]

    # A fresh stream, told only the previous answer (Theorem 18).
    successor = next(engine.enumerate(resume_after=tenth.edges))
    print(f"  answer #10: {tenth.describe()}")
    print(f"  successor:  {successor.describe()}")
    assert successor.edges == walks[10].edges
    print("No cursor state was kept between the two calls — the")
    print("guided descent over the ResumableTrim cells reconstructs it.")


if __name__ == "__main__":
    duplicate_explosion()
    bounded_delay()
    memoryless_resume()
