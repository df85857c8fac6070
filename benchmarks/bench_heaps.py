"""EXP-ABL-HEAP — priority queues for the Dijkstra annotation (§5.3).

The Distinct Cheapest Walks preprocessing bound cites Fredman–Tarjan,
i.e. a decrease-key priority queue.  In practice a binary heap with
lazy deletion (duplicate entries, skipped when stale) competes with the
pointer-based pairing heap; this suite runs both on growing intermodal
transport networks and checks that

* the annotations agree (λ, answer sets — asserted), and
* neither structure degrades asymptotically (the ratio between the two
  stays bounded as |D| grows 16×).

This is an ablation of an implementation choice, not a paper claim:
the paper's delay bound is heap-independent, and the table documents
why production (:func:`repro.core.cheapest.cheapest_annotate`) carries
the lazy-deletion ``heapq`` only.  Both arms run on the oracle's
``cheapest_annotate_reference(heap=…)`` — the same dict pipeline on
both sides, so the queue is the one thing that differs.
"""

from __future__ import annotations

import time

from repro.automata import regex_to_nfa
from repro.baselines.paper_pipeline import (
    cheapest_annotate_reference,
    enumerate_walks_recursive,
    trim_maps,
)
from repro.core.compile import compile_query
from repro.workloads.transport import antipodal_pair, transport_network

_SIZES = (32, 128, 512)
_POLICY = "flight* (train | bus)*"


def _answers(graph, ann):
    return [
        w.edges
        for w in enumerate_walks_recursive(
            graph, trim_maps(graph, ann), ann.lam, ann.target,
            ann.target_states, cost_of=graph.cost,
        )
    ]


def test_binary_vs_pairing_heap(benchmark, print_table):
    rows = []
    ratios = []
    for n in _SIZES:
        graph = transport_network(n, seed=11)
        src, tgt = map(graph.resolve_vertex, antipodal_pair(graph))
        cq = compile_query(graph, regex_to_nfa(_POLICY))

        t0 = time.perf_counter()
        binary = cheapest_annotate_reference(cq, src, tgt, heap="binary")
        t1 = time.perf_counter()
        pairing = cheapest_annotate_reference(cq, src, tgt, heap="pairing")
        t2 = time.perf_counter()

        assert binary.lam == pairing.lam
        answers = _answers(graph, binary)
        assert answers == _answers(graph, pairing)

        binary_s, pairing_s = t1 - t0, t2 - t1
        ratios.append(pairing_s / binary_s)
        rows.append(
            [
                graph.size(),
                binary.lam,
                len(answers),
                f"{binary_s * 1e3:.2f} ms",
                f"{pairing_s * 1e3:.2f} ms",
            ]
        )
    benchmark.pedantic(
        lambda: cheapest_annotate_reference(cq, src, tgt, heap="binary"),
        rounds=2,
        iterations=1,
    )
    print_table(
        "EXP-ABL-HEAP: Dijkstra annotation, binary vs pairing heap",
        ["|D|", "cheapest cost", "answers", "binary", "pairing"],
        rows,
    )
    # Same asymptotics: the ratio must not drift by more than ~4× while
    # the database grows 16×.
    assert max(ratios) < 4 * max(min(ratios), 0.25), ratios
