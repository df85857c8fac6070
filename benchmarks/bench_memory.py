"""EXP-MEM — Remark 17: memory stays O(|E| × |Δ|) during enumeration.

``Annotate`` stores ``dist`` only; ``Trim`` pulls the asked target's
queues into the annotation's cell store (``ResumableTrim`` reads the
same cells and stores nothing more).  We count the entries and cells
that store holds after a pair's preprocessing, next to what it would
hold with every reached node pulled (the ``B`` view) and the |E| × |Δ|
bound; we also verify that a full enumeration leaves the structure
sizes unchanged (the algorithm never grows its state as it emits
answers — the pitfall Remark 17 warns about).  The bound is stated in
the |Δ| of the automaton as written, so that is what is compiled
(``compile_epsilon_free``); the engine's own compile stores less.
"""

from __future__ import annotations

from repro.core.compile import compile_epsilon_free
from repro.core.engine import DistinctShortestWalks
from repro.graph.generators import random_multilabel
from repro.workloads.worstcase import diamond_chain, wide_nfa


def test_structure_sizes_within_bound(benchmark, print_table):
    rows = []
    for n_edges in (500, 2_000, 8_000):
        graph = random_multilabel(
            max(32, n_edges // 8), n_edges, seed=21,
            ensure_path=("src", "dst", 5),
        )
        nfa = wide_nfa(3, ("a", "b"))
        engine = DistinctShortestWalks(
            graph, nfa, "src", "dst",
            compiled=compile_epsilon_free(graph, nfa),
        )
        engine.preprocess()
        sizes = engine.structure_sizes()
        bound = graph.edge_count * (
            nfa.transition_count + nfa.n_states
        )
        assert sizes["annotation_entries"] <= bound
        assert sizes["trimmed_items"] <= graph.edge_count * nfa.n_states
        engine.annotation.B  # Pulls every reached node into the store.
        reached = engine.structure_sizes()["annotation_entries"]
        assert sizes["annotation_entries"] <= reached <= bound
        rows.append(
            [
                graph.edge_count,
                sizes["annotation_entries"],
                sizes["trimmed_items"],
                reached,
                bound,
            ]
        )
    benchmark.pedantic(
        lambda: engine.structure_sizes(), rounds=3, iterations=1
    )
    print_table(
        "EXP-MEM: stored entries (as written) vs the O(|E|×|Δ|) bound (Remark 17)",
        [
            "|E|", "stored entries", "stored cells",
            "entries, every node pulled", "|E|×|Δ| bound",
        ],
        rows,
    )


def test_enumeration_does_not_grow_structures(benchmark):
    graph, nfa, s, t = diamond_chain(10, parallel=2)
    engine = DistinctShortestWalks(graph, nfa, s, t)
    engine.preprocess()
    before = engine.structure_sizes()

    count = benchmark(lambda: sum(1 for _ in engine.enumerate()))
    assert count == 2 ** 10

    after = engine.structure_sizes()
    assert before == after, "enumeration must not grow precomputed state"
