"""EXP-F1 / EXP-F3 / EXP-E9 — the paper's worked example, end to end.

Regenerates Figure 3's annotation tables and Example 9's answers, and
benchmarks the full pipeline on the 5-vertex database (a smoke-level
baseline for the scaling suites).
"""

from __future__ import annotations

from repro.core.annotate import annotate
from repro.core.compile import compile_query
from repro.core.engine import DistinctShortestWalks
from repro.core.trim import trim
from repro.workloads.fraud import (
    EXAMPLE9_EDGE_IDS,
    example9_automaton,
    example9_graph,
)

_EDGE_NAMES = {v: k for k, v in EXAMPLE9_EDGE_IDS.items()}


def test_figure3_annotation_tables(benchmark, print_table):
    graph = example9_graph()
    cq = compile_query(graph, example9_automaton())
    s, t = graph.vertex_id("Alix"), graph.vertex_id("Bob")

    def preprocess():
        ann = annotate(cq, s, t)
        return ann, trim(graph, ann)

    ann, trimmed = benchmark(preprocess)
    assert ann.lam == 3

    rows = []
    for v in graph.vertices():
        name = graph.vertex_name(v)
        for q in range(cq.n_states):
            length = ann.L[v].get(q, "⊥")
            cells = ann.B[v].get(q, {})
            b_text = "; ".join(
                f"i={i}:{sorted(preds)}" for i, preds in sorted(cells.items())
            )
            queue = trimmed.items(v, q)
            c_text = (
                " ".join(f"({_EDGE_NAMES[e]},{sorted(x)})" for e, x in queue)
                if queue
                else "[]"
            )
            rows.append([name, q, length, b_text or "-", c_text])
    print_table(
        "EXP-F3: Figure 3 annotation (L, B, C) for ⟦A⟧(D, Alix, Bob)",
        ["vertex", "q", "L", "B[q][i]", "C[q]"],
        rows,
    )


def test_example9_answers(benchmark, print_table):
    graph = example9_graph()

    def run():
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        return list(engine.enumerate_with_multiplicity())

    pairs = benchmark(run)
    assert len(pairs) == 4
    print_table(
        "EXP-E9: Example 9 answers (enumeration order, multiplicity)",
        ["#", "walk", "multiplicity"],
        [
            [i + 1, " ".join(_EDGE_NAMES[e] for e in w.edges), m]
            for i, (w, m) in enumerate(pairs)
        ],
    )
    # The DFS order fixed by TgtIdx: w4, w1, w2, w3.
    order = [
        tuple(_EDGE_NAMES[e] for e in w.edges) for w, _ in pairs
    ]
    assert order == [
        ("e2", "e4", "e8"),
        ("e1", "e5", "e8"),
        ("e1", "e6", "e8"),
        ("e2", "e3", "e7"),
    ]
