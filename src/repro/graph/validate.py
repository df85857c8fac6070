"""Structural validation of graph databases.

:class:`~repro.graph.database.Graph` establishes its invariants at
construction time; :func:`validate_graph` re-checks them all on a built
graph and is used by the test suite (including property-based tests).
The deserializers do not call it: :func:`repro.graph.io.graph_from_dict`
checks a hand-crafted document in one pass while reading it, and the
edge-list reader builds through :class:`~repro.graph.builder.GraphBuilder`.
"""

from __future__ import annotations

from typing import List

from repro.exceptions import GraphError
from repro.graph.database import Graph, vertex_key


def validate_graph(graph: Graph) -> None:
    """Raise :class:`~repro.exceptions.GraphError` on any broken invariant.

    Checks performed:

    1. every edge endpoint is a valid vertex id;
    2. every edge carries at least one valid, duplicate-free label set;
    3. ``Out`` lists partition the edges by source, ``In`` by target;
    4. ``TgtIdx(e)`` is exactly the position of ``e`` in ``In(Tgt(e))``;
    5. costs, when present, are positive integers;
    6. vertex and label names are unique.
    """
    problems: List[str] = []
    n, m = graph.vertex_count, graph.edge_count

    for e in graph.edges():
        if not 0 <= graph.src(e) < n:
            problems.append(f"edge {e}: bad source {graph.src(e)}")
        if not 0 <= graph.tgt(e) < n:
            problems.append(f"edge {e}: bad target {graph.tgt(e)}")
        labels = graph.labels(e)
        if not labels:
            problems.append(f"edge {e}: empty label set")
        if len(set(labels)) != len(labels):
            problems.append(f"edge {e}: duplicate labels {labels}")
        if any(not 0 <= a < graph.label_count for a in labels):
            problems.append(f"edge {e}: label id out of range {labels}")
        if graph.has_costs and graph.cost(e) <= 0:
            problems.append(f"edge {e}: non-positive cost {graph.cost(e)}")

    seen_out = sorted(e for v in graph.vertices() for e in graph.out_edges(v))
    seen_in = sorted(e for v in graph.vertices() for e in graph.in_edges(v))
    if seen_out != list(range(m)):
        problems.append("Out lists do not partition the edge set")
    if seen_in != list(range(m)):
        problems.append("In lists do not partition the edge set")

    for v in graph.vertices():
        for i, e in enumerate(graph.in_edges(v)):
            if graph.tgt(e) != v:
                problems.append(f"In({v}) contains foreign edge {e}")
            if graph.tgt_idx(e) != i:
                problems.append(
                    f"TgtIdx({e}) = {graph.tgt_idx(e)} but position is {i}"
                )

    names = [graph.vertex_name(v) for v in graph.vertices()]
    if len(set(map(vertex_key, names))) != len(names):
        problems.append("duplicate vertex names")
    if len(set(graph.alphabet)) != len(graph.alphabet):
        problems.append("duplicate label names")

    if problems:
        raise GraphError("; ".join(problems))
