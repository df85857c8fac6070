"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import strategies as st

from repro.automata import regex_to_nfa
from repro.automata.nfa import NFA
from repro.baselines import paper_pipeline as oracle
from repro.core.annotate import annotate
from repro.core.cheapest import cheapest_annotate
from repro.core.compile import compile_epsilon_free
from repro.core.engine import DistinctShortestWalks
from repro.core.enumerate import enumerate_walks
from repro.core.trim import trim
from repro.graph.builder import GraphBuilder
from repro.graph.database import Graph
from repro.workloads.fraud import example9_automaton, example9_graph

# ---------------------------------------------------------------------------
# Static fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def fig1_graph() -> Graph:
    """The paper's Figure 1 database."""
    return example9_graph()


@pytest.fixture
def fig3_automaton() -> NFA:
    """The paper's Figure 3 automaton for ``h* s (h + s)*``."""
    return example9_automaton()


# ---------------------------------------------------------------------------
# Hypothesis strategies for random small instances
# ---------------------------------------------------------------------------

_ALPHABET = ("a", "b", "c")


@st.composite
def small_graphs(
    draw,
    max_vertices: int = 6,
    max_edges: int = 12,
    alphabet: Tuple[str, ...] = _ALPHABET,
) -> Graph:
    """Random multi-labeled multi-edge graphs (self-loops allowed)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    builder = GraphBuilder()
    builder.add_vertices([f"v{i}" for i in range(n)])
    for _ in range(m):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        tgt = draw(st.integers(min_value=0, max_value=n - 1))
        labels = draw(
            st.sets(
                st.sampled_from(alphabet), min_size=1, max_size=len(alphabet)
            )
        )
        builder.add_edge(f"v{src}", f"v{tgt}", sorted(labels))
    return builder.build()


@st.composite
def small_nfas(
    draw,
    max_states: int = 4,
    alphabet: Tuple[str, ...] = _ALPHABET,
    allow_epsilon: bool = False,
) -> NFA:
    """Random NFAs over the same alphabet as :func:`small_graphs`."""
    from repro.automata.nfa import EPSILON

    n = draw(st.integers(min_value=1, max_value=max_states))
    nfa = NFA(n)
    n_transitions = draw(st.integers(min_value=0, max_value=3 * n))
    symbols: List[object] = list(alphabet)
    if allow_epsilon:
        symbols.append(EPSILON)
    for _ in range(n_transitions):
        q = draw(st.integers(min_value=0, max_value=n - 1))
        p = draw(st.integers(min_value=0, max_value=n - 1))
        label = draw(st.sampled_from(symbols))
        nfa.add_transition(q, label, p)
    initial = draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1)
    )
    final = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    nfa.set_initial(*initial)
    nfa.set_final(*final)
    return nfa


#: Queries that stay in the ``a`` clique of :func:`hub_graph` long
#: enough for a level to go bottom-up.
HUB_QUERIES = ("a+", "(a|b)*", "a* b a*", "(a|c)+ b?", "b? a a+")


def hub_graph(ring_labels, extra=()) -> Graph:
    """A complete digraph on ``a`` over ``len(ring_labels)`` vertices
    plus a ring whose ``i``-th edge carries the labels ``ring_labels[i]``.

    From any source the clique puts every vertex one level away, so the
    next level's frontier would mostly re-probe settled nodes: the shape
    ``Annotate`` serves bottom-up.  The ``extra`` edges ``(u, v,
    labels)`` are added first, so they take the low ``TgtIdx`` slots.
    """
    n = len(ring_labels)
    builder = GraphBuilder()
    builder.add_vertices([f"v{i}" for i in range(n)])
    for u, v, labels in extra:
        builder.add_edge(f"v{u}", f"v{v}", sorted(labels))
    for u in range(n):
        for v in range(n):
            if u != v:
                builder.add_edge(f"v{u}", f"v{v}", ["a"])
    for i, labels in enumerate(ring_labels):
        builder.add_edge(f"v{i}", f"v{(i + 1) % n}", sorted(labels))
    return builder.build()


@st.composite
def hub_instances(draw):
    """A :func:`hub_graph` on 3–7 vertices with ring labels from ``b`` /
    ``c``, a random NFA or one of :data:`HUB_QUERIES`, and two vertices."""
    n = draw(st.integers(min_value=3, max_value=7))
    ring = draw(
        st.lists(
            st.sets(st.sampled_from(("b", "c")), min_size=1),
            min_size=n,
            max_size=n,
        )
    )
    nfa = draw(
        st.one_of(small_nfas(), st.sampled_from(HUB_QUERIES).map(regex_to_nfa))
    )
    s = draw(st.integers(min_value=0, max_value=n - 1))
    t = draw(st.integers(min_value=0, max_value=n - 1))
    return hub_graph(ring), nfa, s, t


@st.composite
def small_instances(draw, allow_epsilon: bool = False):
    """A full Distinct Shortest Walks instance ``(D, A, s, t)``."""
    graph = draw(small_graphs())
    nfa = draw(small_nfas(allow_epsilon=allow_epsilon))
    s = draw(st.integers(min_value=0, max_value=graph.vertex_count - 1))
    t = draw(st.integers(min_value=0, max_value=graph.vertex_count - 1))
    return graph, nfa, s, t


@st.composite
def regex_asts(draw, max_depth: int = 3):
    """Random regex ASTs over the shared alphabet (sugar included)."""
    from repro.automata.regex_ast import (
        AnyAtom,
        Concat,
        EpsilonAtom,
        Label,
        Optional,
        Plus,
        Repeat,
        Star,
        Union,
    )

    def node(depth: int):
        atoms = [
            st.sampled_from([Label("a"), Label("b"), Label("c")]),
            st.just(EpsilonAtom()),
            st.just(AnyAtom()),
        ]
        if depth <= 0:
            return draw(st.one_of(atoms))
        kind = draw(
            st.sampled_from(
                ["atom", "concat", "union", "star", "plus", "opt", "repeat"]
            )
        )
        if kind == "atom":
            return draw(st.one_of(atoms))
        if kind == "concat":
            return Concat((node(depth - 1), node(depth - 1)))
        if kind == "union":
            return Union((node(depth - 1), node(depth - 1)))
        if kind == "star":
            return Star(node(depth - 1))
        if kind == "plus":
            return Plus(node(depth - 1))
        if kind == "opt":
            return Optional(node(depth - 1))
        lo = draw(st.integers(min_value=0, max_value=2))
        hi = draw(st.one_of(st.none(), st.integers(min_value=lo, max_value=3)))
        return Repeat(node(depth - 1), lo, hi)

    return node(max_depth)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def edge_sets(walks) -> List[Tuple[int, ...]]:
    """Edge tuples of an iterable of walks, in enumeration order."""
    return [w.edges for w in walks]


def mode_walks(graph, query, source, target, mode):
    """One leg of a mode comparison, in enumeration order.

    The engine has one enumeration.  ``"recursive"`` (Figure 2's
    ``Enumerate`` verbatim) and ``"memoryless"`` (Section 4.2's
    skip-pointer ``NextOutput``) are the oracle pipeline of
    :mod:`repro.baselines.paper_pipeline`, on the automaton as written;
    any other name is the engine.
    """
    if mode == "recursive":
        return oracle.recursive_walks(graph, query, source, target)
    if mode == "memoryless":
        nfa = query if isinstance(query, NFA) else regex_to_nfa(query)
        t = graph.resolve_vertex(target)
        ann = oracle.annotate_reference(
            compile_epsilon_free(graph, nfa), graph.resolve_vertex(source), t
        )
        return oracle.enumerate_memoryless(
            graph, oracle.resumable_trim_maps(graph, ann), ann.lam, t,
            ann.target_states,
        )
    return DistinctShortestWalks(graph, query, source, target).enumerate()


def one_seek_per_output(open_stream, resume_after=None):
    """Theorem 18's ``NextOutput`` loop over the one seekable DFS: each
    walk is the first output of a fresh stream opened right after the
    previous one — ``open_stream(resume_after=edges)``, e.g. a
    ``partial`` of ``enumerate_walks`` or an engine's ``enumerate`` —
    so nothing but the last walk survives between two outputs.
    ``resume_after`` starts strictly after that output."""
    walk = next(open_stream(resume_after=resume_after), None)
    while walk is not None:
        yield walk
        walk = next(open_stream(resume_after=walk.edges), None)


def packed_walks(cq, source, target, cheapest=False):
    """``(λ, walk sequence)`` of annotate → trim → enumerate over an
    already compiled query — one leg of the *merged == as-written*
    columns, which run it over ``compile_query`` and over
    ``compile_epsilon_free`` and want the two equal (``cheapest``:
    Dijkstra budgets over the graph's edge costs)."""
    graph = cq.graph
    if cheapest:
        ann = cheapest_annotate(cq, source, target)
        cost_of = graph.cost_array.__getitem__
    else:
        ann, cost_of = annotate(cq, source, target), None
    walks = enumerate_walks(
        graph, trim(graph, ann), ann.lam, target, ann.target_states,
        cost_of=cost_of,
    )
    return ann.lam, [w.edges for w in walks]


def node_cells(annotation):
    """``{node key: [(TgtIdx, edge, entries)]}`` of every reached node
    — the *deepened == saturated* columns' per-node form of the cell
    store, whatever order its nodes were pulled in (the ``B`` view
    pulls the ones no target asked for)."""
    annotation.B
    cells = annotation.packed
    return {
        k: [
            (cells.cell_ti[c], cells.cell_edge[c], cells.cell_entries[c])
            for c in range(lo, hi)
        ]
        for k, (lo, hi) in cells.spans.items()
    }
