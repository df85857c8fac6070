"""Equivalence of the label-indexed and reference annotations.

The indexed ``annotate`` / ``cheapest_annotate`` must produce the same
annotation contents — ``L``, ``B`` (as a multiset per cell: entry order
within a cell is unspecified), ``lam`` and ``target_states`` — as the
``*_reference`` traversals of :mod:`repro.baselines.paper_pipeline`,
on random graphs × random automata — and, for ``annotate``, on
hub-shaped graphs whose levels go bottom-up — in both the
target-stopped and the saturating mode.

Production has one priority queue (lazy-deletion ``heapq``); the
reference keeps both arms (``heap="binary"`` / ``"pairing"``) and each
is held to the production annotation.  One documented exception: against
the **pairing heap** in target mode, ``L``/``B`` entries for product
pairs *beyond* λ may differ.  Once λ is known, relaxations of cost > λ
are pruned, and whether a tied pop (cost = λ) happens before or after
the target's pop depends on heap insertion order.  Entries beyond λ are
dead weight the enumeration can never reach (the budget hits zero
first), so the test compares the two annotations restricted to entries
of cost ≤ λ and additionally checks the enumerated walk sets match
exactly.  The binary heap pops ties in deterministic ``(cost, v, q)``
order, so it is exact.
"""

from __future__ import annotations

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.paper_pipeline import (
    annotate_reference,
    cheapest_annotate_reference,
    packed_from_maps,
)
from repro.automata import regex_to_nfa
from repro.core.annotate import AnnotateBFS, Annotation, annotate
from repro.core.cheapest import cheapest_annotate
from repro.core.compile import compile_query
from repro.core.enumerate import enumerate_walks
from repro.core.trim import trim
from repro.graph.builder import GraphBuilder

from tests.conftest import (
    HUB_QUERIES,
    hub_graph,
    hub_instances,
    small_instances,
    small_nfas,
)
from tests.property.delay_steps import _counting_array

_SETTINGS = dict(max_examples=60, deadline=None)


@st.composite
def costed_instances(draw):
    """A Distinct Cheapest Walks instance with random positive costs."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=0, max_value=12))
    builder = GraphBuilder()
    builder.add_vertices([f"v{i}" for i in range(n)])
    for _ in range(m):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        tgt = draw(st.integers(min_value=0, max_value=n - 1))
        labels = draw(
            st.sets(st.sampled_from(("a", "b", "c")), min_size=1, max_size=3)
        )
        cost = draw(st.integers(min_value=1, max_value=5))
        builder.add_edge(f"v{src}", f"v{tgt}", sorted(labels), cost=cost)
    graph = builder.build()
    nfa = draw(small_nfas())
    s = draw(st.integers(min_value=0, max_value=n - 1))
    t = draw(st.integers(min_value=0, max_value=n - 1))
    return graph, nfa, s, t


def _norm_B(B):
    """B with cells as sorted lists and empty cells/states dropped."""
    return [
        {
            p: {i: sorted(preds) for i, preds in cells.items() if preds}
            for p, cells in per_vertex.items()
            if any(cells.values())
        }
        for per_vertex in B
    ]


def assert_same_annotation(got, want):
    assert got.lam == want.lam
    assert got.L == want.L
    assert _norm_B(got.B) == _norm_B(want.B)
    assert got.target_states == want.target_states
    assert got.initial_closure == want.initial_closure
    assert got.final == want.final


def assert_same_B_up_to_lam(got, want):
    """``B`` equality on the nodes of cost ≤ λ (all of them when no
    target stopped the run)."""
    lam = got.lam
    if lam is None:
        assert _norm_B(got.B) == _norm_B(want.B)
        return
    for v in range(len(got.L)):
        gb = {p: c for p, c in got.B[v].items() if got.L[v].get(p, lam + 1) <= lam}
        wb = {p: c for p, c in want.B[v].items() if want.L[v].get(p, lam + 1) <= lam}
        assert _norm_B([gb]) == _norm_B([wb]), v


def assert_same_up_to_lam(got, want):
    """Equality of everything the enumeration can reach (cost ≤ λ)."""
    assert got.lam == want.lam
    assert got.target_states == want.target_states
    lam = got.lam
    if lam is None:
        # No pruning ever happened: the runs must be exactly equal.
        assert_same_annotation(got, want)
        return
    for v in range(len(got.L)):
        trim_L = lambda m: {p: d for p, d in m.items() if d <= lam}
        assert trim_L(got.L[v]) == trim_L(want.L[v]), v
    assert_same_B_up_to_lam(got, want)


def _top_down_accesses(cq, dist) -> int:
    """What a saturated run that went top-down edge by edge would read
    and write of ``dist``: one read per product edge leaving a reached
    node, one write per node reached after level 0.  No production
    level runs that way: a top-down level reads once per distinct
    successor and target state, never more than this, so it is the
    bound a bottom-up level has to beat."""
    graph = cq.graph
    n, n_states = graph.vertex_count, cq.n_states
    indptr = graph.out_csr[0]
    accesses = 0
    for key, level in enumerate(dist):
        if level >= 0:
            v, q = divmod(key, n_states)
            accesses += level > 0
            for a, targets in cq.moves[q]:
                b = a * n + v
                accesses += (indptr[b + 1] - indptr[b]) * len(targets)
    return accesses


class TestAnnotateEquivalence:
    """Production ``annotate`` == the reference BFS, on random instances
    and on hub-shaped ones, whose levels go bottom-up."""

    @given(st.one_of(small_instances(), hub_instances()))
    @settings(**_SETTINGS)
    def test_target_mode(self, instance):
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa)
        assert_same_annotation(
            annotate(cq, s, t), annotate_reference(cq, s, t)
        )

    @given(st.one_of(small_instances(), hub_instances()))
    @settings(**_SETTINGS)
    def test_saturating_mode(self, instance):
        graph, nfa, s, _ = instance
        cq = compile_query(graph, nfa)
        assert_same_annotation(
            annotate(cq, s, saturate=True),
            annotate_reference(cq, s, saturate=True),
        )

    def test_hub_levels_go_bottom_up(self):
        """The hub shape does take bottom-up levels: a saturated run
        from each vertex touches ``dist`` fewer times than an
        edge-by-edge top-down traversal would, and equals the
        reference."""
        graph = hub_graph([{"b"}, {"c"}, {"b", "c"}, {"b"}, {"c"}, {"b"}])
        for expression in HUB_QUERIES:
            cq = compile_query(graph, regex_to_nfa(expression))
            for s in graph.vertices():
                bfs = AnnotateBFS(cq, s)
                counter = {"steps": 0}
                bfs.dist = _counting_array(bfs.dist, counter)
                bfs.run()
                assert counter["steps"] < _top_down_accesses(cq, bfs.dist), (
                    expression, s,
                )
                assert_same_annotation(
                    bfs.annotation(None, saturated=True),
                    annotate_reference(cq, s, saturate=True),
                )


class TestCheapestEquivalence:
    @given(costed_instances())
    @settings(**_SETTINGS)
    def test_target_mode_binary(self, instance):
        """Exact, except ``B`` above λ: a run stopped at its target
        settles the nodes of cost ≤ λ only, and the ``B`` view pulls
        from settled nodes."""
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa)
        got = cheapest_annotate(cq, s, t)
        want = cheapest_annotate_reference(cq, s, t, heap="binary")
        assert got.lam == want.lam
        assert got.L == want.L
        assert got.target_states == want.target_states
        assert got.initial_closure == want.initial_closure
        assert got.final == want.final
        assert_same_B_up_to_lam(got, want)

    @given(costed_instances())
    @settings(**_SETTINGS)
    def test_saturating_mode_both_heaps(self, instance):
        graph, nfa, s, _ = instance
        cq = compile_query(graph, nfa)
        for heap in ("binary", "pairing"):
            assert_same_annotation(
                cheapest_annotate(cq, s, saturate=True),
                cheapest_annotate_reference(cq, s, saturate=True, heap=heap),
            )

    @given(costed_instances())
    @settings(**_SETTINGS)
    def test_target_mode_pairing_up_to_lam(self, instance):
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa)
        got = cheapest_annotate(cq, s, t)
        want = cheapest_annotate_reference(cq, s, t, heap="pairing")
        assert_same_up_to_lam(got, want)
        # Beyond-λ entries are unreachable: the answers must agree.
        cost_arr = graph.cost_array

        def packed(ref):
            """The oracle's maps, packed for the production Trim."""
            n, n_states = graph.vertex_count, cq.n_states
            dist = array("q", [-1]) * (n * n_states)
            for v, row in enumerate(ref.L):
                for p, d in row.items():
                    dist[v * n_states + p] = d
            return Annotation(
                ref.source, ref.target, ref.lam, ref.target_states, dist,
                packed_from_maps(graph, n_states, ref.B),
            )

        def answers(ann):
            return sorted(
                w.edges
                for w in enumerate_walks(
                    graph,
                    trim(graph, ann),
                    ann.lam,
                    t,
                    ann.target_states,
                    cost_of=lambda e: cost_arr[e],
                )
            )

        assert answers(got) == answers(packed(want))


class TestReferenceIsRetained:
    """The reference traversals stay importable from
    ``repro.baselines`` — and only from there."""

    def test_exports(self):
        import repro.core
        from repro.baselines import (  # noqa: F401
            annotate_reference,
            cheapest_annotate_reference,
        )

        assert not hasattr(repro.core, "annotate_reference")
        assert not hasattr(repro.core, "cheapest_annotate_reference")

    def test_engine_uses_indexed_annotate(self):
        import repro.core.engine as engine_mod

        assert engine_mod.annotate is annotate
