"""Unit tests for Distinct Cheapest Walks (Section 5.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import NFA, regex_to_nfa
from repro.baselines.paper_pipeline import (
    cheapest_annotate_reference,
    enumerate_walks_recursive,
    trim_maps,
)
from repro.core.cheapest import DistinctCheapestWalks, cheapest_annotate
from repro.core.compile import compile_query
from repro.core.engine import DistinctShortestWalks
from repro.exceptions import CostError
from repro.graph import GraphBuilder


def _accept_all_nfa(labels=("a",)):
    nfa = NFA(1)
    for a in labels:
        nfa.add_transition(0, a, 0)
    nfa.set_initial(0)
    nfa.set_final(0)
    return nfa


class TestBasics:
    def test_cheaper_long_route_wins(self):
        b = GraphBuilder()
        b.add_edge("s", "t", ["a"], cost=10)
        b.add_edge("s", "m", ["a"], cost=2)
        b.add_edge("m", "t", ["a"], cost=3)
        engine = DistinctCheapestWalks(b.build(), "a+", "s", "t")
        walks = list(engine.enumerate())
        assert engine.cheapest_cost == 5
        assert len(walks) == 1
        assert walks[0].cost() == 5
        assert walks[0].length == 2

    def test_ties_all_enumerated(self):
        b = GraphBuilder()
        b.add_edge("s", "t", ["a"], cost=5)          # Direct, cost 5.
        b.add_edge("s", "m", ["a"], cost=2)
        b.add_edge("m", "t", ["a"], cost=3)          # Two hops, cost 5.
        b.add_edge("s", "t", ["a"], cost=6)          # Too expensive.
        engine = DistinctCheapestWalks(b.build(), "a+", "s", "t")
        walks = list(engine.enumerate())
        assert engine.cheapest_cost == 5
        assert sorted(w.length for w in walks) == [1, 2]

    def test_query_constrains_answers(self):
        b = GraphBuilder()
        b.add_edge("s", "t", ["x"], cost=1)   # Cheap but wrong label.
        b.add_edge("s", "t", ["y"], cost=4)
        engine = DistinctCheapestWalks(b.build(), regex_to_nfa("y"), "s", "t")
        walks = list(engine.enumerate())
        assert engine.cheapest_cost == 4
        assert len(walks) == 1

    def test_no_matching_walk(self):
        b = GraphBuilder()
        b.add_edge("s", "t", ["x"], cost=1)
        engine = DistinctCheapestWalks(b.build(), regex_to_nfa("zz"), "s", "t")
        assert engine.cheapest_cost is None
        assert list(engine.enumerate()) == []

    def test_trivial_walk_cost_zero(self):
        b = GraphBuilder()
        b.add_edge("s", "t", ["a"], cost=1)
        engine = DistinctCheapestWalks(b.build(), "a*", "s", "s")
        walks = list(engine.enumerate())
        assert engine.cheapest_cost == 0
        assert len(walks) == 1 and walks[0].length == 0

    def test_iter_protocol(self):
        b = GraphBuilder()
        b.add_edge("s", "t", ["a"], cost=2)
        assert len(list(DistinctCheapestWalks(b.build(), "a", "s", "t"))) == 1


class TestCostValidation:
    def test_builder_rejects_bad_costs(self):
        b = GraphBuilder()
        with pytest.raises(CostError):
            b.add_edge("s", "t", ["a"], cost=0)


class TestEquivalenceWithBfs:
    """With unit costs, cheapest == shortest (same set, same order)."""

    @given(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=4, max_value=12),
    )
    @settings(max_examples=30, deadline=None)
    def test_unit_costs_match_shortest(self, seed, n, m):
        import random

        rng = random.Random(seed)
        b = GraphBuilder()
        names = [f"v{i}" for i in range(n)]
        b.add_vertices(names)
        for _ in range(m):
            labels = rng.sample(["a", "b"], rng.randint(1, 2))
            b.add_edge(rng.choice(names), rng.choice(names), labels, cost=1)
        graph = b.build()
        nfa = _accept_all_nfa(("a", "b"))
        s, t = 0, n - 1
        shortest = [
            w.edges for w in DistinctShortestWalks(graph, nfa, s, t)
        ]
        cheapest = [
            w.edges
            for w in DistinctCheapestWalks(graph, nfa, s, t).enumerate()
        ]
        assert cheapest == shortest


class TestCheapestOracle:
    """Cross-check against exhaustive search on random costed graphs."""

    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=3, max_value=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_bruteforce(self, seed, n, m):
        import random
        rng = random.Random(seed)
        b = GraphBuilder()
        names = [f"v{i}" for i in range(n)]
        b.add_vertices(names)
        for _ in range(m):
            b.add_edge(
                rng.choice(names),
                rng.choice(names),
                ["a"],
                cost=rng.randint(1, 4),
            )
        graph = b.build()
        nfa = _accept_all_nfa(("a",))
        s, t = 0, n - 1

        # Brute force: DFS all walks of total cost ≤ bound.
        best: dict = {"cost": None, "walks": set()}

        def explore(v, cost, edges):
            if best["cost"] is not None and cost > best["cost"]:
                return
            if v == t and (edges or s == t):
                if best["cost"] is None or cost < best["cost"]:
                    best["cost"], best["walks"] = cost, {tuple(edges)}
                elif cost == best["cost"]:
                    best["walks"].add(tuple(edges))
            for e in graph.out_edges(v):
                new_cost = cost + graph.cost(e)
                if best["cost"] is not None and new_cost > best["cost"]:
                    continue
                if len(edges) >= n * 5:
                    continue  # Safety cap.
                edges.append(e)
                explore(graph.tgt(e), new_cost, edges)
                edges.pop()

        if s == t:
            best["cost"], best["walks"] = 0, {()}
        else:
            # Seed the prune bound with a test-local Dijkstra first:
            # without it the DFS has no bound until its first complete
            # walk and blows up exponentially whenever t is unreachable
            # but a cyclic component is reachable from s.
            import heapq

            dist = {s: 0}
            heap = [(0, s)]
            while heap:
                c, v = heapq.heappop(heap)
                if c > dist[v]:
                    continue
                for e in graph.out_edges(v):
                    u, nc = graph.tgt(e), c + graph.cost(e)
                    if nc < dist.get(u, nc + 1):
                        dist[u] = nc
                        heapq.heappush(heap, (nc, u))
            if t in dist:
                best["cost"] = dist[t]
                explore(s, 0, [])

        engine = DistinctCheapestWalks(graph, nfa, s, t)
        got = sorted(w.edges for w in engine.enumerate())
        if best["cost"] is None:
            assert engine.cheapest_cost is None
            assert got == []
        else:
            assert engine.cheapest_cost == best["cost"]
            assert got == sorted(best["walks"])


class TestCheapestAnnotate:
    def test_L_holds_costs(self):
        b = GraphBuilder()
        b.add_edge("s", "m", ["a"], cost=2)
        b.add_edge("m", "t", ["a"], cost=3)
        graph = b.build()
        cq = compile_query(graph, _accept_all_nfa())
        ann = cheapest_annotate(cq, 0, 2)
        assert ann.lam == 5
        assert ann.L[1][0] == 2
        assert ann.L[2][0] == 5

    def test_improvement_discards_stale_witnesses(self):
        b = GraphBuilder()
        b.add_edge("s", "t", ["a"], cost=9)      # Found first (1 hop).
        b.add_edge("s", "m", ["a"], cost=1)
        b.add_edge("m", "t", ["a"], cost=1)      # Improves to 2.
        graph = b.build()
        cq = compile_query(graph, _accept_all_nfa())
        ann = cheapest_annotate(cq, 0, graph.vertex_id("t"))
        assert ann.lam == 2
        t = graph.vertex_id("t")
        cells = ann.B[t][0]
        # Only the cheap edge's cell may survive.
        surviving_edges = {graph.in_edges(t)[i] for i in cells}
        assert surviving_edges == {2}


class TestHeapSelection:
    """Production has one queue (lazy-deletion ``heapq``); the pairing
    arm lives on the oracle, ``cheapest_annotate_reference(heap=…)``,
    and is held to the production annotation here."""

    def _random_cost_instance(self, seed, n=8, m=20):
        import random

        rng = random.Random(seed)
        builder = GraphBuilder()
        names = [f"v{i}" for i in range(n)]
        for name in names:
            builder.add_vertex(name)
        for _ in range(m):
            builder.add_edge(
                rng.choice(names),
                rng.choice(names),
                [rng.choice("ab")],
                cost=rng.randint(1, 9),
            )
        return builder.build()

    @pytest.mark.parametrize("seed", range(12))
    def test_pairing_matches_binary(self, seed):
        """Both priority queues yield the same answers and λ."""
        graph = self._random_cost_instance(seed)
        nfa = _accept_all_nfa(("a", "b"))
        binary = DistinctCheapestWalks(graph, nfa, "v0", "v1")
        t = graph.vertex_id("v1")
        pairing = cheapest_annotate_reference(
            compile_query(graph, nfa), graph.vertex_id("v0"), t,
            heap="pairing",
        )
        assert binary.cheapest_cost == pairing.lam
        assert [w.edges for w in binary.enumerate()] == [
            w.edges
            for w in enumerate_walks_recursive(
                graph, trim_maps(graph, pairing), pairing.lam, t,
                pairing.target_states, cost_of=graph.cost,
            )
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_annotations_identical_up_to_lambda(self, seed):
        """L and B agree across heaps for every entry with cost < λ.

        Entries at cost ≥ λ can be heap-tie-order-dependent scratch,
        recorded before λ was discovered; they never influence the
        enumeration (the DFS only descends through states whose L
        equals the remaining budget, starting from λ at the target).
        """
        graph = self._random_cost_instance(seed, n=6, m=15)
        nfa = _accept_all_nfa(("a", "b"))
        cq = compile_query(graph, nfa)
        ann_b = cheapest_annotate(cq, 0, 1)
        ann_p = cheapest_annotate_reference(cq, 0, 1, heap="pairing")
        assert ann_b.lam == ann_p.lam
        if ann_b.lam is None:
            return
        lam = ann_b.lam
        assert ann_b.target_states == ann_p.target_states
        for u in graph.vertices():
            relevant_b = {p: c for p, c in ann_b.L[u].items() if c < lam}
            relevant_p = {p: c for p, c in ann_p.L[u].items() if c < lam}
            assert relevant_b == relevant_p
            # B cells may record equal-cost witnesses in a different
            # order; as *multisets* per cell they must agree.
            for p in relevant_b:
                cells_b = ann_b.B[u].get(p, {})
                cells_p = ann_p.B[u].get(p, {})
                assert set(cells_b) == set(cells_p)
                for i in cells_b:
                    assert sorted(cells_b[i]) == sorted(cells_p[i])

    def test_unknown_heap_rejected(self):
        from repro.exceptions import QueryError

        builder = GraphBuilder()
        builder.add_edge("a", "b", ["x"], cost=1)
        graph = builder.build()
        with pytest.raises(QueryError, match="heap"):
            cheapest_annotate_reference(
                compile_query(graph, regex_to_nfa("x")), 0, 1, heap="fib"
            )
