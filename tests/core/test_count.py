"""Unit and property tests for the counting module."""

import pytest
from hypothesis import given, settings

from repro.baselines.naive import NaiveStats, naive_enumerate
from repro.core.cheapest import DistinctCheapestWalks
from repro.core.compile import compile_epsilon_free
from repro.core.count import (
    count_distinct_shortest,
    count_shortest_product_paths,
    count_total_multiplicity,
)
from repro.core.engine import DistinctShortestWalks
from repro.graph.builder import GraphBuilder
from repro.workloads.fraud import example9_automaton, example9_graph
from repro.workloads.worstcase import diamond_chain, duplicate_bomb

from tests.conftest import small_instances


def _enumerated(engine) -> int:
    return sum(1 for _ in engine.enumerate())


def _count_via_engine(engine) -> int:
    ann = engine.annotation
    return count_distinct_shortest(
        engine.graph, ann, ann.lam, engine.target, ann.target_states
    )


class TestExample9:
    def test_four_answers(self):
        engine = DistinctShortestWalks(
            example9_graph(), example9_automaton(), "Alix", "Bob"
        )
        assert _count_via_engine(engine) == 4
        assert engine.count() == 4
        assert _enumerated(engine) == 4

    def test_product_paths_match_naive(self):
        graph = example9_graph()
        cq = compile_epsilon_free(graph, example9_automaton())
        s, t = graph.vertex_id("Alix"), graph.vertex_id("Bob")
        stats = NaiveStats()
        list(naive_enumerate(cq, s, t, stats))
        lam, paths = count_shortest_product_paths(cq, s, t)
        assert lam == stats.lam == 3
        assert paths == stats.product_paths

    def test_total_multiplicity_matches_per_walk_sum(self):
        engine = DistinctShortestWalks(
            example9_graph(), example9_automaton(), "Alix", "Bob"
        )
        per_walk = sum(
            mult for _, mult in engine.enumerate_with_multiplicity()
        )
        cq = compile_epsilon_free(example9_graph(), example9_automaton())
        graph = cq.graph
        lam, total = count_total_multiplicity(
            cq, graph.vertex_id("Alix"), graph.vertex_id("Bob")
        )
        assert lam == 3
        assert total == per_walk
        # w4 carries 3 accepting labels, w2 and w3 carry 2, w1 carries 1
        # (Example 9); runs coincide with labels for this automaton.
        assert total >= 4


class TestAstronomicalCounts:
    def test_diamond_chain_exact_power(self):
        graph, nfa, s, t = diamond_chain(200, parallel=2)
        engine = DistinctShortestWalks(graph, nfa, s, t)
        # 2**200 answers: only the DP can count them.
        assert engine.count() == 2 ** 200

    def test_duplicate_bomb_blowup_ratio(self):
        graph, nfa, s, t = duplicate_bomb(30, 3)
        cq = compile_epsilon_free(graph, nfa)
        si, ti = graph.vertex_id(s), graph.vertex_id(t)
        lam, paths = count_shortest_product_paths(cq, si, ti)
        assert lam == 30
        assert paths == 3 ** 30  # m**k copies of the single answer.
        engine = DistinctShortestWalks(graph, nfa, s, t)
        assert engine.count() == 1


class TestEdgeCases:
    def test_no_matching_walk(self):
        graph = example9_graph()
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Bob", "Alix"
        )
        assert engine.count() == 0
        cq = compile_epsilon_free(graph, example9_automaton())
        bob, alix = graph.vertex_id("Bob"), graph.vertex_id("Alix")
        assert count_shortest_product_paths(cq, bob, alix) == (None, 0)
        assert count_total_multiplicity(cq, bob, alix) == (None, 0)

    def test_lambda_zero(self):
        from repro.automata import NFA

        graph = example9_graph()
        nfa = NFA(1)
        nfa.add_transition(0, "h", 0)
        nfa.set_initial(0)
        nfa.set_final(0)
        engine = DistinctShortestWalks(graph, nfa, "Alix", "Alix")
        assert engine.count() == 1
        cq = compile_epsilon_free(graph, nfa)
        alix = graph.vertex_id("Alix")
        assert count_shortest_product_paths(cq, alix, alix) == (0, 1)
        assert count_total_multiplicity(cq, alix, alix) == (0, 1)

    def test_bad_method_rejected(self):
        engine = DistinctShortestWalks(
            example9_graph(), example9_automaton(), "Alix", "Bob"
        )
        for method in ("bogus", "dp", "enumerate"):
            with pytest.raises(TypeError):
                engine.count(method=method)
            with pytest.raises(TypeError):
                engine.count(method)


class TestCheapestCount:
    def test_cost_budgeted_dp(self):
        builder = GraphBuilder()
        builder.add_edge("a", "b", ["x"], cost=2)
        builder.add_edge("a", "b", ["x"], cost=2)
        builder.add_edge("b", "c", ["x"], cost=3)
        builder.add_edge("a", "c", ["x"], cost=5)
        graph = builder.build()
        from repro.automata import regex_to_nfa

        cheap = DistinctCheapestWalks(graph, regex_to_nfa("x | x x"), "a", "c")
        assert _enumerated(cheap) == cheap.count() == 3

    def test_bad_method_rejected(self):
        builder = GraphBuilder()
        builder.add_edge("a", "b", ["x"], cost=1)
        from repro.automata import regex_to_nfa

        cheap = DistinctCheapestWalks(
            builder.build(), regex_to_nfa("x"), "a", "b"
        )
        for method in ("bogus", "dp", "enumerate"):
            with pytest.raises(TypeError):
                cheap.count(method=method)


class TestProperties:
    @given(small_instances())
    @settings(max_examples=80, deadline=None)
    def test_dp_matches_enumeration(self, instance):
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        assert engine.count() == _enumerated(engine)

    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_product_paths_match_naive_counters(self, instance):
        graph, nfa, s, t = instance
        cq = compile_epsilon_free(graph, nfa)
        stats = NaiveStats()
        outputs = list(naive_enumerate(cq, s, t, stats))
        lam, paths = count_shortest_product_paths(cq, s, t)
        assert lam == stats.lam
        if stats.lam not in (None, 0):
            assert paths == stats.product_paths
        assert (lam is None) == (not outputs)

    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_multiplicity_total_matches_per_walk_sum(self, instance):
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        per_walk = sum(
            mult for _, mult in engine.enumerate_with_multiplicity()
        )
        cq = compile_epsilon_free(graph, nfa)
        _, total = count_total_multiplicity(cq, s, t)
        assert total == per_walk

    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_counting_hierarchy(self, instance):
        """distinct walks ≤ product paths ≤ total multiplicity."""
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        distinct = engine.count()
        cq = compile_epsilon_free(graph, nfa)
        lam, paths = count_shortest_product_paths(cq, s, t)
        _, total = count_total_multiplicity(cq, s, t)
        if lam == 0:
            return  # The trivial walk is witnessed without edges.
        assert distinct <= paths <= total
