"""Unit tests for the naive product-path baseline."""

import pytest
from hypothesis import given, settings

from repro.baselines.naive import NaiveStats, naive_enumerate
from repro.baselines.oracle import oracle_answer_set
from repro.core.compile import compile_epsilon_free, compile_query
from repro.core.engine import DistinctShortestWalks
from repro.workloads.fraud import example9_automaton, example9_graph
from repro.workloads.worstcase import duplicate_bomb

from tests.conftest import small_instances


class TestExample9:
    def test_same_answer_set_as_engine(self):
        graph = example9_graph()
        cq = compile_epsilon_free(graph, example9_automaton())
        s, t = graph.vertex_id("Alix"), graph.vertex_id("Bob")
        naive = sorted(w.edges for w in naive_enumerate(cq, s, t))
        engine = sorted(
            w.edges
            for w in DistinctShortestWalks(
                graph, example9_automaton(), "Alix", "Bob"
            ).enumerate()
        )
        assert naive == engine

    def test_duplicate_accounting(self):
        graph = example9_graph()
        cq = compile_epsilon_free(graph, example9_automaton())
        s, t = graph.vertex_id("Alix"), graph.vertex_id("Bob")
        stats = NaiveStats()
        outputs = list(naive_enumerate(cq, s, t, stats))
        assert stats.outputs == len(outputs) == 4
        assert stats.product_paths == stats.outputs + stats.duplicates_suppressed
        assert stats.lam == 3
        assert stats.dedup_set_size == 4


class TestDuplicateBomb:
    def test_exponential_paths_single_output(self):
        """m^k product paths collapse to one walk (EXP-NAIVE)."""
        graph, nfa, s, t = duplicate_bomb(5, 3)
        cq = compile_epsilon_free(graph, nfa)
        stats = NaiveStats()
        outputs = list(
            naive_enumerate(
                cq, graph.vertex_id(s), graph.vertex_id(t), stats
            )
        )
        assert len(outputs) == 1
        assert stats.product_paths == 3 ** 5
        assert stats.duplicates_suppressed == 3 ** 5 - 1

    def test_cap_raises(self):
        graph, nfa, s, t = duplicate_bomb(6, 3)
        cq = compile_epsilon_free(graph, nfa)
        with pytest.raises(RuntimeError, match="exceeded"):
            list(
                naive_enumerate(
                    cq,
                    graph.vertex_id(s),
                    graph.vertex_id(t),
                    max_product_paths=100,
                )
            )


class TestEdgeCases:
    def test_no_matching_walk(self):
        graph = example9_graph()
        cq = compile_epsilon_free(graph, example9_automaton())
        stats = NaiveStats()
        out = list(
            naive_enumerate(
                cq, graph.vertex_id("Bob"), graph.vertex_id("Alix"), stats
            )
        )
        assert out == []
        assert stats.lam is None

    def test_lambda_zero(self):
        from repro.automata import NFA

        graph = example9_graph()
        nfa = NFA(1)
        nfa.add_transition(0, "h", 0)
        nfa.set_initial(0)
        nfa.set_final(0)
        cq = compile_epsilon_free(graph, nfa)
        alix = graph.vertex_id("Alix")
        stats = NaiveStats()
        out = list(naive_enumerate(cq, alix, alix, stats))
        assert len(out) == 1 and out[0].length == 0
        assert stats.lam == 0

    def test_eps_compiled_query_rejected(self):
        from repro.automata import regex_to_nfa

        graph = example9_graph()
        cq = compile_query(
            graph, regex_to_nfa("h s"), eliminate_epsilon=False
        )
        with pytest.raises(ValueError):
            list(naive_enumerate(cq, 0, 1))


class TestProperties:
    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, instance):
        graph, nfa, s, t = instance
        cq = compile_epsilon_free(graph, nfa)
        got = sorted(w.edges for w in naive_enumerate(cq, s, t))
        assert got == oracle_answer_set(graph, nfa, s, t)

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_stats_invariants(self, instance):
        graph, nfa, s, t = instance
        cq = compile_epsilon_free(graph, nfa)
        stats = NaiveStats()
        outputs = list(naive_enumerate(cq, s, t, stats))
        assert stats.outputs == len(outputs)
        if stats.lam not in (None, 0):
            assert (
                stats.product_paths
                == stats.outputs + stats.duplicates_suppressed
            )
        assert stats.product_paths >= stats.outputs - (stats.lam == 0)
