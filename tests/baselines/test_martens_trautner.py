"""Unit tests for the Martens–Trautner reduction (Theorem 1)."""

from hypothesis import given, settings

from repro.baselines.martens_trautner import (
    build_product_automaton,
    martens_trautner_walks,
)
from repro.baselines.oracle import oracle_answer_set
from repro.core.compile import compile_query
from repro.core.engine import DistinctShortestWalks
from repro.workloads.fraud import example9_automaton, example9_graph

from tests.conftest import small_instances


class TestProductAutomaton:
    def test_shape_on_example9(self):
        graph = example9_graph()
        cq = compile_query(graph, example9_automaton())
        s, t = graph.vertex_id("Alix"), graph.vertex_id("Bob")
        product = build_product_automaton(cq, s, t)
        # Initial = {s} × I.
        assert product.initial == {s * cq.n_states + 0}
        # States are reachable (v, q) pairs only.
        assert product.n_states <= graph.vertex_count * cq.n_states
        assert product.n_transitions > 0

    def test_words_are_edge_sequences(self):
        graph = example9_graph()
        cq = compile_query(graph, example9_automaton())
        s, t = graph.vertex_id("Alix"), graph.vertex_id("Bob")
        product = build_product_automaton(cq, s, t)
        for state, moves in product.transitions.items():
            for edge in moves:
                assert 0 <= edge < graph.edge_count
                # The transition respects the edge's source vertex.
                assert state // cq.n_states == graph.src(edge)


class TestEnumeration:
    def test_example9(self):
        graph = example9_graph()
        cq = compile_query(graph, example9_automaton())
        s, t = graph.vertex_id("Alix"), graph.vertex_id("Bob")
        got = sorted(w.edges for w in martens_trautner_walks(cq, s, t))
        reference = sorted(
            w.edges
            for w in DistinctShortestWalks(
                graph, example9_automaton(), "Alix", "Bob"
            ).enumerate()
        )
        assert got == reference

    def test_radix_order(self):
        """Words come out in lexicographic edge-id order."""
        graph = example9_graph()
        cq = compile_query(graph, example9_automaton())
        s, t = graph.vertex_id("Alix"), graph.vertex_id("Bob")
        sequences = [w.edges for w in martens_trautner_walks(cq, s, t)]
        assert sequences == sorted(sequences)

    def test_no_matching_walk(self):
        graph = example9_graph()
        cq = compile_query(graph, example9_automaton())
        s, t = graph.vertex_id("Bob"), graph.vertex_id("Alix")
        assert list(martens_trautner_walks(cq, s, t)) == []

    def test_lambda_zero(self):
        from repro.automata import NFA

        graph = example9_graph()
        nfa = NFA(1)
        nfa.add_transition(0, "h", 0)
        nfa.set_initial(0)
        nfa.set_final(0)
        cq = compile_query(graph, nfa)
        alix = graph.vertex_id("Alix")
        walks = list(martens_trautner_walks(cq, alix, alix))
        assert len(walks) == 1 and walks[0].length == 0


    def test_default_compiled_thompson_query(self):
        """Regression: an ε-eliminated Thompson query keeps its start
        states in ``initial_closure`` only (``eps`` is empty), and the
        product used to be seeded from ``eps_close(initial)`` — so the
        default ``compile_query`` yielded no walk at all."""
        from repro.automata import regex_to_nfa
        from repro.graph.generators import chain

        graph = chain(4, ("a", "b"), parallel=2)
        nfa = regex_to_nfa("(a|b)*")
        assert nfa.has_epsilon
        s, t = graph.resolve_vertex("v0"), graph.resolve_vertex("v4")
        closed = compile_query(graph, nfa)
        raw = compile_query(graph, nfa, eliminate_epsilon=False)
        assert not closed.has_eps and raw.has_eps
        got = sorted(w.edges for w in martens_trautner_walks(closed, s, t))
        assert len(got) == 2 ** 4
        assert got == sorted(
            w.edges for w in martens_trautner_walks(raw, s, t)
        )
        assert got == oracle_answer_set(graph, nfa, s, t)


class TestProperties:
    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, instance):
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa)
        got = sorted(w.edges for w in martens_trautner_walks(cq, s, t))
        assert got == oracle_answer_set(graph, nfa, s, t)

    @given(small_instances(allow_epsilon=True))
    @settings(max_examples=40, deadline=None)
    def test_epsilon_instances(self, instance):
        """The reduction folds ε in via closures; compare on raw ε
        tables to exercise that code path."""
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa, eliminate_epsilon=False)
        got = sorted(w.edges for w in martens_trautner_walks(cq, s, t))
        assert got == oracle_answer_set(graph, nfa, s, t)
