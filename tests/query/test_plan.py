"""Unit tests for the query planner."""

from repro.automata import NFA, parse_rpq, regex_to_nfa
from repro.baselines import glushkov_nfa
from repro.graph.generators import chain, grid
from repro.query.plan import analyze
from repro.workloads.fraud import example9_automaton, example9_graph


class TestEngineSelection:
    def test_simple_setting_detected(self):
        g = grid(2, 2)
        dfa = glushkov_nfa(parse_rpq("r d"))
        plan = analyze(g, dfa)
        assert plan.engine == "simple"
        assert plan.single_labeled and plan.deterministic

    def test_multilabel_forces_general(self):
        plan = analyze(example9_graph(), example9_automaton())
        assert plan.engine == "general"
        assert not plan.single_labeled
        assert plan.deterministic  # The automaton itself is a DFA.

    def test_nondeterministic_query_forces_general(self):
        g = chain(3)
        nfa = NFA(2)
        nfa.add_transition(0, "a", 0)
        nfa.add_transition(0, "a", 1)
        nfa.set_initial(0)
        nfa.set_final(1)
        plan = analyze(g, nfa)
        assert plan.engine == "general"
        assert not plan.deterministic

    def test_unambiguity_reported(self):
        plan = analyze(example9_graph(), example9_automaton())
        assert plan.unambiguous  # Deterministic implies unambiguous.

    def test_ambiguous_detected(self):
        g = chain(2)
        nfa = NFA(3)
        nfa.add_transition(0, "a", 1)
        nfa.add_transition(0, "a", 2)
        nfa.set_initial(0)
        nfa.set_final(1, 2)
        plan = analyze(g, nfa)
        assert not plan.unambiguous

    def test_ambiguity_check_can_be_disabled(self):
        g = chain(2)
        nfa = NFA(3)
        nfa.add_transition(0, "a", 1)
        nfa.add_transition(0, "a", 2)
        nfa.set_initial(0)
        nfa.set_final(1, 2)
        plan = analyze(g, nfa, check_ambiguity=False)
        assert not plan.unambiguous  # Reported pessimistically.

    def test_epsilon_flag(self):
        g = chain(2)
        plan = analyze(g, regex_to_nfa("a a"))  # Thompson: ε present.
        assert plan.has_epsilon


class TestExplain:
    def test_explain_mentions_engine_and_sizes(self):
        plan = analyze(example9_graph(), example9_automaton())
        text = plan.explain()
        assert "general" in text
        assert str(plan.graph_size) in text
        assert "nondeterminism in the data" in text

    def test_explain_simple(self):
        plan = analyze(grid(2, 2), glushkov_nfa(parse_rpq("r d")))
        assert "simple" in plan.explain()
        assert "O(λ)" in plan.explain()
