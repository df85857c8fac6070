"""Unit tests for determinism testing and subset construction."""

import pytest
from hypothesis import given, settings

from repro.automata import (
    ANY,
    EPSILON,
    NFA,
    is_deterministic,
    thompson_nfa,
)
from repro.baselines.determinize import determinize
from repro.automata.regex_parser import parse_rpq
from repro.exceptions import AutomatonError

from tests.conftest import small_nfas

_WORDS = [
    [],
    ["a"],
    ["b"],
    ["a", "b"],
    ["b", "a"],
    ["a", "a", "b"],
    ["c", "a"],
]


class TestIsDeterministic:
    def test_deterministic(self):
        nfa = NFA(2)
        nfa.add_transition(0, "a", 1)
        nfa.add_transition(1, "b", 1)
        nfa.set_initial(0)
        nfa.set_final(1)
        assert is_deterministic(nfa)

    def test_multiple_targets(self):
        nfa = NFA(2)
        nfa.add_transition(0, "a", 0)
        nfa.add_transition(0, "a", 1)
        nfa.set_initial(0)
        assert not is_deterministic(nfa)

    def test_multiple_initial(self):
        nfa = NFA(2)
        nfa.set_initial(0, 1)
        assert not is_deterministic(nfa)

    def test_epsilon_is_nondeterministic(self):
        nfa = NFA(2)
        nfa.add_transition(0, EPSILON, 1)
        nfa.set_initial(0)
        assert not is_deterministic(nfa)

    def test_lone_wildcard_is_deterministic(self):
        nfa = NFA(2)
        nfa.add_transition(0, ANY, 1)
        nfa.set_initial(0)
        assert is_deterministic(nfa)

    def test_wildcard_with_overlap_is_not(self):
        nfa = NFA(2)
        nfa.add_transition(0, ANY, 1)
        nfa.add_transition(0, "a", 0)
        nfa.set_initial(0)
        assert not is_deterministic(nfa)

    def test_example9_automaton_is_deterministic(self):
        from repro.workloads.fraud import example9_automaton

        assert is_deterministic(example9_automaton())


class TestDeterminize:
    def test_result_is_deterministic(self):
        nfa = thompson_nfa(parse_rpq("(a | b)* a b"))
        dfa = determinize(nfa)
        assert is_deterministic(dfa)

    def test_language_preserved(self):
        nfa = thompson_nfa(parse_rpq("(a | b)* a b"))
        dfa = determinize(nfa)
        for word in _WORDS:
            assert nfa.accepts(word) == dfa.accepts(word), word

    def test_empty_language(self):
        nfa = NFA(1)
        nfa.set_initial(0)
        dfa = determinize(nfa)
        assert dfa.is_empty_language()

    def test_wildcard_rejected(self):
        nfa = NFA(2)
        nfa.add_transition(0, ANY, 1)
        nfa.set_initial(0)
        nfa.set_final(1)
        with pytest.raises(AutomatonError):
            determinize(nfa)

    def test_state_cap(self):
        nfa = thompson_nfa(parse_rpq("(a | b)* a (a | b) (a | b)"))
        with pytest.raises(AutomatonError):
            determinize(nfa, max_states=2)

    @given(small_nfas(allow_epsilon=True))
    @settings(max_examples=40)
    def test_random_language_preserved(self, nfa):
        dfa = determinize(nfa)
        assert is_deterministic(dfa)
        for word in _WORDS:
            assert nfa.accepts(word) == dfa.accepts(word), word
