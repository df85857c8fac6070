"""Unit and property tests for equivalence / inclusion checking."""

import pytest
from hypothesis import given, settings

from repro.automata import NFA, regex_to_nfa
from repro.baselines.equivalence import (
    counterexample,
    equivalent,
    is_subset,
    subset_counterexample,
)
from repro.baselines.minimize import minimize
from repro.exceptions import AutomatonError

from tests.conftest import regex_asts, small_nfas


def _nfa_of(expr: str) -> NFA:
    return regex_to_nfa(expr)


class TestEquivalence:
    def test_identities(self):
        for left, right in [
            ("a | b", "b | a"),
            ("(a b) c", "a (b c)"),
            ("a**", "a*"),
            ("(a | b)*", "(a* b*)*"),
            ("a+", "a a*"),
            ("a?", "a | <eps>"),
            ("a{0,2}", "<eps> | a | a a"),
        ]:
            assert equivalent(_nfa_of(left), _nfa_of(right)), (left, right)

    def test_non_identities_with_counterexample(self):
        # "b" is in a*b but not in a+b — and it is the shortest witness.
        word = counterexample(_nfa_of("a* b"), _nfa_of("a+ b"))
        assert word == ("b",)

    def test_counterexample_is_shortest(self):
        word = counterexample(_nfa_of("a a a"), _nfa_of("a a"))
        assert word == ("a", "a")  # Accepted by right only, length 2.

    def test_counterexample_none_when_equal(self):
        assert counterexample(_nfa_of("a*"), _nfa_of("a* a*")) is None

    def test_epsilon_handling(self):
        thompson = regex_to_nfa("a b c")  # ε-heavy Thompson NFA.
        assert thompson.has_epsilon
        flat = NFA(4)
        for i, label in enumerate("abc"):
            flat.add_transition(i, label, i + 1)
        flat.set_initial(0)
        flat.set_final(3)
        assert equivalent(thompson, flat)

    def test_wildcard_vs_concrete(self):
        # "." accepts labels outside {a}; plain "a" does not.
        assert not equivalent(_nfa_of("."), _nfa_of("a"))
        word = counterexample(_nfa_of("."), _nfa_of("a"))
        assert word is not None and len(word) == 1

    def test_pair_cap(self):
        with pytest.raises(AutomatonError, match="exceeded"):
            equivalent(
                _nfa_of("(a | b)* a (a | b) (a | b) (a | b)"),
                _nfa_of("(a | b)* b (a | b) (a | b) (a | b)"),
                max_pairs=4,
            )


class TestInclusion:
    def test_basic_subsets(self):
        assert is_subset(_nfa_of("a a"), _nfa_of("a*"))
        assert is_subset(_nfa_of("a | b"), _nfa_of("(a | b)*"))
        assert not is_subset(_nfa_of("a*"), _nfa_of("a a"))

    def test_subset_counterexample(self):
        word = subset_counterexample(_nfa_of("a*"), _nfa_of("a a"))
        assert word in ((), ("a",))  # ε or "a": both in a* \ aa.

    def test_inclusion_not_symmetric(self):
        left, right = _nfa_of("a"), _nfa_of("a | b")
        assert is_subset(left, right)
        assert not is_subset(right, left)

    def test_empty_language_subset_of_all(self):
        empty = NFA(1)
        empty.set_initial(0)
        assert is_subset(empty, _nfa_of("a"))
        assert not is_subset(_nfa_of("a"), empty)


class TestProperties:
    @given(regex_asts(), regex_asts())
    @settings(max_examples=60, deadline=None)
    def test_equivalence_matches_language_keys(self, left_ast, right_ast):
        from repro.baselines.minimize import language_key

        left, right = regex_to_nfa(left_ast), regex_to_nfa(right_ast)
        assert equivalent(left, right) == (
            language_key(left) == language_key(right)
        )

    @given(regex_asts(), regex_asts())
    @settings(max_examples=60, deadline=None)
    def test_counterexample_is_valid(self, left_ast, right_ast):
        left, right = regex_to_nfa(left_ast), regex_to_nfa(right_ast)
        word = counterexample(left, right)
        if word is not None:
            assert left.accepts(word) != right.accepts(word)

    @given(small_nfas())
    @settings(max_examples=60, deadline=None)
    def test_reflexive(self, nfa):
        assert equivalent(nfa, nfa)
        assert is_subset(nfa, nfa)

    @given(small_nfas(), small_nfas())
    @settings(max_examples=60, deadline=None)
    def test_mutual_inclusion_is_equivalence(self, a, b):
        both = is_subset(a, b) and is_subset(b, a)
        assert both == equivalent(a, b)

    @given(regex_asts())
    @settings(max_examples=40, deadline=None)
    def test_minimize_equivalent_to_original(self, ast):
        nfa = regex_to_nfa(ast)
        assert equivalent(nfa, minimize(nfa))
