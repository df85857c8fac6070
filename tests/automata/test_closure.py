"""Unit and property tests for the regular-operation combinators."""

import pytest
from hypothesis import given, settings

from repro.automata import NFA, is_deterministic, regex_to_nfa
from repro.baselines.closure import (
    complement_nfa,
    concat_nfa,
    difference_nfa,
    intersect_nfa,
    option_nfa,
    plus_nfa,
    star_nfa,
    union_nfa,
)
from repro.baselines.equivalence import equivalent
from repro.automata.regex_ast import Concat, Optional, Plus, Star, Union
from repro.exceptions import AutomatonError

from tests.conftest import regex_asts


def _nfa_of(expr: str) -> NFA:
    return regex_to_nfa(expr)


class TestStructuralOperations:
    def test_union(self):
        combined = union_nfa(_nfa_of("a a"), _nfa_of("b"))
        assert combined.accepts(["a", "a"])
        assert combined.accepts(["b"])
        assert not combined.accepts(["a"])
        assert equivalent(combined, _nfa_of("a a | b"))

    def test_union_adds_no_transitions(self):
        left, right = _nfa_of("a"), _nfa_of("b")
        combined = union_nfa(left, right)
        assert combined.n_states == left.n_states + right.n_states
        assert (
            combined.transition_count
            == left.transition_count + right.transition_count
        )

    def test_concat(self):
        combined = concat_nfa(_nfa_of("a+"), _nfa_of("b"))
        assert combined.accepts(["a", "b"])
        assert combined.accepts(["a", "a", "b"])
        assert not combined.accepts(["b"])
        assert equivalent(combined, _nfa_of("a+ b"))

    def test_star(self):
        starred = star_nfa(_nfa_of("a b"))
        assert starred.accepts([])
        assert starred.accepts(["a", "b", "a", "b"])
        assert not starred.accepts(["a"])
        assert equivalent(starred, _nfa_of("(a b)*"))

    def test_plus_and_option(self):
        assert equivalent(plus_nfa(_nfa_of("a")), _nfa_of("a+"))
        assert equivalent(option_nfa(_nfa_of("a")), _nfa_of("a?"))
        assert option_nfa(_nfa_of("a")).accepts([])

    def test_intersect(self):
        meet = intersect_nfa(_nfa_of("a* b*"), _nfa_of("(a b)* | a"))
        assert meet.accepts(["a"])
        assert meet.accepts(["a", "b"])
        assert not meet.accepts(["a", "b", "a", "b"])  # Not in a*b*.
        assert not meet.accepts(["b", "a"])

    def test_intersect_handles_epsilon_inputs(self):
        meet = intersect_nfa(_nfa_of("a b c"), _nfa_of(". . ."))
        assert meet.accepts(["a", "b", "c"])
        assert not meet.accepts(["a", "b"])


class TestComplement:
    def test_basic(self):
        comp = complement_nfa(_nfa_of("a a"), alphabet=["a"])
        assert comp.accepts([])
        assert comp.accepts(["a"])
        assert not comp.accepts(["a", "a"])
        assert comp.accepts(["a", "a", "a"])
        assert is_deterministic(comp)

    def test_alphabet_widens_universe(self):
        comp = complement_nfa(_nfa_of("a"), alphabet=["a", "b"])
        assert comp.accepts(["b"])
        assert comp.accepts(["a", "b"])
        assert not comp.accepts(["a"])

    def test_alphabet_must_cover(self):
        with pytest.raises(AutomatonError, match="cover"):
            complement_nfa(_nfa_of("a b"), alphabet=["a"])

    def test_wildcard_rejected(self):
        with pytest.raises(AutomatonError, match="wildcard"):
            complement_nfa(_nfa_of(". a"))

    def test_double_complement_is_identity(self):
        for expr in ("a", "a* b", "(a|b)+", "<eps>"):
            nfa = _nfa_of(expr)
            sigma = ["a", "b"]
            twice = complement_nfa(
                complement_nfa(nfa, alphabet=sigma), alphabet=sigma
            )
            assert equivalent(twice, nfa), expr

    def test_empty_language_complement_is_universal(self):
        empty = NFA(1)
        empty.set_initial(0)
        comp = complement_nfa(empty, alphabet=["a"])
        assert comp.accepts([])
        assert comp.accepts(["a", "a", "a"])


class TestDifference:
    def test_basic(self):
        diff = difference_nfa(_nfa_of("a*"), _nfa_of("a a"))
        assert diff.accepts([])
        assert diff.accepts(["a"])
        assert not diff.accepts(["a", "a"])
        assert diff.accepts(["a", "a", "a"])

    def test_joint_alphabet_default(self):
        # 'b' is not in right's alphabet; words with b must be kept.
        diff = difference_nfa(_nfa_of("a | b"), _nfa_of("a"))
        assert diff.accepts(["b"])
        assert not diff.accepts(["a"])

    def test_disjoint_difference_is_left(self):
        left = _nfa_of("a a")
        diff = difference_nfa(left, _nfa_of("b"))
        assert equivalent(diff, left)


class TestAgainstRegexConstructions:
    """The combinators must agree with the AST-level constructions."""

    @given(regex_asts(max_depth=2), regex_asts(max_depth=2))
    @settings(max_examples=40, deadline=None)
    def test_union_matches_ast(self, left_ast, right_ast):
        structural = union_nfa(
            regex_to_nfa(left_ast), regex_to_nfa(right_ast)
        )
        syntactic = regex_to_nfa(Union((left_ast, right_ast)))
        assert equivalent(structural, syntactic)

    @given(regex_asts(max_depth=2), regex_asts(max_depth=2))
    @settings(max_examples=40, deadline=None)
    def test_concat_matches_ast(self, left_ast, right_ast):
        structural = concat_nfa(
            regex_to_nfa(left_ast), regex_to_nfa(right_ast)
        )
        syntactic = regex_to_nfa(Concat((left_ast, right_ast)))
        assert equivalent(structural, syntactic)

    @given(regex_asts(max_depth=2))
    @settings(max_examples=40, deadline=None)
    def test_star_plus_option_match_ast(self, ast):
        nfa = regex_to_nfa(ast)
        assert equivalent(star_nfa(nfa), regex_to_nfa(Star(ast)))
        assert equivalent(plus_nfa(nfa), regex_to_nfa(Plus(ast)))
        assert equivalent(option_nfa(nfa), regex_to_nfa(Optional(ast)))

    @given(regex_asts(max_depth=2), regex_asts(max_depth=2))
    @settings(max_examples=30, deadline=None)
    def test_de_morgan(self, left_ast, right_ast):
        """complement(L ∪ R) = complement(L) ∩ complement(R)."""
        left, right = regex_to_nfa(left_ast), regex_to_nfa(right_ast)
        if left.uses_wildcard or right.uses_wildcard:
            return
        sigma = ["a", "b", "c"]
        lhs = complement_nfa(union_nfa(left, right), alphabet=sigma)
        rhs = intersect_nfa(
            complement_nfa(left, alphabet=sigma),
            complement_nfa(right, alphabet=sigma),
        )
        assert equivalent(lhs, rhs)

    @given(regex_asts(max_depth=2))
    @settings(max_examples=30, deadline=None)
    def test_difference_with_self_is_empty(self, ast):
        nfa = regex_to_nfa(ast)
        if nfa.uses_wildcard:
            return
        assert difference_nfa(nfa, nfa).is_empty_language()
