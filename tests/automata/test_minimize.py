"""Unit and property tests for DFA minimization and language keys."""

from hypothesis import given, settings

from repro.automata import (
    NFA,
    determinize,
    equivalent,
    is_deterministic,
    language_key,
    minimize,
    minimize_brzozowski,
    regex_to_nfa,
)
from repro.baselines import glushkov_nfa

from tests.conftest import regex_asts, small_nfas


def _nfa_of(expr: str) -> NFA:
    return regex_to_nfa(expr)


class TestMinimize:
    def test_result_is_deterministic(self):
        dfa = minimize(_nfa_of("(a | b)* a"))
        assert is_deterministic(dfa)

    def test_known_minimal_sizes(self):
        # a* needs 1 state; (a|b)* a (b|a) needs 4 (suffix automaton).
        assert minimize(_nfa_of("a*")).n_states == 1
        assert minimize(_nfa_of("a a a")).n_states == 4
        # L = words over {a,b} ending in 'ab': classic 3-state DFA.
        assert minimize(_nfa_of("(a | b)* a b")).n_states == 3

    def test_empty_language(self):
        nfa = NFA(2)
        nfa.add_transition(0, "a", 1)
        nfa.set_initial(0)  # No final states: L = ∅.
        dfa = minimize(nfa)
        assert dfa.n_states == 1
        assert not dfa.final
        assert dfa.is_empty_language()

    def test_epsilon_language(self):
        dfa = minimize(_nfa_of("<eps>"))
        assert dfa.n_states == 1
        assert dfa.accepts([])
        assert not dfa.accepts(["a"])

    def test_dead_states_removed(self):
        nfa = NFA(3)
        nfa.add_transition(0, "a", 1)
        nfa.add_transition(0, "b", 2)  # State 2 is a dead end.
        nfa.set_initial(0)
        nfa.set_final(1)
        dfa = minimize(nfa)
        assert dfa.n_states == 2  # {0}, {1}; the dead branch is gone.
        assert dfa.accepts(["a"]) and not dfa.accepts(["b"])

    def test_language_preserved_on_example(self):
        nfa = _nfa_of("h* s (h | s)*")
        dfa = minimize(nfa)
        for word, expected in [
            ("s", True),
            ("hs", True),
            ("hh", False),
            ("hshh", True),
            ("", False),
            ("shsh", True),
        ]:
            assert dfa.accepts(list(word)) == expected

    def test_wildcard_handled(self):
        from repro.automata.minimize import OTHER

        dfa = minimize(_nfa_of(". a"))
        assert dfa.accepts(["a", "a"])
        assert dfa.accepts([OTHER, "a"])
        assert not dfa.accepts(["a", OTHER])


class TestBrzozowski:
    def test_agrees_with_hopcroft_on_examples(self):
        for expr in ("a", "a*", "(a | b)* a b", "h* s (h | s)*", "a{2,4}"):
            nfa = _nfa_of(expr)
            h = minimize(nfa)
            b = minimize_brzozowski(nfa)
            assert h.n_states == b.n_states
            assert equivalent(h, b)

    def test_empty_language_normalized(self):
        nfa = NFA(1)
        nfa.set_initial(0)
        dfa = minimize_brzozowski(nfa)
        assert dfa.n_states == 1 and not dfa.final


class TestLanguageKey:
    def test_equal_languages_equal_keys(self):
        pairs = [
            ("a | b", "b | a"),
            ("a* a*", "a*"),
            ("(a b)* a", "a (b a)*"),
            ("a? a?", "a | a a | <eps>"),
        ]
        for left, right in pairs:
            assert language_key(_nfa_of(left)) == language_key(
                _nfa_of(right)
            ), (left, right)

    def test_different_languages_different_keys(self):
        pairs = [("a", "a a"), ("a*", "a+"), ("a | b", "a")]
        for left, right in pairs:
            assert language_key(_nfa_of(left)) != language_key(
                _nfa_of(right)
            ), (left, right)

    def test_key_is_hashable(self):
        table = {language_key(_nfa_of("a*")): "kleene"}
        assert table[language_key(_nfa_of("a* a*"))] == "kleene"

    def test_wildcard_folding(self):
        """Symbols behaving like 'any other label' fold into OTHER, so
        syntactically different alphabets cannot split equal languages."""
        assert language_key(_nfa_of("a | .")) == language_key(_nfa_of("."))
        assert language_key(_nfa_of("(a | .)*")) == language_key(
            _nfa_of(".*")
        )
        # But a symbol with *distinct* behaviour is kept.
        assert language_key(_nfa_of("a")) != language_key(_nfa_of("."))
        assert language_key(_nfa_of(". a")) != language_key(_nfa_of(". b"))


class TestProperties:
    @given(regex_asts())
    @settings(max_examples=80, deadline=None)
    def test_minimize_preserves_language(self, ast):
        nfa = regex_to_nfa(ast)
        dfa = minimize(nfa)
        assert equivalent(nfa, dfa)

    @given(regex_asts())
    @settings(max_examples=60, deadline=None)
    def test_hopcroft_matches_brzozowski(self, ast):
        nfa = regex_to_nfa(ast)
        h = minimize(nfa)
        b = minimize_brzozowski(nfa)
        assert h.n_states == b.n_states
        assert equivalent(h, b)

    @given(regex_asts())
    @settings(max_examples=60, deadline=None)
    def test_minimal_is_no_larger_than_determinized(self, ast):
        nfa = regex_to_nfa(ast)
        from repro.automata.minimize import _expand_wildcard

        expanded = _expand_wildcard(nfa)
        assert (
            minimize(nfa).n_states
            <= determinize(expanded).n_states + 1
        )

    @given(small_nfas())
    @settings(max_examples=60, deadline=None)
    def test_language_key_consistent_with_equivalence(self, nfa):
        dfa = minimize(nfa)
        assert (language_key(nfa) == language_key(dfa)) is True
        assert equivalent(nfa, dfa)


class TestPipelinesAgree:
    @given(regex_asts())
    @settings(max_examples=80, deadline=None)
    def test_thompson_equals_glushkov(self, ast):
        """The two regex→NFA constructions define the same language."""
        thompson = regex_to_nfa(ast)
        glushkov = glushkov_nfa(ast)
        assert equivalent(thompson, glushkov)

    @given(regex_asts())
    @settings(max_examples=60, deadline=None)
    def test_language_keys_agree_across_pipelines(self, ast):
        assert language_key(regex_to_nfa(ast)) == language_key(
            glushkov_nfa(ast)
        )
