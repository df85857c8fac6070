"""Unit tests for the Glushkov (position) construction."""

from repro.baselines import glushkov_nfa
from repro.automata.regex_ast import desugar
from repro.automata.regex_parser import parse_rpq


class TestLanguages:
    def test_label(self):
        nfa = glushkov_nfa(parse_rpq("a"))
        assert nfa.accepts(["a"])
        assert not nfa.accepts([])

    def test_epsilon(self):
        nfa = glushkov_nfa(parse_rpq("ε"))
        assert nfa.accepts([])
        assert not nfa.accepts(["a"])

    def test_union_star(self):
        nfa = glushkov_nfa(parse_rpq("(a | b)* c"))
        assert nfa.accepts(["c"])
        assert nfa.accepts(["a", "b", "c"])
        assert not nfa.accepts(["c", "a"])

    def test_example9(self):
        nfa = glushkov_nfa(parse_rpq("h* s (h | s)*"))
        assert nfa.accepts(["s"])
        assert nfa.accepts(["h", "h", "s"])
        assert nfa.accepts(["s", "h", "s"])
        assert not nfa.accepts(["h", "h", "h"])

    def test_nullable_expression(self):
        nfa = glushkov_nfa(parse_rpq("a* b*"))
        assert nfa.accepts([])
        assert nfa.accepts(["a", "b"])
        assert not nfa.accepts(["b", "a"])

    def test_sugar(self):
        nfa = glushkov_nfa(parse_rpq("a{2,3}"))
        assert not nfa.accepts(["a"])
        assert nfa.accepts(["a", "a"])
        assert nfa.accepts(["a", "a", "a"])
        assert not nfa.accepts(["a"] * 4)

    def test_wildcard(self):
        nfa = glushkov_nfa(parse_rpq(". ."))
        assert nfa.accepts(["x", "y"])
        assert not nfa.accepts(["x"])


class TestShape:
    def test_epsilon_free(self):
        for expression in ["a* b", "(a | b)*", "a? b{0,2}", "ε"]:
            assert not glushkov_nfa(parse_rpq(expression)).has_epsilon

    def test_positions_plus_one_states(self):
        """|Q| = number of label occurrences + 1."""
        ast = desugar(parse_rpq("a b | a*"))
        nfa = glushkov_nfa(ast)
        positions = _count_atoms(ast)
        assert nfa.n_states == positions + 1

    def test_single_initial(self):
        nfa = glushkov_nfa(parse_rpq("(a | b) c"))
        assert len(nfa.initial) == 1

    def test_quadratic_transitions_possible(self):
        """(a|a|...|a)* has Θ(k²) follow transitions."""
        k = 6
        expression = "(" + " | ".join(["a"] * k) + ")*"
        nfa = glushkov_nfa(parse_rpq(expression))
        # Each of the k positions follows each of the k positions,
        # plus k initial transitions.
        assert nfa.transition_count == k * k + k


def _count_atoms(node) -> int:
    from repro.automata.regex_ast import (
        AnyAtom,
        Concat,
        EpsilonAtom,
        Label,
        Star,
        Union,
    )

    if isinstance(node, (Label, AnyAtom)):
        return 1
    if isinstance(node, EpsilonAtom):
        return 0
    if isinstance(node, (Concat, Union)):
        return sum(_count_atoms(p) for p in node.parts)
    if isinstance(node, Star):
        return _count_atoms(node.child)
    raise AssertionError(node)
