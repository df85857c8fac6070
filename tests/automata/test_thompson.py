"""Unit tests for the Thompson construction (Theorem 19)."""

import pytest
from hypothesis import given, settings

from repro.automata import EPSILON, equivalent, thompson_nfa
from repro.automata.regex_ast import (
    Concat,
    Optional,
    Plus,
    Repeat,
    Star,
    Union,
    ast_size,
    desugar,
)
from repro.automata.regex_parser import parse_rpq
from repro.core.compile import compile_query
from repro.graph.generators import chain

from tests.conftest import regex_asts

_WORDS = [
    [],
    ["a"],
    ["b"],
    ["c"],
    ["a", "a"],
    ["a", "b"],
    ["b", "a"],
    ["a", "b", "c"],
    ["a", "a", "a"],
    ["c", "c"],
]


class TestLanguages:
    def test_label(self):
        nfa = thompson_nfa(parse_rpq("a"))
        assert nfa.accepts(["a"])
        assert not nfa.accepts([])
        assert not nfa.accepts(["a", "a"])

    def test_epsilon(self):
        nfa = thompson_nfa(parse_rpq("ε"))
        assert nfa.accepts([])
        assert not nfa.accepts(["a"])

    def test_concat(self):
        nfa = thompson_nfa(parse_rpq("a b"))
        assert nfa.accepts(["a", "b"])
        assert not nfa.accepts(["a"])
        assert not nfa.accepts(["b", "a"])

    def test_union(self):
        nfa = thompson_nfa(parse_rpq("a | b"))
        assert nfa.accepts(["a"])
        assert nfa.accepts(["b"])
        assert not nfa.accepts(["a", "b"])

    def test_star(self):
        nfa = thompson_nfa(parse_rpq("a*"))
        assert nfa.accepts([])
        assert nfa.accepts(["a"])
        assert nfa.accepts(["a"] * 5)
        assert not nfa.accepts(["b"])

    def test_plus(self):
        nfa = thompson_nfa(parse_rpq("a+"))
        assert not nfa.accepts([])
        assert nfa.accepts(["a"])
        assert nfa.accepts(["a", "a"])

    def test_optional(self):
        nfa = thompson_nfa(parse_rpq("a?"))
        assert nfa.accepts([])
        assert nfa.accepts(["a"])
        assert not nfa.accepts(["a", "a"])

    def test_example9(self):
        nfa = thompson_nfa(parse_rpq("h* s (h | s)*"))
        assert nfa.accepts(["s"])
        assert nfa.accepts(["h", "h", "s"])
        assert nfa.accepts(["h", "s", "h"])
        assert not nfa.accepts(["h", "h"])

    def test_wildcard(self):
        nfa = thompson_nfa(parse_rpq(". a"))
        assert nfa.accepts(["z", "a"])
        assert nfa.accepts(["a", "a"])
        assert not nfa.accepts(["a"])


class TestShape:
    def test_single_initial_and_final(self):
        nfa = thompson_nfa(parse_rpq("(a | b)* c{2,4}"))
        assert len(nfa.initial) == 1
        assert len(nfa.final) == 1

    def test_linear_size(self):
        """O(|R|) states and transitions (Theorem 19)."""
        for expression in ["a", "a b c d", "(a | b)* c", "a+ b? (c | a)*"]:
            ast = desugar(parse_rpq(expression))
            nfa = thompson_nfa(ast)
            size = ast_size(ast)
            assert nfa.n_states <= 2 * size + 2
            assert nfa.transition_count <= 4 * size + 4

    def test_transitions_are_atomic(self):
        """Every non-ε transition corresponds to one atom occurrence."""
        nfa = thompson_nfa(parse_rpq("a a | a"))
        concrete = [
            (q, l, p) for q, l, p in nfa.transitions() if l is not EPSILON
        ]
        assert len(concrete) == 3


@given(regex_asts())
@settings(max_examples=60)
def test_acceptance_matches_glushkov(ast):
    """Thompson and Glushkov must define the same language."""
    from repro.baselines import glushkov_nfa

    thompson = thompson_nfa(ast)
    glushkov = glushkov_nfa(ast)
    for word in _WORDS:
        assert thompson.accepts(word) == glushkov.accepts(word), (ast, word)


def _tables(nfa):
    return (
        nfa.n_states, nfa.initial, nfa.final, list(nfa.transitions()),
    )


def _chains(node) -> bool:
    """Whether ``node`` holds a finite repeat with ``hi − lo ≥ 2`` —
    the one node Thompson builds other than its flat desugar."""
    if isinstance(node, Repeat):
        if node.hi is not None and node.hi - node.lo >= 2:
            return True
        return _chains(node.child)
    if isinstance(node, (Concat, Union)):
        return any(_chains(part) for part in node.parts)
    if isinstance(node, (Star, Plus, Optional)):
        return _chains(node.child)
    return False


class TestBoundedRepeat:
    """``X{m,n}`` with ``n − m ≥ 2`` is ``m`` copies, then the chain
    ``(X(X(…)?)?)?``: linear in the count, built without recursing per
    copy, and the flat desugar stays its oracle."""

    @pytest.mark.parametrize("k", [100, 200, 400, 1000])
    def test_compile_is_linear_in_the_count(self, k):
        cq = compile_query(chain(1, ("a",)), thompson_nfa(parse_rpq(
            f"a{{1,{k}}}"
        )))
        assert cq.delta_size == 2 * k - 1
        assert cq.n_states == k + 1

    def test_as_written_shape(self):
        """``a{1,k}``: 2k + 1 states — two per copy and the shared exit
        — and 3k − 1 transitions: k labels, k − 1 links between copies,
        k − 1 skips to the exit, and the last copy's exit."""
        for k in (3, 10, 50):
            nfa = thompson_nfa(parse_rpq(f"a{{1,{k}}}"))
            assert nfa.n_states == 2 * k + 1
            assert nfa.transition_count == 3 * k - 1

    @pytest.mark.parametrize("expression", ["a{0,1000}", "(a|b){1,1000}"])
    def test_builds_at_the_default_recursion_limit(self, expression):
        cq = compile_query(
            chain(1, ("a", "b")), thompson_nfa(parse_rpq(expression))
        )
        assert cq.n_states == 1001

    @pytest.mark.parametrize(
        "expression",
        ["a{1,3}", "a{2,5}", "(a|b){0,4}", "((a|b){1,3}){1,2}",
         "(a b?){0,3} c", "(a*){1,4}", "(a{1,3}|b){2,4}"],
    )
    def test_same_language_as_the_flat_oracle(self, expression):
        ast = parse_rpq(expression)
        assert _chains(ast)
        assert equivalent(thompson_nfa(ast), thompson_nfa(desugar(ast)))

    def test_flat_repeats_keep_the_flat_build(self):
        for expression in ("a{3}", "a{2,}", "a{1,2}", "a{0}", "x{1,2}{2,3}"):
            ast = parse_rpq(expression)
            assert not _chains(ast)
            assert _tables(thompson_nfa(ast)) == _tables(
                thompson_nfa(desugar(ast))
            )


@given(regex_asts())
@settings(max_examples=100, deadline=None)
def test_only_a_wide_repeat_leaves_the_flat_build(ast):
    """Every node but a finite repeat with ``hi − lo ≥ 2`` builds as its
    flat desugar — the same tables, state for state — and the chain
    keeps the language."""
    nested, flat = thompson_nfa(ast), thompson_nfa(desugar(ast))
    if not _chains(ast):
        assert _tables(nested) == _tables(flat)
    assert equivalent(nested, flat)
