"""Unit tests for the RPQ expression parser."""

import pytest

from repro.automata.regex_ast import (
    AnyAtom,
    Concat,
    EpsilonAtom,
    Label,
    Optional,
    Plus,
    Repeat,
    Star,
    Union,
)
from repro.automata.regex_parser import (
    MAX_EXPANDED_SIZE,
    MAX_GROUP_DEPTH,
    MAX_REPEAT_COUNT,
    parse_rpq,
)
from repro.exceptions import RegexSyntaxError


class TestAtoms:
    def test_single_label(self):
        assert parse_rpq("knows") == Label("knows")

    def test_label_with_dash_and_digits(self):
        assert parse_rpq("type-2_x") == Label("type-2_x")

    def test_quoted_label(self):
        assert parse_rpq("'high value'") == Label("high value")
        assert parse_rpq('"weird|chars*"') == Label("weird|chars*")

    def test_quoted_escapes(self):
        assert parse_rpq(r"'it\'s'") == Label("it's")

    def test_wildcard(self):
        assert parse_rpq(".") == AnyAtom()

    def test_epsilon(self):
        assert parse_rpq("ε") == EpsilonAtom()
        assert parse_rpq("<eps>") == EpsilonAtom()

    def test_parenthesized(self):
        assert parse_rpq("( a )") == Label("a")


class TestOperators:
    def test_concat(self):
        assert parse_rpq("a b") == Concat((Label("a"), Label("b")))

    def test_concat_many(self):
        ast = parse_rpq("a b c")
        assert ast == Concat((Label("a"), Label("b"), Label("c")))

    def test_union(self):
        assert parse_rpq("a | b") == Union((Label("a"), Label("b")))

    def test_union_binds_weaker_than_concat(self):
        ast = parse_rpq("a b | c")
        assert ast == Union((Concat((Label("a"), Label("b"))), Label("c")))

    def test_star_plus_optional(self):
        assert parse_rpq("a*") == Star(Label("a"))
        assert parse_rpq("a+") == Plus(Label("a"))
        assert parse_rpq("a?") == Optional(Label("a"))

    def test_postfix_stacking(self):
        # An idempotent pair folds (a*? denotes a*); any other stacks.
        assert parse_rpq("a*?") == Star(Label("a"))
        assert parse_rpq("a*{2}") == Repeat(Star(Label("a")), 2, 2)
        assert parse_rpq("a{2}?") == Optional(Repeat(Label("a"), 2, 2))

    def test_postfix_binds_tightest(self):
        assert parse_rpq("a b*") == Concat((Label("a"), Star(Label("b"))))
        assert parse_rpq("(a b)*") == Star(Concat((Label("a"), Label("b"))))


class TestRepeat:
    def test_exact(self):
        assert parse_rpq("a{3}") == Repeat(Label("a"), 3, 3)

    def test_range(self):
        assert parse_rpq("a{2,5}") == Repeat(Label("a"), 2, 5)

    def test_unbounded(self):
        assert parse_rpq("a{2,}") == Repeat(Label("a"), 2, None)

    def test_zero_lower(self):
        assert parse_rpq("a{0,1}") == Repeat(Label("a"), 0, 1)

    def test_bounds_out_of_order(self):
        with pytest.raises(RegexSyntaxError):
            parse_rpq("a{5,2}")


class TestExample9Query:
    def test_parses(self):
        ast = parse_rpq("h* s (h | s)*")
        assert ast == Concat(
            (
                Star(Label("h")),
                Label("s"),
                Star(Union((Label("h"), Label("s")))),
            )
        )


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "|",
            "a |",
            "| a",
            "(",
            "a)",
            "(a",
            "a{",
            "a{}",
            "a{x}",
            "a{1",
            "a{1,2",
            "*",
            "+a|",
            "'unterminated",
            "''",
            "a $ b",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(RegexSyntaxError):
            parse_rpq(bad)

    def test_error_position_reported(self):
        with pytest.raises(RegexSyntaxError) as info:
            parse_rpq("a b ) c")
        assert info.value.position == 4


class TestNestingCap:
    def test_groups_up_to_the_cap_parse(self):
        depth = MAX_GROUP_DEPTH
        assert parse_rpq("(" * depth + "a" + ")" * depth) == Label("a")

    @pytest.mark.parametrize("depth", [MAX_GROUP_DEPTH + 1, 250, 3000])
    def test_first_group_past_the_cap_is_a_syntax_error(self, depth):
        with pytest.raises(RegexSyntaxError, match="nested deeper") as info:
            parse_rpq("(" * depth + "a" + ")" * depth)
        assert info.value.position == MAX_GROUP_DEPTH

    def test_the_cap_counts_open_groups_not_all_groups(self):
        many = " ".join(["(a)"] * (2 * MAX_GROUP_DEPTH))
        assert parse_rpq(many) == Concat((Label("a"),) * (2 * MAX_GROUP_DEPTH))


class TestPostfixChains:
    """Stacked postfix operators fold while parsing where they are
    idempotent, and a chain that cannot fold nests against the cap."""

    FOLDS = {
        "**": Star, "*?": Star, "?*": Star, "+*": Star, "*+": Star,
        "+?": Star, "?+": Star, "++": Plus, "??": Optional,
    }

    @pytest.mark.parametrize("pair", sorted(FOLDS))
    def test_an_idempotent_pair_folds(self, pair):
        assert parse_rpq("a" + pair) == self.FOLDS[pair](Label("a"))
        grouped = parse_rpq("(a | b)" + pair)
        assert grouped == self.FOLDS[pair](Union((Label("a"), Label("b"))))

    @pytest.mark.parametrize("op, node", [("*", Star), ("?", Optional), ("+", Plus)])
    def test_a_long_chain_folds_to_one_node(self, op, node):
        assert parse_rpq("a" + op * 3000) == node(Label("a"))

    def test_a_mixed_chain_folds_to_star(self):
        assert parse_rpq("a+?+?*+") == Star(Label("a"))
        assert parse_rpq("a" + "+?" * 1500) == Star(Label("a"))

    def test_a_group_ends_the_chain(self):
        """Only operators of one chain fold: ``(a*)*`` is written as
        two nodes and parses so."""
        assert parse_rpq("(a*)*") == Star(Star(Label("a")))

    def test_operators_that_do_not_fold_stack(self):
        assert parse_rpq("a{2}*") == Star(Repeat(Label("a"), 2, 2))
        assert parse_rpq("a*{2}?") == Optional(Repeat(Star(Label("a")), 2, 2))

    def test_a_chain_up_to_the_cap_parses(self):
        # The first operator wraps the atom; each later one stacks.
        text = "a" + "{1}" * (MAX_GROUP_DEPTH + 1)
        node = parse_rpq(text)
        for _ in range(MAX_GROUP_DEPTH + 1):
            assert isinstance(node, Repeat)
            node = node.child
        assert node == Label("a")

    @pytest.mark.parametrize("extra", [2, 50, 3000])
    def test_a_chain_past_the_cap_is_a_syntax_error(self, extra):
        text = "a" + "{1}" * (MAX_GROUP_DEPTH + extra)
        with pytest.raises(RegexSyntaxError, match="stacked") as info:
            parse_rpq(text)
        # At the first operator past the cap: after the atom and
        # MAX_GROUP_DEPTH + 1 operators of three characters.
        assert info.value.position == 1 + 3 * (MAX_GROUP_DEPTH + 1)

    def test_open_groups_count_against_a_chain(self):
        inner = "a" + "{1}" * 52
        ok = "(" * 49 + inner + ")" * 49
        assert parse_rpq(ok)
        with pytest.raises(RegexSyntaxError, match="stacked"):
            parse_rpq("(" + ok + ")")
        # Groups wrapped in a chain count too.
        with pytest.raises(RegexSyntaxError, match="stacked"):
            parse_rpq("(" * 60 + "a" + ")" * 60 + "{1}" * 42)
        assert parse_rpq("(" * 60 + "a" + ")" * 60 + "{1}" * 41)


class TestRepeatCap:
    def test_counts_up_to_the_cap_parse(self):
        assert parse_rpq(f"a{{{MAX_REPEAT_COUNT}}}") == Repeat(
            Label("a"), MAX_REPEAT_COUNT, MAX_REPEAT_COUNT
        )
        assert parse_rpq("a{0,1000}") == Repeat(Label("a"), 0, 1000)
        assert parse_rpq("a{0001}") == Repeat(Label("a"), 1, 1)

    @pytest.mark.parametrize(
        "text",
        ["a{1001}", "a{1,100000}", "b a{5,1001}", "a{1001,}",
         "a{" + "9" * 5000 + "}"],
    )
    def test_a_larger_count_is_a_syntax_error_at_the_brace(self, text):
        with pytest.raises(RegexSyntaxError, match="exceeds 1000") as info:
            parse_rpq(text)
        assert info.value.position == text.index("{")

    def test_the_existing_large_counts_stay_legal(self):
        assert parse_rpq("a{400}") == Repeat(Label("a"), 400, 400)
        assert parse_rpq("(a|b){300}") == Repeat(
            Union((Label("a"), Label("b"))), 300, 300
        )


class TestExpandedSizeCap:
    """Nested repeats multiply: the cap is on the atoms a repeat
    expands to, not on each count alone."""

    @pytest.mark.parametrize(
        "text, brace",
        [("a{200}{200}", 6), ("a{1000}{1000}", 7), ("(a{100}){51}", 8),
         ("(a b c d e f){900}", 13), ("(a{50} b{50}){51}", 13),
         ("(a{5,}){1000}", 7)],
    )
    def test_a_repeat_past_the_cap_is_a_syntax_error_at_its_brace(
        self, text, brace
    ):
        with pytest.raises(
            RegexSyntaxError, match=f"expands past {MAX_EXPANDED_SIZE}"
        ) as info:
            parse_rpq(text)
        assert info.value.position == brace

    def test_repeats_up_to_the_cap_parse(self):
        assert parse_rpq("a{100}{50}") == Repeat(
            Repeat(Label("a"), 100, 100), 50, 50
        )
        # ``X{m,}`` expands to m copies and a star: m + 1.
        assert parse_rpq("(a{4,}){1000}") == Repeat(
            Repeat(Label("a"), 4, None), 1000, 1000
        )
        # Side by side, repeats add instead of multiplying.
        assert parse_rpq(" ".join(["a{1000}"] * 8))

    @staticmethod
    def _nested_plus(depth: int) -> str:
        return "(" * depth + "a" + ")+" * depth

    def test_a_plus_doubles_its_operand(self):
        """``X+`` is ``X X*``: twelve nested ``+`` groups expand to
        4 096 atoms and parse; the thirteenth ``+`` would make 8 192
        and is the error."""
        assert parse_rpq(self._nested_plus(12))
        text = self._nested_plus(13)
        with pytest.raises(
            RegexSyntaxError, match=f"expands past {MAX_EXPANDED_SIZE}"
        ) as info:
            parse_rpq(text)
        assert info.value.position == len(text) - 1

    def test_a_plus_counts_against_a_repeat(self):
        assert parse_rpq("(a{1000}{2})+") == Plus(
            Repeat(Repeat(Label("a"), 1000, 1000), 2, 2)
        )
        with pytest.raises(RegexSyntaxError, match="expands past") as info:
            parse_rpq("(a{1000}{3})+")
        assert info.value.position == 12
        # The doubled size rides into an enclosing repeat.
        with pytest.raises(RegexSyntaxError, match="expands past") as info:
            parse_rpq("(a{1000}+){3}")
        assert info.value.position == 10

    def test_a_folded_plus_does_not_double_again(self):
        """``X++`` is ``X+`` and ``X+*`` is ``X*``: a fold takes the
        size of the operator it leaves."""
        assert parse_rpq("(a{1000}{2})++") == Plus(
            Repeat(Repeat(Label("a"), 1000, 1000), 2, 2)
        )
        assert parse_rpq("((a{1000}{2})+*){2}") == Repeat(
            Star(Repeat(Repeat(Label("a"), 1000, 1000), 2, 2)), 2, 2
        )

    def test_every_catalog_query_stays_legal(self):
        from repro.workloads.queries import QUERY_CATALOG
        from repro.workloads.transport import TRANSPORT_QUERIES

        for text in [*QUERY_CATALOG.values(), *TRANSPORT_QUERIES.values()]:
            assert parse_rpq(text)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "expression",
        [
            "a",
            "a b",
            "a | b",
            "a*",
            "a+",
            "a?",
            "a{2,5}",
            "a{3}",
            "a{2,}",
            "(a | b) c*",
            "h* s (h | s)*",
            ". a .",
            "ε | a",
            "'two words' b",
        ],
    )
    def test_str_reparses_to_same_ast(self, expression):
        ast = parse_rpq(expression)
        assert parse_rpq(str(ast)) == ast


class TestFoldedChainsCompile:
    """A folded chain denotes what the operators stacked by hand do:
    the same answers, row for row, and no larger compiled query —
    the same tables where the compile's same-past merge already made
    the stacked form minimal."""

    SAME_TABLES = {"**", "*?", "?*", "*+", "??"}

    @staticmethod
    def _nfa(text, method):
        from repro.automata import thompson_nfa
        from repro.baselines import glushkov_nfa

        construct = {"thompson": thompson_nfa, "glushkov": glushkov_nfa}
        return construct[method](parse_rpq(text))

    def _tables(self, graph, text, method):
        from repro.core.compile import compile_query

        cq = compile_query(graph, self._nfa(text, method))
        return (
            cq.n_states, tuple(cq.initial), cq.final, cq.delta, cq.eps,
            cq.delta_inv, cq.moves,
        )

    @pytest.mark.parametrize("method", ["thompson", "glushkov"])
    @pytest.mark.parametrize("pair", sorted(TestPostfixChains.FOLDS))
    def test_folded_and_stacked_forms_agree(self, pair, method):
        from repro.api import Database
        from repro.core.compile import compile_query
        from repro.core.multi_target import MultiTargetShortestWalks
        from repro.graph.generators import chain

        graph = chain(3, ("a", "b"), parallel=2)
        folded, stacked = "(a|b)" + pair, "((a|b)" + pair[0] + ")" + pair[1]
        assert parse_rpq(stacked) != parse_rpq(folded)
        mine = self._tables(graph, folded, method)
        theirs = self._tables(graph, stacked, method)
        if pair in self.SAME_TABLES:
            assert mine == theirs
        else:
            assert mine[0] < theirs[0]
        db = Database(graph)

        def rows(text):
            query = db.query(text).from_("v0").to_all()
            return [(row.target, row.walk.edges) for row in query.run()]

        def engine_rows(text):
            nfa = self._nfa(text, method)
            engine = MultiTargetShortestWalks(
                graph, nfa, "v0", compiled=compile_query(graph, nfa)
            )
            return [(t, walk.edges) for t, walk in engine.all_walks()]

        assert rows(folded) == rows(stacked) and rows(folded)
        assert engine_rows(folded) == engine_rows(stacked) == rows(folded)
