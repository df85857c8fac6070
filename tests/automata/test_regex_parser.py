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
from repro.automata.regex_parser import MAX_GROUP_DEPTH, parse_rpq
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
        assert parse_rpq("a*?") == Optional(Star(Label("a")))

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
