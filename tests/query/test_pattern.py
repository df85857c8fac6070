"""Unit tests for the GQL-flavoured path-pattern front-end."""

import pytest
from hypothesis import given, settings

from repro.api import Database
from repro.automata import regex_to_nfa
from repro.core.engine import DistinctShortestWalks
from repro.exceptions import PatternSyntaxError, RegexSyntaxError
from repro.query.pattern import parse_pattern
from repro.workloads.fraud import example9_graph, example9_query

from tests.conftest import small_graphs


def _walks(pattern, graph):
    return list(pattern.query(Database(graph)).run().walks())


class TestParsing:
    def test_basic_pattern(self):
        p = parse_pattern("(Alix)-[h* s (h|s)*]->(Bob)")
        assert p.source == "Alix"
        assert p.target == "Bob"
        assert p.mode == "all"
        assert p.regex == "(h* s (h|s)*)"

    def test_modes(self):
        assert parse_pattern("ANY SHORTEST (a)-[x]->(b)").mode == "any"
        assert parse_pattern("ALL SHORTEST (a)-[x]->(b)").mode == "all"
        assert parse_pattern("SHORTEST (a)-[x]->(b)").mode == "all"
        assert parse_pattern("any shortest (a)-[x]->(b)").mode == "any"

    def test_gql_sigils_stripped(self):
        p = parse_pattern("(a)-[:h | :s]->(b)")
        assert p.regex == "(h |  s)"
        assert regex_to_nfa(p.regex).accepts(["h"])
        assert regex_to_nfa(p.regex).accepts(["s"])

    def test_multi_segment_concatenation(self):
        p = parse_pattern("(a)-[h]->()-[s]->(b)")
        assert p.regex == "(h) (s)"
        assert regex_to_nfa(p.regex).accepts(["h", "s"])
        assert not regex_to_nfa(p.regex).accepts(["s", "h"])

    def test_segment_quantifiers(self):
        p = parse_pattern("(a)-[h]->*()-[s]->{1,3}(b)")
        assert p.regex == "(h)* (s){1,3}"
        nfa = regex_to_nfa(p.regex)
        assert nfa.accepts(["s"])
        assert nfa.accepts(["h", "h", "s", "s", "s"])
        assert not nfa.accepts(["h"])
        assert not nfa.accepts(["s", "s", "s", "s"])

    def test_any_edge_arrow(self):
        p = parse_pattern("(a)-->(b)")
        assert p.regex == "(.)"
        p2 = parse_pattern("(a)-->+(b)")
        assert p2.regex == "(.)+"

    def test_exact_repetition_quantifier(self):
        p = parse_pattern("(a)-[h]->{3}(b)")
        assert p.regex == "(h){3}"
        nfa = regex_to_nfa(p.regex)
        assert nfa.accepts(["h", "h", "h"])
        assert not nfa.accepts(["h", "h"])
        assert not nfa.accepts(["h"] * 4)

    def test_open_ended_quantifier(self):
        p = parse_pattern("(a)-[h]->{2,}(b)")
        assert p.regex == "(h){2,}"
        nfa = regex_to_nfa(p.regex)
        assert not nfa.accepts(["h"])
        assert nfa.accepts(["h", "h"])
        assert nfa.accepts(["h"] * 7)

    def test_quoted_labels_protect_punctuation(self):
        p = parse_pattern("(a)-['x:]y']->(b)")
        assert regex_to_nfa(p.regex).accepts(["x:]y"])

    def test_whitespace_freedom(self):
        p = parse_pattern("  ALL   SHORTEST ( a )  -[ h ]-> ( b ) ")
        assert (p.source, p.target) == ("a", "b")


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("(a)-[h]->(b", "unterminated node"),
            ("(a)-[h->(b)", "unterminated"),
            ("(a)-[]->(b)", "empty edge"),
            ("(a)~[h]~>(b)", "expected"),
            ("()-[h]->(b)", "source endpoint"),
            ("(a)-[h]->()", "target endpoint"),
            ("(a)-[h]->(mid)-[s]->(b)", "anonymous"),
            ("ANY (a)-[h]->(b)", "SHORTEST"),
            ("(a)-[h]->{x}(b)", "quantifier"),
            ("(a)-[h]->{1,2,3}(b)", "quantifier"),
            ("(a)-[h]->{,2}(b)", "quantifier"),
        ],
    )
    def test_errors(self, bad, message):
        with pytest.raises(PatternSyntaxError, match=message):
            parse_pattern(bad)

    def test_malformed_spec_fails_at_parse_time(self):
        with pytest.raises(RegexSyntaxError):
            parse_pattern("(a)-[h |]->(b)")

    def test_error_positions_recorded(self):
        with pytest.raises(PatternSyntaxError) as info:
            parse_pattern("(a)-[h]->(mid)-[s]->(b)")
        assert info.value.position == 9


class TestExecution:
    def test_all_shortest_matches_example9(self):
        p = parse_pattern("ALL SHORTEST (Alix)-[h* s (h|s)*]->(Bob)")
        walks = _walks(p, example9_graph())
        assert len(walks) == 4
        reference = DistinctShortestWalks(
            example9_graph(), example9_query, "Alix", "Bob"
        ).enumerate()
        assert [w.edges for w in walks] == [w.edges for w in reference]

    def test_any_shortest_returns_one_shortest_walk(self):
        """The witness is a pure function of the instance — *which*
        shortest walk depends on the compiled states the witness read
        meets first, and was never promised to be the enumerator's."""
        graph = example9_graph()
        p = parse_pattern("ANY SHORTEST (Alix)-[h* s (h|s)*]->(Bob)")
        walks = _walks(p, graph)
        assert len(walks) == 1
        reference = DistinctShortestWalks(
            graph, example9_query, "Alix", "Bob"
        ).enumerate()
        assert walks[0].length == 3
        assert walks[0].edges in {w.edges for w in reference}

    def test_sigil_style_equivalent(self):
        graph = example9_graph()
        plain = parse_pattern("(Alix)-[h* s (h|s)*]->(Bob)")
        gql = parse_pattern("(Alix)-[:h* :s (:h|:s)*]->(Bob)")
        assert [w.edges for w in _walks(plain, graph)] == [
            w.edges for w in _walks(gql, graph)
        ]

    def test_multi_hop_fixed_length(self):
        graph = example9_graph()
        p = parse_pattern("(Alix)-->()-->()-->(Bob)")
        walks = _walks(p, graph)
        # The pattern pins the length to exactly 3 edges; Figure 1 has
        # exactly four 3-edge walks from Alix to Bob (they coincide
        # with Example 9's four answers — see the paper's discussion).
        assert len(walks) == 4
        assert all(w.length == 3 for w in walks)

    def test_repr_roundtrip_information(self):
        p = parse_pattern("ANY SHORTEST (a)-[h]->(b)")
        assert "ANY SHORTEST" in repr(p)
        assert "(a)" in repr(p) and "(b)" in repr(p)


class TestProperties:
    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_pattern_equals_rpq_on_random_graphs(self, graph):
        """The pattern front-end, run through the cached façade, gives
        the cold engine's walks in the engine's order."""
        if graph.vertex_count < 2:
            return
        src = graph.vertex_name(0)
        tgt = graph.vertex_name(graph.vertex_count - 1)
        p = parse_pattern(f"ALL SHORTEST ({src})-[(a|b)* c?]->({tgt})")
        got = [w.edges for w in _walks(p, graph)]
        expected = [
            w.edges
            for w in DistinctShortestWalks(
                graph, "(a|b)* c?", src, tgt
            ).enumerate()
        ]
        assert got == expected
