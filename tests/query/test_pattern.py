"""Unit tests for the GQL-flavoured path-pattern front-end."""

import pytest
from hypothesis import given, settings

from repro.exceptions import PatternSyntaxError
from repro.query.pattern import parse_pattern
from repro.query.rpq import rpq
from repro.workloads.fraud import example9_graph, example9_query

from tests.conftest import small_graphs


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
        assert p.rpq.automaton.accepts(["h"])
        assert p.rpq.automaton.accepts(["s"])

    def test_multi_segment_concatenation(self):
        p = parse_pattern("(a)-[h]->()-[s]->(b)")
        assert p.regex == "(h) (s)"
        assert p.rpq.automaton.accepts(["h", "s"])
        assert not p.rpq.automaton.accepts(["s", "h"])

    def test_segment_quantifiers(self):
        p = parse_pattern("(a)-[h]->*()-[s]->{1,3}(b)")
        assert p.regex == "(h)* (s){1,3}"
        nfa = p.rpq.automaton
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
        nfa = p.rpq.automaton
        assert nfa.accepts(["h", "h", "h"])
        assert not nfa.accepts(["h", "h"])
        assert not nfa.accepts(["h"] * 4)

    def test_open_ended_quantifier(self):
        p = parse_pattern("(a)-[h]->{2,}(b)")
        assert p.regex == "(h){2,}"
        nfa = p.rpq.automaton
        assert not nfa.accepts(["h"])
        assert nfa.accepts(["h", "h"])
        assert nfa.accepts(["h"] * 7)

    def test_quoted_labels_protect_punctuation(self):
        p = parse_pattern("(a)-['x:]y']->(b)")
        assert p.rpq.automaton.accepts(["x:]y"])

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

    def test_error_positions_recorded(self):
        with pytest.raises(PatternSyntaxError) as info:
            parse_pattern("(a)-[h]->(mid)-[s]->(b)")
        assert info.value.position == 9


class TestExecution:
    def test_all_shortest_matches_example9(self):
        p = parse_pattern("ALL SHORTEST (Alix)-[h* s (h|s)*]->(Bob)")
        walks = list(p.run(example9_graph()))
        assert len(walks) == 4
        reference = list(
            rpq(example9_query).shortest_walks(example9_graph(), "Alix", "Bob")
        )
        assert [w.edges for w in walks] == [w.edges for w in reference]

    def test_any_shortest_returns_one_shortest_walk(self):
        """The witness is a pure function of the instance — *which*
        shortest walk depends on the compiled states the witness read
        meets first, and was never promised to be the enumerator's."""
        graph = example9_graph()
        p = parse_pattern("ANY SHORTEST (Alix)-[h* s (h|s)*]->(Bob)")
        walks = list(p.run(graph))
        assert len(walks) == 1
        reference = rpq(example9_query).shortest_walks(graph, "Alix", "Bob")
        assert walks[0].length == 3
        assert walks[0].edges in {w.edges for w in reference}

    def test_sigil_style_equivalent(self):
        graph = example9_graph()
        plain = parse_pattern("(Alix)-[h* s (h|s)*]->(Bob)")
        gql = parse_pattern("(Alix)-[:h* :s (:h|:s)*]->(Bob)")
        assert [w.edges for w in plain.run(graph)] == [
            w.edges for w in gql.run(graph)
        ]

    def test_multi_hop_fixed_length(self):
        graph = example9_graph()
        p = parse_pattern("(Alix)-->()-->()-->(Bob)")
        walks = list(p.run(graph))
        # The pattern pins the length to exactly 3 edges; Figure 1 has
        # exactly four 3-edge walks from Alix to Bob (they coincide
        # with Example 9's four answers — see the paper's discussion).
        assert len(walks) == 4
        assert all(w.length == 3 for w in walks)

    def test_engine_exposed(self):
        p = parse_pattern("(Alix)-[h* s (h|s)*]->(Bob)")
        engine = p.engine(example9_graph())
        assert engine.lam == 3

    def test_repr_roundtrip_information(self):
        p = parse_pattern("ANY SHORTEST (a)-[h]->(b)")
        assert "ANY SHORTEST" in repr(p)
        assert "(a)" in repr(p) and "(b)" in repr(p)


class TestProperties:
    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_pattern_equals_rpq_on_random_graphs(self, graph):
        """The pattern front-end is a faithful wrapper over rpq()."""
        if graph.vertex_count < 2:
            return
        src = graph.vertex_name(0)
        tgt = graph.vertex_name(graph.vertex_count - 1)
        p = parse_pattern(f"ALL SHORTEST ({src})-[(a|b)* c?]->({tgt})")
        got = [w.edges for w in p.run(graph)]
        expected = [
            w.edges
            for w in rpq("(a|b)* c?").shortest_walks(graph, src, tgt)
        ]
        assert got == expected
