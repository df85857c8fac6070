"""RPQ expressions end to end: compiled by :func:`regex_to_nfa`, run
through :meth:`Database.query`."""

import pytest

from repro.api import Database
from repro.automata import parse_rpq, regex_to_nfa
from repro.automata.regex_ast import ast_size
from repro.baselines import glushkov_nfa
from repro.core.engine import DistinctShortestWalks
from repro.exceptions import RegexSyntaxError
from repro.graph import GraphBuilder
from repro.query import analyze
from repro.workloads.fraud import example9_graph

QUERY = "h* s (h | s)*"


@pytest.fixture
def graph():
    return example9_graph()


@pytest.fixture
def db(graph):
    return Database(graph)


class TestCompilation:
    def test_size_is_ast_size(self):
        assert ast_size(parse_rpq(QUERY)) >= 5

    def test_method_selection(self):
        # Thompson is the one construction production runs; Glushkov's
        # ε-free automaton is a baseline, not an option.
        assert regex_to_nfa("a b | c").has_epsilon
        assert not glushkov_nfa(parse_rpq("a b | c")).has_epsilon
        with pytest.raises(TypeError):
            regex_to_nfa("a b | c", method="glushkov")

    def test_syntax_errors_propagate(self, db):
        with pytest.raises(RegexSyntaxError):
            regex_to_nfa("a |")
        with pytest.raises(RegexSyntaxError):
            db.query("a |").from_("Alix").to("Bob").run()

    def test_repr(self, db):
        assert "h* s" in repr(db.query("h* s"))


class TestExecution:
    def test_shortest_walks(self, db):
        rows = db.query(QUERY).from_("Alix").to("Bob").run().all()
        assert len(rows) == 4

    def test_lam_and_count(self, db):
        pair = db.query(QUERY).from_("Alix").to("Bob")
        assert pair.run().lam == 3
        assert pair.count() == 4
        back = db.query(QUERY).from_("Bob").to("Alix")
        assert back.run().lam is None
        assert back.count() == 0

    def test_first(self, db):
        rows = db.query(QUERY).from_("Alix").to("Bob").limit(2).run().all()
        assert len(rows) == 2

    def test_multiplicity(self, db):
        rows = (
            db.query(QUERY).from_("Alix").to("Bob")
            .with_multiplicity().run()
        )
        assert sorted(row.multiplicity for row in rows) == [1, 2, 2, 3]

    def test_to_all_targets(self, db):
        targets = db.query(QUERY).from_("Alix").to_all().targets()
        assert sorted(name for name, _ in targets) == [
            "Bob",
            "Cassie",
            "Dan",
            "Eve",
        ]

    def test_cheapest_walks(self):
        b = GraphBuilder()
        b.add_edge("s", "t", ["a"], cost=9)
        b.add_edge("s", "t", ["a"], cost=3)
        rows = Database(b.build()).query("a").cheapest().from_("s").to("t")
        walks = list(rows.run().walks())
        assert len(walks) == 1 and walks[0].cost() == 3

    def test_reusable_across_graphs(self, db):
        from repro.graph.generators import chain

        assert db.query("(h | a)+").from_("Alix").to("Cassie").count() >= 1
        other = Database(chain(2, labels=("a",)))
        assert other.query("(h | a)+").from_("v0").to("v2").count() == 1

    def test_plan(self, graph):
        assert analyze(graph, regex_to_nfa(QUERY)).engine == "general"

    def test_engine_reuse(self, graph):
        engine = DistinctShortestWalks(graph, QUERY, "Alix", "Bob")
        assert engine.count() == engine.count() == 4

    def test_wildcard_query(self, db):
        # Any two transfers from Alix to Eve.
        rows = db.query(". .").from_("Alix").to("Eve").run().all()
        assert len(rows) == 3  # e1e5, e1e6, e2e4.

    def test_quoted_label_query(self):
        b = GraphBuilder()
        b.add_edge("x", "y", ["high value"])
        db = Database(b.build())
        assert db.query("'high value'").from_("x").to("y").count() == 1
