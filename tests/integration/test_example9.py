"""EXP-E9: every claim Example 9 makes, as executable assertions."""

import pytest

from repro.api import Database
from repro.core.engine import DistinctShortestWalks
from repro.core.walks import Walk
from repro.workloads.fraud import (
    EXAMPLE9_EDGE_IDS,
    example9_automaton,
    example9_graph,
    example9_query,
)

from tests.conftest import mode_walks

E = EXAMPLE9_EDGE_IDS


@pytest.fixture(scope="module")
def engine():
    return DistinctShortestWalks(
        example9_graph(), example9_automaton(), "Alix", "Bob"
    )


@pytest.fixture(scope="module")
def walks(engine):
    return list(engine.enumerate())


class TestExample9Claims:
    def test_shortest_walk_has_length_two_but_does_not_match(self):
        """⟨e1, e7⟩ is the shortest Alix→Bob walk; hh ∉ L(A)."""
        graph = example9_graph()
        walk = Walk(graph, (E["e1"], E["e7"]))
        assert walk.length == 2
        assert not example9_automaton().matches_label_sets(walk.label_sets())

    def test_lambda_is_three(self, engine):
        assert engine.lam == 3

    def test_exactly_the_four_walks(self, walks):
        expected = {
            (E["e1"], E["e5"], E["e8"]),  # w1
            (E["e1"], E["e6"], E["e8"]),  # w2
            (E["e2"], E["e3"], E["e7"]),  # w3
            (E["e2"], E["e4"], E["e8"]),  # w4
        }
        assert {w.edges for w in walks} == expected

    def test_each_returned_once(self, walks):
        """w4 carries three accepted label words but appears once."""
        assert len(walks) == len({w.edges for w in walks}) == 4

    def test_w1_w2_distinct_despite_same_vertices(self, walks):
        w1 = next(w for w in walks if w.edges == (E["e1"], E["e5"], E["e8"]))
        w2 = next(w for w in walks if w.edges == (E["e1"], E["e6"], E["e8"]))
        assert w1.vertex_names() == w2.vertex_names()
        assert w1 != w2

    def test_w5_not_returned(self, walks):
        """⟨e2, e3, e6, e8⟩ matches but has length 4 > λ."""
        graph = example9_graph()
        w5 = Walk(graph, (E["e2"], E["e3"], E["e6"], E["e8"]))
        assert example9_automaton().matches_label_sets(w5.label_sets())
        assert w5.length == 4
        assert w5.edges not in {w.edges for w in walks}

    def test_w4_label_words(self):
        """w4's accepted words are exactly {shh, hhs, shs}."""
        graph = example9_graph()
        nfa = example9_automaton()
        w4 = Walk(graph, (E["e2"], E["e4"], E["e8"]))
        accepted = {
            word for word in w4.label_words() if nfa.accepts(list(word))
        }
        assert accepted == {
            ("s", "h", "h"),
            ("h", "h", "s"),
            ("s", "h", "s"),
        }

    def test_multiplicities(self, engine):
        by_edges = {
            w.edges: m for w, m in engine.enumerate_with_multiplicity()
        }
        assert by_edges[(E["e2"], E["e4"], E["e8"])] == 3
        assert by_edges[(E["e1"], E["e6"], E["e8"])] == 2
        assert by_edges[(E["e2"], E["e3"], E["e7"])] == 2
        assert by_edges[(E["e1"], E["e5"], E["e8"])] == 1


class TestViaPublicApi:
    def test_regex_front_end(self):
        rows = (
            Database(example9_graph()).query(example9_query)
            .from_("Alix").to("Bob").run().all()
        )
        assert len(rows) == 4

    def test_all_modes(self):
        graph = example9_graph()
        results = {
            mode: [
                w.edges
                for w in mode_walks(
                    graph, example9_automaton(), "Alix", "Bob", mode
                )
            ]
            for mode in ("iterative", "recursive", "memoryless", "auto")
        }
        assert (
            results["iterative"]
            == results["recursive"]
            == results["memoryless"]
        )
        # "auto" is the engine leg too: one DFS, the identical sequence.
        assert results["auto"] == results["iterative"]
