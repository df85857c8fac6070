"""Unit tests for the workload generators and query catalog."""

import pytest

from repro.automata import regex_to_nfa
from repro.baselines.validate import validate_graph
from repro.core.engine import DistinctShortestWalks
from repro.workloads import (
    QUERY_CATALOG,
    diamond_chain,
    duplicate_bomb,
    example9_automaton,
    example9_graph,
    example9_query,
    fraud_network,
    social_network,
    wide_nfa,
)


class TestExample9Artifacts:
    def test_graph_validates(self):
        validate_graph(example9_graph())

    def test_query_string_equals_automaton(self):
        """The regex form and the hand-built NFA define one language."""
        nfa_hand = example9_automaton()
        nfa_regex = regex_to_nfa(example9_query)
        words = [
            [],
            ["h"],
            ["s"],
            ["h", "h"],
            ["h", "s"],
            ["s", "h"],
            ["h", "h", "s"],
            ["h", "s", "s"],
            ["s", "s", "s"],
            ["h", "h", "h"],
        ]
        for word in words:
            assert nfa_hand.accepts(word) == nfa_regex.accepts(word), word


class TestFraudNetwork:
    def test_reproducible(self):
        g1 = fraud_network(50, 200, seed=3)
        g2 = fraud_network(50, 200, seed=3)
        assert g1.edge_count == g2.edge_count
        assert all(g1.labels(e) == g2.labels(e) for e in g1.edges())

    def test_validates(self):
        validate_graph(fraud_network(30, 100, seed=1))

    def test_planted_chain_answerable(self):
        """The mule chain guarantees Example 9's query has answers."""
        g = fraud_network(40, 120, seed=7, chain_length=3)
        engine = DistinctShortestWalks(
            g, "(h | s | w | c)* s (h | s | w | c)*", "acct0", "acct39"
        )
        assert engine.lam is not None

    def test_labels_in_catalogued_alphabet(self):
        g = fraud_network(20, 60, seed=2)
        assert set(g.alphabet) <= {"h", "s", "w", "c"}


class TestSocialNetwork:
    def test_reproducible_and_valid(self):
        g1 = social_network(60, seed=4)
        g2 = social_network(60, seed=4)
        assert g1.edge_count == g2.edge_count
        validate_graph(g1)

    def test_multi_labeled_edges_exist(self):
        g = social_network(120, seed=1, mention_rate=0.8)
        assert any(len(g.labels(e)) > 1 for e in g.edges())

    def test_labels(self):
        g = social_network(40, seed=0)
        assert set(g.alphabet) <= {"knows", "follows", "mentions"}


class TestWorstCase:
    def test_duplicate_bomb_unique_answer(self):
        graph, nfa, s, t = duplicate_bomb(7, 4)
        engine = DistinctShortestWalks(graph, nfa, s, t)
        assert engine.count() == 1
        assert engine.lam == 7

    def test_wide_nfa_shape(self):
        nfa = wide_nfa(5, ("a", "b"))
        assert nfa.n_states == 5
        assert nfa.transition_count == 5 * 5 * 2

    def test_diamond_chain_answer_count(self):
        graph, nfa, s, t = diamond_chain(6, parallel=3)
        engine = DistinctShortestWalks(graph, nfa, s, t)
        assert engine.count() == 3 ** 6

    def test_label_soup_answer_set_unchanged_by_noise(self):
        from repro.workloads.worstcase import label_soup

        graph, nfa, s, t = label_soup(
            5, parallel=2, extra_labels=6, noise_out=3
        )
        # 6 noise labels + the matching one; noise edges are real.
        assert graph.label_count == 7
        assert graph.edge_count == 5 * (2 + 3)
        engine = DistinctShortestWalks(graph, nfa, s, t)
        assert engine.count() == 2 ** 5
        assert engine.lam == 5

    def test_label_soup_without_noise_is_diamond_chain(self):
        from repro.workloads.worstcase import label_soup

        graph, nfa, s, t = label_soup(
            4, parallel=3, extra_labels=0, noise_out=5
        )
        assert graph.label_count == 1
        assert graph.edge_count == 4 * 3  # noise needs noise labels
        engine = DistinctShortestWalks(graph, nfa, s, t)
        assert engine.count() == 3 ** 4


class TestQueryCatalog:
    @pytest.mark.parametrize("name", sorted(QUERY_CATALOG))
    def test_every_query_parses(self, name):
        assert regex_to_nfa(QUERY_CATALOG[name]).n_states >= 1

    def test_example9_entry_matches(self):
        assert QUERY_CATALOG["example9"] == example9_query


class TestTransportNetwork:
    def test_structure(self):
        from repro.workloads.transport import transport_network

        graph = transport_network(10, seed=1)
        assert graph.vertex_count == 10
        # Ring: 2 ground modes × 2 directions × 10 pairs = 40 edges,
        # plus hub flights.
        assert graph.edge_count >= 40
        assert set(graph.alphabet) == {"train", "bus", "flight"}
        assert graph.has_costs

    def test_costs_positive_and_in_range(self):
        from repro.workloads.transport import (
            DEFAULT_MODE_COSTS,
            transport_network,
        )

        graph = transport_network(8, seed=2)
        for e in graph.edges():
            (label,) = graph.label_names_of(e)
            lo, hi = DEFAULT_MODE_COSTS[label]
            assert lo <= graph.cost(e) <= hi

    def test_deterministic_by_seed(self):
        from repro.workloads.transport import transport_network

        a = transport_network(12, seed=7)
        b = transport_network(12, seed=7)
        assert a.edge_count == b.edge_count
        assert [a.cost(e) for e in a.edges()] == [
            b.cost(e) for e in b.edges()
        ]

    def test_ring_guarantees_connectivity(self):
        from repro.core.cheapest import DistinctCheapestWalks
        from repro.workloads.transport import (
            antipodal_pair,
            transport_network,
        )
        from repro.automata import regex_to_nfa

        graph = transport_network(9, seed=3)
        src, tgt = antipodal_pair(graph)
        engine = DistinctCheapestWalks(
            graph, regex_to_nfa("(train | bus | flight)+"), src, tgt
        )
        assert engine.cheapest_cost is not None

    def test_policies_answerable(self):
        from repro.core.cheapest import DistinctCheapestWalks
        from repro.workloads.transport import (
            TRANSPORT_QUERIES,
            antipodal_pair,
            transport_network,
        )
        from repro.automata import regex_to_nfa

        graph = transport_network(10, seed=4)
        src, tgt = antipodal_pair(graph)
        costs = {}
        for name, expr in TRANSPORT_QUERIES.items():
            engine = DistinctCheapestWalks(
                graph, regex_to_nfa(expr), src, tgt
            )
            costs[name] = engine.cheapest_cost
        # Ground-only always answerable (the ring); constraining can
        # only raise the optimum.
        assert costs["ground_only"] is not None
        assert costs["anything"] <= costs["ground_only"]
        assert costs["anything"] <= costs["no_bus"]

    def test_validation(self):
        import pytest

        from repro.exceptions import GraphError
        from repro.workloads.transport import transport_network

        with pytest.raises(GraphError):
            transport_network(1)
        with pytest.raises(GraphError):
            transport_network(5, hub_fraction=1.5)
        with pytest.raises(GraphError):
            transport_network(5, mode_costs={"train": (0, 10)})
