"""Cross-validation against networkx as an *independent* oracle.

All in-repo baselines share this library's graph substrate; networkx
shares nothing.  On graphs without parallel edges and with an
accept-everything query, Distinct Shortest Walks degenerates to
classical all-shortest-paths — which networkx implements — so the two
must agree exactly:

* unit costs → ``nx.all_shortest_paths``;
* positive integer costs → ``nx.all_shortest_paths(weight=...)``.

Parallel edges are excluded on purpose: networkx enumerates *node*
paths while the paper enumerates *walks* (paper Example 9: two
parallel transfers are two answers), so the comparison is only
meaningful when the notions coincide.
"""

import random

import networkx as nx
import pytest

from repro.automata.nfa import NFA
from repro.baselines.paper_pipeline import (
    cheapest_annotate_reference,
    enumerate_walks_recursive,
    trim_maps,
)
from repro.core.cheapest import DistinctCheapestWalks
from repro.core.compile import compile_query
from repro.core.engine import DistinctShortestWalks
from repro.graph.builder import GraphBuilder


def _accept_all(labels=("a",)) -> NFA:
    nfa = NFA(1)
    for a in labels:
        nfa.add_transition(0, a, 0)
    nfa.set_initial(0)
    nfa.set_final(0)
    return nfa


def _random_simple_digraph(seed: int, n: int, density: float):
    """A simple digraph in both representations (no parallel edges)."""
    rng = random.Random(seed)
    builder = GraphBuilder()
    nxg = nx.DiGraph()
    for i in range(n):
        builder.add_vertex(i)
        nxg.add_node(i)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                cost = rng.randint(1, 9)
                builder.add_edge(u, v, ["a"], cost=cost)
                nxg.add_edge(u, v, weight=cost)
    return builder.build(), nxg


def _node_paths(walks):
    return sorted(tuple(w.vertices()) for w in walks)


class TestUnitCosts:
    @pytest.mark.parametrize("seed", range(15))
    def test_all_shortest_paths_agree(self, seed):
        graph, nxg = _random_simple_digraph(seed, n=9, density=0.25)
        source, target = 0, 8
        engine = DistinctShortestWalks(graph, _accept_all(), source, target)
        ours = _node_paths(engine.enumerate())
        try:
            reference = sorted(
                tuple(p) for p in nx.all_shortest_paths(nxg, source, target)
            )
        except nx.NetworkXNoPath:
            reference = []
        assert ours == reference

    @pytest.mark.parametrize("seed", range(8))
    def test_lambda_matches_nx_distance(self, seed):
        graph, nxg = _random_simple_digraph(seed + 100, n=10, density=0.2)
        engine = DistinctShortestWalks(graph, _accept_all(), 0, 9)
        if engine.lam is None:
            assert not nx.has_path(nxg, 0, 9)
        else:
            assert engine.lam == nx.shortest_path_length(nxg, 0, 9)


class TestWeightedCosts:
    @pytest.mark.parametrize("seed", range(15))
    def test_all_cheapest_paths_agree(self, seed):
        graph, nxg = _random_simple_digraph(seed + 500, n=9, density=0.25)
        source, target = 0, 8
        engine = DistinctCheapestWalks(graph, _accept_all(), source, target)
        ours = _node_paths(engine.enumerate())
        try:
            reference = sorted(
                tuple(p)
                for p in nx.all_shortest_paths(
                    nxg, source, target, weight="weight"
                )
            )
        except nx.NetworkXNoPath:
            reference = []
        assert ours == reference
        if ours:
            assert engine.cheapest_cost == nx.shortest_path_length(
                nxg, source, target, weight="weight"
            )

    @pytest.mark.parametrize("heap", ["binary", "pairing"])
    def test_both_heaps_match_nx(self, heap):
        """Both arms live on the oracle; each is held to networkx and
        to the production engine (which has the binary queue only)."""
        graph, nxg = _random_simple_digraph(4242, n=12, density=0.3)
        nfa = _accept_all()
        ann = cheapest_annotate_reference(
            compile_query(graph, nfa), 0, 11, heap=heap
        )
        walks = list(
            enumerate_walks_recursive(
                graph, trim_maps(graph, ann), ann.lam, 11,
                ann.target_states, cost_of=graph.cost,
            )
        )
        engine = DistinctCheapestWalks(graph, nfa, 0, 11)
        assert [w.edges for w in walks] == [
            w.edges for w in engine.enumerate()
        ]
        reference = sorted(
            tuple(p)
            for p in nx.all_shortest_paths(nxg, 0, 11, weight="weight")
        )
        assert _node_paths(walks) == reference


class TestMultiTarget:
    def test_sweep_matches_nx_single_source(self):
        from repro.core.multi_target import MultiTargetShortestWalks

        graph, nxg = _random_simple_digraph(77, n=12, density=0.25)
        sweep = MultiTargetShortestWalks(graph, _accept_all(), 0)
        lengths = nx.single_source_shortest_path_length(nxg, 0)
        reached = set(sweep.reached_targets())
        # Accept-all matches ε, so the source itself is reached (λ=0),
        # mirroring networkx's distance-0 entry for the source.
        assert reached == set(lengths)
        for t in reached:
            assert sweep.lam_for(t) == lengths[t]
