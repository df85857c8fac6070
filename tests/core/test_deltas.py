"""Unit tests for delta-encoded enumeration (Section 6 extension)."""

import pytest
from hypothesis import given, settings

from repro.baselines.deltas import (
    WalkDelta,
    delta_decode,
    delta_encode,
    stream_sizes,
)
from repro.core.engine import DistinctShortestWalks
from repro.exceptions import GraphError
from repro.workloads.fraud import example9_automaton, example9_graph
from repro.workloads.worstcase import diamond_chain

from tests.conftest import small_instances


class TestRoundtrip:
    def test_example9(self):
        graph = example9_graph()
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        original = [w.edges for w in engine.enumerate()]
        deltas = list(delta_encode(engine.enumerate()))
        decoded = [w.edges for w in delta_decode(graph, deltas)]
        assert decoded == original

    def test_first_record_is_complete(self):
        graph = example9_graph()
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        first = next(iter(delta_encode(engine.enumerate())))
        assert first.shared_suffix == 0
        assert len(first.prefix_edges) == 3

    def test_consecutive_walks_share_suffixes(self):
        """DFS order ⇒ deep sharing: on a diamond chain the second
        answer differs from the first in exactly one edge."""
        graph, nfa, s, t = diamond_chain(8, parallel=2)
        engine = DistinctShortestWalks(graph, nfa, s, t)
        deltas = list(delta_encode(engine.enumerate()))
        assert deltas[1].shared_suffix == 7
        assert len(deltas[1].prefix_edges) == 1

    def test_compression_ratio(self):
        """Amortized delta size ≈ 2 symbols vs λ for full output."""
        k = 10
        graph, nfa, s, t = diamond_chain(k, parallel=2)
        engine = DistinctShortestWalks(graph, nfa, s, t)
        records, symbols = stream_sizes(delta_encode(engine.enumerate()))
        assert records == 2 ** k
        full_symbols = records * k
        assert symbols < full_symbols / 3

    def test_lambda_zero_walk(self):
        from repro.automata import NFA

        graph = example9_graph()
        nfa = NFA(1)
        nfa.add_transition(0, "h", 0)
        nfa.set_initial(0)
        nfa.set_final(0)
        alix = graph.vertex_id("Alix")
        engine = DistinctShortestWalks(graph, nfa, alix, alix)
        deltas = list(delta_encode(engine.enumerate()))
        decoded = list(delta_decode(graph, deltas, target=alix))
        assert len(decoded) == 1 and decoded[0].length == 0


class TestDecoderValidation:
    def test_first_record_must_be_complete(self):
        graph = example9_graph()
        with pytest.raises(GraphError):
            list(delta_decode(graph, [WalkDelta(2, (0,))]))

    def test_overlong_suffix_rejected(self):
        graph = example9_graph()
        deltas = [WalkDelta(0, (2,)), WalkDelta(5, ())]
        with pytest.raises(GraphError):
            list(delta_decode(graph, deltas))

    def test_empty_walk_needs_target(self):
        graph = example9_graph()
        with pytest.raises(GraphError):
            list(delta_decode(graph, [WalkDelta(0, ())]))

    def test_record_size(self):
        assert WalkDelta(3, (1, 2)).size == 3


class TestProperties:
    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_on_random_instances(self, instance):
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        original = [w.edges for w in engine.enumerate()]
        deltas = list(delta_encode(engine.enumerate()))
        decoded = [
            w.edges for w in delta_decode(graph, deltas, target=t)
        ]
        assert decoded == original

    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_deltas_never_larger_than_full(self, instance):
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        walks = list(engine.enumerate())
        if not walks:
            return
        records, symbols = stream_sizes(delta_encode(iter(walks)))
        full = sum(len(w.edges) for w in walks) + records
        assert symbols <= full
