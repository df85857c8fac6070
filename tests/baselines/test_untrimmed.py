"""Unit tests for the untrimmed (no-``Trim``) ablation baseline."""

from hypothesis import given, settings

from repro.baselines.untrimmed import UntrimmedStats, enumerate_untrimmed
from repro.core.annotate import annotate
from repro.core.cheapest import DistinctCheapestWalks, cheapest_annotate
from repro.core.compile import compile_epsilon_free
from repro.core.engine import DistinctShortestWalks
from repro.graph.builder import GraphBuilder
from repro.workloads.fraud import example9_automaton, example9_graph
from repro.workloads.worstcase import decoy_indegree, diamond_chain

from tests.conftest import small_instances


def _untrimmed_via_engine(engine, stats=None):
    """Run the ablation enumeration off an engine's annotation."""
    ann = engine.annotation
    return list(
        enumerate_untrimmed(
            engine.graph,
            ann,
            ann.lam,
            engine.target,
            ann.target_states,
            stats=stats,
        )
    )


class TestExample9:
    def test_same_sequence_as_trimmed(self):
        engine = DistinctShortestWalks(
            example9_graph(), example9_automaton(), "Alix", "Bob"
        )
        trimmed_seq = [w.edges for w in engine.enumerate()]
        untrimmed_seq = [w.edges for w in _untrimmed_via_engine(engine)]
        assert untrimmed_seq == trimmed_seq
        assert len(untrimmed_seq) == 4

    def test_stats_counters(self):
        engine = DistinctShortestWalks(
            example9_graph(), example9_automaton(), "Alix", "Bob"
        )
        stats = UntrimmedStats()
        outputs = _untrimmed_via_engine(engine, stats)
        assert stats.outputs == len(outputs) == 4
        # Each answer has λ=3 edges; the tree has one node per suffix.
        assert stats.tree_nodes >= 3 * 4 - 2  # Shared suffixes collapse.
        assert stats.cells_scanned > 0


class TestDecoyScaling:
    def test_decoys_do_not_change_answers(self):
        for decoys in (0, 5, 50):
            graph, nfa, s, t = decoy_indegree(4, parallel=2, decoys=decoys)
            engine = DistinctShortestWalks(graph, nfa, s, t)
            assert engine.count() == 2 ** 4

    def test_untrimmed_scans_grow_with_decoys(self):
        """The factor-d claim of Section 3.2, deterministically."""
        scans = []
        for decoys in (0, 10, 100):
            graph, nfa, s, t = decoy_indegree(4, parallel=2, decoys=decoys)
            engine = DistinctShortestWalks(graph, nfa, s, t)
            stats = UntrimmedStats()
            outputs = _untrimmed_via_engine(engine, stats)
            assert len(outputs) == 2 ** 4
            scans.append(stats.cells_scanned)
        assert scans[0] < scans[1] < scans[2]
        # Scan count is dominated by decoys × tree nodes: superlinear
        # growth from 10 to 100 decoys.
        assert scans[2] > 5 * scans[1]

    def test_trimmed_work_is_decoy_independent(self):
        """Queue sizes (the trimmed enumeration's working set) do not
        grow with the decoy count."""
        items = []
        for decoys in (0, 100):
            graph, nfa, s, t = decoy_indegree(4, parallel=2, decoys=decoys)
            engine = DistinctShortestWalks(graph, nfa, s, t)
            engine.preprocess()
            items.append(engine.trimmed.total_items())
        assert items[0] == items[1]


class TestEdgeCases:
    def test_no_matching_walk(self):
        graph = example9_graph()
        cq = compile_epsilon_free(graph, example9_automaton())
        bob, alix = graph.vertex_id("Bob"), graph.vertex_id("Alix")
        ann = annotate(cq, bob, alix)
        out = list(
            enumerate_untrimmed(graph, ann, ann.lam, alix, ann.target_states)
        )
        assert out == []

    def test_lambda_zero(self):
        from repro.automata import NFA

        graph = example9_graph()
        nfa = NFA(1)
        nfa.add_transition(0, "h", 0)
        nfa.set_initial(0)
        nfa.set_final(0)
        cq = compile_epsilon_free(graph, nfa)
        alix = graph.vertex_id("Alix")
        ann = annotate(cq, alix, alix)
        out = list(
            enumerate_untrimmed(graph, ann, ann.lam, alix, ann.target_states)
        )
        assert len(out) == 1 and out[0].length == 0

    def test_diamond_chain_counts(self):
        graph, nfa, s, t = diamond_chain(5, parallel=3)
        engine = DistinctShortestWalks(graph, nfa, s, t)
        stats = UntrimmedStats()
        outputs = _untrimmed_via_engine(engine, stats)
        assert len(outputs) == 3 ** 5
        assert stats.outputs == 3 ** 5


class TestCheapestVariant:
    def test_cost_budget_enumeration(self):
        builder = GraphBuilder()
        builder.add_edge("a", "b", ["x"], cost=2)
        builder.add_edge("a", "b", ["x"], cost=2)
        builder.add_edge("b", "c", ["x"], cost=3)
        builder.add_edge("a", "c", ["x"], cost=6)
        graph = builder.build()
        from repro.automata import regex_to_nfa

        nfa = regex_to_nfa("x | x x")
        cheap = DistinctCheapestWalks(graph, nfa, "a", "c")
        expected = sorted(w.edges for w in cheap.enumerate())

        cq = compile_epsilon_free(graph, nfa)
        a, c = graph.vertex_id("a"), graph.vertex_id("c")
        ann = cheapest_annotate(cq, a, c)
        cost_arr = graph.cost_array
        got = sorted(
            w.edges
            for w in enumerate_untrimmed(
                graph,
                ann,
                ann.lam,
                c,
                ann.target_states,
                cost_of=lambda e: cost_arr[e],
            )
        )
        assert got == expected
        assert len(got) == 2  # Both a->b edges, then b->c; a->c too dear.


class TestProperties:
    @given(small_instances())
    @settings(max_examples=80, deadline=None)
    def test_sequence_matches_trimmed(self, instance):
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        trimmed_seq = [w.edges for w in engine.enumerate()]
        if engine.lam is None:
            assert trimmed_seq == []
            return
        untrimmed_seq = [w.edges for w in _untrimmed_via_engine(engine)]
        assert untrimmed_seq == trimmed_seq

    @given(small_instances(allow_epsilon=True))
    @settings(max_examples=40, deadline=None)
    def test_sequence_matches_with_epsilon(self, instance):
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        trimmed_seq = [w.edges for w in engine.enumerate()]
        if engine.lam is None:
            return
        untrimmed_seq = [w.edges for w in _untrimmed_via_engine(engine)]
        assert untrimmed_seq == trimmed_seq
