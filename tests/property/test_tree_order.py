"""Properties of the backward-search tree T (Definitions 12 and 14).

The paper fixes not only *which* walks are returned but *in which
order*: children of a tree node are ordered by the ``TgtIdx`` of their
first edge (Definition 12, item 4), so the DFS emits answers in
lexicographic order of their reversed ``TgtIdx`` sequences.  These
tests pin that order — it is part of the spec the memoryless variant
(Theorem 18) relies on to resume — plus the certificate-set invariants
of Definition 14 / Lemma 22.
"""

from hypothesis import given, settings

from repro.core.engine import DistinctShortestWalks
from repro.workloads.fraud import example9_automaton, example9_graph

from tests.conftest import mode_walks, small_instances


def _reversed_tgt_idx(graph, walk):
    """The DFS sort key of an answer: TgtIdx from the target backwards."""
    return tuple(graph.tgt_idx(e) for e in reversed(walk.edges))


class TestEnumerationOrder:
    def test_example9_order_is_the_papers(self):
        """Children sorted by TgtIdx ⇒ w4, w1, w2, w3 for Example 9."""
        graph = example9_graph()
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        keys = [_reversed_tgt_idx(graph, w) for w in engine.enumerate()]
        assert keys == sorted(keys)

    @given(small_instances())
    @settings(max_examples=80, deadline=None)
    def test_answers_sorted_by_reversed_tgt_idx(self, instance):
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        keys = [_reversed_tgt_idx(graph, w) for w in engine.enumerate()]
        assert keys == sorted(keys)
        # Keys are unique: no walk is emitted twice, and two distinct
        # answers cannot share a key (same length, same TgtIdx at every
        # position ⇒ same edges — Remark 13).
        assert len(keys) == len(set(keys))

    @given(small_instances(allow_epsilon=True))
    @settings(max_examples=40, deadline=None)
    def test_order_holds_with_epsilon_queries(self, instance):
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        keys = [_reversed_tgt_idx(graph, w) for w in engine.enumerate()]
        assert keys == sorted(keys)

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_all_modes_emit_the_same_sequence(self, instance):
        graph, nfa, s, t = instance
        sequences = [
            [w.edges for w in mode_walks(graph, nfa, s, t, mode)]
            for mode in ("iterative", "recursive", "memoryless")
        ]
        assert sequences[0] == sequences[1] == sequences[2]


class TestCertificates:
    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_suffix_sharing_matches_definition_12(self, instance):
        """Every proper suffix of an answer is a node of T, i.e. it is
        shared by all answers extending it; the DFS must therefore
        never revisit a suffix it has completed.  Equivalently: in the
        emitted sequence, answers sharing a suffix are contiguous."""
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        answers = [w.edges for w in engine.enumerate()]
        if len(answers) < 2:
            return
        lam = len(answers[0])
        for depth in range(1, lam):
            seen_suffixes = set()
            previous = None
            for edges in answers:
                suffix = edges[-depth:]
                if suffix != previous:
                    assert suffix not in seen_suffixes, (
                        "suffix revisited: DFS left and re-entered a "
                        "subtree of T"
                    )
                    seen_suffixes.add(suffix)
                    previous = suffix

    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_target_states_are_final_and_at_lambda(self, instance):
        """S(⟨t⟩) = final states reached at t at level λ (Definition 14)."""
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        if engine.lam is None:
            return
        ann = engine.annotation
        assert ann.target_states  # Nonempty whenever λ is defined.
        if engine.lam == 0:
            return
        for f in ann.target_states:
            assert f in ann.final
            assert ann.L[t][f] == engine.lam
