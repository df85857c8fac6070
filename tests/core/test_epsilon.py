"""ε-transition handling — including the regression that motivated
compile-time ε-closure.

The paper's Section 5.1 eliminates ε on the fly inside ``Annotate``
(``PossiblyVisit``).  Transcribed literally, predecessor entries are
propagated to ε-successors only on *first visits* of the direct target
state; the test
:func:`TestPossiblyVisitCounterexample.test_literal_transcription_drops_answers`
documents the instance where that loses answers — on the oracle's
transcription, the only ε-native traversal left — and the remaining
tests pin the behaviour of the fix: ε-closed compiled transitions, and
every :mod:`repro.core` entry point refusing a compile that kept ε.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database
from repro.automata import EPSILON, NFA, regex_to_nfa, remove_epsilon
from repro.baselines.oracle import oracle_answer_set
from repro.baselines.paper_pipeline import (
    annotate_reference,
    enumerate_walks_recursive,
    trim_maps,
)
from repro.core.annotate import annotate
from repro.core.cheapest import cheapest_annotate
from repro.core.compile import compile_query
from repro.core.count import (
    count_shortest_product_paths,
    count_total_multiplicity,
)
from repro.core.engine import DistinctShortestWalks
from repro.core.multiplicity import run_counter
from repro.core.restricted import fallback_walks, restricted_lam
from repro.exceptions import QueryError
from repro.graph import GraphBuilder
from repro.service import QueryRequest, QueryService
from repro.workloads.fraud import example9_graph

from tests.conftest import small_graphs, small_nfas


class TestThompsonQueries:
    def test_example9_via_thompson(self):
        """The regression: ε-NFA compiled queries must find all four
        answers (the literal PossiblyVisit transcription found two)."""
        graph = example9_graph()
        nfa = regex_to_nfa("h* s (h | s)*")  # Thompson: ε-transitions.
        assert nfa.has_epsilon
        engine = DistinctShortestWalks(graph, nfa, "Alix", "Bob")
        assert engine.count() == 4

    def test_same_set_as_eliminated(self):
        graph = example9_graph()
        nfa = regex_to_nfa("h* s (h | s)*")
        with_eps = sorted(
            w.edges
            for w in DistinctShortestWalks(graph, nfa, "Alix", "Bob")
        )
        without = sorted(
            w.edges
            for w in DistinctShortestWalks(
                graph, remove_epsilon(nfa), "Alix", "Bob"
            )
        )
        assert with_eps == without


class TestPossiblyVisitCounterexample:
    """The concrete failure mode of the literal Section 5.1 pseudocode.

    Two edges reach the same direct target state at the same BFS level;
    the ε-successor (the only final state) records predecessors for the
    first edge only, so the root certificate S ∩ F can never reach the
    second edge's subtree.
    """

    @staticmethod
    def _instance():
        b = GraphBuilder()
        # Two parallel length-2 routes x -> m1/m2 -> y.
        b.add_edge("x", "m1", ["a"])
        b.add_edge("x", "m2", ["a"])
        b.add_edge("m1", "y", ["b"])
        b.add_edge("m2", "y", ["b"])
        graph = b.build()
        # a b, with the accepting state reachable only via ε.
        nfa = NFA(4)
        nfa.add_transition(0, "a", 1)
        nfa.add_transition(1, "b", 2)
        nfa.add_transition(2, EPSILON, 3)
        nfa.set_initial(0)
        nfa.set_final(3)
        return graph, nfa

    def test_fixed_pipeline_finds_both(self):
        graph, nfa = self._instance()
        engine = DistinctShortestWalks(graph, nfa, "x", "y")
        assert engine.count() == 2

    def test_every_tier_finds_both(self):
        """The string tiers reach the same failure mode with ``a b c?``:
        no edge carries ``c``, so Thompson's final state is entered by
        ε only — and the literal transcription finds one walk."""
        graph, _ = self._instance()
        nfa = regex_to_nfa("a b c?")
        kept = compile_query(graph, nfa, eliminate_epsilon=False)
        ann = annotate_reference(kept, 0, 3)
        assert len(ann.B[3][min(nfa.final)]) == 1
        assert DistinctShortestWalks(graph, nfa, "x", "y").count() == 2
        rows = Database(graph).query("a b c?").from_("x").to("y").run().all()
        assert len(rows) == 2
        service = QueryService()
        service.register_graph("g", graph)
        response = service.execute(QueryRequest("a b c?", "x", "y"))
        assert len(response.walks) == 2

    def test_injected_epsilon_kept_compile_is_refused(self):
        """It used to run the literal transcription below and return
        one of the two answers without a word."""
        graph, nfa = self._instance()
        kept = compile_query(graph, nfa, eliminate_epsilon=False)
        with pytest.raises(QueryError, match="ε-free"):
            DistinctShortestWalks(graph, nfa, "x", "y", compiled=kept)

    def test_literal_transcription_drops_answers(self):
        """Direct demonstration: run the oracle's Annotate on the *raw*
        ε tables (eliminate_epsilon=False), i.e. the paper's
        PossiblyVisit, and observe the missing predecessor entry."""
        graph, nfa = self._instance()
        cq = compile_query(graph, nfa, eliminate_epsilon=False)
        assert cq.has_eps
        s, t = graph.vertex_id("x"), graph.vertex_id("y")
        ann = annotate_reference(cq, s, t)
        walks = list(
            enumerate_walks_recursive(
                graph, trim_maps(graph, ann), ann.lam, t, ann.target_states
            )
        )
        # The literal transcription loses one of the two answers: state
        # 3 (the only final state) has a B entry for just one of the
        # two incoming edges.
        assert len(walks) == 1
        b_final = ann.B[t].get(3, {})
        assert len(b_final) == 1  # One cell instead of two.


#: Every ``repro.core`` function that is handed a compiled query, as a
#: call on ``(graph, ε-kept cq)`` with source x = 0 and target y = 3
#: (a generator is drained: it checks on its first ``next``).
_CORE_ENTRY_POINTS = {
    "annotate": lambda g, cq: annotate(cq, 0, 3),
    "cheapest_annotate": lambda g, cq: cheapest_annotate(cq, 0, 3),
    "restricted_lam": lambda g, cq: restricted_lam(
        g, cq, 0, 3, 2, "trails", lambda: iter(())
    ),
    "fallback_walks": lambda g, cq: fallback_walks(g, cq, 0, 3, "trails", 2),
    "count_shortest_product_paths": lambda g, cq: (
        count_shortest_product_paths(cq, 0, 3)
    ),
    "count_total_multiplicity": lambda g, cq: (
        count_total_multiplicity(cq, 0, 3)
    ),
    "run_counter": lambda g, cq: run_counter(cq)((0, 2)),
}


@pytest.mark.parametrize("name", sorted(_CORE_ENTRY_POINTS))
def test_core_refuses_an_epsilon_kept_compile(name):
    """One traversal family: no core function runs on raw ε tables —
    it raises instead of returning a short answer set."""
    graph, nfa = TestPossiblyVisitCounterexample._instance()
    assert graph.vertex_id("x") == 0 and graph.vertex_id("y") == 3
    kept = compile_query(graph, nfa, eliminate_epsilon=False)
    with pytest.raises(QueryError, match="ε-free"):
        _CORE_ENTRY_POINTS[name](graph, kept)


class TestEpsilonEdgeCases:
    def test_epsilon_only_query_trivial_walk(self):
        graph = example9_graph()
        nfa = NFA(2)
        nfa.add_transition(0, EPSILON, 1)
        nfa.set_initial(0)
        nfa.set_final(1)
        engine = DistinctShortestWalks(graph, nfa, "Alix", "Alix")
        walks = list(engine.enumerate())
        assert engine.lam == 0
        assert len(walks) == 1 and walks[0].length == 0

    def test_epsilon_cycle(self):
        graph = example9_graph()
        nfa = NFA(3)
        nfa.add_transition(0, EPSILON, 1)
        nfa.add_transition(1, EPSILON, 0)
        nfa.add_transition(1, "h", 2)
        nfa.set_initial(0)
        nfa.set_final(2)
        engine = DistinctShortestWalks(graph, nfa, "Alix", "Cassie")
        assert engine.lam == 1

    def test_optional_prefix_query(self):
        graph = example9_graph()
        engine = DistinctShortestWalks(graph, "h? s", "Alix", "Cassie")
        # Alix -e2(h,s)-> Dan? No: target Cassie.  s-only path:
        # Alix -e2-> Dan (s) ... e3 (s): h? s matches ⟨e2,e3⟩ via (h,s)?
        # h then s: yes, length 2.  Also s alone: no direct s-edge
        # Alix->Cassie (e1 is h-only), so λ=2.
        assert engine.lam == 2

    @given(
        small_graphs(),
        small_nfas(allow_epsilon=True),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_epsilon_instances_match_oracle(self, graph, nfa, si, ti):
        s = si % graph.vertex_count
        t = ti % graph.vertex_count
        engine = DistinctShortestWalks(graph, nfa, s, t)
        got = sorted(w.edges for w in engine.enumerate())
        assert got == oracle_answer_set(graph, nfa, s, t)
