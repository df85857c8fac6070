"""Unit tests for the engine orchestration (``Main``)."""

import pytest
from hypothesis import given, settings

from repro.api import Database
from repro.core.engine import DistinctShortestWalks
from repro.exceptions import QueryError
from repro.workloads.fraud import (
    example9_automaton,
    example9_graph,
    example9_query,
)

from tests.conftest import mode_walks, one_seek_per_output, small_instances


@pytest.fixture
def graph():
    return example9_graph()


class TestModes:
    @pytest.mark.parametrize("mode", ["iterative", "recursive", "memoryless"])
    def test_general_modes_agree(self, graph, mode):
        reference = [
            w.edges
            for w in DistinctShortestWalks(
                graph, example9_automaton(), "Alix", "Bob"
            ).enumerate()
        ]
        got = [
            w.edges
            for w in mode_walks(
                graph, example9_automaton(), "Alix", "Bob", mode
            )
        ]
        assert got == reference

    @pytest.mark.parametrize("mode", ["warp", "recursive"])
    def test_unknown_mode_rejected(self, graph, mode):
        """The engine has no mode axis at all; the façade's inert
        vocabulary still refuses a name outside it."""
        with pytest.raises(TypeError):
            DistinctShortestWalks(
                graph, example9_automaton(), "Alix", "Bob", mode=mode
            )
        with pytest.raises(QueryError, match="unknown mode"):
            Database(graph).query(example9_query).mode(mode)

    def test_auto_mode_on_multilabel_uses_general(self, graph):
        """``auto`` at the façade runs the general engine on a
        multi-labelled graph."""
        rows = (
            Database(graph).query(example9_query).from_("Alix").to("Bob")
            .mode("auto").run().all()
        )
        assert len(rows) == 4

    def test_auto_mode_is_iterative_in_the_simple_setting(self):
        """Single-labeled graph × DFA: the façade's ``auto`` is the
        engine's one DFS — same sequence, order included."""
        from repro.automata import parse_rpq
        from repro.baselines import glushkov_nfa
        from repro.core.compile import compile_query
        from repro.graph.generators import grid
        from repro.query.plan import simple_eligible

        g = grid(3, 3)
        expression = "(r | d) (r | d) (r | d) (r | d)"
        dfa = glushkov_nfa(parse_rpq(expression))
        assert simple_eligible(g, dfa)
        engine = DistinctShortestWalks(
            g, dfa, "n0_0", "n2_2", compiled=compile_query(g, dfa)
        )
        auto = (
            Database(g).query(expression)
            .from_("n0_0").to("n2_2").mode("auto").run()
        )
        assert auto.lam == engine.lam == 4
        sequence = [row.walk.edges for row in auto]
        assert len(sequence) == 6  # C(4, 2)
        assert sequence == [w.edges for w in engine.enumerate()]


class TestQueryInputs:
    def test_string_query(self, graph):
        engine = DistinctShortestWalks(graph, "h* s (h | s)*", "Alix", "Bob")
        assert engine.count() == 4

    def test_ast_query(self, graph):
        from repro.automata import parse_rpq

        engine = DistinctShortestWalks(
            graph, parse_rpq("h* s (h | s)*"), "Alix", "Bob"
        )
        assert engine.count() == 4

    def test_vertex_ids_accepted(self, graph):
        engine = DistinctShortestWalks(
            graph,
            example9_automaton(),
            graph.vertex_id("Alix"),
            graph.vertex_id("Bob"),
        )
        assert engine.count() == 4


class TestLifecycle:
    def test_preprocess_idempotent(self, graph):
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        engine.preprocess()
        first_timings = dict(engine.timings)
        engine.preprocess()
        assert engine.timings == first_timings

    def test_timings_recorded(self, graph):
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        engine.preprocess()
        assert set(engine.timings) >= {"compile", "annotate", "trim", "total"}

    def test_lam_and_is_empty(self, graph):
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        assert engine.lam == 3
        assert not engine.is_empty
        empty = DistinctShortestWalks(
            graph, example9_automaton(), "Bob", "Alix"
        )
        assert empty.lam is None
        assert empty.is_empty
        assert list(empty.enumerate()) == []

    def test_iter_protocol(self, graph):
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        assert len(list(engine)) == 4

    def test_first_k(self, graph):
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        two = engine.first(2)
        assert len(two) == 2
        # And the engine remains usable afterwards.
        assert engine.count() == 4

    @pytest.mark.parametrize("mode", ["iterative", "memoryless"])
    def test_first_k_is_a_prefix_for_every_k(self, graph, mode):
        """``first(k)`` is a prefix of the sequence read straight
        through, or one fresh stream per output."""
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        walks = (
            engine.enumerate() if mode == "iterative"
            else one_seek_per_output(engine.enumerate)
        )
        answers = [w.edges for w in walks]
        assert len(answers) == 4
        assert engine.first(0) == []
        for k in range(len(answers) + 2):
            assert [w.edges for w in engine.first(k)] == answers[:k]
        with pytest.raises(QueryError, match="non-negative"):
            engine.first(-1)

    @pytest.mark.parametrize("k", [True, False, 2.5, 2.0, "2", None])
    def test_first_refuses_a_bool_or_non_int_k(self, graph, k):
        """``first`` takes ``k`` by the façade's ``limit`` rule: a
        ``bool`` is not a count, and a float or a string is the typed
        error, not a bare ``ValueError`` from ``islice``."""
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        with pytest.raises(QueryError, match="non-negative int"):
            engine.first(k)

    def test_repeated_enumerations(self, graph):
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        assert [w.edges for w in engine.enumerate()] == [
            w.edges for w in engine.enumerate()
        ]

    def test_structure_sizes(self, graph):
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        sizes = engine.structure_sizes()
        assert sizes["annotation_entries"] > 0
        assert sizes["trimmed_items"] > 0

    def test_auto_mode_exposes_annotation_and_trimmed(self):
        from repro.automata import parse_rpq
        from repro.baselines import glushkov_nfa
        from repro.graph.generators import grid

        engine = DistinctShortestWalks(
            grid(2, 2),
            glushkov_nfa(parse_rpq("r d")),
            "n0_0",
            "n1_1",
        )
        assert engine.annotation.lam == 2
        assert engine.trimmed.total_items() > 0
        assert engine.count() == len(list(engine.enumerate())) == 1

    def test_integer_vertex_names(self):
        """resolve_vertex prefers names over ids, so every engine must
        be handed the caller's original designators — already-resolved
        ids would swap vertices on a graph whose vertex *names* are
        integers (regression; also run against the simple-setting
        baseline, where it was first seen)."""
        from repro.automata import parse_rpq
        from repro.baselines import SimpleShortestWalks, glushkov_nfa
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder()
        builder.add_vertex(1)
        builder.add_vertex(0)
        builder.add_edge(1, 0, ["a"])
        graph = builder.build()
        nfa = glushkov_nfa(parse_rpq("a"))
        for engine in (
            SimpleShortestWalks(graph, nfa, 1, 0),
            DistinctShortestWalks(graph, nfa, 1, 0),
        ):
            assert engine.lam == 1
            assert [w.edges for w in engine.enumerate()] == [(0,)]


class TestFunctionalFacade:
    def test_distinct_shortest_walks(self, graph):
        """The façade returns the engine's walks, in its order."""
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        rows = (
            Database(graph).query(example9_query)
            .from_("Alix").to("Bob").run().all()
        )
        assert [r.walk.edges for r in rows] == [
            w.edges for w in engine.enumerate()
        ]
        assert len(rows) == 4


class TestProperties:
    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_all_modes_same_sequence(self, instance):
        graph, nfa, s, t = instance
        sequences = [
            [w.edges for w in mode_walks(graph, nfa, s, t, mode)]
            for mode in ("iterative", "recursive", "memoryless")
        ]
        assert sequences[0] == sequences[1] == sequences[2]
