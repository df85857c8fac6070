"""Unit tests for the memoryless enumeration (Theorem 18).

``NextOutput`` is the one seekable DFS resumed after the previous
output: ``enumerate_walks(..., resume_after=w)`` from a fresh generator,
over the same read-only cell store ``Trim`` built.
"""

from functools import partial

import pytest
from hypothesis import given, settings

from repro.core.annotate import annotate
from repro.core.compile import compile_query
from repro.core.enumerate import enumerate_walks
from repro.core.trim import trim
from repro.exceptions import QueryError
from repro.workloads.fraud import example9_automaton, example9_graph

from tests.conftest import one_seek_per_output, small_instances


def _setup(graph, nfa, s, t):
    """``(annotation, enumerate_walks' positional arguments)``."""
    ann = annotate(compile_query(graph, nfa), s, t)
    return ann, (graph, trim(graph, ann), ann.lam, t, ann.target_states)


def _next_output(args, previous=None):
    """The output after ``previous`` (the first for ``None``) from a
    fresh generator, or ``None`` past the last."""
    return next(enumerate_walks(*args, resume_after=previous), None)


def _example9():
    graph = example9_graph()
    return _setup(
        graph, example9_automaton(),
        graph.vertex_id("Alix"), graph.vertex_id("Bob"),
    )


def _store_columns(cells):
    return (
        dict(cells.spans), cells.cell_ti.tolist(), cells.cell_edge.tolist(),
        list(cells.cell_entries), list(cells.certs), cells.entries(),
    )


class TestExample9:
    def test_same_sequence_as_eager(self):
        _, args = _example9()
        eager = [w.edges for w in enumerate_walks(*args)]
        lazy = [
            w.edges
            for w in one_seek_per_output(partial(enumerate_walks, *args))
        ]
        assert lazy == eager

    def test_resume_from_any_output(self):
        """The output after w_i is w_{i+1}, from any starting point —
        the defining property of a memoryless algorithm."""
        _, args = _example9()
        eager = [w.edges for w in enumerate_walks(*args)]
        for i, current in enumerate(eager):
            successor = _next_output(args, current)
            if i + 1 < len(eager):
                assert successor is not None
                assert successor.edges == eager[i + 1]
            else:
                assert successor is None

    def test_first_output(self):
        _, args = _example9()
        first = _next_output(args, None)
        eager = next(iter(enumerate_walks(*args)))
        assert first.edges == eager.edges

    def test_structure_never_mutated(self):
        """Resuming must not change the shared cell store (it is
        read-only by design): same call, same result, same columns."""
        _, args = _example9()
        before = _store_columns(args[1])
        w = _next_output(args)
        # Same call twice: same result (no hidden cursor state).
        w2 = _next_output(args)
        assert w.edges == w2.edges
        for walk in list(enumerate_walks(*args)):
            _next_output(args, walk.edges)
        assert _store_columns(args[1]) == before


class TestEdgeCases:
    def test_empty_answer_set(self):
        graph = example9_graph()
        s, t = graph.vertex_id("Bob"), graph.vertex_id("Alix")
        ann, args = _setup(graph, example9_automaton(), s, t)
        assert ann.lam is None
        assert _next_output(args) is None
        assert list(one_seek_per_output(partial(enumerate_walks, *args))) == []

    def test_lam_zero(self):
        from repro.automata import NFA

        graph = example9_graph()
        nfa = NFA(1)
        nfa.add_transition(0, "h", 0)
        nfa.set_initial(0)
        nfa.set_final(0)
        alix = graph.vertex_id("Alix")
        ann, args = _setup(graph, nfa, alix, alix)
        assert ann.lam == 0
        walks = list(one_seek_per_output(partial(enumerate_walks, *args)))
        assert len(walks) == 1 and walks[0].length == 0
        # The trivial walk has no successor.
        assert _next_output(args, ()) is None

    def test_a_non_output_is_refused(self):
        """A λ-length edge list that was never an output is the typed
        cursor error, not a silent seek to somewhere else."""
        _, args = _example9()
        graph = args[0]
        outputs = {w.edges for w in enumerate_walks(*args)}
        first = min(outputs)
        foreign = next(
            first[:-1] + (e,) for e in graph.edges()
            if first[:-1] + (e,) not in outputs
        )
        with pytest.raises(QueryError, match="does not match any output"):
            _next_output(args, foreign)


class TestProperties:
    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_memoryless_equals_eager(self, instance):
        _, args = _setup(*instance)
        eager = [w.edges for w in enumerate_walks(*args)]
        lazy = [
            w.edges
            for w in one_seek_per_output(partial(enumerate_walks, *args))
        ]
        assert lazy == eager

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_resume_property(self, instance):
        _, args = _setup(*instance)
        eager = [w.edges for w in enumerate_walks(*args)]
        if not eager or eager == [()]:
            return
        for i, current in enumerate(eager):
            successor = _next_output(args, current)
            expected = eager[i + 1] if i + 1 < len(eager) else None
            if expected is None:
                assert successor is None
            else:
                assert successor is not None
                assert successor.edges == expected
