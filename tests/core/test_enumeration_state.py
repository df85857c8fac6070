"""Tests for the shared-cursor interleaving guard.

The trimmed annotation's queues are shared mutable state; two
enumerations interleaved over them would skip or repeat answers
silently.  The enumerators acquire the structure while active and the
guard raises :class:`~repro.exceptions.EnumerationStateError` instead
of corrupting results.  The memoryless mode is read-only and exempt.
"""

import pytest

from repro.core.engine import DistinctShortestWalks
from repro.core.enumerate import enumerate_walks
from repro.exceptions import EnumerationStateError
from repro.workloads.fraud import example9_automaton, example9_graph


def _engine(mode: str = "iterative") -> DistinctShortestWalks:
    return DistinctShortestWalks(
        example9_graph(), example9_automaton(), "Alix", "Bob", mode=mode
    )


class TestInterleavingGuard:
    def test_interleaved_enumerations_raise(self):
        engine = _engine()
        first = engine.enumerate()
        next(first)  # First enumeration is now active.
        second = engine.enumerate()
        with pytest.raises(EnumerationStateError, match="already running"):
            next(second)
        first.close()

    def test_sequential_enumerations_fine(self):
        engine = _engine()
        a = [w.edges for w in engine.enumerate()]
        b = [w.edges for w in engine.enumerate()]
        assert a == b and len(a) == 4

    def test_closing_releases_the_structure(self):
        engine = _engine()
        first = engine.enumerate()
        next(first)
        first.close()  # Abandon mid-way: cursors restored, lock freed.
        assert [w.edges for w in engine.enumerate()] != []

    def test_exhaustion_releases_the_structure(self):
        engine = _engine()
        assert len(list(engine.enumerate())) == 4
        assert len(list(engine.enumerate())) == 4

    def test_first_k_releases_the_structure(self):
        engine = _engine()
        assert len(engine.first(2)) == 2
        assert len(engine.first(3)) == 3

    def test_snapshots_interleave_freely(self):
        """Each ``snapshot()`` owns its cursor array over the shared
        cells, so two eager enumerations may interleave — one per
        snapshot — and neither trips the guard nor skips an answer."""
        engine = _engine()
        ann, trimmed = engine.annotation, engine.trimmed
        expected = [w.edges for w in engine.enumerate()]

        def run(structure):
            return enumerate_walks(
                engine.graph, structure, ann.lam, engine.target,
                ann.target_states,
            )

        first, second = run(trimmed.snapshot()), run(trimmed.snapshot())
        got_first, got_second = [next(first).edges], [next(second).edges]
        got_first += [w.edges for w in first]
        got_second += [w.edges for w in second]
        assert got_first == got_second == expected

    def test_tracked_multiplicity_guarded(self):
        engine = _engine()
        first = engine.enumerate_with_multiplicity(method="tracked")
        next(first)
        with pytest.raises(EnumerationStateError):
            next(engine.enumerate_with_multiplicity(method="tracked"))
        first.close()

    def test_memoryless_mode_interleaves_freely(self):
        """ResumableTrim is read-only: Theorem 18's whole point."""
        engine = _engine(mode="memoryless")
        first = engine.enumerate()
        second = engine.enumerate()
        a1 = next(first)
        b1 = next(second)
        a2 = next(first)
        assert a1.edges == b1.edges
        assert a2.edges != a1.edges
        rest_first = [w.edges for w in first]
        rest_second = [w.edges for w in second]
        assert rest_second == [a2.edges] + rest_first
