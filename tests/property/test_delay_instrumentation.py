"""Step-counted delay validation on the adversarial workload families.

``tests/property/test_delay_bound.py`` counts queue operations on the
classic instances (diamond chains, duplicate bombs, high in-degree);
here the same Theorem 2 bound — work between two consecutive outputs is
O(λ·|A|) — is enforced on the *label-heavy* adversaries from
:mod:`repro.workloads.worstcase` (``label_soup``, ``decoy_indegree``):
instances engineered so that per-edge label multiplicity and decoy
in-edges would blow up the delay of any implementation that leaks
preprocessing-phase costs into the enumeration phase.

Two instrumentation layers:

* the eager :func:`~repro.core.enumerate.enumerate_walks`, stepped via
  counting proxies around every ``C_u[p]`` queue (peek/advance/restart
  each count as one step);
* the memoryless :func:`~repro.core.memoryless.enumerate_memoryless`
  (Theorem 18 — the mode the query service defaults to), stepped via
  counting proxies around every ``ResumableIndex``
  (first/seek/after/payload each count as one step).

Both are held to ``C · λ · (|Q| + 1)`` steps between outputs, with one
shared small constant and no dependence on label counts, in-degrees,
or the number of decoy edges.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import pytest

from repro.core.annotate import annotate
from repro.core.compile import compile_query
from repro.core.enumerate import enumerate_walks
from repro.core.memoryless import enumerate_memoryless
from repro.core.trim import ResumableAnnotation, resumable_trim, trim
from repro.core.walks import Walk
from repro.datastructures.restartable_queue import RestartableQueue
from repro.workloads.worstcase import decoy_indegree, label_soup

#: Steps allowed between consecutive outputs per unit of λ·(|Q|+1) —
#: same constant as the classic delay-bound suite.
_CONSTANT = 12


class _CountingQueue(RestartableQueue):
    """Queue proxy reporting every cursor operation into a shared cell."""

    __slots__ = ("_counter",)

    def __init__(self, queue: RestartableQueue, counter: Dict[str, int]) -> None:
        super().__init__(list(queue))
        self._counter = counter

    def peek(self):
        self._counter["steps"] += 1
        return super().peek()

    def advance(self) -> None:
        self._counter["steps"] += 1
        super().advance()

    def restart(self) -> None:
        self._counter["steps"] += 1
        super().restart()


class _CountingIndex:
    """ResumableIndex proxy counting every O(1) query."""

    __slots__ = ("_inner", "_counter")

    def __init__(self, inner, counter: Dict[str, int]) -> None:
        self._inner = inner
        self._counter = counter

    def first(self):
        self._counter["steps"] += 1
        return self._inner.first()

    def seek(self, i):
        self._counter["steps"] += 1
        return self._inner.seek(i)

    def after(self, i):
        self._counter["steps"] += 1
        return self._inner.after(i)

    def payload(self, i):
        self._counter["steps"] += 1
        return self._inner.payload(i)

    def __len__(self):
        return len(self._inner)


def _max_steps_between_outputs(
    walks: Iterator[Walk], counter: Dict[str, int]
) -> Tuple[int, int]:
    """(max steps between consecutive outputs, number of outputs)."""
    max_gap = 0
    outputs = 0
    last = 0
    for _ in walks:
        outputs += 1
        max_gap = max(max_gap, counter["steps"] - last)
        last = counter["steps"]
    # Termination work after the final output counts as a gap too.
    max_gap = max(max_gap, counter["steps"] - last)
    return max_gap, outputs


def _measure_eager(graph, nfa, source_name, target_name):
    s, t = graph.vertex_id(source_name), graph.vertex_id(target_name)
    cq = compile_query(graph, nfa)
    ann = annotate(cq, s, t)
    trimmed = trim(graph, ann)
    counter = {"steps": 0}
    for per_vertex in trimmed.queues:
        for state in list(per_vertex):
            per_vertex[state] = _CountingQueue(per_vertex[state], counter)
    walks = enumerate_walks(graph, trimmed, ann.lam, t, ann.target_states)
    max_gap, outputs = _max_steps_between_outputs(walks, counter)
    return ann.lam, cq.n_states, max_gap, outputs


def _measure_memoryless(graph, nfa, source_name, target_name):
    s, t = graph.vertex_id(source_name), graph.vertex_id(target_name)
    cq = compile_query(graph, nfa)
    ann = annotate(cq, s, t)
    counter = {"steps": 0}
    resumable = resumable_trim(graph, ann)
    counted = ResumableAnnotation(
        [
            {p: _CountingIndex(idx, counter) for p, idx in per_vertex.items()}
            for per_vertex in resumable.index
        ]
    )
    walks = enumerate_memoryless(
        graph, counted, ann.lam, t, ann.target_states
    )
    max_gap, outputs = _max_steps_between_outputs(walks, counter)
    return ann.lam, cq.n_states, max_gap, outputs


_MEASURES = {"eager": _measure_eager, "memoryless": _measure_memoryless}


@pytest.mark.parametrize("flavor", sorted(_MEASURES))
class TestLabelHeavyDelay:
    def test_label_soup(self, flavor):
        """Per-edge label multiplicity must not leak into the delay."""
        graph, nfa, s, t = label_soup(
            k=9, parallel=2, extra_labels=24, noise_out=12
        )
        lam, n_states, max_gap, outputs = _MEASURES[flavor](graph, nfa, s, t)
        assert outputs == 2 ** 9
        assert max_gap <= _CONSTANT * lam * (n_states + 1)

    def test_label_soup_delay_independent_of_label_count(self, flavor):
        """Doubling the noise labels leaves the per-output step count
        unchanged — the bound is not merely loose enough to absorb it."""
        gaps = []
        for extra in (8, 32):
            graph, nfa, s, t = label_soup(
                k=7, parallel=2, extra_labels=extra, noise_out=8
            )
            _, _, max_gap, outputs = _MEASURES[flavor](graph, nfa, s, t)
            assert outputs == 2 ** 7
            gaps.append(max_gap)
        assert gaps[0] == gaps[1]

    def test_decoy_indegree(self, flavor):
        """Decoy in-edges occupy the low TgtIdx cells; the trimmed
        structures skip them wholesale (the factor-d separation of
        Section 3.2)."""
        graph, nfa, s, t = decoy_indegree(k=8, parallel=2, decoys=64)
        lam, n_states, max_gap, outputs = _MEASURES[flavor](graph, nfa, s, t)
        assert outputs == 2 ** 8
        assert max_gap <= _CONSTANT * lam * (n_states + 1)

    def test_decoy_indegree_delay_independent_of_decoys(self, flavor):
        gaps = []
        for decoys in (4, 256):
            graph, nfa, s, t = decoy_indegree(k=6, parallel=2, decoys=decoys)
            _, _, max_gap, outputs = _MEASURES[flavor](graph, nfa, s, t)
            assert outputs == 2 ** 6
            gaps.append(max_gap)
        assert gaps[0] == gaps[1]
