"""Step counters for the delay-bound suites (no test in this file).

Theorem 2 / Theorem 18 bound the work between two consecutive outputs
by O(λ × |A|).  The suites check that *deterministically*, by counting
data-structure operations instead of timing, on two implementations:

* ``oracle-*`` — the paper's structures
  (:mod:`repro.baselines.paper_pipeline`): counting proxies around
  every ``C_u[p]`` queue (peek / advance / restart) under the recursive
  ``Enumerate``, and around every skip array (first / seek / after /
  payload) under the skip-pointer ``NextOutput``;
* ``packed-*`` — the one production loop of :mod:`repro.core`, with
  no hook in ``src/``: a counting ``array`` subclass is swapped into
  ``PackedCells.cell_ti`` and ``PackedCells.cell_edge`` — one step per
  ``TgtIdx`` read (queue-head reads and binary-search probes alike)
  and one per cell whose edge is read: a one-state frame walks its
  cell run without looking at ``cell_ti``.  A slice read costs its
  length, not one, so no batch of cells can launder the work.
  ``packed-eager`` runs the generator start to end,
  ``packed-memoryless`` opens a fresh one resumed after each output
  (Theorem 18's ``NextOutput``), and
  ``packed-resumed`` drops it after output k = 1, middle and last−1 and
  carries on from a fresh one resumed there — so the gap at each cut is
  the whole cost from ``resume_after`` to the first row of a resumed
  page.

Every measure returns ``(λ, |Q|, max steps between outputs, outputs,
bound)`` where ``bound`` is ``C · λ · (|Q| + 1)`` with one shared small
constant — there is no k in it, so a resume that replayed the prefix
(Θ(k·λ) steps) would fail it at k = last−1.  The packed seek is a
binary search over at most ``InDeg(u)`` cells where the paper's is one
skip-pointer read, so the two seeking measures get ``⌈log₂(max InDeg +
1)⌉`` extra steps per (frame, state) seek — λ · |Q| seeks per
re-positioning.
"""

from __future__ import annotations

from array import array
from functools import partial
from math import ceil, log2
from typing import Dict, Iterator, Optional, Tuple

from repro.baselines import paper_pipeline as oracle
from repro.baselines.restartable_queue import RestartableQueue
from repro.core.annotate import annotate
from repro.core.compile import compile_query
from repro.core.enumerate import enumerate_walks
from repro.core.trim import trim
from repro.core.walks import Walk

from tests.conftest import one_seek_per_output

#: Steps allowed between consecutive outputs per unit of λ·(|Q|+1).
CONSTANT = 12


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


class _CountingArray(array):
    """``array('q')`` counting every element read and write — including
    the probes ``bisect`` makes through the sequence protocol; a slice
    read counts once per element it returns."""

    def __getitem__(self, i):
        item = array.__getitem__(self, i)
        self.counter["steps"] += len(item) if isinstance(i, slice) else 1
        return item

    def __setitem__(self, i, value) -> None:
        self.counter["steps"] += 1
        array.__setitem__(self, i, value)


def _counting_array(source: array, counter: Dict[str, int]) -> _CountingArray:
    counted = _CountingArray("q", source)
    counted.counter = counter
    return counted


def count_cell_reads(
    cells, counter: Dict[str, int], edge_counter: Optional[Dict[str, int]] = None
) -> None:
    """Swap the counting proxies into both cell columns the DFS reads;
    ``edge_counter`` counts the ``cell_edge`` reads apart."""
    cells.cell_ti = _counting_array(cells.cell_ti, counter)
    cells.cell_edge = _counting_array(
        cells.cell_edge, counter if edge_counter is None else edge_counter
    )


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


def _oracle_eager(graph, cq, s, t, counter):
    ann = oracle.annotate_reference(cq, s, t)
    queues = oracle.trim_maps(graph, ann)
    for per_vertex in queues:
        for state in list(per_vertex):
            per_vertex[state] = _CountingQueue(per_vertex[state], counter)
    return ann.lam, 0, oracle.enumerate_walks_recursive(
        graph, queues, ann.lam, t, ann.target_states
    )


def _oracle_memoryless(graph, cq, s, t, counter):
    ann = oracle.annotate_reference(cq, s, t)
    index = [
        {p: _CountingIndex(idx, counter) for p, idx in per_vertex.items()}
        for per_vertex in oracle.resumable_trim_maps(graph, ann)
    ]
    return ann.lam, 0, oracle.enumerate_memoryless(
        graph, index, ann.lam, t, ann.target_states
    )


def _packed_eager(graph, cq, s, t, counter):
    ann = annotate(cq, s, t)
    cells = trim(graph, ann)
    count_cell_reads(cells, counter)
    return ann.lam, 0, enumerate_walks(
        graph, cells, ann.lam, t, ann.target_states
    )


def _seek_allowance(graph, cq, lam) -> int:
    max_in = max(graph.in_degree(v) for v in graph.vertices())
    return (lam or 0) * cq.n_states * ceil(log2(max_in + 1))


def _packed_memoryless(graph, cq, s, t, counter):
    ann = annotate(cq, s, t)
    cells = trim(graph, ann)
    count_cell_reads(cells, counter)
    return ann.lam, _seek_allowance(graph, cq, ann.lam), one_seek_per_output(
        partial(enumerate_walks, graph, cells, ann.lam, t, ann.target_states)
    )


def _packed_resumed(graph, cq, s, t, counter):
    ann = annotate(cq, s, t)
    cells = trim(graph, ann)
    args = (graph, cells, ann.lam, t, ann.target_states)
    total = sum(1 for _ in enumerate_walks(*args))  # Not counted yet.
    count_cell_reads(cells, counter)
    cuts = {1, total // 2, total - 1} & set(range(1, total))

    def walks() -> Iterator[Walk]:
        emitted = 0
        generator = enumerate_walks(*args)
        while (walk := next(generator, None)) is not None:
            yield walk
            emitted += 1
            if emitted in cuts:
                generator = enumerate_walks(*args, resume_after=walk.edges)

    return ann.lam, _seek_allowance(graph, cq, ann.lam), walks()


MEASURES = {
    "oracle-eager": _oracle_eager,
    "oracle-memoryless": _oracle_memoryless,
    "packed-eager": _packed_eager,
    "packed-memoryless": _packed_memoryless,
    "packed-resumed": _packed_resumed,
}


def measure(flavor: str, graph, nfa, s: int, t: int):
    """``(λ, |Q|, max gap, outputs, bound)`` for one instance (vertex
    ids) under one of :data:`MEASURES`."""
    cq = compile_query(graph, nfa)
    counter = {"steps": 0}
    lam, allowance, walks = MEASURES[flavor](graph, cq, s, t, counter)
    max_gap, outputs = _max_steps_between_outputs(walks, counter)
    # A swapped-in proxy the loop never touched would pass any bound.
    assert counter["steps"] or not lam, f"{flavor}: nothing was counted"
    bound = CONSTANT * (lam or 0) * (cq.n_states + 1) + allowance
    return lam, cq.n_states, max_gap, outputs, bound
