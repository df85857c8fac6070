"""The collection data structures of the paper's Section 2.1.

The complexity bounds of the enumeration algorithm hinge on using the
right structure at each step:

* :class:`~repro.datastructures.cons_list.ConsList` — immutable
  singly-linked lists with O(1) prepend and O(1) copy (sharing), used
  for walk prefixes during the recursive enumeration;
* :class:`~repro.datastructures.restartable_queue.RestartableQueue` —
  queues with O(1) enqueue / peek / advance / restart: the paper's
  form of the trimmed annotation ``C``;
* :class:`~repro.datastructures.resumable_index.ResumableIndex` — the
  skip-pointer array of the paper's ``ResumableTrim`` (Section 4.2),
  which supports O(1) "seek to the first non-empty cell ≥ i";
* :class:`~repro.datastructures.pairing_heap.PairingHeap` — a
  decrease-key priority queue for the Dijkstra traversal of the
  Distinct Cheapest Walks extension (Section 5.3 cites Fredman–Tarjan;
  pairing heaps are the practical equivalent);
* :class:`~repro.datastructures.packed.PackedBack` /
  :class:`~repro.datastructures.packed.PackedCells` — the CSR-packed
  annotation entry store and the packed ``Trim`` cell layout that flow
  through the whole Annotate → Trim → Enumerate pipeline without
  conversion: the only storage :mod:`repro.core` builds or reads.

``ConsList``, ``RestartableQueue`` and ``ResumableIndex`` are the
paper's own structures; only the transcription of the paper's
pseudocode in :mod:`repro.baselines.paper_pipeline` (a test oracle)
runs on them.
"""

from repro.datastructures.cons_list import ConsList, cons, nil
from repro.datastructures.packed import PackedBack, PackedCells
from repro.datastructures.pairing_heap import HeapNode, PairingHeap
from repro.datastructures.restartable_queue import RestartableQueue
from repro.datastructures.resumable_index import ResumableIndex

__all__ = [
    "ConsList",
    "cons",
    "nil",
    "HeapNode",
    "PairingHeap",
    "PackedBack",
    "PackedCells",
    "RestartableQueue",
    "ResumableIndex",
]
