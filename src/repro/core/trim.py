"""The ``Trim`` preprocessing (paper, Figure 2 lines 34-41) and the
``ResumableTrim`` variant (Section 4.2, lines 67-76).

``Trim`` converts every ``B_u[p]`` map into a queue ``C_u[p]`` of pairs
``(e, X)`` — only the edges whose predecessor list ``X`` is non-empty —
sorted by increasing ``TgtIdx(e)`` (Lemma 11).  The sort order is what
lets ``Enumerate`` find the next child edge by looking only at queue
heads, keeping the delay independent of the database's in-degrees.

``ResumableTrim`` instead produces, per ``(u, p)``, a read-only
structure supporting "first non-empty cell ≥ i" queries.  This is the
structure that makes the *memoryless* enumeration of Theorem 18
possible: cursors become plain integers local to each call and the
shared structure is never mutated.

Both are one :class:`~repro.datastructures.packed.PackedCells`: the
annotation's entry store is already grouped per product node in
ascending ``TgtIdx`` order, so building the queues is a single
O(entries) pointer-slicing pass — no ``sorted()`` call, no per-cell
tuple freezing — cached on the annotation.
:class:`TrimmedAnnotation` adds a per-node cursor array (restart = one
C-level slice assignment); ``ResumableTrim`` adds nothing (the
memoryless cursors live in the caller's frames, and a seek is a binary
search over a node's cell span), so :func:`resumable_trim` returns the
cells themselves and the two steps together cost one pass.
"""

from __future__ import annotations

from array import array

from repro.core.annotate import Annotation
from repro.datastructures.packed import PackedCells
from repro.graph.database import Graph


class TrimmedAnnotation:
    """The family of queues ``C_u[p]`` produced by ``Trim``.

    Queue contents are the shared
    :class:`~repro.datastructures.packed.PackedCells` arrays (states
    without entries have an empty cell span — the paper's empty
    queues); this instance adds the queue cursors,
    ``cursor[u·|Q| + p]`` = current cell of ``C_u[p]``.

    The cursors are *shared mutable state*: two enumerations running
    over the same trimmed annotation at the same time would corrupt
    each other.  Enumerators therefore :meth:`acquire` the structure
    while active (released — and restarted — when the iterator
    finishes or is closed); a second concurrent acquisition raises
    :class:`~repro.exceptions.EnumerationStateError`.  Concurrent
    enumerations each take a :meth:`snapshot`, or run memoryless over
    the read-only cells.
    """

    __slots__ = ("cells", "cursor", "_cursor0", "_active")

    def __init__(self, cells: PackedCells) -> None:
        self.cells = cells
        # Restart re-copies the span starts in one C-level slice
        # assignment.
        self._cursor0 = cells.key_indptr[:cells.n * cells.n_states]
        self.cursor = array("q", self._cursor0)
        self._active = False

    def acquire(self) -> None:
        """Mark an enumeration as running over this structure.

        Raises :class:`~repro.exceptions.EnumerationStateError` when
        another enumeration is already active: interleaving two walks
        over the same cursors would silently skip or repeat answers.
        """
        if self._active:
            from repro.exceptions import EnumerationStateError

            raise EnumerationStateError(
                "an enumeration is already running over this trimmed "
                "annotation; exhaust or close() it first (the "
                "memoryless mode supports concurrent enumerations)"
            )
        self._active = True

    def restart_all(self) -> None:
        """Reset every queue cursor and release the structure — used
        when an enumeration finishes or is abandoned mid-way, so the
        shared structure is never left dirty."""
        self.cursor[:] = self._cursor0
        self._active = False

    def total_items(self) -> int:
        """Number of stored (e, X) pairs — for the memory experiment.

        O(1): the cell count."""
        return len(self.cells)

    def snapshot(self) -> "TrimmedAnnotation":
        """An independent cursor set over the *same* queue contents:
        one cursor-array copy sharing the immutable cells.

        Two enumerations may then run concurrently, one per snapshot,
        without tripping the :meth:`acquire` guard or corrupting each
        other's cursors; this is how the batched query service serves
        the eager mode from one cached ``Trim`` product while the
        memoryless mode shares the read-only cells directly.
        """
        return TrimmedAnnotation(self.cells)


def trim(graph: Graph, annotation: Annotation) -> TrimmedAnnotation:
    """Build the ``C`` queues from an annotation: a fresh cursor array
    over the shared
    :meth:`~repro.core.annotate.Annotation.packed_cells` structure (one
    O(entries) slicing pass, cached on the annotation)."""
    return TrimmedAnnotation(annotation.packed_cells(graph))


def resumable_trim(graph: Graph, annotation: Annotation) -> PackedCells:
    """``ResumableTrim``: the read-only structure ``NextOutput`` seeks
    in — the annotation's shared
    :meth:`~repro.core.annotate.Annotation.packed_cells`, the same
    build :func:`trim` wraps."""
    return annotation.packed_cells(graph)
