"""The ``Trim`` preprocessing (paper, Figure 2 lines 34-41) and the
``ResumableTrim`` variant (Section 4.2, lines 67-76).

``Trim`` converts every ``B_u[p]`` map into a queue ``C_u[p]`` of pairs
``(e, X)`` — only the edges whose predecessor list ``X`` is non-empty —
sorted by increasing ``TgtIdx(e)`` (Lemma 11).  The sort order is what
lets ``Enumerate`` find the next child edge by looking only at queue
heads, keeping the delay independent of the database's in-degrees.

``ResumableTrim`` instead produces, per ``(u, p)``, a read-only
structure supporting "first non-empty cell ≥ i" queries — what lets
the enumeration be *re-positioned* from a previous output (Theorem 18).

Both are the same :class:`~repro.datastructures.packed.PackedCells`:
the annotation's entry store is already grouped per product node in
ascending ``TgtIdx`` order, so building the queues is a single
O(entries) pointer-slicing pass — no ``sorted()`` call, no per-cell
tuple freezing — cached on the annotation.  The structure is
read-only: queue cursors are private to each running
:func:`~repro.core.enumerate.enumerate_walks` generator, and a seek is
a binary search over a node's cell span.
"""

from __future__ import annotations

from repro.core.annotate import Annotation
from repro.datastructures.packed import PackedCells
from repro.graph.database import Graph


def trim(graph: Graph, annotation: Annotation) -> PackedCells:
    """Build the ``C`` queues from an annotation: the shared
    :meth:`~repro.core.annotate.Annotation.packed_cells` structure (one
    O(entries) slicing pass, cached on the annotation)."""
    return annotation.packed_cells(graph)


def resumable_trim(graph: Graph, annotation: Annotation) -> PackedCells:
    """``ResumableTrim``: the same structure as :func:`trim` — the
    cells are seekable as built."""
    return annotation.packed_cells(graph)
