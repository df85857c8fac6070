"""The ``Trim`` preprocessing (paper, Figure 2 lines 34-41), which is
also its ``ResumableTrim`` variant (Section 4.2, lines 67-76).

``Trim`` converts ``B_u[p]`` into a queue ``C_u[p]`` of pairs ``(e,
X)`` — only the edges whose predecessor list ``X`` is non-empty —
sorted by increasing ``TgtIdx(e)`` (Lemma 11).  The sort order is what
lets ``Enumerate`` find the next child edge by looking only at queue
heads, keeping the delay independent of the database's in-degrees.

``ResumableTrim`` asks, per ``(u, p)``, for a read-only structure
supporting "first non-empty cell ≥ i" queries — what lets the
enumeration be *re-positioned* from a previous output (Theorem 18).
The cells ``Trim`` builds already are one: the output is the
annotation's one :class:`~repro.datastructures.packed.PackedCells`
store, seekable as built.  ``B`` is
never stored: ``Trim`` walks backward from the asked target's final
states at λ and, for each node ``(u, p)`` it reaches, pulls Lemma 11's
queue from ``L`` — the live edges of ``In(u)`` in ``TgtIdx`` order
whose source holds some ``q ∈ Δ⁻¹(p, a)`` one level down.  So the
queues come out sorted with no sort, only the nodes on the target's
shortest walks are built, and a later target appends what it adds to
the same store.  Each cell is written whole when it is pulled — its
edge, its raw entries and its certificate ``X``, both as tuples the
store shares between equal cells — so the store is read-only to
readers: they build nothing, queue cursors are private to each running
:func:`~repro.core.enumerate.enumerate_walks` generator, and a seek is
a binary search over a node's cell span.
"""

from __future__ import annotations

from typing import Optional

from repro.core.annotate import Annotation
from repro.datastructures.packed import PackedCells
from repro.graph.database import Graph


def trim(
    graph: Graph, annotation: Annotation, target: Optional[int] = None
) -> PackedCells:
    """The annotation's cell store, with the cells of ``target`` — the
    annotation's own target by default — built (none without one, or
    when no matching walk reaches it).  ``graph`` is the annotation's."""
    if target is None:
        target = annotation.target
    if target is not None:
        lam, states = annotation.target_info(target)
        if lam:
            annotation.packed.build(target, states)
    return annotation.packed

