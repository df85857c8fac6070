"""Delta-encoded enumeration (paper, Section 6 perspectives).

The paper observes that a significant part of the delay is the λ
symbols needed to *write each answer down*, and that consecutive
answers often share large parts — so emitting only the difference can
shrink the amortized output size.  Because ``Enumerate`` is a DFS of
the backward-search tree rooted at the **target**, consecutive answers
share exactly the tree path above their lowest common ancestor: a
*suffix* of the edge sequence (the part nearest ``t``).

:func:`delta_encode` turns a walk stream into
:class:`WalkDelta(shared_suffix, prefix_edges)` records — "keep the
last ``shared_suffix`` edges of the previous answer, replace the rest
with ``prefix_edges``", the shared length found from the stream by
:func:`~repro.core.walks.shared_suffix_length`, the scan the run
counter uses — and :func:`delta_decode` inverts it.  On a
diamond chain of length k, full output costs ``k`` edges per answer
while the amortized delta size tends to 2 (the benchmark EXP-DELTA
measures the ratio).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

from repro.core.walks import Walk, shared_suffix_length
from repro.exceptions import GraphError
from repro.graph.database import Graph


@dataclass(frozen=True)
class WalkDelta:
    """One delta record of the compressed answer stream.

    ``shared_suffix`` — how many trailing edges to reuse from the
    previous answer (0 for the first); ``prefix_edges`` — the replaced
    leading edges, in walk (source → target) order.  The represented
    walk is ``prefix_edges + previous[len(previous)-shared_suffix:]``.
    """

    shared_suffix: int
    prefix_edges: Tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of symbols this record carries (edges + 1 counter)."""
        return len(self.prefix_edges) + 1


def delta_encode(walks: Iterable[Walk]) -> Iterator[WalkDelta]:
    """Compress a walk stream into delta records.

    Works for any walk stream, but is only *effective* on streams in
    DFS order (the enumerator's natural order), where consecutive
    answers share long suffixes.
    """
    previous: Optional[Tuple[int, ...]] = None
    for walk in walks:
        edges = walk.edges
        if previous is None:
            yield WalkDelta(0, edges)
        else:
            shared = shared_suffix_length(previous, edges)
            yield WalkDelta(shared, edges[: len(edges) - shared])
        previous = edges


def delta_decode(
    graph: Graph, deltas: Iterable[WalkDelta], target: Optional[int] = None
) -> Iterator[Walk]:
    """Reconstruct the walk stream from delta records.

    ``target`` is only needed to materialize a potential empty walk
    (λ = 0 answers have no edges to infer the vertex from).
    """
    previous: Optional[Tuple[int, ...]] = None
    for delta in deltas:
        if previous is None:
            if delta.shared_suffix != 0:
                raise GraphError("first delta record must be complete")
            edges = delta.prefix_edges
        else:
            if delta.shared_suffix > len(previous):
                raise GraphError(
                    "delta reuses more edges than the previous answer has"
                )
            kept = previous[len(previous) - delta.shared_suffix:]
            edges = delta.prefix_edges + kept
        if edges:
            yield Walk(graph, edges)
        elif target is not None:
            yield Walk(graph, (), start=target)
        else:
            raise GraphError("empty walk needs an explicit target vertex")
        previous = edges


def stream_sizes(deltas: Iterable[WalkDelta]) -> Tuple[int, int]:
    """``(records, total symbols)`` of a delta stream — for benchmarks."""
    records = 0
    symbols = 0
    for delta in deltas:
        records += 1
        symbols += delta.size
    return records, symbols
