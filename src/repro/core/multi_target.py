"""One source to many targets (paper, Section 5.3).

Instead of stopping at the first final state reached at a single
target, ``Annotate`` keeps going — same worst-case cost O(|D| × |A|)
since each pair is visited at most once — and *any* vertex can serve as
a target: its λ and start-state certificate are read off the flat
``dist`` array, and the ordinary enumeration runs per target over the
one shared cell store.

The traversal **deepens on demand**.  It runs to the first target it
is asked about (or to exhaustion when none is named) and keeps its
frontier; a later target not yet settled in the levels done
(:meth:`~repro.core.annotate.Annotation.settled`) continues it,
single-flight, and republishes the annotation as a snapshot
(:meth:`~repro.core.engine.PreparedWalks.settle`) — no re-pack: the
snapshots share ``dist`` and one cell store, and a deepening level
writes only slots no cell has read.
:meth:`MultiTargetShortestWalks.reached_targets` — every target —
deepens to exhaustion.  Each target's enumeration has ``Trim`` pull
that target's cells into the shared store first, appending only the
nodes no earlier target built.  So the cost follows the product the
asked targets need — levels for λ, shortest-walk graphs for cells —
and an exhausted entry is a saturating build.  One object serves every
target and concurrent reader.  The Dijkstra variant
(``cheapest=True``) does not deepen: it saturates at its first build.
"""

from __future__ import annotations

from typing import Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.core.annotate import Annotation
from repro.core.cheapest import cheapest_annotate
from repro.core.compile import CompiledQuery
from repro.core.engine import PreparedWalks
from repro.core.walks import Walk
from repro.graph.database import Graph


class MultiTargetShortestWalks(PreparedWalks):
    """Shared-preprocessing enumeration towards many targets.

    >>> from repro.workloads.fraud import example9_graph, example9_automaton
    >>> mt = MultiTargetShortestWalks(
    ...     example9_graph(), example9_automaton(), "Alix"
    ... )
    >>> sorted(mt.reached_target_names())  # doctest: +NORMALIZE_WHITESPACE
    ['Bob', 'Cassie', 'Dan', 'Eve']

    Enumerations towards different targets share one cell store, which
    each extends with its own target's cells, and may be interleaved
    freely.
    """

    def __init__(
        self,
        graph: Graph,
        query,
        source: Hashable,
        cheapest: bool = False,
        compiled: Optional[CompiledQuery] = None,
        target: Optional[Hashable] = None,
    ) -> None:
        """``compiled`` injects a cached plan (see
        :class:`~repro.core.engine.PreparedWalks`).  ``target`` makes
        the object serve that one target only — for a Dijkstra caller
        that will ask about nothing else and cannot keep the object
        (the façade with its annotation cache off); a BFS object stops
        at its first target by itself (``preprocess(until=…)``)."""
        super().__init__(graph, query, source, target, compiled)
        self.cheapest = cheapest

    def _annotate(self, until: Optional[int]) -> Annotation:
        if self.cheapest:
            return cheapest_annotate(self._cq, self.source, self.target)
        return super()._annotate(until)

    # -- target inspection ---------------------------------------------------

    def lam_for(self, target: Hashable) -> Optional[int]:
        """λ_t — length (cost) of a shortest matching walk to ``target``.

        ``None`` when no matching walk exists.
        """
        return self.target_info(self.graph.resolve_vertex(target))[0]

    def reached_targets(self) -> List[int]:
        """Vertex ids reachable by at least one matching walk (the BFS
        deepens to exhaustion first)."""
        info = self._settled(self.target).target_info
        asked = self.graph.vertices() if self.target is None else (self.target,)
        return [t for t in asked if info(t)[0] is not None]

    def reached_target_names(self) -> List[Hashable]:
        """Vertex names reachable by at least one matching walk."""
        return [self.graph.vertex_name(t) for t in self.reached_targets()]

    # -- enumeration ------------------------------------------------------------

    def walks_to(
        self,
        target: Hashable,
        resume_after: Optional[Sequence[int]] = None,
    ) -> Iterator[Walk]:
        """Enumerate distinct shortest matching walks to one target.

        One DFS over the one shared preprocessing; any number of these
        iterators may run at once.  ``resume_after`` (a previous
        output's edge sequence) restarts the enumeration right after
        that walk with one O(λ) seek instead of re-walking the prefix
        of the output sequence — the only seek the stream makes, so a
        page costs one seek.  Opening a fresh stream after each output
        is Theorem 18's memoryless ``NextOutput``: the stream keeps no
        state the previous walk does not give back.
        """
        return self._walks(
            self.graph.resolve_vertex(target), resume_after=resume_after
        )

    def count_to(self, target: Hashable, method: str = "enumerate") -> int:
        """Number of distinct shortest matching walks to one target —
        by enumeration, or (``method="dp"``) by the memoized DP."""
        return self._count(self.graph.resolve_vertex(target), method)

    def all_walks(
        self, targets: Optional[List[Hashable]] = None
    ) -> Iterator[Tuple[Hashable, Walk]]:
        """Yield ``(target_name, walk)`` for every (requested) target.

        Targets are processed sequentially, reusing the shared
        preprocessing, which is the point of the extension.
        """
        target_ids = (
            [self.graph.resolve_vertex(t) for t in targets]
            if targets is not None
            else self.reached_targets()
        )
        for t in target_ids:
            name = self.graph.vertex_name(t)
            for walk in self._walks(t):
                yield name, walk
