"""One source to many targets (paper, Section 5.3).

Instead of stopping at the first final state reached at a single
target, ``Annotate`` runs until no new ``(vertex, state)`` pair can be
discovered — same worst-case cost O(|D| × |A|) since each pair is
visited at most once.  Afterwards, *any* vertex can serve as a target:
its λ and start-state certificate are read off the saturated ``L``
maps, and the ordinary enumeration runs per target over the one shared
trimmed annotation.

Saturation visits the *entire* reachable product, so it benefits the
most from the label-indexed traversal (every frontier pair pays the
intersection cost, none is cut short by an early stop) — and from the
packed annotation layout: per-target λ/certificate reads go straight
to the flat ``dist`` array (no ``L`` dict materialization over |V|
targets), and every enumeration reads the *same* read-only packed
cell arrays, so a saturated annotation cached by the query service
serves every target, mode and concurrent reader from one O(entries)
build.
"""

from __future__ import annotations

from typing import Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.core.annotate import Annotation, annotate
from repro.core.cheapest import cheapest_annotate
from repro.core.compile import CompiledQuery, compile_query
from repro.core.enumerate import enumerate_walks
from repro.core.memoryless import enumerate_memoryless
from repro.core.trim import trim
from repro.core.walks import Walk
from repro.datastructures.packed import PackedCells
from repro.exceptions import QueryError
from repro.graph.database import Graph
from repro.obs.trace import span as _span


class MultiTargetShortestWalks:
    """Shared-preprocessing enumeration towards many targets.

    >>> from repro.workloads.fraud import example9_graph, example9_automaton
    >>> mt = MultiTargetShortestWalks(
    ...     example9_graph(), example9_automaton(), "Alix"
    ... )
    >>> sorted(mt.reached_target_names())  # doctest: +NORMALIZE_WHITESPACE
    ['Bob', 'Cassie', 'Dan', 'Eve']

    Enumerations towards different targets share the read-only trimmed
    queues and may be interleaved freely.
    """

    def __init__(
        self,
        graph: Graph,
        query,
        source: Hashable,
        cheapest: bool = False,
        compiled: Optional[CompiledQuery] = None,
    ) -> None:
        """``compiled`` injects a pre-built
        :class:`~repro.core.compile.CompiledQuery` (the plan-cache hook
        of :mod:`repro.service`); it must match ``graph`` and the
        ``query`` automaton by identity."""
        from repro.core._query_input import as_nfa

        self.graph = graph
        self.source = graph.resolve_vertex(source)
        self.cheapest = cheapest
        self.automaton = as_nfa(query)
        if compiled is not None:
            if compiled.graph is not graph:
                raise QueryError(
                    "compiled query belongs to a different graph"
                )
            if compiled.automaton is not self.automaton:
                raise QueryError(
                    "compiled query belongs to a different automaton"
                )
            self._cq = compiled
        else:
            self._cq = compile_query(graph, self.automaton)
        self._annotation: Optional[Annotation] = None
        self._trimmed: Optional[PackedCells] = None

    def preprocess(self) -> "MultiTargetShortestWalks":
        """Saturating annotate + trim; idempotent."""
        if self._annotation is None:
            annotate_fn = cheapest_annotate if self.cheapest else annotate
            with _span("annotate", cached=False, saturate=True):
                self._annotation = annotate_fn(
                    self._cq, self.source, None, saturate=True
                )
            with _span("trim"):
                self._trimmed = trim(self.graph, self._annotation)
        return self

    # -- structure access ----------------------------------------------------

    @property
    def annotation(self) -> Annotation:
        """The saturated annotation (preprocesses on first access)."""
        self.preprocess()
        assert self._annotation is not None
        return self._annotation

    @property
    def trimmed(self) -> PackedCells:
        """The shared, read-only trimmed annotation."""
        self.preprocess()
        assert self._trimmed is not None
        return self._trimmed

    # -- target inspection ---------------------------------------------------

    def lam_for(self, target: Hashable) -> Optional[int]:
        """λ_t — length (cost) of a shortest matching walk to ``target``.

        ``None`` when no matching walk exists.
        """
        self.preprocess()
        assert self._annotation is not None
        t = self.graph.resolve_vertex(target)
        lam_t, _ = self._annotation.target_info(t)
        return lam_t

    def reached_targets(self) -> List[int]:
        """Vertex ids reachable by at least one matching walk."""
        self.preprocess()
        assert self._annotation is not None
        return [
            t
            for t in self.graph.vertices()
            if self._annotation.target_info(t)[0] is not None
        ]

    def reached_target_names(self) -> List[Hashable]:
        """Vertex names reachable by at least one matching walk."""
        return [self.graph.vertex_name(t) for t in self.reached_targets()]

    # -- enumeration ------------------------------------------------------------

    def walks_to(
        self,
        target: Hashable,
        memoryless: bool = False,
        resume_after: Optional[Sequence[int]] = None,
    ) -> Iterator[Walk]:
        """Enumerate distinct shortest matching walks to one target.

        One DFS over the one shared preprocessing; any number of these
        iterators may run at once.  ``resume_after`` (a previous
        output's edge sequence) restarts the enumeration right after
        that walk in O(λ) instead of re-walking the prefix of the
        output sequence.  ``memoryless=True`` runs the Theorem-18
        artefact instead — one ``NextOutput`` seek per *output* — with
        the same outputs in the same order.
        """
        self.preprocess()
        assert self._annotation is not None and self._trimmed is not None
        t = self.graph.resolve_vertex(target)
        lam_t, states = self._annotation.target_info(t)
        cost_arr = self.graph.cost_array if self.cheapest else None
        cost_of = (lambda e: cost_arr[e]) if cost_arr is not None else None
        run = enumerate_memoryless if memoryless else enumerate_walks
        return run(
            self.graph, self._trimmed, lam_t, t, states,
            cost_of=cost_of, resume_after=resume_after,
        )

    def all_walks(
        self, targets: Optional[List[Hashable]] = None
    ) -> Iterator[Tuple[Hashable, Walk]]:
        """Yield ``(target_name, walk)`` for every (requested) target.

        Targets are processed sequentially, reusing the shared
        preprocessing, which is the point of the extension.
        """
        self.preprocess()
        target_ids = (
            [self.graph.resolve_vertex(t) for t in targets]
            if targets is not None
            else self.reached_targets()
        )
        for t in target_ids:
            name = self.graph.vertex_name(t)
            for walk in self.walks_to(t):
                yield name, walk
