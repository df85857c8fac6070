"""``Main`` — orchestration of the full algorithm (paper, Figure 2).

:class:`PreparedWalks` is the one prepared ``(query, source)`` object:
it wires the preprocessing phases together::

    compile → Annotate → Trim

from one source — stopped at one target, or serving them all — and
holds every read of the result: per-target λ and certificate, the
enumeration, the counting DP.  The public drivers are views of it:
:class:`DistinctShortestWalks` (one pair) and
:class:`~repro.core.cheapest.DistinctCheapestWalks` stop at their
target; :class:`~repro.core.multi_target.MultiTargetShortestWalks`
serves every target, deepening its BFS on demand, and is what the
façade caches.

Every enumeration is the one explicit-stack DFS of
:func:`~repro.core.enumerate.enumerate_walks` (Theorem 2), positioned
by one seek when it resumes after a previous output.  Theorem 18's
memoryless ``NextOutput`` is that seek with nothing else kept: a fresh
stream opened after each output yields the next one.  (The paper's
"simpler setting" — single-labeled D, deterministic A — is *detected*
by :func:`repro.query.plan.analyze`; the folklore product-BFS
enumerator for it is a baseline the general engine outruns,
:mod:`repro.baselines.simple`.)

Queries may be given as an :class:`~repro.automata.nfa.NFA`, a regex
AST, or a regular path query string (compiled with Thompson's
construction, preserving Corollary 20's bounds).
"""

from __future__ import annotations

import threading
import time
from contextlib import closing
from itertools import islice
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.core._query_input import QueryLike, as_nfa
from repro.core.annotate import AnnotateBFS, Annotation, annotate
from repro.core.compile import (
    CompiledQuery,
    compile_epsilon_free,
    compile_query,
)
from repro.core.count import count_distinct_shortest
from repro.core.enumerate import enumerate_walks
from repro.core.multiplicity import run_counter
from repro.core.trim import trim
from repro.core.walks import Walk
from repro.datastructures.packed import PackedCells
from repro.exceptions import QueryError, is_int
from repro.graph.database import Graph
from repro.obs.trace import add_span


class PreparedWalks:
    """Annotate + Trim from one source, and every read of the result.

    With a ``target`` the traversal stops at the end of that target's
    level λ and only that target may be read.  With ``target=None`` any
    vertex can be asked about: :meth:`preprocess` runs the BFS to the
    first target named, or to exhaustion, and a read of a target not
    yet *settled* (:meth:`Annotation.settled`) deepens it first
    (:meth:`settle`).

    What readers see is one published :class:`Annotation` — a
    snapshot of the levels done, sharing ``dist`` and the one cell
    store with the kept :class:`~repro.core.annotate.AnnotateBFS`.  A
    deepen continues that BFS under a per-object lock (single flight)
    and publishes the new snapshot by one reference swap; nothing is
    re-packed, since the cells already pulled read only levels the
    deepen never rewrites.  Each enumeration has ``Trim`` pull its
    target's cells into the store before its first output (single
    flight per store), an enumeration keeps the snapshot it started on,
    and the settled slots of ``dist`` are never rewritten.  So any
    number of enumerations — interleaved, abandoned, on other threads,
    toward any targets — run over one instance, deepening or not.  Once
    the BFS is exhausted the traversal state (frontier and level rule)
    is dropped: what is left is a saturating build's annotation.
    """

    #: Budgets are edge costs (Dijkstra ``Annotate``) instead of lengths.
    cheapest = False

    def __init__(
        self,
        graph: Graph,
        query: QueryLike,
        source: Hashable,
        target: Optional[Hashable] = None,
        compiled: Optional[CompiledQuery] = None,
    ) -> None:
        """``compiled`` injects a pre-built :class:`CompiledQuery` —
        the plan-cache hook of :mod:`repro.api`: a cached plan skips
        the compile phase entirely.  It must have been produced by
        :func:`~repro.core.compile.compile_query` — or, for an oracle
        or a paper table that wants the automaton as written, by
        :func:`~repro.core.compile.compile_epsilon_free` — for this
        exact ``graph`` and ``query`` automaton (checked by identity:
        label ids and ε-closures are graph- and automaton-specific),
        with ε eliminated (the default)."""
        self.graph = graph
        self.automaton = as_nfa(query)
        if compiled is not None:
            compiled.require_epsilon_free()
            if compiled.graph is not graph:
                raise QueryError(
                    "compiled query belongs to a different graph"
                )
            if compiled.automaton is not self.automaton:
                raise QueryError(
                    "compiled query belongs to a different automaton"
                )
        self._cq = compiled
        self.source = graph.resolve_vertex(source)
        self.target = None if target is None else graph.resolve_vertex(target)
        self.timings: Dict[str, float] = {}
        #: The published snapshot of the levels done.
        self._annotation: Optional[Annotation] = None
        #: The kept traversal of a multi-target BFS not yet exhausted.
        self._bfs: Optional[AnnotateBFS] = None
        self._lock = threading.Lock()
        self._count_cq: Optional[CompiledQuery] = None

    # -- preprocessing -------------------------------------------------------

    def _annotate(self, until: Optional[int]) -> Annotation:
        if self.target is not None:
            return annotate(self._cq, self.source, self.target)
        self._bfs = AnnotateBFS(self._cq, self.source)
        self._bfs.run(until)
        return self._snapshot()

    def _snapshot(self) -> Annotation:
        """The kept traversal's levels done, as an annotation — dropping
        the traversal once it is exhausted."""
        bfs = self._bfs
        annotation = bfs.annotation(None, saturated=bfs.exhausted)
        if bfs.exhausted:
            self._bfs = None
        return annotation

    def preprocess(self, until: Optional[int] = None):
        """Run the preprocessing phase once; later calls are no-ops.

        ``until`` (a vertex id) is the first target an object without
        a target of its own will be asked about: the BFS stops at that
        target's level instead of running to exhaustion.

        Records wall-clock timings per phase in :attr:`timings`
        (``compile``, ``annotate``, ``trim``, ``total``) and the same
        phases as trace spans (no-ops with no active trace); an
        injected plan was compiled — and traced — by its builder.
        ``trim`` pulls the cells of the object's own target, or of
        ``until``; any other target's are pulled by its first read.
        """
        if self._annotation is not None:
            return self
        with self._lock:
            if self._annotation is not None:
                return self
            t0 = time.perf_counter()
            if self._cq is None:
                self._cq = compile_query(self.graph, self.automaton)
                add_span("compile", time.perf_counter() - t0)
            t1 = time.perf_counter()
            annotation = self._annotate(until)
            t2 = time.perf_counter()
            trim(
                self.graph, annotation,
                until if self.target is None else self.target,
            )
            t3 = time.perf_counter()
            self._annotation = annotation
        self.timings.update(
            compile=t1 - t0, annotate=t2 - t1, trim=t3 - t2, total=t3 - t0
        )
        add_span("annotate", t2 - t1, cached=False, **self.extent())
        add_span("trim", t3 - t2)
        return self

    def settle(self, t: Optional[int] = None) -> bool:
        """Make target ``t``'s reads final — every target's with
        ``t=None`` — and say whether the traversal had to go deeper.

        Preprocesses toward ``t`` if nothing is built yet (not counted
        as deepening).  Otherwise, when the published annotation does
        not settle ``t``, continues the kept BFS under the lock —
        single flight, re-checked once the lock is held — until ``t``
        is settled or the BFS is exhausted, then publishes the new
        snapshot: O(1) beyond the levels expanded, with no re-pack.  An
        object stopped at its own target never deepens.
        """
        annotation = self._annotation
        if annotation is None:
            annotation = self.preprocess(t)._annotation
        if self.target is not None or annotation.settled(t):
            return False
        with self._lock:
            if self._annotation.settled(t):
                return False
            self._bfs.run(t)
            self._annotation = self._snapshot()
        return True

    def extent(self) -> Dict[str, object]:
        """How far the published annotation's traversal went: BFS
        ``levels`` done (Dijkstra has no levels) and whether it is
        ``exhausted`` — every target served without deepening."""
        annotation = self.annotation
        if self.cheapest:
            return {"exhausted": annotation.saturated}
        return {"levels": annotation.steps, "exhausted": annotation.saturated}

    @property
    def annotation(self) -> Annotation:
        """The published annotation (preprocesses on first access)."""
        annotation = self._annotation
        if annotation is None:
            annotation = self.preprocess()._annotation
        return annotation

    @property
    def trimmed(self) -> PackedCells:
        """The shared cell store, with the object's own target's cells
        built (a multi-target object's hold the targets read so far)."""
        return trim(self.graph, self.annotation, self.target)

    def structure_sizes(self) -> Dict[str, int]:
        """Entry counts of the precomputed structures (Remark 17) —
        what the cell store holds, O(1) reads: the entries and the
        cells ``Trim`` pulled.
        """
        cells = self.trimmed
        return {
            "annotation_entries": cells.entries(),
            "trimmed_items": cells.total_items(),
        }

    # -- per-target reads (vertex ids) -----------------------------------------

    def _settled(self, t: Optional[int]) -> Annotation:
        """A published annotation in which ``t`` is settled (``None``:
        every target) — refused for a target the traversal did not
        wait for.  Read it once: a later deepen publishes another."""
        if self.target is not None and t != self.target:
            raise QueryError(
                f"prepared for target {self.graph.vertex_name(self.target)!r}"
                " only; build without a target to ask about any vertex"
            )
        self.settle(t)
        return self._annotation

    def target_info(self, t: int) -> Tuple[Optional[int], frozenset]:
        """``(λ_t, S_t)`` — :meth:`Annotation.target_info`, once ``t``
        is settled."""
        return self._settled(t).target_info(t)

    def _walks(
        self, t: int, resume_after: Optional[Sequence[int]] = None
    ) -> Iterator[Walk]:
        annotation = self._settled(t)
        lam_t, states = annotation.target_info(t)
        return enumerate_walks(
            self.graph, annotation.packed, lam_t, t, states,
            cost_of=self._cost_of, resume_after=resume_after,
        )

    @property
    def _cost_of(self):
        return self.graph.cost_array.__getitem__ if self.cheapest else None

    def _count(self, t: int, method: str) -> int:
        if method == "dp":
            annotation = self._settled(t)
            lam_t, states = annotation.target_info(t)
            return count_distinct_shortest(
                self.graph, annotation, lam_t, t, states,
                cost_of=self._cost_of,
            )
        if method != "enumerate":
            raise QueryError(
                f"unknown count method {method!r}; "
                "expected 'enumerate' or 'dp'"
            )
        return sum(1 for _ in self._walks(t))


class DistinctShortestWalks(PreparedWalks):
    """End-to-end driver for the Distinct Shortest Walks problem.

    >>> from repro.workloads.fraud import example9_graph
    >>> engine = DistinctShortestWalks(
    ...     example9_graph(), "h* s (h | s)*", "Alix", "Bob"
    ... )
    >>> engine.lam
    3
    >>> len(list(engine.enumerate()))
    4
    """

    def __init__(
        self,
        graph: Graph,
        query: QueryLike,
        source: Hashable,
        target: Hashable,
        compiled: Optional[CompiledQuery] = None,
    ) -> None:
        super().__init__(graph, query, source, target, compiled)

    # -- inspection ------------------------------------------------------------

    @property
    def lam(self) -> Optional[int]:
        """λ — the answer length; ``None`` when no walk matches."""
        return self.annotation.lam

    @property
    def is_empty(self) -> bool:
        """True when the answer set is empty."""
        return self.lam is None

    # -- enumeration -----------------------------------------------------------------

    def enumerate(
        self, resume_after: Optional[Sequence[int]] = None
    ) -> Iterator[Walk]:
        """Enumerate the answer set ⟦A⟧(D, s, t), each walk once.

        Walks come in the paper's DFS order (children by increasing
        ``TgtIdx``).  The preprocessing structures
        are read-only, so any number of returned iterators may run at
        once.

        ``resume_after`` (a previous output's edge sequence) continues
        strictly after that walk with one O(λ) seek.  A sequence that
        was never an output raises
        :class:`~repro.exceptions.QueryError` on the first ``next()``.
        """
        return self._walks(self.target, resume_after)

    def __iter__(self) -> Iterator[Walk]:
        return self.enumerate()

    def enumerate_with_multiplicity(self) -> Iterator[Tuple[Walk, int]]:
        """Yield ``(walk, multiplicity)`` pairs (Section 5.3).

        The multiplicity is the number of accepting runs of the
        (ε-eliminated) query over the walk's label sets, weighed by one
        :func:`~repro.core.multiplicity.run_counter` over
        :meth:`enumerate`: consecutive outputs share the suffix above
        their lowest common ancestor, so each output rolls only its new
        prefix, within the O(λ × |A|) delay bound.
        """
        if self._count_cq is None:
            self._count_cq = compile_epsilon_free(self.graph, self.automaton)
        weigh = run_counter(self._count_cq)
        return ((walk, weigh(walk.edges)) for walk in self.enumerate())

    # -- conveniences ---------------------------------------------------------------------

    def count(self, method: str = "enumerate") -> int:
        """Number of answers.

        ``method="enumerate"`` (default) runs a full enumeration —
        O(answers × λ × |A|).  ``method="dp"`` counts without
        enumerating, via the memoized dynamic program of
        :func:`repro.core.count.count_distinct_shortest`; on answer
        sets with many shared suffixes (or astronomically many
        answers) it is exponentially faster.
        """
        return self._count(self.target, method)

    def first(self, k: int) -> List[Walk]:
        """The first ``k`` answers in enumeration order (all of them
        when there are fewer); a negative, ``bool`` or non-``int`` ``k``
        is refused."""
        if not is_int(k) or k < 0:
            raise QueryError(f"first() takes a non-negative int k, got {k!r}")
        with closing(self.enumerate()) as walks:
            return list(islice(walks, k))
