"""``Main`` — orchestration of the full algorithm (paper, Figure 2).

:class:`DistinctShortestWalks` wires the phases together::

    compile → Annotate → Trim → Enumerate

and exposes the knobs used throughout the test and benchmark suites:

* ``mode="iterative"`` (default) — the explicit-stack DFS, Theorem 2,
  kept alive between outputs and re-positioned by one seek on resume;
* ``mode="memoryless"`` — the same DFS re-positioned before *every*
  output (``NextOutput``), Theorem 18;
* ``mode="auto"`` — linear-time detection of the "simpler setting"
  (single-labeled D + deterministic A) and dispatch to the O(λ)-delay
  fast path when it applies, as the paper suggests.

Queries may be given as an :class:`~repro.automata.nfa.NFA`, a regex
AST, or a regular path query string (compiled with Thompson's
construction, preserving Corollary 20's bounds).
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.automata.ops import remove_epsilon
from repro.core._query_input import QueryLike, as_nfa
from repro.core.annotate import Annotation, annotate
from repro.core.compile import CompiledQuery, compile_query
from repro.core.enumerate import enumerate_walks, skip_past_cursor
from repro.core.memoryless import enumerate_memoryless
from repro.core.multiplicity import count_accepting_runs, enumerate_with_runs
from repro.core.simple import SimpleShortestWalks, simple_eligible
from repro.core.trim import trim
from repro.core.walks import Walk
from repro.datastructures.packed import PackedCells
from repro.exceptions import QueryError
from repro.graph.database import Graph
from repro.obs.trace import add_span

#: The engine modes a database or server may default to…
CONCRETE_MODES = ("iterative", "memoryless")
#: …and every mode a query may name — the one spelling all tiers import.
MODES = CONCRETE_MODES + ("auto",)


class DistinctShortestWalks:
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
        mode: str = "iterative",
        compiled: Optional[CompiledQuery] = None,
    ) -> None:
        """``compiled`` injects a pre-built :class:`CompiledQuery` —
        the plan-cache hook of :mod:`repro.service`: a cached plan
        skips the compile phase entirely.  It must have been produced
        by :func:`~repro.core.compile.compile_query` for this exact
        ``graph`` and ``query`` automaton (checked by identity: label
        ids and ε-closures are graph- and automaton-specific)."""
        if mode not in MODES:
            raise QueryError(f"unknown mode {mode!r}; expected one of {MODES}")
        self.graph = graph
        self.automaton = as_nfa(query)
        # Keep the caller's original vertex designators: resolve_vertex
        # is not idempotent on graphs whose vertex *names* are ints, so
        # sub-engines that resolve names themselves must be handed the
        # originals, never the resolved ids.
        self._source_input = source
        self._target_input = target
        if compiled is not None:
            if compiled.graph is not graph:
                raise QueryError(
                    "compiled query belongs to a different graph"
                )
            if compiled.automaton is not self.automaton:
                raise QueryError(
                    "compiled query belongs to a different automaton"
                )
        self._compiled = compiled
        self.source = graph.resolve_vertex(source)
        self.target = graph.resolve_vertex(target)
        self.mode = mode
        self.timings: Dict[str, float] = {}

        self._cq: Optional[CompiledQuery] = None
        self._annotation: Optional[Annotation] = None
        self._trimmed: Optional[PackedCells] = None
        self._simple: Optional[SimpleShortestWalks] = None
        self._count_cq: Optional[CompiledQuery] = None

    # -- preprocessing -----------------------------------------------------

    @property
    def uses_fast_path(self) -> bool:
        """True when ``mode='auto'`` selected the simple-setting engine."""
        return self.mode == "auto" and simple_eligible(
            self.graph, self.automaton
        )

    def preprocess(self) -> "DistinctShortestWalks":
        """Run the preprocessing phase once; later calls are no-ops.

        Records wall-clock timings per phase in :attr:`timings`
        (``compile``, ``annotate``, ``trim``, ``total``).
        """
        if self._annotation is not None or self._simple is not None:
            return self
        started = time.perf_counter()
        if self.uses_fast_path:
            self._simple = SimpleShortestWalks(
                self.graph, self.automaton,
                self._source_input, self._target_input,
            ).preprocess()
            self.timings["total"] = time.perf_counter() - started
            return self

        t0 = time.perf_counter()
        if self._compiled is not None:
            self._cq = self._compiled
        else:
            self._cq = compile_query(self.graph, self.automaton)
        t1 = time.perf_counter()
        self._annotation = annotate(self._cq, self.source, self.target)
        t2 = time.perf_counter()
        self._trimmed = trim(self.graph, self._annotation)
        t3 = time.perf_counter()
        self.timings.update(
            {
                "compile": t1 - t0,
                "annotate": t2 - t1,
                "trim": t3 - t2,
                "total": t3 - started,
            }
        )
        # Phase spans from the timings already measured (no-ops with
        # no active trace); an injected plan was compiled — and traced
        # — by its builder, so no compile span here in that case.
        if self._compiled is None:
            add_span("compile", t1 - t0)
        add_span("annotate", t2 - t1, cached=False)
        add_span("trim", t3 - t2)
        return self

    # -- inspection ------------------------------------------------------------

    @property
    def lam(self) -> Optional[int]:
        """λ — the answer length; ``None`` when no walk matches."""
        self.preprocess()
        if self._simple is not None:
            return self._simple.lam
        assert self._annotation is not None
        return self._annotation.lam

    @property
    def is_empty(self) -> bool:
        """True when the answer set is empty."""
        return self.lam is None

    @property
    def annotation(self) -> Annotation:
        """The raw annotation (general modes only) — used by tests."""
        self.preprocess()
        if self._annotation is None:
            raise QueryError("fast-path engine exposes no annotation")
        return self._annotation

    @property
    def trimmed(self) -> PackedCells:
        """The trimmed annotation (general modes only) — used by tests."""
        self.preprocess()
        if self._trimmed is None:
            raise QueryError("fast-path engine exposes no trimmed annotation")
        return self._trimmed

    # -- enumeration -----------------------------------------------------------------

    def enumerate(
        self, resume_after: Optional[Sequence[int]] = None
    ) -> Iterator[Walk]:
        """Enumerate the answer set ⟦A⟧(D, s, t), each walk once.

        General modes emit walks in the paper's DFS order (children by
        increasing ``TgtIdx``); the fast path may use a different
        order.  The preprocessing structures are read-only, so any
        number of returned iterators may run at once.

        ``resume_after`` (a previous output's edge sequence) continues
        strictly after that walk: one O(λ) seek in the general modes, a
        replay of the prefix on the fast path, which has no cells to
        seek in.  A sequence that was never an output raises
        :class:`~repro.exceptions.QueryError` on the first ``next()``.
        """
        self.preprocess()
        if self._simple is not None:
            return skip_past_cursor(self._simple.enumerate(), resume_after)
        assert self._annotation is not None and self._trimmed is not None
        ann = self._annotation
        run = (
            enumerate_memoryless if self.mode == "memoryless"
            else enumerate_walks
        )
        return run(
            self.graph, self._trimmed, ann.lam, self.target,
            ann.target_states, resume_after=resume_after,
        )

    def __iter__(self) -> Iterator[Walk]:
        return self.enumerate()

    def enumerate_with_multiplicity(
        self, method: str = "recompute"
    ) -> Iterator[Tuple[Walk, int]]:
        """Yield ``(walk, multiplicity)`` pairs (Section 5.3).

        The multiplicity is the number of accepting runs of the
        (ε-eliminated) query over the walk's label sets.  Two
        implementations, both within the O(λ × |A|) delay bound and
        both offered by the paper:

        * ``method="recompute"`` (default) — rerun the query over each
          finished walk (a DP costing O(λ × |A|) per output);
        * ``method="tracked"`` — carry suffix-run counts down the DFS
          ("keep track of the number of times each state has been
          produced along the walk"), one Δ-sweep per tree edge.

        The fast-path engine has no annotation to track over, so
        ``"tracked"`` falls back to recomputation there.
        """
        if method not in ("recompute", "tracked"):
            raise QueryError(
                f"unknown multiplicity method {method!r}; "
                "expected 'recompute' or 'tracked'"
            )
        self.preprocess()
        if self._count_cq is None:
            automaton = self.automaton
            if automaton.has_epsilon:
                automaton = remove_epsilon(automaton)
            self._count_cq = compile_query(self.graph, automaton)
        if method == "tracked" and self._trimmed is not None:
            assert self._annotation is not None
            ann = self._annotation
            return enumerate_with_runs(
                self.graph,
                self._trimmed,
                self._count_cq,
                ann.lam,
                self.target,
                ann.target_states,
            )
        count_cq = self._count_cq
        return (
            (walk, count_accepting_runs(count_cq, walk.edges))
            for walk in self.enumerate()
        )

    # -- conveniences ---------------------------------------------------------------------

    def count(self, method: str = "enumerate") -> int:
        """Number of answers.

        ``method="enumerate"`` (default) runs a full enumeration —
        O(answers × λ × |A|).  ``method="dp"`` counts without
        enumerating, via the memoized dynamic program of
        :func:`repro.core.count.count_distinct_shortest`; on answer
        sets with many shared suffixes (or astronomically many
        answers) it is exponentially faster.  The fast-path engine
        stores no annotation, so ``"dp"`` falls back to enumeration
        there.
        """
        if method not in ("enumerate", "dp"):
            raise QueryError(
                f"unknown count method {method!r}; "
                "expected 'enumerate' or 'dp'"
            )
        self.preprocess()
        if method == "dp" and self._annotation is not None:
            from repro.core.count import count_distinct_shortest

            ann = self._annotation
            return count_distinct_shortest(
                self.graph, ann, ann.lam, self.target, ann.target_states
            )
        return sum(1 for _ in self.enumerate())

    def first(self, k: int) -> List[Walk]:
        """The first ``k`` answers in enumeration order."""
        result: List[Walk] = []
        iterator = self.enumerate()
        for walk in iterator:
            result.append(walk)
            if len(result) >= k:
                break
        if hasattr(iterator, "close"):
            iterator.close()
        return result

    def structure_sizes(self) -> Dict[str, int]:
        """Entry counts of the precomputed structures (Remark 17).

        Both counts are O(1) reads: the annotation count is the packed
        entry-array length, the trimmed count the cell-array length.
        """
        self.preprocess()
        if self._annotation is None:
            return {}
        sizes = {
            "annotation_entries": self._annotation.annotation_entries(),
        }
        if self._trimmed is not None:
            sizes["trimmed_items"] = self._trimmed.total_items()
        return sizes


def distinct_shortest_walks(
    graph: Graph,
    query: QueryLike,
    source: Hashable,
    target: Hashable,
    mode: str = "iterative",
) -> Iterator[Walk]:
    """Functional one-shot facade over :class:`DistinctShortestWalks`."""
    return DistinctShortestWalks(graph, query, source, target, mode).enumerate()
