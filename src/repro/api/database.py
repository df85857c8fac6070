""":class:`Database` — the cache-backed home of every façade query.

One ``Database`` owns

* a **graph registry** with monotone version bumps (re-registering a
  name invalidates every cached artifact of the old graph — the same
  scheme the batch service introduced, now shared with it);
* the **plan cache** (query text → automaton + graph-aligned
  :class:`~repro.core.compile.CompiledQuery`) and the **annotation
  cache** ((query, source) →
  :class:`~repro.core.multi_target.MultiTargetShortestWalks`, built to
  the asked target's BFS level and deepened on demand) — both
  thread-safe, single-flight :class:`~repro.service.cache.LRUCache`
  instances, so *interactive* callers get the same 2.6–3.3× repeat
  speedup the JSONL batch path measured;
* the **executor** behind :class:`~repro.api.query.Query`'s terminal
  methods (DESIGN.md §4): every endpoint shape × semantics is one
  ordered stream of ``(source, target)`` *cells* — a pair is the
  one-cell case — produced by one per-source provider under one shape
  combinator, and the :class:`~repro.api.result.ResultSet` turns cells
  into rows (cursor resume, multiplicities, pagination).  ``run()``,
  ``count("dp")`` and ``targets()`` all read that stream.

The batched :class:`~repro.service.QueryService`, the serve workers
and the CLI all delegate here, so every entry point shares one
execution path and one cache.

>>> from repro.api import Database
>>> from repro.workloads.fraud import example9_graph
>>> db = Database(example9_graph())
>>> rs = db.query("h* s (h | s)*").from_("Alix").to("Bob").run()
>>> rs.lam, len(rs.all())
(3, 4)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.query import Query
from repro.api.result import ResultSet
from repro.api.rows import Cursor
from repro.automata import regex_to_nfa
from repro.automata.nfa import NFA
from repro.core.annotate import AnnotateBFS
from repro.core.compile import compile_epsilon_free, compile_query
from repro.core.enumerate import enumerate_walks, skip_past_cursor
from repro.core.multi_target import MultiTargetShortestWalks
from repro.core.restricted import (
    fallback_walks,
    restricted_filter,
    restricted_lam,
)
from repro.core.walks import Walk
from repro.exceptions import GraphError, QueryError
from repro.graph.database import Graph
from repro.live.delta import Delta, MutationBatch, ops_from_dicts
from repro.live.live_graph import LiveGraph, query_label_footprint
from repro.obs import Observability, Trace
from repro.obs import trace as obs_trace
from repro.query.plan import QueryPlan, analyze
from repro.service.cache import LRUCache


@dataclass
class _GraphHandle:
    """A registered graph plus its monotonically increasing version."""

    name: str
    graph: Graph
    version: int
    #: Change-feed detach hook (LiveGraph entries only).
    unsubscribe: Any = None
    #: ``(plans, annotations)`` evicted by the last mutation batch —
    #: written by the database's own feed subscriber, read by
    #: :meth:`Database.mutate` for its result receipt.
    last_evictions: Tuple[int, int] = (0, 0)


@dataclass
class _Plan:
    """A plan-cache value: the compiled form of one query text."""

    automaton: NFA  # The query as written (Thompson's ε-NFA).
    compiled: Any  # CompiledQuery for the handle's graph.
    build_s: float
    #: ε-free compiled form for multiplicity counting, built lazily on
    #: the first ``with_multiplicity`` execution (benign write race:
    #: every thread computes the same value).
    count_compiled: Any = None
    #: ``(mentioned label names, uses_any)`` — what fine-grained
    #: invalidation intersects with a mutation batch's *new* labels
    #: (compilation drops transitions on labels absent from the
    #: alphabet it saw, and expands wildcards over that alphabet, so
    #: only label-universe growth can stale a plan).
    footprint: Any = None


@dataclass
class MutationResult:
    """Outcome of one :meth:`Database.mutate` call."""

    #: Receipt of the applied batch (op/label details).
    batch: MutationBatch
    #: Graph version after the call (bumped only by promote/compact).
    version: int
    #: True when this call promoted a plain ``Graph`` to a
    #: :class:`~repro.live.live_graph.LiveGraph` (full cache purge).
    promoted: bool = False
    #: True when the live graph was compacted (full cache purge).
    compacted: bool = False
    #: Cache entries evicted by fine-grained label intersection.
    evicted_plans: int = 0
    evicted_annotations: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            **self.batch.summary(),
            "version": self.version,
            "promoted": self.promoted,
            "compacted": self.compacted,
            "evicted_plans": self.evicted_plans,
            "evicted_annotations": self.evicted_annotations,
        }


#: One ``(source, target)`` cell of a result stream: ``(source_id,
#: target_id, λ, open, prepared)``.  ``open(resume_after)`` opens the
#: cell's walk stream positioned after a previous output of it;
#: ``prepared`` is the source's prepared object where the stream *is*
#: its enumeration to the target — what the counting DP applies to —
#: and ``None`` for restricted and any-walk cells.  Under a
#: trails/simple restriction λ is rλ.
_Cell = Tuple[
    int, int, int, Callable[..., Iterator[Walk]],
    Optional[MultiTargetShortestWalks],
]


class Database:
    """A graph registry + shared caches + the façade query executor.

    ``Database(graph)`` registers ``graph`` under ``name`` (default
    ``"default"``); more graphs can be added with :meth:`register` and
    selected per query via :meth:`~repro.api.query.Query.on`.

    ``annotation_cache_size=0`` turns the database cold: nothing is
    retained between calls — the configuration the service benchmark
    compares against.  It only means "retain nothing": same engine,
    same builds, same answers.  (A one-target query's annotation stops
    at that target's level whatever the capacity; the Dijkstra
    ``cheapest`` build, which cannot deepen, is the one place the
    capacity matters — saturated when it can be retained, stopped at
    the target when it cannot.)
    """

    def __init__(
        self,
        graph: Optional[Graph] = None,
        *,
        name: str = "default",
        plan_cache_size: int = 256,
        annotation_cache_size: int = 128,
        warm: bool = True,
        obs: Optional["Observability"] = None,
    ) -> None:
        #: Observability bundle.  ``None`` (the default for direct
        #: façade use) means fully off: no registry writes, no trace
        #: activation — the uninstrumented baseline the spine's
        #: ``obs.trace_overhead_frac`` row measures tracing against.
        self._obs = obs
        self._metrics = (
            obs.registry if (obs is not None and obs.enabled) else None
        )
        if self._metrics is not None:
            self._metrics.register_collector(self._cache_collector)
            self._c_evicted_plans = self._metrics.counter(
                "cache.plan_cache.footprint_evictions"
            )
            self._c_evicted_annotations = self._metrics.counter(
                "cache.annotation_cache.footprint_evictions"
            )
        self._graphs: Dict[str, _GraphHandle] = {}
        self._graphs_lock = threading.Lock()
        # Per-name WAL writers (durable entries only; see
        # register_durable).  Guarded by _graphs_lock.
        self._wal_writers: Dict[str, Any] = {}
        # Database-wide monotone version counter — never reset, not
        # even across unregister/register cycles, so a stale in-flight
        # cache build can never collide with a fresh key.
        self._next_version = 0
        self._plan_cache: LRUCache[Tuple, _Plan] = LRUCache(plan_cache_size)
        self._annotation_cache: LRUCache[
            Tuple, MultiTargetShortestWalks
        ] = LRUCache(annotation_cache_size)
        self._build_lock = threading.Lock()
        self._plan_build_s = 0.0
        self._annotation_build_s = 0.0
        self._annotation_deepens = 0
        if graph is not None:
            self.register(name, graph, warm=warm)

    # -- graph registry ------------------------------------------------------

    def register(
        self,
        name: str,
        graph: Union[Graph, LiveGraph],
        warm: bool = True,
    ) -> int:
        """Register (or replace) a graph under ``name``; returns its
        version.  Replacing bumps the version, which invalidates every
        cached plan and annotation of the old graph.  With
        ``warm=True`` the graph's lazy CSR indexes are built now, on
        the caller's thread.  Registering a
        :class:`~repro.live.live_graph.LiveGraph` makes the entry
        mutable through :meth:`mutate` without the one-time promotion
        purge; the database subscribes to the graph's change feed, so
        even direct ``LiveGraph.apply`` calls keep these caches
        coherent (the eviction subscriber is registered before any
        standing query can be, and feed delivery is in subscription
        order)."""
        stale_writer = None
        with self._graphs_lock:
            self._next_version += 1
            version = self._next_version
            old = self._graphs.get(name)
            replacing = old is not None
            # A durable entry keeps its writer across *re*-registration
            # of the same LiveGraph object (the compaction path in
            # _on_mutation does exactly that); replacing the name with
            # a different graph orphans the old log — close it.
            if old is not None and old.graph is not graph:
                stale_writer = self._wal_writers.pop(name, None)
            handle = _GraphHandle(name, graph, version)
            self._graphs[name] = handle
            # Swap the feed subscription inside the registry lock so
            # two interleaved re-registers cannot leave a stale
            # handle's eviction subscriber attached forever (lock
            # order is registry → graph feed; nothing takes them in
            # reverse).  front=True keeps eviction ahead of user-level
            # subscribers even across compaction re-registrations.
            if old is not None and old.unsubscribe is not None:
                old.unsubscribe()
            if isinstance(graph, LiveGraph):
                handle.unsubscribe = graph.subscribe(
                    lambda batch: self._on_mutation(handle, batch),
                    front=True,
                )
                if self._metrics is not None:
                    # Idempotent across compaction re-registration of
                    # the same LiveGraph object.
                    graph.attach_metrics(self._metrics)
        if stale_writer is not None:
            if isinstance(old.graph, LiveGraph):
                old.graph.detach_wal()
            stale_writer.close()
        if replacing:
            # Purge entries of every *older* version of this graph — a
            # racing query may already have inserted entries for the
            # new version, and those are valid.
            def stale(key) -> bool:
                return key[0] == name and key[1] != version

            self._plan_cache.drop_where(stale)
            self._annotation_cache.drop_where(stale)
        if warm:
            graph.warm_indexes()
        return version

    def unregister(self, name: str) -> None:
        """Remove a graph and purge its cached artifacts.

        A durable entry's WAL writer is flushed, fsync'd and closed
        (its hook detached), so the log ends on a clean frame.
        """
        with self._graphs_lock:
            handle = self._graphs.get(name)
            if handle is None:
                raise QueryError(f"unknown graph {name!r}")
            del self._graphs[name]
            if handle.unsubscribe is not None:
                handle.unsubscribe()
            writer = self._wal_writers.pop(name, None)
        if writer is not None:
            if isinstance(handle.graph, LiveGraph):
                handle.graph.detach_wal()
            writer.close()
        self._plan_cache.drop_where(lambda k: k[0] == name)
        self._annotation_cache.drop_where(lambda k: k[0] == name)

    # -- durability (repro.wal) ---------------------------------------------

    def register_durable(
        self,
        name: str,
        wal_dir: str,
        *,
        graph: Optional[Graph] = None,
        sync: str = "group",
        group_window_ms: float = 50.0,
        warm: bool = True,
    ) -> int:
        """Register a WAL-backed :class:`LiveGraph` under ``name``.

        ``wal_dir`` is this graph's durability home (one directory per
        graph).  When it already holds durable state, that state
        **wins**: it is recovered (latest valid snapshot + tail
        replay, torn tail truncated) and ``graph`` is ignored — so a
        restarted process can pass its bootstrap graph unconditionally
        and still resume where the log left off.  A fresh directory is
        seeded from ``graph`` (a snapshot at LSN 0; ``None`` starts
        empty).  Vertex names of a durable graph obey the snapshot
        segment's rule (str/int/bool/None or a finite float, see
        :func:`repro.graph.segment.check_vertex_name`) — anything else
        raises :class:`~repro.exceptions.WalError` at commit time.

        Every later mutation — :meth:`mutate`, direct
        ``LiveGraph.apply``/``compact`` — is appended to the log
        *before* it is applied (see :meth:`LiveGraph.attach_wal`);
        compactions also write a snapshot at their LSN.  ``sync`` and
        ``group_window_ms`` select the fsync policy (see
        :class:`repro.wal.WalWriter`).
        """
        from repro.wal.recovery import recover as _recover
        from repro.wal.snapshot import list_snapshots, write_snapshot
        from repro.wal.writer import LOG_NAME, WalWriter

        import os

        os.makedirs(wal_dir, exist_ok=True)
        fresh = not list_snapshots(wal_dir) and not os.path.exists(
            os.path.join(wal_dir, LOG_NAME)
        )
        if fresh:
            if isinstance(graph, LiveGraph):
                from repro.exceptions import WalError

                raise WalError(
                    "bootstrap a durable entry from an immutable Graph "
                    "(LiveGraph.to_graph()), not a LiveGraph — the "
                    "live graph's edge-id history is not reconstructible "
                    "from a snapshot"
                )
            base = graph if graph is not None else Graph((), (), (), (), ())
            # Seed the directory so recovery (and followers) see the
            # bootstrap state; this also validates the vertex names.
            write_snapshot(wal_dir, base, 0)
            live = LiveGraph(base)
            start_lsn, start_offset = 0, 0
        else:
            state = _recover(wal_dir)
            live = state.graph
            start_lsn, start_offset = state.last_lsn, state.valid_offset
        writer = WalWriter(
            wal_dir,
            sync=sync,
            group_window_ms=group_window_ms,
            start_lsn=start_lsn,
            start_offset=start_offset,
            metrics=self._metrics,
        )
        live.attach_wal(writer)
        version = self.register(name, live, warm=warm)
        with self._graphs_lock:
            self._wal_writers[name] = writer
        return version

    @classmethod
    def open(
        cls,
        wal_dir: str,
        *,
        graph: Optional[Graph] = None,
        name: str = "default",
        sync: str = "group",
        group_window_ms: float = 50.0,
        plan_cache_size: int = 256,
        annotation_cache_size: int = 128,
        warm: bool = True,
    ) -> "Database":
        """A database whose ``name`` graph is durable in ``wal_dir``.

        Shorthand for ``Database()`` + :meth:`register_durable` — the
        durable analogue of ``Database(graph)``.  Existing durable
        state in ``wal_dir`` wins over ``graph`` (see
        :meth:`register_durable`); close with :meth:`close` (or rely
        on recovery: the log is crash-consistent at every moment).
        """
        db = cls(
            plan_cache_size=plan_cache_size,
            annotation_cache_size=annotation_cache_size,
        )
        db.register_durable(
            name,
            wal_dir,
            graph=graph,
            sync=sync,
            group_window_ms=group_window_ms,
            warm=warm,
        )
        return db

    @classmethod
    def recover(
        cls,
        wal_dir: str,
        *,
        name: str = "default",
        plan_cache_size: int = 256,
        annotation_cache_size: int = 128,
        warm: bool = True,
    ) -> "Database":
        """Recover ``wal_dir`` into a database **without** a writer.

        Read-only with respect to durability: the recovered graph is
        queryable (and even mutable in memory), but nothing new is
        logged — use :meth:`open` to recover *and* continue the log.
        The recovery geometry is exposed as ``db.last_recovery``
        (a :class:`repro.wal.RecoveredState`).
        """
        from repro.wal.recovery import recover as _recover

        state = _recover(wal_dir)
        db = cls(
            plan_cache_size=plan_cache_size,
            annotation_cache_size=annotation_cache_size,
        )
        db.register(name, state.graph, warm=warm)
        db.last_recovery = state
        return db

    def wal_writer(self, name: Optional[str] = None):
        """The WAL writer of a durable entry, or ``None``."""
        handle = self._handle(name)
        with self._graphs_lock:
            return self._wal_writers.get(handle.name)

    def close(self) -> None:
        """Flush, fsync and close every durable entry's WAL writer.

        Idempotent.  The database stays usable for reads; further
        mutations on a previously durable graph raise
        :class:`~repro.exceptions.WalError` (the attached hook's
        writer is closed) rather than silently going undurable.
        """
        with self._graphs_lock:
            writers = list(self._wal_writers.values())
            self._wal_writers = {}
        for writer in writers:
            writer.close()

    def _on_mutation(
        self, handle: _GraphHandle, batch: MutationBatch
    ) -> None:
        """Change-feed subscriber: fine-grained label-footprint eviction.

        Runs synchronously inside every ``LiveGraph.apply`` (and
        ``compact``) on the registered graph — before user-level
        subscribers such as standing queries, which therefore always
        observe a coherent cache.  A cached *plan* is stale only when
        the batch grew the label universe into labels the plan's
        automaton mentions (or the plan compiled a wildcard over the
        old alphabet); a cached *annotation* is stale whenever its
        automaton can fire on any label the batch touched.  A
        **compaction** receipt renumbers edge ids, where label
        reasoning does not apply: it answers with a re-registration —
        version bump, full purge of this graph's entries — so even a
        direct ``LiveGraph.compact()`` call (outside
        :meth:`Database.mutate`) keeps the caches coherent.
        """
        graph_name = handle.name
        if batch.compaction:
            self.register(graph_name, handle.graph, warm=False)
            handle.last_evictions = (0, 0)
            return

        def plan_affected(key, plan: _Plan) -> bool:
            if key[0] != graph_name:
                return False
            if plan.footprint is None:  # Unknown footprint: be safe.
                return True
            names, uses_any = plan.footprint
            if uses_any:
                return bool(batch.new_labels)
            return bool(names & batch.new_labels)

        def annotation_affected(key, mt: MultiTargetShortestWalks) -> bool:
            if key[0] != graph_name:
                return False
            fp = getattr(mt, "_live_footprint", None)
            if fp is None:
                fp = query_label_footprint(mt.automaton)
                mt._live_footprint = fp
            names, uses_any = fp
            if uses_any:
                return bool(batch.touched_labels)
            return bool(names & batch.touched_labels)

        plans = self._plan_cache.drop_where_item(plan_affected)
        annotations = self._annotation_cache.drop_where_item(
            annotation_affected
        )
        handle.last_evictions = (plans, annotations)
        if self._metrics is not None:
            if plans:
                self._c_evicted_plans.inc(plans)
            if annotations:
                self._c_evicted_annotations.inc(annotations)

    # -- incremental mutation (repro.live) -----------------------------------

    def live(self, name: Optional[str] = None) -> LiveGraph:
        """The :class:`LiveGraph` registered under ``name``.

        Raises :class:`~repro.exceptions.QueryError` when the entry is
        a plain immutable :class:`Graph` (call :meth:`mutate` once, or
        register a ``LiveGraph``, to make it mutable).
        """
        graph = self._handle(name).graph
        if not isinstance(graph, LiveGraph):
            raise QueryError(
                f"graph {name or 'default'!r} is immutable; register a "
                "LiveGraph or call mutate() to promote it"
            )
        return graph

    def mutate(
        self,
        name_or_ops,
        ops: Optional[Sequence] = None,
        *,
        compact: Any = "auto",
    ) -> MutationResult:
        """Apply a mutation batch with fine-grained cache invalidation.

        Call as ``mutate(ops)`` (sole-graph databases) or
        ``mutate(name, ops)``.  ``ops`` is a sequence of
        :mod:`repro.live.delta` op objects and/or their wire-form
        dictionaries (``{"op": "add_edge", ...}``).

        A plain immutable graph is *promoted* to a
        :class:`~repro.live.live_graph.LiveGraph` in place on first
        mutation — a version bump, so that first call purges the
        graph's cached artifacts wholesale.  Every later batch evicts
        **only** the cached plans and annotations whose label
        footprint intersects the batch's labels: writes on unrelated
        labels keep the annotation cache warm (the no-reindexing
        invariant of :mod:`repro.live` is what makes the retained
        entries remain valid).

        ``compact`` — ``"auto"`` (default) compacts the live graph when
        its :attr:`~repro.live.live_graph.LiveGraph.delta_ratio`
        crosses the graph's threshold, ``True`` forces it, ``False``
        suppresses it.  Compaction renumbers edge ids, so it also
        bumps the version and purges the graph's entries (and
        invalidates outstanding cursors).

        Concurrency model: mutations are atomic per batch, but reads
        racing a batch on other threads are **not** isolated — a query
        mid-flight while ``mutate`` commits may capture flat views
        from both epochs (the hot loops read several array properties,
        each materialized independently), and an annotation *build*
        racing the batch may land in the cache after the eviction
        pass.  The sanctioned usage is a batch run in order
        (:meth:`repro.service.QueryService.execute_batch`), the barriers
        of :mod:`repro.serve`, or any other external read/write
        serialization; a compaction
        additionally invalidates outstanding pagination cursors, which
        clients must discard — the cursor shape checks catch most
        stale resumes as :class:`~repro.exceptions.QueryError`, but a
        renumbered cursor that happens to stay shape-valid is not
        detected.
        """
        if ops is None:
            name, op_seq = None, name_or_ops
        else:
            name, op_seq = name_or_ops, ops
        # Accept the JSONL wire vocabulary as aliases so Python
        # callers can copy documented request values verbatim; reject
        # anything else rather than silently never compacting.
        if compact == "always":
            compact = True
        elif compact == "never":
            compact = False
        if not (compact is True or compact is False or compact == "auto"):
            raise QueryError(
                f"compact must be True/False/'auto' (or the wire "
                f"aliases 'always'/'never'), got {compact!r}"
            )
        parsed: List[Delta] = [
            op if not isinstance(op, dict) else ops_from_dicts([op])[0]
            for op in op_seq
        ]
        handle = self._handle(name)
        promoted = False
        if not isinstance(handle.graph, LiveGraph):
            live = LiveGraph(handle.graph)
            # Promotion is re-registration: version bump + full purge.
            # (Cached plans hold a CompiledQuery whose graph identity
            # is the old immutable object — they cannot be reused.)
            self.register(handle.name, live, warm=False)
            handle = self._handle(handle.name)
            promoted = True
        live = handle.graph
        graph_name = handle.name
        # The registered feed subscriber (:meth:`_on_mutation`) evicts
        # synchronously inside apply() and records the counts.
        batch = live.apply(parsed)
        evicted_plans, evicted_annotations = handle.last_evictions

        compacted = False
        if compact is True or (
            compact == "auto"
            and live.delta_ratio >= live.compact_threshold
        ):
            # The compaction receipt routes through the change feed:
            # _on_mutation answers with the version-bump purge and
            # re-registration, exactly as for a direct compact() call.
            live.compact()
            live.warm_indexes()
            handle = self._handle(graph_name)
            compacted = True

        return MutationResult(
            batch=batch,
            version=handle.version,
            promoted=promoted,
            compacted=compacted,
            evicted_plans=evicted_plans,
            evicted_annotations=evicted_annotations,
        )

    def version(self, name: str) -> int:
        """Current version of a registered graph."""
        return self._handle(name).version

    def graphs(self) -> Dict[str, int]:
        """Registered graph names and their versions."""
        with self._graphs_lock:
            return {
                name: handle.version
                for name, handle in self._graphs.items()
            }

    def _handle(self, name: Optional[str]) -> _GraphHandle:
        with self._graphs_lock:
            if name is None:
                if len(self._graphs) == 1:
                    return next(iter(self._graphs.values()))
                raise QueryError(
                    "query names no graph and the database has "
                    f"{len(self._graphs)} registered; select one with "
                    "'on'"
                )
            handle = self._graphs.get(name)
            if handle is None:
                raise QueryError(f"unknown graph {name!r}")
            return handle

    # -- the fluent entry point ----------------------------------------------

    def query(self, query: str) -> Query:
        """Start building a query from an RPQ expression."""
        if not isinstance(query, str) or not query.strip():
            raise QueryError("query must be a non-empty RPQ expression")
        return Query(self, query)

    # -- cache plumbing ------------------------------------------------------

    def _plan(self, q: Query, handle: _GraphHandle) -> Tuple[_Plan, bool]:
        """The query's cached plan, and whether it was a hit."""
        if q._semantics == "cheapest" and q._restriction != "walks":
            raise QueryError(
                "cheapest semantics supports the unrestricted 'walks' "
                f"form only, not {q._restriction!r} (cost-minimal trails/"
                "simple paths are a different problem; any-walk is "
                "length-based)"
            )
        # The restriction rides at the END of the key (the eviction
        # predicates pattern-match on key[0]=name / key[1]=version): a
        # cached plan never serves a different semantics, per-semantics
        # entries hit independently, and every invalidation path —
        # re-register, unregister, footprint eviction — covers all
        # semantics of a graph unchanged.
        key = (handle.name, handle.version, q._expression, q._restriction)
        return self._plan_cache.fetch(key, self._build_plan, handle, q)

    def _build_plan(self, handle: _GraphHandle, q: Query) -> _Plan:
        """A plan-cache miss: parse and compile the query text."""
        t0 = time.perf_counter()
        with obs_trace.span("parse"):
            nfa = regex_to_nfa(q._expression)
        with obs_trace.span("compile") as compile_span:
            cq = compile_query(handle.graph, nfa)
            co_accessible, merged = cq.live_states
            compile_span.tag(
                states=cq.automaton.n_states,
                co_accessible=co_accessible,
                merged=merged,
            )
        build_s = time.perf_counter() - t0
        with self._build_lock:
            self._plan_build_s += build_s
        return _Plan(
            automaton=nfa,
            compiled=cq,
            build_s=build_s,
            footprint=query_label_footprint(nfa),
        )

    def _build_annotation(
        self,
        graph: Graph,
        plan: _Plan,
        source_id: int,
        only: Optional[int],
        cheapest: bool,
    ) -> MultiTargetShortestWalks:
        """An annotation-cache miss: the prepared (query, source)
        object, annotated (and trimmed toward ``only``).

        The cached object carries the annotation's flat ``dist`` and
        its one trim cell store (see :mod:`repro.datastructures.packed`):
        every cache hit serves per-target reads off ``dist`` and
        enumerations off the cells, pulling a target's the first time
        it is read, with no per-hit copy or dict materialization
        anywhere.

        The restriction is *not* in the key (unlike :meth:`_plan`'s,
        whose plan text differs per semantics): ``walks``, ``trails``
        and ``simple`` of one (query, source) read the same
        unrestricted object — :meth:`_reach` applies the restricted
        regime on top, per request, and stores nothing restricted in
        it — so they share one cache line, built once and evicted once.

        ``only`` is the one target the query's shape asks about, if it
        asks about one.  A miss builds the entry's BFS to ``only``'s
        level (to exhaustion when there is none); a hit that stands
        short of what the request reads is deepened by :meth:`_reach`.
        Dijkstra cannot deepen: its entry saturates when the cache can
        retain it and stops at ``only`` when it cannot (capacity 0).
        """
        t0 = time.perf_counter()
        stop = (
            only
            if cheapest and self._annotation_cache.capacity == 0
            else None
        )
        # Vertex *names*, not ids: the constructor resolves its
        # designators itself, and on graphs with integer vertex names
        # an id would resolve differently.
        mt = MultiTargetShortestWalks(
            graph,
            plan.automaton,
            graph.vertex_name(source_id),
            cheapest=cheapest,
            compiled=plan.compiled,
            target=None if stop is None else graph.vertex_name(stop),
        ).preprocess(only)
        self._count_annotation_build(time.perf_counter() - t0)
        return mt

    def _count_annotation_build(
        self, seconds: float, deepen: bool = False
    ) -> None:
        with self._build_lock:
            self._annotation_build_s += seconds
            self._annotation_deepens += deepen

    def _count_cq(self, plan: _Plan, graph: Graph):
        if plan.count_compiled is None:
            plan.count_compiled = compile_epsilon_free(
                graph, plan.automaton
            )
        return plan.count_compiled

    # -- statistics ----------------------------------------------------------

    def cache_stats(self) -> Dict[str, Any]:
        """Hit/miss/eviction counters and sizes of both caches, and how
        many annotation-cache hits had to deepen their entry."""
        with self._build_lock:
            deepens = self._annotation_deepens
        return {
            "plan_cache": {
                "capacity": self._plan_cache.capacity,
                "entries": len(self._plan_cache),
                **self._plan_cache.stats.as_dict(),
            },
            "annotation_cache": {
                "capacity": self._annotation_cache.capacity,
                "entries": len(self._annotation_cache),
                **self._annotation_cache.stats.as_dict(),
                "deepens": deepens,
            },
        }

    def _cache_collector(self) -> Dict[str, Dict[str, float]]:
        """Pull-style metrics export of both caches (hit/miss/eviction).

        Registered with the metrics registry at construction; the LRU
        caches keep their own counters, so exporting on snapshot
        avoids double-writing every cache touch.
        """
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        for label, cache in (
            ("plan_cache", self._plan_cache),
            ("annotation_cache", self._annotation_cache),
        ):
            stats = cache.stats.as_dict()
            counters[f"cache.{label}.hits"] = stats["hits"]
            counters[f"cache.{label}.misses"] = stats["misses"]
            counters[f"cache.{label}.evictions"] = stats["evictions"]
            gauges[f"cache.{label}.entries"] = len(cache)
            gauges[f"cache.{label}.capacity"] = cache.capacity
        with self._build_lock:
            counters["cache.annotation_cache.deepens"] = (
                self._annotation_deepens
            )
        return {"counters": counters, "gauges": gauges}

    def build_seconds(self) -> Tuple[float, float]:
        """Cumulative (plan, annotation) build time: cache misses, and
        the deepens of annotation-cache hits."""
        with self._build_lock:
            return self._plan_build_s, self._annotation_build_s

    def stats(self) -> Dict[str, Any]:
        """Cache statistics, build times and the graph registry."""
        plan_s, ann_s = self.build_seconds()
        return {
            **self.cache_stats(),
            "plan_build_s": round(plan_s, 6),
            "annotation_build_s": round(ann_s, 6),
            "graphs": self.graphs(),
        }

    # -- execution -----------------------------------------------------------

    def _run(self, q: Query) -> ResultSet:
        # The deadline is anchored *before* preprocessing: a request
        # whose plan/annotation build consumes the budget times out on
        # its first pagination check instead of getting a fresh full
        # budget for the enumeration.
        deadline = (
            time.perf_counter() + q._timeout_ms / 1000.0
            if q._timeout_ms is not None
            else None
        )
        handle = self._handle(q._graph_name)
        # One trace per request: preprocessing spans (parse, compile,
        # annotate, trim) open against the contextvar below; the
        # enumerate span is attached post hoc by ResultSet when
        # pagination finishes (enumeration is lazy, so it happens after
        # this frame returns).
        trace = None if self._metrics is None else Trace()
        if trace is not None:
            token = obs_trace.activate(trace)
        try:
            shape = q._shape()
            cursor = q._cursor
            plan, stats, cells, lam = self._cells(q, handle, shape, cursor)
            if trace is not None:
                stats["trace"] = trace
            graph = handle.graph
            return ResultSet(
                cells,
                graph,
                lam=lam,
                stats=stats,
                bucketed=shape[0] != "pair",
                count_cq=(
                    self._count_cq(plan, graph) if q._multiplicity else None
                ),
                limit=q._limit,
                offset=q._offset,
                deadline=deadline,
                cursor=cursor,
            )
        finally:
            if trace is not None:
                obs_trace.deactivate(token)

    def _reach(
        self,
        q: Query,
        handle: _GraphHandle,
        plan: _Plan,
        stats: Dict[str, Any],
        source_id: int,
        only: Optional[int],
    ) -> Tuple[Callable[[], Iterable[int]], Callable[[int], Optional[Tuple]]]:
        """One source's provider, per semantics: ``(reached, cell)``.

        ``reached()`` lists the targets the source reaches, ascending;
        ``cell(t)`` is target ``t``'s ``(λ, open, prepared)`` — the tail
        of a :data:`_Cell` — or ``None`` when the pair has no answer.
        With ``only`` set, nothing but that target will be asked about.

        * ``walks`` / ``cheapest``: the cached prepared object — λ and
          the stream are per-target reads of it, settled here (a hit
          built for a nearer target deepens: to ``only``'s level, or
          to exhaustion for the shapes that read every target).
        * ``trails`` / ``simple``: the same object, then the restricted
          regime on top (:func:`restricted_lam`; λ becomes rλ).
        * ``any``: one :class:`~repro.core.annotate.AnnotateBFS` run —
          to ``only``'s level, or to exhaustion for the shapes that
          read every target — with no annotation-cache entry and no
          Trim; a cell's stream
          is its single witness, read back from the run's ``dist``
          (:meth:`~repro.core.annotate.AnnotateBFS.witness`).

        This is also the one place a request's annotation statistics
        are written.
        """
        graph = handle.graph
        compiled = plan.compiled
        restriction = q._restriction
        any_walk = restriction == "any"
        t0 = time.perf_counter()
        if any_walk:
            bfs = AnnotateBFS(compiled, source_id)
            bfs.run(only)
            hit = deepened = False
        else:
            cheapest = q._semantics == "cheapest"
            mt, hit = self._annotation_cache.fetch(
                (handle.name, handle.version, q._expression, source_id,
                 cheapest),
                self._build_annotation, graph, plan, source_id, only,
                cheapest,
            )
            deepened = hit and mt.settle(only)
        # From this query's perspective: build time on a miss,
        # single-flight wait time when another thread is building,
        # deepen time (with the µs probe before it) on a hit that had
        # to go further.
        dt = time.perf_counter() - t0
        if deepened:
            self._count_annotation_build(dt, deepen=True)
        timings = stats["timings"]
        timings["annotate"] = timings.get("annotate", 0.0) + dt
        stats["cached"]["annotation"] &= hit
        if any_walk:
            obs_trace.add_span(
                "annotate", dt, semantics="any", cached=False,
                levels=bfs.level, exhausted=bfs.exhausted,
            )

            def witness(t: int) -> Optional[Tuple]:
                found = bfs.witness(t)
                if found is None:
                    return None
                lam, edges = found
                return lam, lambda resume: skip_past_cursor(
                    iter((Walk.from_edges_unchecked(graph, edges, source_id),)),
                    resume,
                ), None

            def reached() -> List[int]:
                info = bfs.target_info
                return [t for t in range(bfs.n) if info(t)[0] is not None]

            return reached, witness

        if deepened:
            obs_trace.add_span(
                "annotate", dt, cached=True, deepened=True, **mt.extent()
            )
        elif hit:
            # The real annotate/trim spans were traced on the building
            # thread; a hit still shows the phase, tagged.
            obs_trace.add_span("annotate", dt, cached=True)
        # The build (``preprocess(only)``) or the settle above left
        # every target this request reads settled: ``only``, or all of
        # them when there is none.  So each cell reads λ and S_t off
        # one published snapshot, and opens the DFS on it by id.
        annotation = mt.annotation
        packed = annotation.packed
        cost_of = graph.cost_array.__getitem__ if mt.cheapest else None

        def cell(t: int) -> Optional[Tuple]:
            lam, states = annotation.target_info(t)
            if lam is None:
                return None

            # One DFS per page, positioned once by the cursor.
            def open_walks(resume=None):
                return enumerate_walks(
                    graph, packed, lam, t, states, cost_of, resume
                )

            if restriction == "walks":
                return lam, open_walks, mt
            # A fresh stream per call, so the probe's partial
            # consumption does not disturb the ones opened later.
            found = restricted_lam(
                graph, compiled, source_id, t, lam, restriction, open_walks
            )
            if found is None:
                return None
            rlam, regime = found
            return rlam, partial(
                _walk_stream, graph, compiled, source_id, t, restriction,
                rlam, regime, open_walks,
            ), None

        return mt.reached_targets, cell

    def _cells(
        self,
        q: Query,
        handle: _GraphHandle,
        shape: Tuple,
        cursor: Optional[Cursor] = None,
    ) -> Tuple[_Plan, Dict[str, Any], Iterable[_Cell], Optional[int]]:
        """The one shape combinator: ``(plan, stats, cells, λ)``.

        ``plan`` is the query's cached plan and ``stats`` the request's
        ``{"cached": …, "timings": …}`` (:meth:`_reach` fills in the
        annotation side, the result set the ``enumerate`` timing).
        ``cells`` is the query's ordered :data:`_Cell` stream and ``λ``
        its global answer length: the cell's own for a pair, the
        minimum over the sources for ``many_to_one`` (the virtual
        super-source's λ), ``None`` for the per-cell shapes.  Every
        source's provider is built here, eagerly — so the request's
        cache and timing statistics are valid before the stream is
        consumed — while the cells themselves (under a restriction:
        one :func:`restricted_lam` each) are produced lazily, bar a
        pair's.  A cell whose pair admits no (restricted) walk is not
        in the stream.  With a resuming ``cursor`` the stream starts at
        the cursor's own cell, whose λ the cursor's budget must match.

        A cache hit and a miss run the same code: the two cache probes
        build nothing on a hit.
        """
        plan, plan_hit = self._plan(q, handle)
        stats: Dict[str, Any] = {
            "cached": {"plan": plan_hit, "annotation": True},
            "timings": {},
        }
        graph = handle.graph
        kind = shape[0]
        cheapest = q._semantics == "cheapest"
        only = (
            graph.resolve_vertex(shape[2])
            if kind in ("pair", "many_to_one")
            else None
        )
        at = None if cursor is None else _cursor_cell(graph, cursor, shape, only)
        if kind == "pair":
            source_id = graph.resolve_vertex(shape[1])
            _, cell = self._reach(q, handle, plan, stats, source_id, only)
            found = cell(only)
            # An unmatched pair is empty, cursor or not.
            if found is None:
                return plan, stats, (), None
            if cursor is not None:
                # A pair is eager: like its restricted_lam, its
                # cursor's budget check runs inside run(); the other
                # shapes check as the stream is consumed.
                _check_cursor_budget(graph, cursor, found[0], cheapest)
            return plan, stats, ((source_id, only, *found),), found[0]
        if kind == "all_pairs":
            # Sources before the cursor's cell never contribute to a
            # resumed stream — skip them without building annotations.
            first = 0 if at is None or at[0] is None else at[0]
            sources: Iterable[int] = range(first, graph.vertex_count)
        elif kind in ("many_to_one", "many_to_all"):
            # Deduped, keeping caller order.
            sources = dict.fromkeys(graph.resolve_vertex(s) for s in shape[1])
        else:
            sources = (graph.resolve_vertex(shape[1]),)
        reaches = [
            (s, *self._reach(q, handle, plan, stats, s, only))
            for s in sources
        ]

        def minimal(t: int) -> List[_Cell]:
            """Target ``t``'s cells from the sources attaining its
            minimal λ (the super-source view; taken over rλ under a
            restriction, where the source with the shortest walk need
            not have the shortest trail).  Any-walk keeps one witness:
            the first such source's."""
            found = [
                (s, t, *c)
                for s, _, cell in reaches
                if (c := cell(t)) is not None
            ]
            lam = min((c[2] for c in found), default=None)
            best = [c for c in found if c[2] == lam]
            return best[:1] if q._restriction == "any" else best

        lam = None
        if kind == "many_to_one":
            best = minimal(only)
            cells: Iterable[_Cell] = best
            lam = best[0][2] if best else None
        elif kind == "many_to_all":
            targets = sorted(
                {t for _, reached, _ in reaches for t in reached()}
            )
            cells = (c for t in targets for c in minimal(t))
        else:
            # one_to_all / all_pairs: every reached pair, source-major.
            cells = (
                (s, t, *c)
                for s, reached, cell in reaches
                for t in reached()
                if (c := cell(t)) is not None
            )
        if cursor is not None:
            cells = _from_cursor(graph, cells, cursor, at, cheapest)
        return plan, stats, cells, lam

    # -- non-enumerating terminals -------------------------------------------

    def _count(self, q: Query, method: str) -> int:
        if method not in ("enumerate", "dp"):
            raise QueryError(
                f"unknown count method {method!r}; "
                "expected 'enumerate' or 'dp'"
            )
        if method == "dp" and q._restriction != "walks":
            raise QueryError(
                "count(method='dp') applies to the 'walks' semantics "
                f"only, not {q._restriction!r}: Remark 17's memoized DP "
                "counts distinct shortest walks; restricted/any answer "
                "sets are counted by enumeration (method='enumerate')"
            )
        base = q.limit(None).offset(0).cursor(None).timeout_ms(None)
        base = base.with_multiplicity(False)
        if method == "enumerate":
            return sum(1 for _ in base.run())
        handle = self._handle(base._graph_name)
        _, _, cells, _ = self._cells(base, handle, base._shape())
        name = handle.graph.vertex_name
        return sum(mt.count_to(name(t), "dp") for _, t, _, _, mt in cells)

    def _targets(self, q: Query) -> List[Tuple[Hashable, int]]:
        shape = q._shape()
        if shape[0] not in ("one_to_all", "many_to_all"):
            raise QueryError(
                "targets() applies to to_all() queries only; "
                f"this query's shape is {shape[0]!r}"
            )
        handle = self._handle(q._graph_name)
        _, _, cells, _ = self._cells(q, handle, shape)
        # A target's cells are adjacent and share its λ.
        lam_of = {t: lam for _, t, lam, _, _ in cells}
        return [
            (handle.graph.vertex_name(t), lam) for t, lam in lam_of.items()
        ]

    def _explain(self, q: Query) -> QueryPlan:
        handle = self._handle(q._graph_name)
        shape = q._shape()
        plan, plan_hit = self._plan(q, handle)
        qp = analyze(handle.graph, plan.automaton)
        cq = plan.compiled
        qp.compiled = (cq.automaton.n_states, *cq.live_states, cq.delta_size)
        if q._restriction == "any":
            execution = (
                "one Annotate BFS run to the asked target's level "
                "(exhausted for every target), no Trim"
            )
            route = (
                "a witness per target read back from the run's distances "
                "(annotation cache bypassed)"
            )
        else:
            execution = "one DFS per page (O(λ) seek from the cursor)"
            if q._semantics == "cheapest":
                route = (
                    "cached multi-target Dijkstra annotation, saturated "
                    "(stopped at the target when the cache retains nothing)"
                )
            else:
                route = (
                    "cached multi-target annotation, built to the asked "
                    "target's level and deepened on demand"
                )
        if q._restriction in ("trails", "simple"):
            route += (
                "; restricted filter over the λ-walk stream, guided "
                "product-DFS fallback when rλ > λ"
            )
        qp.reasons.append(
            f"façade: shape {shape[0]!r}, semantics {q._semantics!r}"
            + (
                f", restriction {q._restriction!r}"
                if q._restriction != "walks"
                else ""
            )
            + (" + multiplicity" if q._multiplicity else "")
            + f", mode {q._mode!r}: {execution}, via {route}"
        )
        qp.reasons.append(
            f"façade: plan cache {'hit' if plan_hit else 'miss'}; "
            f"annotation cache capacity "
            f"{self._annotation_cache.capacity}"
        )
        return qp

    def __repr__(self) -> str:
        return f"Database(graphs={self.graphs()!r})"


# -- module helpers ----------------------------------------------------------


def _cursor_cell(
    graph: Graph, cursor: Cursor, shape: Tuple, only: Optional[int]
) -> Tuple[Optional[int], int]:
    """``(source_id or None, target_id)`` of the cell a cursor points
    into, its edge list checked against that target.  A pair has one
    cell, its target ``only``, and its cursor is the bare edge list;
    any other shape's cursor names its cell."""
    if shape[0] == "pair":
        source_id, target_id = None, only
    else:
        if cursor.target is None:
            raise QueryError(
                "a cursor for a multi-bucket query must carry the 'target' "
                "(and, for multi-source shapes, 'source') of the walk it "
                "points at"
            )
        target_id = graph.resolve_vertex(cursor.target)
        source_id = (
            None
            if cursor.source is None
            else graph.resolve_vertex(cursor.source)
        )
    _check_cursor_edges(graph, cursor.edges, target_id)
    return source_id, target_id


def _from_cursor(
    graph: Graph,
    cells: Iterable[_Cell],
    cursor: Cursor,
    at: Tuple[Optional[int], int],
    cheapest: bool,
) -> Iterator[_Cell]:
    """The cell stream from the cursor's own cell on — the
    cursor-to-cell seek — with the cursor's budget checked against
    that cell's λ."""
    source_id, target_id = at
    cells = iter(cells)
    for cell in cells:
        if cell[1] == target_id and source_id in (None, cell[0]):
            _check_cursor_budget(graph, cursor, cell[2], cheapest)
            yield cell
            yield from cells
            return
    raise QueryError("cursor does not match any result bucket of this query")


def _check_cursor_edges(
    graph: Graph, edges: Tuple[int, ...], target_id: int
) -> None:
    """Reject cursors that cannot be a previous output of this graph.

    Edge ids must exist, concatenate into a walk (checked by the
    :class:`Walk` constructor) and end at the stated target; a
    λ-budget check follows once λ is known.  This keeps a stale or
    corrupted client cursor a clean :class:`QueryError` instead of an
    IndexError inside the enumerators.
    """
    if not edges:
        return
    for e in edges:
        if not 0 <= e < graph.edge_count:
            raise QueryError(f"cursor contains unknown edge id {e}")
    try:
        walk = Walk(graph, edges)
    except GraphError as exc:  # The edges do not concatenate.
        raise QueryError(str(exc)) from None
    if walk.tgt != target_id:
        raise QueryError("cursor walk does not end at the target")


def _check_cursor_budget(
    graph: Graph, cursor: Cursor, lam: int, cheapest: bool
) -> None:
    if cheapest:
        cost = sum(graph.cost(e) for e in cursor.edges)
        if cost != lam:
            raise QueryError(
                f"cursor walk cost {cost} differs from λ={lam} — stale "
                "cursor from another query or graph version?"
            )
    elif len(cursor.edges) != lam:
        raise QueryError(
            f"cursor length {len(cursor.edges)} differs from λ={lam} "
            "— stale cursor from another query or graph version?"
        )


def _walk_stream(
    graph: Graph,
    compiled: Any,
    source_id: int,
    target_id: int,
    restriction: str,
    rlam: int,
    regime: str,
    open_walks: Callable[..., Iterator[Walk]],
    resume: Optional[Tuple[int, ...]],
) -> Iterator[Walk]:
    """One restricted (trails / simple) cell's walk stream, positioned
    after ``resume``.

    ``open_walks(resume_after)`` opens the pair's λ-walk enumeration
    and seeks.  The filter regime (rλ == λ) rides on it: every
    restricted output is itself an unrestricted output, so the
    underlying seek — and the caller's budget check — stay valid.  The
    fallback DFS (rλ > λ) has no cells under it and resumes by replay.
    The output *order* is the paper's DFS order whatever mode name the
    request carries, so a cursor stays valid across them; one that was
    never an output is a
    :class:`~repro.exceptions.QueryError`, not a silent page.
    """
    if regime == "fallback":
        return skip_past_cursor(
            fallback_walks(
                graph, compiled, source_id, target_id, restriction, rlam
            ),
            resume,
        )
    return restricted_filter(
        graph, restriction, source_id, open_walks(resume)
    )
