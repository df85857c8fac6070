""":class:`Database` — the cache-backed home of every façade query.

One ``Database`` owns

* a **graph registry** with monotone version bumps (re-registering a
  name invalidates every cached artifact of the old graph — the same
  scheme the batch service introduced, now shared with it);
* the **plan cache** (query text → parsed RPQ + graph-aligned
  :class:`~repro.core.compile.CompiledQuery`) and the **annotation
  cache** ((query, source) → saturated
  :class:`~repro.core.multi_target.MultiTargetShortestWalks`) — both
  thread-safe, single-flight :class:`~repro.service.cache.LRUCache`
  instances, so *interactive* callers get the same 2.6–3.3× repeat
  speedup the JSONL batch path measured;
* the **executor** behind :class:`~repro.api.query.Query`'s terminal
  methods: endpoint-shape resolution (pair / one-to-all / multi-source
  / all-pairs), per-bucket enumeration in the requested engine mode,
  cursor seeking, multiplicity annotation and DP counting.

The batched :class:`~repro.service.QueryService` and the classic
:class:`~repro.query.rpq.RPQ` convenience methods both delegate here,
so every entry point shares one execution path and one cache.

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
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.query import Query
from repro.api.result import ResultSet
from repro.api.rows import Cursor, Row
from repro.automata.ops import remove_epsilon
from repro.core.anywalk import any_walk_search
from repro.core.compile import compile_query
from repro.core.engine import CONCRETE_MODES, DistinctShortestWalks
from repro.core.enumerate import skip_past_cursor
from repro.core.multi_target import MultiTargetShortestWalks
from repro.core.restricted import (
    fallback_walks,
    restricted_filter,
    restricted_lam,
)
from repro.core.multiplicity import count_accepting_runs
from repro.core.simple import simple_eligible
from repro.core.walks import Walk
from repro.exceptions import QueryError
from repro.graph.database import Graph
from repro.live.delta import Delta, MutationBatch, ops_from_dicts
from repro.live.live_graph import LiveGraph, query_label_footprint
from repro.obs import Observability, Trace
from repro.obs import trace as obs_trace
from repro.query.plan import QueryPlan, analyze
from repro.query.rpq import RPQ
from repro.service.cache import LRUCache

#: Shared per-graph databases backing the classic one-shot entry
#: points (``RPQ.shortest_walks`` and friends): repeat interactive
#: calls on the same graph object hit the same caches.  The map is a
#: small LRU keyed by graph identity — a Database keeps its graph
#: alive, so an unbounded (or weak-keyed) map would retain every
#: graph ever queried; evicted graphs simply rebuild their caches on
#: the next convenience-API call.  Identity keys are safe because the
#: entry pins the graph: ids are unique among live objects.
_SHARED_CAPACITY = 16
_shared_lock = threading.Lock()
_shared: "OrderedDict[int, Tuple[Graph, Database]]" = OrderedDict()


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

    rpq: RPQ
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
    #: True when the overlay was compacted (full cache purge).
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


@dataclass
class _Bucket:
    """One (source, target) cell of a shaped result stream."""

    source_input: Hashable  # Original designator (for name-resolving APIs).
    source_id: int
    source_name: Hashable
    target_id: int
    target_name: Hashable
    mt: MultiTargetShortestWalks
    lam: int
    states: Any  # FrozenSet[int] — the target's start-state certificate.
    #: Restricted semantics (trails/simple) only — ``lam`` is then rλ:
    #: the execution regime, ``"filter"`` (λ-walk stream + predicate)
    #: or ``"fallback"`` (guided product-DFS at rλ > λ).
    rkind: Optional[str] = None


class Database:
    """A graph registry + shared caches + the façade query executor.

    ``Database(graph)`` registers ``graph`` under ``name`` (default
    ``"default"``); more graphs can be added with :meth:`register` and
    selected per query via :meth:`~repro.api.query.Query.on`.

    ``annotation_cache_size=0`` turns the database cold: pair-shaped
    shortest queries fall back to the early-stopping single-pair
    engine (whose ``auto`` mode includes the paper's simple-setting
    fast path) and nothing is retained between calls — the
    configuration the service benchmark compares against.
    """

    def __init__(
        self,
        graph: Optional[Graph] = None,
        *,
        name: str = "default",
        plan_cache_size: int = 256,
        annotation_cache_size: int = 128,
        default_mode: str = "iterative",
        warm: bool = True,
        obs: Optional["Observability"] = None,
    ) -> None:
        if default_mode not in CONCRETE_MODES:
            raise QueryError(
                f"default_mode must be a concrete engine mode, "
                f"got {default_mode!r}"
            )
        #: Observability bundle.  ``None`` (the default for direct
        #: façade use) means fully off: no registry writes, no trace
        #: activation — the uninstrumented baseline bench_obs measures.
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
        self.default_mode = default_mode
        self._build_lock = threading.Lock()
        self._plan_build_s = 0.0
        self._annotation_build_s = 0.0
        if graph is not None:
            self.register(name, graph, warm=warm)

    @classmethod
    def for_graph(cls, graph: Graph) -> "Database":
        """The shared database of ``graph`` (created on first use).

        This is what makes the classic one-shot entry points cache
        across calls: every façade-routed query on the same graph
        object lands in the same plan/annotation caches.
        """
        key = id(graph)
        with _shared_lock:
            entry = _shared.get(key)
            if entry is not None and entry[0] is graph:
                _shared.move_to_end(key)
                return entry[1]
        # Construct outside the lock — registration warms the graph's
        # O(|D|) CSR indexes, which must not serialize lookups for
        # unrelated graphs.  A racing thread may build a duplicate;
        # the double-check below keeps exactly one.
        db = cls(graph)
        with _shared_lock:
            entry = _shared.get(key)
            if entry is not None and entry[0] is graph:
                _shared.move_to_end(key)
                return entry[1]
            _shared[key] = (graph, db)
            _shared.move_to_end(key)
            while len(_shared) > _SHARED_CAPACITY:
                _shared.popitem(last=False)
            return db

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
        empty).  Vertex names of a durable graph must be JSON scalars
        (str/int/float/bool/None) — anything else raises
        :class:`~repro.exceptions.WalError` at commit time.

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
                    "overlay's edge-id history is not reconstructible "
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
        default_mode: str = "iterative",
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
            default_mode=default_mode,
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
        default_mode: str = "iterative",
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
            default_mode=default_mode,
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

        ``compact`` — ``"auto"`` (default) compacts the overlay when
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
        pass.  The sanctioned concurrent usage is the service's
        barrier batches (reads before a mutation finish first) or any
        other external read/write serialization; a compaction
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

    def query(self, query: Union[str, RPQ]) -> Query:
        """Start building a query from an expression or compiled RPQ."""
        if isinstance(query, RPQ):
            return Query(self, query.expression, rpq=query)
        if not isinstance(query, str) or not query.strip():
            raise QueryError("query must be a non-empty RPQ expression")
        return Query(self, query)

    def multi_target(
        self,
        query: Union[str, RPQ],
        source: Hashable,
        *,
        cheapest: bool = False,
        graph_name: Optional[str] = None,
    ) -> MultiTargetShortestWalks:
        """A *fresh* multi-target engine for ``(query, source)``.

        The returned :class:`~repro.core.multi_target
        .MultiTargetShortestWalks` reuses the cached compiled plan but
        is an independent instance, not the annotation-cache entry the
        executor shares internally (so it is never evicted under the
        caller).  This is the sanctioned accessor for code that wants
        the saturated structures directly; everything else should go
        through :meth:`query`.
        """
        handle = self._handle(graph_name)
        if isinstance(query, RPQ):
            expression, construction, prebuilt = (
                query.expression, query.method, query,
            )
        else:
            expression, construction, prebuilt = query, "thompson", None
        plan, _ = self._plan_for(handle, construction, expression, prebuilt)
        return MultiTargetShortestWalks(
            handle.graph,
            plan.rpq.automaton,
            source,
            cheapest=cheapest,
            compiled=plan.compiled,
        )

    # -- cache plumbing ------------------------------------------------------

    def _plan_for(
        self,
        handle: _GraphHandle,
        construction: str,
        expression: str,
        prebuilt: Optional[RPQ] = None,
        restriction: str = "walks",
    ) -> Tuple[_Plan, bool]:
        # The restriction rides at the END of the key (the eviction
        # predicates pattern-match on key[0]=name / key[1]=version): a
        # cached plan never serves a different semantics, per-semantics
        # entries hit independently, and every invalidation path —
        # re-register, unregister, footprint eviction — covers all
        # semantics of a graph unchanged.
        key = (handle.name, handle.version, construction, expression,
               restriction)
        hit = True

        def build() -> _Plan:
            nonlocal hit
            hit = False
            t0 = time.perf_counter()
            with obs_trace.span("parse", construction=construction):
                rpq_obj = (
                    prebuilt
                    if prebuilt is not None
                    else RPQ(expression, method=construction)
                )
            with obs_trace.span("compile"):
                cq = compile_query(handle.graph, rpq_obj.automaton)
            build_s = time.perf_counter() - t0
            with self._build_lock:
                self._plan_build_s += build_s
            return _Plan(
                rpq=rpq_obj,
                compiled=cq,
                build_s=build_s,
                footprint=query_label_footprint(rpq_obj.automaton),
            )

        return self._plan_cache.get_or_create(key, build), hit

    def _annotation_for(
        self,
        handle: _GraphHandle,
        construction: str,
        expression: str,
        plan: _Plan,
        source_input: Hashable,
        source_id: int,
        cheapest: bool,
        restriction: str = "walks",
    ) -> Tuple[MultiTargetShortestWalks, bool]:
        """The saturated (query, source) annotation, cached.

        The cached object carries the CSR-packed annotation arrays and
        the shared trim cells (see :mod:`repro.datastructures.packed`):
        every cache hit serves per-target reads off the flat ``dist``
        array and enumerations off the read-only packed cells, with no
        per-hit copy or dict materialization anywhere.

        The restriction suffixes the key (same rationale as
        :meth:`_plan_for`): a trails entry and a walks entry of the
        same (query, source) are separate cache lines, each carrying
        its own label footprint for mutation-time eviction, and a
        cached restricted result can never be served to a different
        semantics.
        """
        key = (
            handle.name,
            handle.version,
            construction,
            expression,
            source_id,
            cheapest,
            restriction,
        )
        hit = True

        def build() -> MultiTargetShortestWalks:
            nonlocal hit
            hit = False
            t0 = time.perf_counter()
            # The caller's original source designator, not the
            # resolved id: the constructor resolves names itself, and
            # on graphs with integer vertex *names* an id would
            # resolve differently.
            mt = MultiTargetShortestWalks(
                handle.graph,
                plan.rpq.automaton,
                source_input,
                cheapest=cheapest,
                compiled=plan.compiled,
            ).preprocess()
            build_s = time.perf_counter() - t0
            with self._build_lock:
                self._annotation_build_s += build_s
            return mt

        return self._annotation_cache.get_or_create(key, build), hit

    def _count_cq(self, plan: _Plan, graph: Graph):
        cq = plan.count_compiled
        if cq is None:
            automaton = plan.rpq.automaton
            if automaton.has_epsilon:
                automaton = remove_epsilon(automaton)
            cq = compile_query(graph, automaton)
            plan.count_compiled = cq
        return cq

    # -- statistics ----------------------------------------------------------

    def cache_stats(self) -> Dict[str, Any]:
        """Hit/miss/eviction counters and sizes of both caches."""
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
        return {"counters": counters, "gauges": gauges}

    def build_seconds(self) -> Tuple[float, float]:
        """Cumulative (plan, annotation) cache-miss build time."""
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

    def _resolve_mode(self, mode: str) -> str:
        return self.default_mode if mode == "auto" else mode

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
        if self._metrics is not None:
            # One trace per request: preprocessing spans (parse,
            # compile, annotate, trim) open against the contextvar
            # inside _prepare; the enumerate span is attached post hoc
            # by ResultSet when pagination finishes (enumeration is
            # lazy, so it happens after this frame returns).
            trace = Trace()
            token = obs_trace.activate(trace)
            try:
                rows, lam, stats = self._prepare(q, handle)
            finally:
                obs_trace.deactivate(token)
            stats["trace"] = trace
        else:
            rows, lam, stats = self._prepare(q, handle)
        return ResultSet(
            rows,
            lam=lam,
            stats=stats,
            limit=q._limit,
            offset=q._offset,
            deadline=deadline,
            fallback_cursor=q._cursor,
        )

    def _prepare(
        self, q: Query, handle: _GraphHandle
    ) -> Tuple[Iterator[Tuple[Row, Cursor]], Optional[int], Dict[str, Any]]:
        shape = q._shape()
        graph = handle.graph
        cheapest = q._semantics == "cheapest"
        restriction = q._restriction
        if cheapest and restriction != "walks":
            raise QueryError(
                "cheapest semantics supports the unrestricted 'walks' "
                f"form only, not {restriction!r} (cost-minimal trails/"
                "simple paths are a different problem; any-walk is "
                "length-based)"
            )
        plan, plan_hit = self._plan_for(
            handle, q._construction, q._expression, q._rpq, restriction
        )
        cached: Dict[str, bool] = {"plan": plan_hit}
        timings: Dict[str, float] = {}
        stats: Dict[str, Any] = {"cached": cached, "timings": timings}
        count_cq = (
            self._count_cq(plan, graph) if q._multiplicity else None
        )

        if restriction == "any":
            rows, lam = self._prepare_any(
                q, handle, plan, shape, count_cq, cached, timings
            )
            return rows, lam, stats

        if shape[0] == "pair":
            rows, lam = self._prepare_pair(
                q, handle, plan, shape[1], shape[2], cheapest, count_cq,
                cached, timings, restriction,
            )
            return rows, lam, stats

        mode = self._resolve_mode(q._mode)
        buckets, lam = self._buckets(
            q, handle, plan, shape, cheapest, cached, timings, restriction
        )
        rows = self._bucketed_rows(
            q, handle, plan, buckets, mode, cheapest, count_cq, restriction
        )
        return rows, lam, stats

    # -- pair shape ----------------------------------------------------------

    def _prepare_pair(
        self,
        q: Query,
        handle: _GraphHandle,
        plan: _Plan,
        source: Hashable,
        target: Hashable,
        cheapest: bool,
        count_cq: Any,
        cached: Dict[str, bool],
        timings: Dict[str, float],
        restriction: str = "walks",
    ) -> Tuple[Iterator[Tuple[Row, Cursor]], Optional[int]]:
        graph = handle.graph
        source_id = graph.resolve_vertex(source)
        target_id = graph.resolve_vertex(target)
        cursor = q._cursor
        if cursor is not None:
            _check_cursor_edges(graph, cursor.edges, target_id)
        resume = cursor.edges if cursor is not None else None

        t0 = time.perf_counter()
        if not cheapest and self._annotation_cache.capacity == 0:
            # Cold per-request execution: the ordinary single-pair
            # engine, early-stopping Annotate and all ("auto" here is
            # the engine's own auto, including fast-path detection).
            # The compiled plan is still injected when the plan cache
            # has one.
            engine = DistinctShortestWalks(
                graph,
                plan.rpq.automaton,
                source,
                target,
                mode=q._mode,
                compiled=plan.compiled,
            )
            lam = engine.lam  # Triggers preprocessing.
            timings["annotate"] = time.perf_counter() - t0
            cached["annotation"] = False
            open_walks = engine.enumerate
        else:
            mt, ann_hit = self._annotation_for(
                handle, q._construction, q._expression, plan,
                source, source_id, cheapest, restriction,
            )
            # From this query's perspective: build time on a miss,
            # single-flight wait time when another thread is building.
            timings["annotate"] = time.perf_counter() - t0
            cached["annotation"] = ann_hit
            if ann_hit:
                # The real annotate/trim spans were traced on the
                # building thread; a hit still shows the phase, tagged.
                obs_trace.add_span(
                    "annotate", timings["annotate"], cached=True
                )
            lam, _ = mt.annotation.target_info(target_id)
            memoryless = self._resolve_mode(q._mode) == "memoryless"

            def open_walks(resume_after=None):
                return mt.walks_to(target, memoryless, resume_after)

        if lam is None:
            return iter(()), None
        rkind = None
        if restriction != "walks":
            # A fresh stream per call, so the probe's partial
            # consumption does not disturb the one built below.
            info = restricted_lam(
                graph, plan.compiled, source_id, target_id, lam,
                restriction, open_walks,
            )
            if info is None:
                return iter(()), None
            lam, rkind = info
        _check_cursor_budget(graph, cursor, lam, cheapest)
        walks = _walk_stream(
            graph, plan.compiled, source_id, target_id, restriction, lam,
            rkind, open_walks, resume,
        )
        source_name = graph.vertex_name(source_id)
        target_name = graph.vertex_name(target_id)
        rows = _rows_of(
            walks, source_name, target_name, lam, False, count_cq
        )
        return rows, lam

    # -- any-walk shape ------------------------------------------------------

    def _prepare_any(
        self,
        q: Query,
        handle: _GraphHandle,
        plan: _Plan,
        shape: Tuple,
        count_cq: Any,
        cached: Dict[str, bool],
        timings: Dict[str, float],
    ) -> Tuple[Iterator[Tuple[Row, Cursor]], Optional[int]]:
        """The ``any`` semantics: one witness walk per (source, target).

        A plain early-exit BFS over the product (see
        :mod:`repro.core.anywalk`) — no trim/enumerate machinery, no
        annotation-cache entry (nothing worth retaining: the search is
        cheaper than a saturating annotation build), and the engine
        ``mode`` is irrelevant (there is nothing to enumerate).  Shapes
        mirror the shortest-walk semantics: per-target witnesses for
        the ``to_all`` forms, the super-source view (one row from the
        first caller-order source achieving the global minimum) for
        ``many_to_one``/``many_to_all``.  Pagination still works — a
        bucket's "stream" is its single witness — and cursors follow
        the same shape rules as the bucketed executor.
        """
        graph = handle.graph
        cq = plan.compiled
        cursor = q._cursor
        cached["annotation"] = False
        kind = shape[0]
        t0 = time.perf_counter()

        if kind == "pair":
            sid = graph.resolve_vertex(shape[1])
            tid = graph.resolve_vertex(shape[2])
            if cursor is not None:
                _check_cursor_edges(graph, cursor.edges, tid)
            hit = any_walk_search(cq, sid, (tid,)).get(tid)
            timings["annotate"] = time.perf_counter() - t0
            obs_trace.add_span(
                "annotate", timings["annotate"],
                semantics="any", cached=False,
            )
            if hit is None:
                return iter(()), None
            lam, edges = hit
            _check_cursor_budget(graph, cursor, lam, False)
            walks = skip_past_cursor(
                iter((Walk.from_edges_unchecked(graph, edges, sid),)),
                cursor.edges if cursor is not None else None,
            )
            rows = _rows_of(
                walks, graph.vertex_name(sid), graph.vertex_name(tid),
                lam, False, count_cq,
            )
            return rows, lam

        #: Ordered (source_id, target_id, λ, edges) witness cells.
        entries: List[Tuple[int, int, int, Tuple[int, ...]]] = []
        global_lam: Optional[int] = None

        if kind == "one_to_all":
            sid = graph.resolve_vertex(shape[1])
            hits = any_walk_search(cq, sid)  # Saturating.
            entries = [
                (sid, t, hits[t][0], hits[t][1]) for t in sorted(hits)
            ]
        else:
            sources: List[int] = []
            seen_ids = set()
            if kind == "all_pairs":
                sources = list(graph.vertices())
            else:
                for s in shape[1]:
                    s_id = graph.resolve_vertex(s)
                    if s_id not in seen_ids:  # Dedupe, caller order.
                        seen_ids.add(s_id)
                        sources.append(s_id)

            if kind == "many_to_one":
                tid = graph.resolve_vertex(shape[2])
                best: Optional[Tuple[int, int, int, Tuple[int, ...]]] = None
                for s_id in sources:
                    hit = any_walk_search(cq, s_id, (tid,)).get(tid)
                    if hit is not None and (
                        best is None or hit[0] < best[2]
                    ):
                        best = (s_id, tid, hit[0], hit[1])
                if best is not None:
                    entries = [best]
                    global_lam = best[2]
            else:  # many_to_all / all_pairs: per-source saturation.
                results = [
                    (s_id, any_walk_search(cq, s_id)) for s_id in sources
                ]
                if kind == "many_to_all":
                    # Super-source view: per target, the first
                    # caller-order source achieving the minimal λ.
                    for t in sorted({t for _, h in results for t in h}):
                        best = None
                        for s_id, h in results:
                            if t in h and (
                                best is None or h[t][0] < best[2]
                            ):
                                best = (s_id, t, h[t][0], h[t][1])
                        entries.append(best)
                else:  # all_pairs: every reached pair, source-major.
                    for s_id, h in results:
                        entries.extend(
                            (s_id, t, h[t][0], h[t][1]) for t in sorted(h)
                        )
        timings["annotate"] = time.perf_counter() - t0
        obs_trace.add_span(
            "annotate", timings["annotate"], semantics="any", cached=False
        )

        cursor_sid = cursor_tid = None
        if cursor is not None:
            if cursor.target is None:
                raise QueryError(
                    "a cursor for a multi-bucket query must carry the "
                    "'target' (and, for multi-source shapes, 'source') "
                    "of the walk it points at"
                )
            cursor_tid = graph.resolve_vertex(cursor.target)
            if cursor.source is not None:
                cursor_sid = graph.resolve_vertex(cursor.source)
            _check_cursor_edges(graph, cursor.edges, cursor_tid)

        def gen() -> Iterator[Tuple[Row, Cursor]]:
            seeking = cursor is not None
            for s_id, t_id, lam_t, edges in entries:
                if seeking:
                    if t_id != cursor_tid or (
                        cursor_sid is not None and s_id != cursor_sid
                    ):
                        continue
                    seeking = False
                    _check_cursor_budget(graph, cursor, lam_t, False)
                    resume = cursor.edges
                else:
                    resume = None
                walks = skip_past_cursor(
                    iter((Walk.from_edges_unchecked(graph, edges, s_id),)),
                    resume,
                )
                yield from _rows_of(
                    walks, graph.vertex_name(s_id),
                    graph.vertex_name(t_id), lam_t, True, count_cq,
                )
            if seeking:
                raise QueryError(
                    "cursor does not match any result bucket of this "
                    "query"
                )

        return gen(), global_lam

    # -- bucketed shapes -----------------------------------------------------

    def _buckets(
        self,
        q: Query,
        handle: _GraphHandle,
        plan: _Plan,
        shape: Tuple,
        cheapest: bool,
        cached: Dict[str, bool],
        timings: Dict[str, float],
        restriction: str = "walks",
    ) -> Tuple[Iterator[_Bucket], Optional[int]]:
        """Resolve a non-pair shape into its ordered bucket stream.

        Returns ``(buckets, lam)`` where ``lam`` is the global answer
        length for ``many_to_one`` (the virtual super-source λ) and
        ``None`` for the per-bucket shapes.  Under a trails/simple
        restriction every bucket carries rλ in ``lam``; buckets whose
        pair admits *no* restricted walk vanish from the stream, and
        the ``many_to_one`` /
        ``many_to_all`` minima are taken over rλ — the walk-λ
        pre-filter would be unsound there, since the source with the
        shortest walk need not have the shortest trail.
        """
        graph = handle.graph
        cached["annotation"] = True
        restricted = restriction != "walks"

        def mt_for(source_input: Hashable, source_id: int):
            t0 = time.perf_counter()
            mt, hit = self._annotation_for(
                handle, q._construction, q._expression, plan,
                source_input, source_id, cheapest, restriction,
            )
            dt = time.perf_counter() - t0
            timings["annotate"] = timings.get("annotate", 0.0) + dt
            if not hit:
                cached["annotation"] = False
            else:
                obs_trace.add_span("annotate", dt, cached=True)
            return mt

        def bucket(source_input, source_id, mt, target_id) -> Optional[_Bucket]:
            lam_t, states = mt.annotation.target_info(target_id)
            if lam_t is None:
                return None
            rkind = None
            if restricted:
                info = restricted_lam(
                    graph, plan.compiled, source_id, target_id, lam_t,
                    restriction,
                    lambda: mt.walks_to(graph.vertex_name(target_id)),
                )
                if info is None:
                    return None
                lam_t, rkind = info
            return _Bucket(
                source_input=source_input,
                source_id=source_id,
                source_name=graph.vertex_name(source_id),
                target_id=target_id,
                target_name=graph.vertex_name(target_id),
                mt=mt,
                lam=lam_t,
                states=states,
                rkind=rkind,
            )

        kind = shape[0]
        if kind == "one_to_all":
            source = shape[1]
            source_id = graph.resolve_vertex(source)
            mt = mt_for(source, source_id)
            buckets = (
                b
                for t in mt.reached_targets()
                if (b := bucket(source, source_id, mt, t)) is not None
            )
            return buckets, None

        if kind in ("many_to_one", "many_to_all"):
            sources: List[Tuple[Hashable, int]] = []
            seen_ids = set()
            for s in shape[1]:
                sid = graph.resolve_vertex(s)
                if sid not in seen_ids:  # Dedupe, keeping caller order.
                    seen_ids.add(sid)
                    sources.append((s, sid))
            mts = [(s, sid, mt_for(s, sid)) for s, sid in sources]

            if kind == "many_to_one":
                target_id = graph.resolve_vertex(shape[2])
                if restricted:
                    bs = [
                        b
                        for s, sid, mt in mts
                        if (b := bucket(s, sid, mt, target_id)) is not None
                    ]
                    if not bs:
                        return iter(()), None
                    global_lam = min(b.lam for b in bs)
                    return (
                        iter([b for b in bs if b.lam == global_lam]),
                        global_lam,
                    )
                lams = [
                    mt.annotation.target_info(target_id)[0]
                    for _, _, mt in mts
                ]
                reached = [lam for lam in lams if lam is not None]
                if not reached:
                    return iter(()), None
                global_lam = min(reached)
                buckets = (
                    b
                    for (s, sid, mt), lam_s in zip(mts, lams)
                    if lam_s == global_lam
                    if (b := bucket(s, sid, mt, target_id)) is not None
                )
                return buckets, global_lam

            # many_to_all: per target, only the sources achieving the
            # target's global minimum contribute (super-source view).
            all_targets = sorted(
                {t for _, _, mt in mts for t in mt.reached_targets()}
            )

            if restricted:

                def gen_restricted() -> Iterator[_Bucket]:
                    for t in all_targets:
                        bs = [
                            b
                            for s, sid, mt in mts
                            if (b := bucket(s, sid, mt, t)) is not None
                        ]
                        if not bs:
                            continue
                        lam_t = min(b.lam for b in bs)
                        for b in bs:
                            if b.lam == lam_t:
                                yield b

                return gen_restricted(), None

            def gen() -> Iterator[_Bucket]:
                for t in all_targets:
                    lams = [
                        mt.annotation.target_info(t)[0] for _, _, mt in mts
                    ]
                    lam_t = min(
                        (lam for lam in lams if lam is not None),
                        default=None,
                    )
                    if lam_t is None:
                        continue
                    for (s, sid, mt), lam_s in zip(mts, lams):
                        if lam_s == lam_t:
                            b = bucket(s, sid, mt, t)
                            if b is not None:
                                yield b

            return gen(), None

        assert kind == "all_pairs"
        cursor = q._cursor
        # Sources strictly before the cursor's bucket never contribute
        # to a resumed stream — skip them without building annotations.
        skip_below = -1
        if cursor is not None and cursor.source is not None:
            skip_below = graph.resolve_vertex(cursor.source)
        # Annotations are built eagerly (like the other shapes) so the
        # result set's cache/timing stats are valid before the stream
        # is consumed; the per-source structures land in the
        # annotation cache anyway under the default configuration.
        source_mts = [
            (graph.vertex_name(sid), sid)
            for sid in graph.vertices()
            if sid >= skip_below
        ]
        source_mts = [
            (name, sid, mt_for(name, sid)) for name, sid in source_mts
        ]

        def gen_all() -> Iterator[_Bucket]:
            for name, sid, mt in source_mts:
                for t in mt.reached_targets():
                    b = bucket(name, sid, mt, t)
                    if b is not None:
                        yield b

        return gen_all(), None

    def _bucketed_rows(
        self,
        q: Query,
        handle: _GraphHandle,
        plan: _Plan,
        buckets: Iterator[_Bucket],
        mode: str,
        cheapest: bool,
        count_cq: Any,
        restriction: str = "walks",
    ) -> Iterator[Tuple[Row, Cursor]]:
        graph = handle.graph
        cursor = q._cursor
        cursor_sid = cursor_tid = None
        if cursor is not None:
            if cursor.target is None:
                raise QueryError(
                    "a cursor for a multi-bucket query must carry the "
                    "'target' (and, for multi-source shapes, 'source') "
                    "of the walk it points at"
                )
            cursor_tid = graph.resolve_vertex(cursor.target)
            if cursor.source is not None:
                cursor_sid = graph.resolve_vertex(cursor.source)
            _check_cursor_edges(graph, cursor.edges, cursor_tid)
        memoryless = mode == "memoryless"

        def gen() -> Iterator[Tuple[Row, Cursor]]:
            seeking = cursor is not None
            for b in buckets:
                if seeking:
                    if b.target_id != cursor_tid or (
                        cursor_sid is not None
                        and b.source_id != cursor_sid
                    ):
                        continue
                    seeking = False
                    _check_cursor_budget(graph, cursor, b.lam, cheapest)
                    resume = cursor.edges
                else:
                    resume = None
                walks = _walk_stream(
                    graph, plan.compiled, b.source_id, b.target_id,
                    restriction, b.lam, b.rkind,
                    lambda resume_after, b=b: b.mt.walks_to(
                        b.target_name, memoryless, resume_after
                    ),
                    resume,
                )
                yield from _rows_of(
                    walks, b.source_name, b.target_name, b.lam, True,
                    count_cq,
                )
            if seeking:
                raise QueryError(
                    "cursor does not match any result bucket of this "
                    "query"
                )

        return gen()

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
        if method == "enumerate":
            return sum(1 for _ in base.run())

        from repro.core.count import count_distinct_shortest

        handle = self._handle(base._graph_name)
        graph = handle.graph
        shape = base._shape()
        cheapest = base._semantics == "cheapest"
        plan, _ = self._plan_for(
            handle, base._construction, base._expression, base._rpq
        )
        cost_arr = graph.cost_array if cheapest else None
        cost_of = (lambda e: cost_arr[e]) if cost_arr is not None else None

        if (
            shape[0] == "pair"
            and not cheapest
            and self._annotation_cache.capacity == 0
        ):
            engine = DistinctShortestWalks(
                graph, plan.rpq.automaton, shape[1], shape[2],
                mode=base._mode, compiled=plan.compiled,
            )
            return engine.count(method="dp")

        cached: Dict[str, bool] = {}
        timings: Dict[str, float] = {}
        if shape[0] == "pair":
            source_id = graph.resolve_vertex(shape[1])
            target_id = graph.resolve_vertex(shape[2])
            mt, _ = self._annotation_for(
                handle, base._construction, base._expression, plan,
                shape[1], source_id, cheapest,
            )
            lam_t, states = mt.annotation.target_info(target_id)
            if lam_t is None:
                return 0
            return count_distinct_shortest(
                graph, mt.annotation, lam_t, target_id, states,
                cost_of=cost_of,
            )
        buckets, _ = self._buckets(
            base, handle, plan, shape, cheapest, cached, timings
        )
        return sum(
            count_distinct_shortest(
                graph, b.mt.annotation, b.lam, b.target_id, b.states,
                cost_of=cost_of,
            )
            for b in buckets
        )

    def _targets(self, q: Query) -> List[Tuple[Hashable, int]]:
        shape = q._shape()
        if shape[0] not in ("one_to_all", "many_to_all"):
            raise QueryError(
                "targets() applies to to_all() queries only; "
                f"this query's shape is {shape[0]!r}"
            )
        handle = self._handle(q._graph_name)
        cheapest = q._semantics == "cheapest"
        restriction = q._restriction
        if cheapest and restriction != "walks":
            raise QueryError(
                "cheapest semantics supports the unrestricted 'walks' "
                f"form only, not {restriction!r}"
            )
        plan, _ = self._plan_for(
            handle, q._construction, q._expression, q._rpq, restriction
        )
        if restriction == "any":
            # Witness λ per target equals the walk λ — saturating
            # any-walk searches, minimized over sources for to-all.
            graph = handle.graph
            if shape[0] == "one_to_all":
                sids = [graph.resolve_vertex(shape[1])]
            else:
                seen_ids: set = set()
                sids = []
                for s in shape[1]:
                    sid = graph.resolve_vertex(s)
                    if sid not in seen_ids:
                        seen_ids.add(sid)
                        sids.append(sid)
            best: Dict[int, int] = {}
            for sid in sids:
                for t, (lam_t, _) in any_walk_search(
                    plan.compiled, sid
                ).items():
                    if t not in best or lam_t < best[t]:
                        best[t] = lam_t
            return [
                (graph.vertex_name(t), best[t]) for t in sorted(best)
            ]
        buckets, _ = self._buckets(
            q, handle, plan, shape, cheapest, {}, {}, restriction
        )
        out: List[Tuple[Hashable, int]] = []
        for b in buckets:
            if not out or out[-1][0] != b.target_name:
                out.append((b.target_name, b.lam))
        return out

    def _explain(self, q: Query) -> QueryPlan:
        handle = self._handle(q._graph_name)
        shape = q._shape()
        cheapest = q._semantics == "cheapest"
        plan, plan_hit = self._plan_for(
            handle, q._construction, q._expression, q._rpq, q._restriction
        )
        qp = analyze(handle.graph, plan.rpq.automaton)
        cold_pair = (
            shape[0] == "pair"
            and not cheapest
            and self._annotation_cache.capacity == 0
        )
        if q._restriction == "any":
            resolved = "early-exit BFS"
            route = "any-walk witness search (annotation cache bypassed)"
        elif cold_pair:
            if q._mode == "auto" and simple_eligible(
                handle.graph, plan.rpq.automaton
            ):
                resolved = "auto (simple-setting fast path)"
            else:
                resolved = (
                    "auto (general engine)" if q._mode == "auto" else q._mode
                )
            route = "cold single-pair engine (annotation cache disabled)"
        else:
            resolved = self._resolve_mode(q._mode)
            resolved += (
                " (NextOutput seek per row)" if resolved == "memoryless"
                else " (one DFS, O(λ) seek per resumed page)"
            )
            route = "cached multi-target annotation"
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
            + f", mode {q._mode!r} → {resolved}, via {route}"
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


def _rows_of(
    walks: Iterator[Walk],
    source_name: Hashable,
    target_name: Hashable,
    lam: int,
    bucketed: bool,
    count_cq: Any,
) -> Iterator[Tuple[Row, Cursor]]:
    for walk in walks:
        multiplicity = (
            count_accepting_runs(count_cq, walk.edges)
            if count_cq is not None
            else None
        )
        row = Row(
            source=source_name,
            target=target_name,
            walk=walk,
            lam=lam,
            multiplicity=multiplicity,
        )
        yield row, row.cursor(bucketed)


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
    walk = Walk(graph, edges)  # GraphError if edges do not concatenate.
    if walk.tgt != target_id:
        raise QueryError("cursor walk does not end at the target")


def _check_cursor_budget(
    graph: Graph, cursor: Optional[Cursor], lam: int, cheapest: bool
) -> None:
    if cursor is None:
        return
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
    lam: int,
    rkind: Optional[str],
    open_walks: Any,
    resume: Optional[Tuple[int, ...]],
) -> Iterator[Walk]:
    """One (source, target) pair's walk stream, positioned after
    ``resume``.

    ``open_walks(resume_after)`` opens the pair's λ-walk enumeration
    and seeks.  The filter regime (rλ == λ) rides on it: every
    restricted output is itself an unrestricted output, so the
    underlying seek — and the caller's budget check — stay valid.  The
    fallback DFS (rλ > λ) has no cells under it and resumes by replay.
    The output *order* is identical across the general modes (the
    paper's DFS order), so a cursor handed out by one mode is valid in
    another; one that was never an output is a
    :class:`~repro.exceptions.QueryError`, not a silent page.
    """
    if rkind == "fallback":
        return skip_past_cursor(
            fallback_walks(
                graph, compiled, source_id, target_id, restriction, lam
            ),
            resume,
        )
    walks = open_walks(resume)
    if rkind == "filter":
        walks = restricted_filter(graph, restriction, source_id, walks)
    return walks
