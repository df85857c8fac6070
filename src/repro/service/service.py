"""The batched :class:`QueryService` — cached RPQ serving.

See :mod:`repro.service` for the architecture overview (cache keys,
invalidation, thread-safety).  Since the ``repro.api`` façade landed,
the service is a thin protocol adapter: the graph registry, both
caches and the execution path live in :class:`repro.api.Database`;
this module maps the JSONL :class:`QueryRequest`/:class:`QueryResponse`
wire model onto façade queries and keeps the service-level counters.

In short: requests flow through

* a **plan cache** — regex string → compiled automaton +
  :class:`~repro.core.compile.CompiledQuery` (ε-elimination and the
  dense/firing-label layouts happen once per distinct query text);
* an **annotation cache** — (query, source) →
  :class:`~repro.core.multi_target.MultiTargetShortestWalks`, whose
  ``Annotate``/``Trim`` products are shared by every target and every
  repeat request from that source, built to the first asked target's
  BFS level and deepened on demand.

With the annotation cache disabled (capacity 0) the service degrades
to cold per-request execution — the same engine and the same builds,
every request re-annotating since nothing is retained — which is the
baseline the service benchmark compares against.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.api.query import Query
from repro.api.rows import Cursor
from repro.exceptions import InvalidDeltaError, ReproError
from repro.graph.database import Graph
from repro.obs import Observability
from repro.service.requests import (
    MutationRequest,
    MutationResponse,
    QueryRequest,
    QueryResponse,
    RequestError,
)


class ServiceError(ReproError):
    """Service-level misuse (unknown graph, no graph registered, …)."""


class QueryService:
    """Serve batches of RPQ requests with two-level result-structure reuse.

    >>> from repro.workloads.fraud import example9_graph
    >>> from repro.service import QueryRequest, QueryService
    >>> service = QueryService()
    >>> _ = service.register_graph("fraud", example9_graph())
    >>> resp = service.execute(
    ...     QueryRequest("h* s (h | s)*", "Alix", "Bob", limit=2)
    ... )
    >>> resp.status, resp.lam, len(resp.walks)
    ('ok', 3, 2)
    >>> next_page = service.execute(
    ...     QueryRequest("h* s (h | s)*", "Alix", "Bob",
    ...                  cursor=resp.next_cursor)
    ... )
    >>> len(next_page.walks)
    2

    ``max_workers`` is accepted and ignored: a batch runs its requests
    in order (the process pool of :mod:`repro.serve` is where requests
    run in parallel).
    """

    def __init__(
        self,
        plan_cache_size: int = 256,
        annotation_cache_size: int = 128,
        max_workers: Optional[int] = None,
        wal_dir: Optional[str] = None,
        wal_sync: str = "group",
        wal_group_window_ms: float = 50.0,
        obs: Optional[Observability] = None,
        slow_ms: float = 0.0,
        slowlog_capacity: int = 64,
    ) -> None:
        #: Observability bundle (metrics registry + slow-query log).
        #: The service defaults to an *enabled* bundle — counters have
        #: always been on here; pass ``Observability.disabled()`` to
        #: run bare.
        self.obs = obs if obs is not None else Observability(
            slow_ms=slow_ms, slowlog_capacity=slowlog_capacity
        )
        # Imported lazily: repro.api.database itself imports
        # repro.service.cache, so a module-level import here would be
        # circular when repro.api loads first.
        from repro.api.database import Database

        self._db = Database(
            plan_cache_size=plan_cache_size,
            annotation_cache_size=annotation_cache_size,
            obs=self.obs,
        )
        #: Durability root: with a ``wal_dir``, every registered graph
        #: becomes WAL-backed under ``<wal_dir>/<name>/`` (existing
        #: durable state wins over the graph the caller passes — the
        #: restart flow; see :meth:`repro.api.Database.register_durable`).
        self.wal_dir = wal_dir
        self.wal_sync = wal_sync
        self.wal_group_window_ms = wal_group_window_ms
        # Instrument handles resolved once; on a disabled bundle these
        # are the shared null instruments, so the hot path stays cheap.
        registry = self.obs.registry
        self._c_requests = registry.counter("service.requests")
        self._c_errors = registry.counter("service.errors")
        self._c_timeouts = registry.counter("service.timeouts")
        self._c_walks = registry.counter("service.walks_emitted")
        self._c_mutations = registry.counter("service.mutations")
        self._c_mutation_ops = registry.counter("service.mutation_ops")
        self._c_compactions = registry.counter("service.compactions")
        self._c_evicted_plans = registry.counter("service.evicted_plans")
        self._c_evicted_annotations = registry.counter(
            "service.evicted_annotations"
        )
        self._h_total = registry.histogram("service.request_seconds")
        self._h_enumerate = registry.histogram("service.enumerate_seconds")
        self._h_annotate = registry.histogram("service.annotate_seconds")

    # -- graph registry ------------------------------------------------------

    def register_graph(
        self, name: str, graph: Graph, warm: bool = True
    ) -> int:
        """Register (or replace) a graph under ``name``; returns its version.

        Re-registering bumps the version, which invalidates every
        cached plan and annotation for the old graph — see
        :meth:`repro.api.Database.register` for the mechanics.
        Registering a :class:`~repro.live.LiveGraph` makes the entry
        writable through ``{"mutate": [...]}`` requests without the
        one-time promotion purge a plain graph's first mutation pays.

        When the service was constructed with a ``wal_dir``, the entry
        is registered *durably*: its mutations append to the WAL under
        ``<wal_dir>/<name>/`` before applying, and any durable state
        already there wins over ``graph``.
        """
        if self.wal_dir is not None:
            import os

            return self._db.register_durable(
                name,
                os.path.join(self.wal_dir, name),
                graph=graph,
                sync=self.wal_sync,
                group_window_ms=self.wal_group_window_ms,
                warm=warm,
            )
        return self._db.register(name, graph, warm=warm)

    def close(self) -> None:
        """Flush and close every durable entry's WAL writer."""
        self._db.close()

    def unregister_graph(self, name: str) -> None:
        """Remove a graph and purge its cached artifacts."""
        try:
            self._db.unregister(name)
        except ReproError as exc:
            raise ServiceError(str(exc)) from None

    def graph_version(self, name: str) -> int:
        """Current version of a registered graph."""
        return self._db.version(name)

    # -- execution -----------------------------------------------------------

    def execute(self, request):
        """Execute one request; never raises for per-request problems.

        Accepts a :class:`QueryRequest` or a :class:`MutationRequest`
        (returning the matching response type).  Input problems
        (unknown graph/vertex, bad regex, bad ops) come back as
        ``status="error"`` responses so that one broken request cannot
        take down a batch.
        """
        if isinstance(request, MutationRequest):
            return self.execute_mutation(request)
        started = time.perf_counter()
        try:
            response = self._execute_checked(request)
        except (RequestError, ReproError) as exc:
            response = QueryResponse(
                status="error", error=str(exc), id=request.id
            )
        except Exception as exc:  # noqa: BLE001 — serving-layer backstop:
            # one request must never take down the batch or leak a raw
            # traceback through the executor.  code="internal" keeps
            # the in-process service and the repro.serve tier (whose
            # equivalent category is "worker_crashed") uniform for
            # callers that branch on the error category.
            response = QueryResponse(
                status="error",
                error=f"internal error: {type(exc).__name__}: {exc}",
                code="internal",
                id=request.id,
            )
        response.timings["total"] = time.perf_counter() - started
        self._record(response)
        if self.obs.should_log(response.timings["total"]):
            self.obs.slowlog.record(self._slowlog_entry(request, response))
        return response

    def execute_mutation(
        self, request: MutationRequest
    ) -> MutationResponse:
        """Apply one write batch; never raises for per-request problems."""
        started = time.perf_counter()
        try:
            # from_dict/read_requests_jsonl already validated (and
            # parsed the ops); only directly-constructed requests
            # still need the pass.
            if getattr(request, "parsed_ops", None) is None:
                request.validate()
            result = self._db.mutate(
                request.graph,
                request.parsed_ops,
                compact={
                    "auto": "auto", "always": True, "never": False,
                }[request.compact],
            )
            response = MutationResponse(
                status="ok", result=result.as_dict(), id=request.id
            )
        except InvalidDeltaError as exc:
            # Malformed op payloads are a client-input category of
            # their own: structured, machine-readable, never the
            # "internal error" backstop a leaked KeyError used to hit.
            response = MutationResponse(
                status="error",
                error=str(exc),
                code="invalid_delta",
                id=request.id,
            )
        except (RequestError, ReproError) as exc:
            response = MutationResponse(
                status="error", error=str(exc), id=request.id
            )
        except Exception as exc:  # noqa: BLE001 — serving-layer backstop.
            response = MutationResponse(
                status="error",
                error=f"internal error: {type(exc).__name__}: {exc}",
                code="internal",
                id=request.id,
            )
        response.timings["total"] = time.perf_counter() - started
        self._record(response)
        return response

    def _record(self, response) -> None:
        """Update the service instruments from one finished response.

        The single accounting path for queries *and* mutations — the
        per-instrument locks in the registry replace the old
        ``ServiceStats`` double-lock bookkeeping, and the two formerly
        duplicated update blocks collapse into this helper.
        """
        self._c_requests.inc()
        self._h_total.observe(response.timings["total"])
        if response.status == "error":
            self._c_errors.inc()
            return
        if isinstance(response, MutationResponse):
            self._c_mutations.inc()
            self._c_mutation_ops.inc(response.result.get("ops", 0))
            self._c_compactions.inc(
                int(response.result.get("compacted", False))
            )
            self._c_evicted_plans.inc(
                response.result.get("evicted_plans", 0)
            )
            self._c_evicted_annotations.inc(
                response.result.get("evicted_annotations", 0)
            )
            return
        if response.status == "timeout":
            self._c_timeouts.inc()
        self._c_walks.inc(len(response.walks))
        if "enumerate" in response.timings:
            self._h_enumerate.observe(response.timings["enumerate"])
        if "annotate" in response.timings:
            self._h_annotate.observe(response.timings["annotate"])

    @staticmethod
    def _slowlog_entry(request: QueryRequest, response: QueryResponse):
        """Span tree + explain payload for one slow (or traced) request.

        Returns a zero-arg callable (the :class:`~repro.obs.SlowLog`
        lazy-entry form): with ``slow_ms=0`` every request records, so
        the scalars are captured eagerly — cheap, and crucially *not*
        retaining the response with its materialized walks in the ring
        — while the JSON rendering (rounding, span-tree dicts) is
        deferred to the rare read path.
        """
        rid = request.id
        query = request.query
        source = request.source
        target = request.target
        graph = request.graph
        mode = request.mode
        semantics = request.semantics
        status = response.status
        lam = response.lam
        cached = dict(response.cached)
        timings = dict(response.timings)
        n_walks = len(response.walks)
        trace = getattr(response, "trace", None)

        def render() -> Dict[str, Any]:
            return {
                "kind": "query",
                "id": rid,
                "status": status,
                "total_ms": round(timings.get("total", 0.0) * 1000.0, 3),
                "request": {
                    "query": query,
                    "source": source,
                    "target": target,
                    "graph": graph,
                    "mode": mode,
                    "semantics": semantics,
                },
                "explain": {
                    "lam": lam,
                    "cached": cached,
                    "timings": {
                        k: round(v, 6) for k, v in timings.items()
                    },
                    "walks": n_walks,
                },
                "spans": (
                    trace.to_dict()["spans"] if trace is not None else []
                ),
            }

        return render

    def execute_batch(self, requests: Sequence) -> List:
        """Execute a batch in order, one response per request.

        Cached preprocessing products carry over from one request to
        the next, and a mutation request is a **barrier** by
        construction: the queries before it run first, the queries
        after it read its writes.
        """
        return [self.execute(r) for r in requests]

    # -- internals -----------------------------------------------------------

    def _execute_checked(self, request: QueryRequest) -> QueryResponse:
        # from_dict/read_requests_jsonl already validated; only
        # directly-constructed requests still need the pass.
        if not request.validated:
            request.validate()
        # The request checked every value the builder methods check, so
        # the query is built in one step.  ``semantics`` is a walk
        # restriction (RESTRICTIONS); the objective stays "shortest".
        result = Query._of(
            self._db,
            request.query,
            _graph_name=request.graph,
            _source=request.source,
            _target=request.target,
            _restriction=request.semantics,
            _mode=request.mode,
            _limit=request.limit,
            _offset=request.offset,
            _cursor=(
                None if request.cursor is None else Cursor(request.cursor)
            ),
            _timeout_ms=request.timeout_ms,
        ).run()
        if result.lam is None:
            response = QueryResponse(
                status="empty",
                cached=result.stats["cached"],
                timings=result.stats["timings"],
                id=request.id,
            )
            response.trace = result.stats.get("trace")
            return response
        walks = [row.walk.to_dict() for row in result]
        response = QueryResponse(
            status="timeout" if result.timed_out else "ok",
            lam=result.lam,
            walks=walks,
            next_cursor=(
                list(result.next_cursor.edges)
                if result.next_cursor is not None
                else None
            ),
            skipped=result.skipped,
            cached=result.stats["cached"],
            timings=result.stats["timings"],
            id=request.id,
        )
        # Stashed out-of-band: the trace is service-internal (slow log,
        # span-tree tests) and must not leak into the JSONL wire dict.
        response.trace = result.stats.get("trace")
        return response

    # -- statistics ----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A point-in-time snapshot of every service counter.

        Key layout predates ``repro.obs`` and is part of the protocol
        surface (CLI ``--stats``, serve workers, tests); the values now
        read from the metrics registry instead of ``ServiceStats``.
        """
        plan_build_s, annotation_build_s = self._db.build_seconds()
        registry = self.obs.registry
        counters = {
            "requests": int(registry.counter_value("service.requests")),
            "errors": int(registry.counter_value("service.errors")),
            "timeouts": int(registry.counter_value("service.timeouts")),
            "walks_emitted": int(
                registry.counter_value("service.walks_emitted")
            ),
            "mutations": int(registry.counter_value("service.mutations")),
            "mutation_ops": int(
                registry.counter_value("service.mutation_ops")
            ),
            "compactions": int(
                registry.counter_value("service.compactions")
            ),
            "evicted_plans": int(
                registry.counter_value("service.evicted_plans")
            ),
            "evicted_annotations": int(
                registry.counter_value("service.evicted_annotations")
            ),
            "plan_build_s": round(plan_build_s, 6),
            "annotation_build_s": round(annotation_build_s, 6),
            "enumerate_s": round(
                registry.histogram_sum("service.enumerate_seconds"), 6
            ),
            "total_s": round(
                registry.histogram_sum("service.request_seconds"), 6
            ),
        }
        return {
            **counters,
            **self._db.cache_stats(),
            "graphs": self._db.graphs(),
        }
