"""The asyncio front-end of the serving tier.

One :class:`ServeServer` owns

* the **graph** — held as a :class:`~repro.live.LiveGraph` so the
  write path can apply deltas, published to workers as immutable
  shared-memory segments (:mod:`repro.serve.shm`);
* a pool of forked **worker processes** (:mod:`repro.serve.worker`),
  each mapped zero-copy onto the current segment with its own
  process-local plan/annotation caches;
* the **TCP listener** (and a stdio mode for tests/CLI pipelines)
  speaking the existing JSONL protocol of :mod:`repro.service` — the
  same request/response dicts, byte for byte.

Dispatch
--------
Queries fan out to workers with bounded in-flight per worker
(``max_inflight``) — the pipe send blocks logically behind a
semaphore, so a slow worker exerts backpressure instead of growing an
unbounded queue.  Two routing policies:

``round_robin``
    next worker with a free slot (scan from a rotating start);
``affinity``
    ``crc32((query, source)) % workers`` — requests for the same
    (query, source) pair always land on the same worker, so the
    pool's **aggregate** annotation-cache capacity scales with the
    worker count instead of every worker thrashing over the same
    working set.  This is the policy the EXP-CONC bench measures.

Per connection, responses are written strictly in request order
(requests still execute concurrently).  A ``{"mutate": ...}`` line is
a write barrier exactly as in ``QueryService.execute_batch``: the
queries before it finish first, then the mutation applies, then later
lines proceed — read-your-writes per connection.

Mutations (single-owner write path)
-----------------------------------
Only the server process mutates: it applies the batch to its
``LiveGraph``, compacts, publishes the compacted graph as a **new**
segment ``<base>-e<epoch>``, bumps the old segment's epoch word (so
stragglers can detect staleness), sends an in-band ``reload`` down
every worker pipe, and unlinks the old block (safe while still
mapped).  Pipe FIFO ordering guarantees a worker processes every
pre-mutation request against the old mapping before it reloads —
coarse v1 invalidation: the whole per-worker cache state is dropped on
reload; label-footprint-precise cross-process invalidation is a
ROADMAP follow-on.  Edge ids are renumbered by compaction, so cursors
obtained before a mutation are invalid after it (same contract as
``Database.mutate`` with compaction).

Failure handling
----------------
A worker crash (pipe EOF) fails its in-flight futures; each is
retried once on the respawned pool — a worker request is always a
read-only query, so the retry is safe — and answered with a
structured ``code="worker_crashed"`` error if the retry dies too.  A
worker that stops responding past the request's ``timeout_ms`` plus a
grace window is killed and the request answered
``code="worker_timeout"``.  ``SIGTERM``/``SIGINT`` trigger a graceful
drain: stop accepting, let in-flight connections finish (bounded),
stop workers, unlink the segment.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing as mp
import threading
import zlib
from typing import Any, Dict, List, Optional, Set

from repro.exceptions import InvalidDeltaError, ReproError
from repro.graph.database import Graph
from repro.obs import Observability, merge_snapshots, render_prometheus
from repro.serve import shm
from repro.serve.worker import _error_payload, worker_main

#: JSONL line-length cap for the TCP reader (1 MiB, matching the
#: service's appetite for large mutation batches).
MAX_LINE = 1 << 20


class WorkerCrashed(Exception):
    """Internal: the worker serving a request died before answering."""


class _Worker:
    """One generation of one worker slot (respawn replaces the object)."""

    __slots__ = (
        "index",
        "process",
        "conn",
        "sem",
        "inflight",
        "pending",
        "ready",
        "stopped",
        "pid",
    )

    def __init__(self, index: int, process, conn, max_inflight: int) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.sem = asyncio.Semaphore(max_inflight)
        self.inflight = 0
        self.pending: Dict[int, asyncio.Future] = {}
        self.ready = asyncio.Event()
        self.stopped = False
        self.pid: Optional[int] = None


class ServeServer:
    """Multi-process serving tier over one shared-memory graph."""

    def __init__(
        self,
        graph,
        *,
        workers: int = 2,
        max_inflight: int = 8,
        routing: str = "round_robin",
        plan_cache_size: int = 256,
        annotation_cache_size: int = 128,
        default_mode: str = "iterative",
        graph_name: str = "default",
        segment_base: Optional[str] = None,
        timeout_grace_s: float = 10.0,
        mp_start: str = "fork",
        obs: Optional[Observability] = None,
        slow_ms: float = 0.0,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if routing not in ("round_robin", "affinity"):
            raise ValueError(
                f"unknown routing policy {routing!r}; "
                "expected 'round_robin' or 'affinity'"
            )
        from repro.live import LiveGraph

        if isinstance(graph, LiveGraph):
            self._live = graph
        elif isinstance(graph, Graph):
            self._live = LiveGraph(graph)
        else:
            raise TypeError(f"cannot serve a {type(graph).__name__}")
        #: Owner-side observability: the live graph's overlay gauges
        #: and compaction metrics land here; worker registries are
        #: merged in on :meth:`collect_stats`.  ``slow_ms`` is
        #: forwarded to every worker's slow-query log threshold.
        self.obs = obs if obs is not None else Observability(slow_ms=slow_ms)
        self.slow_ms = slow_ms
        if self.obs.enabled:
            self._live.attach_metrics(self.obs.registry)
            self.obs.registry.register_collector(self._serve_collector)
        self.workers = workers
        self.max_inflight = max_inflight
        self.routing = routing
        self.plan_cache_size = plan_cache_size
        self.annotation_cache_size = annotation_cache_size
        self.default_mode = default_mode
        self.graph_name = graph_name
        self.timeout_grace_s = timeout_grace_s
        self._segment_base = segment_base or shm.default_segment_name()
        self._mp = mp.get_context(mp_start)

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._segment: Optional[shm.GraphSegment] = None
        self._epoch = 0
        self._pool: List[_Worker] = []
        self._rr = 0
        self._next_rid = 0
        self._draining = False
        self._started = False
        self._mutation_lock: Optional[asyncio.Lock] = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._stats = {
            "requests": 0,
            "mutations": 0,
            "retries": 0,
            "respawns": 0,
            "hard_timeouts": 0,
            "worker_errors": 0,
        }
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        #: Last pre-stop aggregation, captured by :meth:`shutdown` so a
        #: drained pool's numbers survive the workers (the SIGTERM
        #: snapshot short smoke runs read).
        self.final_stats: Optional[Dict[str, Any]] = None

    def _serve_collector(self) -> Dict[str, Dict[str, float]]:
        """Export the dispatcher counters into the owner registry."""
        return {
            "counters": {
                f"serve.{key}": value
                for key, value in self._stats.items()
            },
            "gauges": {"serve.workers": len(self._pool)},
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Publish epoch 0 and boot the worker pool (waits for ready)."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._loop = asyncio.get_running_loop()
        self._mutation_lock = asyncio.Lock()
        snapshot = self._live.compact()
        self._segment = shm.GraphSegment.create(
            snapshot, name=self._segment_name(0), epoch=0
        )
        self._pool = [self._spawn(i) for i in range(self.workers)]
        await asyncio.gather(*(w.ready.wait() for w in self._pool))

    def _segment_name(self, epoch: int) -> str:
        return f"{self._segment_base}-e{epoch}"

    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=worker_main,
            args=(child_conn, self._segment.name),
            kwargs={
                "graph_name": self.graph_name,
                "plan_cache_size": self.plan_cache_size,
                "annotation_cache_size": self.annotation_cache_size,
                "default_mode": self.default_mode,
                "slow_ms": self.slow_ms,
            },
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(index, process, parent_conn, self.max_inflight)
        threading.Thread(
            target=self._read_worker,
            args=(worker,),
            name=f"serve-reader-{index}",
            daemon=True,
        ).start()
        return worker

    def _read_worker(self, worker: _Worker) -> None:
        """Blocking pipe reader (one thread per worker generation)."""
        while True:
            try:
                msg = worker.conn.recv()
            except (EOFError, OSError):
                break
            try:
                self._loop.call_soon_threadsafe(self._on_message, worker, msg)
            except RuntimeError:  # pragma: no cover - loop already closed
                return
        try:
            self._loop.call_soon_threadsafe(self._on_worker_died, worker)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    def _on_message(self, worker: _Worker, msg) -> None:
        kind = msg[0]
        if kind == "res":
            fut = worker.pending.pop(msg[1], None)
            if fut is not None and not fut.done():
                fut.set_result(msg[2])
        elif kind == "ready":
            worker.pid = msg[1]
            worker.ready.set()

    def _on_worker_died(self, worker: _Worker) -> None:
        """Loop-thread crash handler: fail in-flight, respawn the slot."""
        if worker.stopped:
            return
        worker.stopped = True
        for fut in list(worker.pending.values()):
            if not fut.done():
                fut.set_exception(WorkerCrashed())
        worker.pending.clear()
        worker.conn.close()
        if self._draining:
            return
        self._stats["respawns"] += 1
        # Replace the slot in place *before* any retry wakes up, so
        # retries route to the fresh process.
        self._pool[worker.index] = self._spawn(worker.index)

    async def shutdown(self, drain_timeout_s: float = 10.0) -> None:
        """Graceful drain: stop accepting, finish, stop workers, unlink.

        Before the workers stop, their observability state is
        aggregated one last time into :attr:`final_stats` — the drain
        snapshot that keeps short-lived (SIGTERM'd) runs from exiting
        blind.
        """
        self._draining = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        if self._conn_tasks:
            done, pending = await asyncio.wait(
                self._conn_tasks, timeout=drain_timeout_s
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._pool and self.obs.enabled:
            try:
                self.final_stats = await self.collect_stats(timeout_s=2.0)
            except Exception:  # noqa: BLE001 — never block the drain.
                pass
        for worker in self._pool:
            worker.stopped = True
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._pool:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - stuck child
                worker.process.kill()
                worker.process.join(timeout=1.0)
            worker.conn.close()
        self._pool = []
        if self._segment is not None:
            self._segment.close(unlink=True)
            self._segment = None

    # -- dispatch ----------------------------------------------------------

    def _pick(self, payload: Dict[str, Any]) -> _Worker:
        pool = self._pool
        if self.routing == "affinity":
            key = repr((payload.get("query"), payload.get("source")))
            return pool[zlib.crc32(key.encode()) % len(pool)]
        start = self._rr
        self._rr = (self._rr + 1) % len(pool)
        for off in range(len(pool)):
            worker = pool[(start + off) % len(pool)]
            if worker.inflight < self.max_inflight:
                return worker
        return pool[start]

    async def dispatch_query(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Route one query payload to a worker; retry once on crash."""
        self._stats["requests"] += 1
        rid_hint = payload.get("id") if isinstance(payload, dict) else None
        for attempt in range(2):
            worker = self._pick(payload)
            worker.inflight += 1
            async with worker.sem:
                try:
                    return await self._roundtrip(worker, payload)
                except WorkerCrashed:
                    self._stats["retries"] += 1
                    continue
                finally:
                    worker.inflight -= 1
        self._stats["worker_errors"] += 1
        return _error_payload(
            "worker crashed while serving the request (retried once)",
            code="worker_crashed",
            rid=rid_hint,
        )

    async def _roundtrip(
        self, worker: _Worker, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        rid = self._next_rid
        self._next_rid += 1
        fut = self._loop.create_future()
        worker.pending[rid] = fut
        try:
            worker.conn.send(("req", rid, payload))
        except (BrokenPipeError, OSError):
            worker.pending.pop(rid, None)
            raise WorkerCrashed() from None
        timeout_ms = (
            payload.get("timeout_ms") if isinstance(payload, dict) else None
        )
        if isinstance(timeout_ms, (int, float)) and timeout_ms > 0:
            # The engine enforces timeout_ms itself (answers
            # status="timeout" in-band); this watchdog only catches a
            # worker that stopped responding altogether.
            hard = timeout_ms / 1000.0 + self.timeout_grace_s
            try:
                return await asyncio.wait_for(fut, hard)
            except asyncio.TimeoutError:
                worker.pending.pop(rid, None)
                self._stats["hard_timeouts"] += 1
                if not worker.stopped:
                    worker.process.kill()  # reader EOF → respawn
                return _error_payload(
                    f"worker unresponsive past timeout_ms + "
                    f"{self.timeout_grace_s:.0f}s grace; worker killed",
                    code="worker_timeout",
                    rid=payload.get("id"),
                )
        try:
            return await fut
        finally:
            worker.pending.pop(rid, None)

    # -- the single-owner write path ---------------------------------------

    async def apply_mutation(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one ``{"mutate": ...}`` payload and republish."""
        from repro.service.requests import (
            MutationRequest,
            MutationResponse,
            RequestError,
        )

        rid = payload.get("id") if isinstance(payload, dict) else None
        async with self._mutation_lock:
            try:
                request = MutationRequest.from_dict(payload)
                if request.graph not in (None, self.graph_name):
                    raise RequestError(
                        f"unknown graph {request.graph!r}; this server "
                        f"serves {self.graph_name!r}"
                    )
                batch, snapshot = await asyncio.get_running_loop().run_in_executor(
                    None, self._apply_and_compact, request.parsed_ops
                )
                epoch = await self._republish(snapshot)
                self._stats["mutations"] += 1
                result = batch.summary()
                result["serve_epoch"] = epoch
                response = MutationResponse(
                    status="ok", result=result, id=rid
                )
            except InvalidDeltaError as exc:
                response = MutationResponse(
                    status="error",
                    error=str(exc),
                    code="invalid_delta",
                    id=rid,
                )
            except (RequestError, ReproError) as exc:
                response = MutationResponse(
                    status="error", error=str(exc), id=rid
                )
            except Exception as exc:  # noqa: BLE001 — owner backstop.
                response = MutationResponse(
                    status="error",
                    error=f"internal error: {type(exc).__name__}: {exc}",
                    code="internal",
                    id=rid,
                )
        return response.to_dict()

    def _apply_and_compact(self, ops):
        batch = self._live.apply(ops)
        return batch, self._live.compact()

    async def _republish(self, snapshot: Graph) -> int:
        """Publish ``snapshot`` as the next epoch and rotate the pool.

        Pipe FIFO ordering makes the in-band ``reload`` a precise
        barrier per worker: requests already in a pipe are answered
        against the old mapping, every later request sees the new one.
        Unlinking the old block immediately is safe — workers keep
        their mapping alive until they process the reload.
        """
        epoch = self._epoch + 1
        new_segment = await asyncio.get_running_loop().run_in_executor(
            None,
            lambda: shm.GraphSegment.create(
                snapshot, name=self._segment_name(epoch), epoch=epoch
            ),
        )
        old, self._segment, self._epoch = self._segment, new_segment, epoch
        for worker in self._pool:
            worker.ready.clear()
            try:
                worker.conn.send(("reload", new_segment.name))
            except (BrokenPipeError, OSError):
                pass  # crash path will respawn onto the new segment
        old.bump_epoch()  # stale marker for any straggling reader
        old.close(unlink=True)
        return epoch

    # -- connection handling ------------------------------------------------

    async def handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One JSONL client: concurrent execution, in-order responses."""
        order: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.create_task(self._write_in_order(order, writer))
        prior: List[asyncio.Task] = []
        barrier: Optional[asyncio.Task] = None
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                ):  # pragma: no cover - line past MAX_LINE
                    task = asyncio.create_task(
                        _completed(
                            _error_payload("request line too long")
                        )
                    )
                    prior.append(task)
                    await order.put(task)
                    continue
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    payload = json.loads(text)
                except json.JSONDecodeError as exc:
                    task = asyncio.create_task(
                        _completed(_error_payload(f"bad JSON: {exc}"))
                    )
                else:
                    if isinstance(payload, dict) and "mutate" in payload:
                        task = asyncio.create_task(
                            self._mutation_after(list(prior), payload)
                        )
                        barrier = task
                    elif isinstance(payload, dict) and "stats" in payload:
                        # Admin request: aggregate now, no barrier —
                        # a stats read must not wait on (or block) the
                        # query traffic around it.
                        task = asyncio.create_task(
                            self._stats_request(payload)
                        )
                    else:
                        task = asyncio.create_task(
                            self._query_after(barrier, payload)
                        )
                prior.append(task)
                await order.put(task)
        finally:
            await order.put(None)
            await writer_task
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _query_after(
        self, barrier: Optional[asyncio.Task], payload
    ) -> Dict[str, Any]:
        if barrier is not None:
            await asyncio.wait([barrier])
        return await self.dispatch_query(payload)

    async def _mutation_after(
        self, prior: List[asyncio.Task], payload
    ) -> Dict[str, Any]:
        if prior:
            await asyncio.wait(prior)
        return await self.apply_mutation(payload)

    async def _write_in_order(
        self, order: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            task = await order.get()
            if task is None:
                return
            try:
                response = await task
            except Exception as exc:  # noqa: BLE001 — belt and braces.
                response = _error_payload(
                    f"internal error: {type(exc).__name__}: {exc}",
                    code="internal",
                )
            try:
                writer.write(
                    json.dumps(response, sort_keys=False).encode() + b"\n"
                )
                await writer.drain()
            except (ConnectionError, OSError):
                return  # client went away; keep draining the queue

    # -- listeners ----------------------------------------------------------

    async def start_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> int:
        """Start the TCP listener; returns the bound port."""
        self._tcp_server = await asyncio.start_server(
            self._client_connected, host, port, limit=MAX_LINE
        )
        return self._tcp_server.sockets[0].getsockname()[1]

    async def _client_connected(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            await self.handle_connection(reader, writer)
        finally:
            self._conn_tasks.discard(task)

    async def run_stdio(self) -> None:
        """Serve one connection over stdin/stdout (tests, pipelines).

        ``connect_read_pipe``/``connect_write_pipe`` only accept pipes,
        sockets and character devices; when either end is redirected to
        a regular file (``repro serve --stdio < in.jsonl > out.jsonl``)
        the corresponding side falls back to thread-pool blocking I/O.
        """
        import sys

        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(limit=MAX_LINE)
        try:
            await loop.connect_read_pipe(
                lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
            )
        except ValueError:
            pump = asyncio.create_task(
                _pump_file(reader, sys.stdin.buffer, loop)
            )
            pump.add_done_callback(lambda _t: None)
        try:
            transport, protocol = await loop.connect_write_pipe(
                lambda: _WritePipeProtocol(loop), sys.stdout
            )
            writer = asyncio.StreamWriter(transport, protocol, reader, loop)
        except ValueError:
            writer = _BlockingWriter(sys.stdout.buffer, loop)
        await self.handle_connection(reader, writer)

    # -- introspection ------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Current mutation epoch (segments published so far − 1)."""
        return self._epoch

    @property
    def segment_name(self) -> Optional[str]:
        """Name of the currently published segment."""
        return self._segment.name if self._segment is not None else None

    def worker_pids(self) -> List[Optional[int]]:
        """PIDs of the current worker generation (for tests/ops)."""
        return [w.process.pid for w in self._pool]

    def stats(self) -> Dict[str, Any]:
        """Serving counters + pool geometry snapshot."""
        return {
            **self._stats,
            "workers": len(self._pool),
            "epoch": self._epoch,
            "routing": self.routing,
            "segment": self.segment_name,
        }

    # -- cross-worker stats aggregation -------------------------------------

    async def collect_stats(self, timeout_s: float = 5.0) -> Dict[str, Any]:
        """Snapshot every worker over the control pipe and merge.

        Counters sum, histogram buckets add, gauges take the max (see
        :func:`repro.obs.merge_snapshots`); the owner's own registry
        (dispatcher counters, live-graph gauges) merges in last.  A
        worker that is dead, wedged past ``timeout_s``, or crashes
        mid-aggregation contributes a labeled ``status="unavailable"``
        entry instead of blocking the answer — ``partial`` is then
        true, but every reachable worker's numbers are still in.
        """
        sent = []
        for worker in list(self._pool):
            rid = self._next_rid
            self._next_rid += 1
            fut = self._loop.create_future()
            worker.pending[rid] = fut
            try:
                worker.conn.send(("stats", rid))
            except (BrokenPipeError, OSError):
                worker.pending.pop(rid, None)
                fut = None
            sent.append((worker, rid, fut))

        workers_out: List[Dict[str, Any]] = []
        partial = False
        for worker, rid, fut in sent:
            entry: Dict[str, Any]
            if fut is None:
                entry = {"status": "unavailable", "reason": "pipe closed"}
            else:
                try:
                    entry = await asyncio.wait_for(fut, timeout_s)
                except asyncio.TimeoutError:
                    worker.pending.pop(rid, None)
                    entry = {"status": "unavailable", "reason": "timeout"}
                except WorkerCrashed:
                    entry = {"status": "unavailable", "reason": "crashed"}
            if entry.get("status") != "ok":
                partial = True
            entry.setdefault("pid", worker.process.pid)
            entry["index"] = worker.index
            workers_out.append(entry)

        snapshots = [
            w.get("metrics")
            for w in workers_out
            if w.get("status") == "ok"
        ]
        if self.obs.enabled:
            snapshots.append(self.obs.registry.snapshot())
        merged_service: Dict[str, float] = {}
        for w in workers_out:
            if w.get("status") != "ok":
                continue
            for key, value in w.get("service", {}).items():
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue  # nested cache dicts stay per-worker
                merged_service[key] = merged_service.get(key, 0) + value
        return {
            "server": self.stats(),
            "workers": workers_out,
            "merged": {
                "metrics": merge_snapshots(snapshots),
                "service": merged_service,
            },
            "partial": partial,
        }

    async def _stats_request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one ``{"stats": ...}`` JSONL admin request."""
        try:
            stats = await self.collect_stats()
            response: Dict[str, Any] = {"status": "ok", "stats": stats}
        except Exception as exc:  # noqa: BLE001 — admin-path backstop.
            response = {
                "status": "error",
                "error": f"internal error: {type(exc).__name__}: {exc}",
                "code": "internal",
            }
        rid = payload.get("id")
        if rid is not None:
            response["id"] = rid
        return response

    async def start_metrics(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> int:
        """Start the Prometheus text-exposition listener; returns its port.

        A deliberately minimal HTTP/1.1 responder: any request gets the
        merged cross-worker metrics as ``text/plain`` (format 0.0.4)
        and the connection closes — all a scraper needs.
        """
        self._metrics_server = await asyncio.start_server(
            self._metrics_connected, host, port
        )
        return self._metrics_server.sockets[0].getsockname()[1]

    @property
    def metrics_port(self) -> Optional[int]:
        """Bound port of the metrics listener, or ``None``."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.sockets[0].getsockname()[1]

    async def _metrics_connected(self, reader, writer) -> None:
        try:
            while True:  # drain the request head; any path answers
                line = await asyncio.wait_for(reader.readline(), 10.0)
                if not line or line in (b"\r\n", b"\n"):
                    break
            stats = await self.collect_stats(timeout_s=2.0)
            body = render_prometheus(stats["merged"]["metrics"]).encode()
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4; "
                b"charset=utf-8\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


async def _completed(response: Dict[str, Any]) -> Dict[str, Any]:
    return response


async def _pump_file(
    reader: asyncio.StreamReader, fileobj, loop
) -> None:
    """Feed a regular-file stdin into ``reader`` from the thread pool."""
    while True:
        chunk = await loop.run_in_executor(None, fileobj.read, 1 << 16)
        if not chunk:
            reader.feed_eof()
            return
        reader.feed_data(chunk)


class _WritePipeProtocol(asyncio.streams.FlowControlMixin):
    """Write-side protocol for a stdout pipe: the mixin's flow control
    plus the close waiter ``StreamWriter.wait_closed`` asks its
    protocol for (the bare mixin raises ``NotImplementedError`` there),
    resolved when the transport reports the connection lost."""

    def __init__(self, loop) -> None:
        super().__init__(loop=loop)
        self._closed = loop.create_future()

    def connection_lost(self, exc) -> None:
        if not self._closed.done():
            if exc is None:
                self._closed.set_result(None)
            else:
                self._closed.set_exception(exc)
        super().connection_lost(exc)

    def _get_close_waiter(self, stream):
        return self._closed


class _BlockingWriter:
    """``StreamWriter`` stand-in for a regular-file stdout.

    Implements the subset ``handle_connection`` uses — ``write`` /
    ``drain`` / ``close`` / ``wait_closed`` — with the actual writes
    pushed to the thread pool so the event loop never blocks on disk.
    The underlying file (the process's stdout) is flushed, not closed.
    """

    def __init__(self, fileobj, loop) -> None:
        self._file = fileobj
        self._loop = loop
        self._buffer = bytearray()

    def write(self, data: bytes) -> None:
        self._buffer += data

    async def drain(self) -> None:
        if self._buffer:
            data = bytes(self._buffer)
            del self._buffer[:]
            await self._loop.run_in_executor(None, self._flush, data)

    def _flush(self, data: bytes) -> None:
        self._file.write(data)
        self._file.flush()

    def close(self) -> None:
        if self._buffer:
            self._flush(bytes(self._buffer))
            del self._buffer[:]

    async def wait_closed(self) -> None:
        return None


async def serve(
    graph,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    stdio: bool = False,
    metrics_port: Optional[int] = None,
    on_final_stats=None,
    on_ready=None,
    **server_kwargs,
) -> None:
    """Boot a server, announce readiness, run until SIGTERM/SIGINT.

    ``on_ready(server, port)`` fires after the listener is up (port is
    ``None`` in stdio mode).  The CLI uses it to print the endpoint;
    tests use it to grab the bound port.  ``metrics_port`` additionally
    starts the Prometheus text exposition on that port (0 = ephemeral;
    read it back via ``server.metrics_port`` in ``on_ready``).
    ``on_final_stats(stats)`` fires after the drain with the last
    cross-worker aggregation, so a SIGTERM'd run still reports.
    """
    import signal

    server = ServeServer(graph, **server_kwargs)
    await server.start()
    if metrics_port is not None:
        await server.start_metrics(host, metrics_port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, ValueError):  # pragma: no cover
            pass
    try:
        if stdio:
            if on_ready is not None:
                on_ready(server, None)
            stdio_task = asyncio.create_task(server.run_stdio())
            done, _pending = await asyncio.wait(
                [stdio_task, asyncio.create_task(stop.wait())],
                return_when=asyncio.FIRST_COMPLETED,
            )
            if stdio_task in done:
                stdio_task.result()
            else:  # pragma: no cover - signal before stdin EOF
                stdio_task.cancel()
                await asyncio.gather(stdio_task, return_exceptions=True)
        else:
            bound = await server.start_tcp(host, port)
            if on_ready is not None:
                on_ready(server, bound)
            await stop.wait()
    finally:
        await server.shutdown()
        if on_final_stats is not None and server.final_stats is not None:
            on_final_stats(server.final_stats)
