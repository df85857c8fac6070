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
Dispatch is one callback path on the event loop — no reader thread,
no task per request.  The connection handler parses a query line and
sends it down its worker's pipe in the same call; the worker pipe is
read by a ``loop.add_reader`` callback that resolves the response
future the connection's in-order writer awaits.  The owner's end of
each pipe is non-blocking both ways — a frame that does not fit waits
in a buffer a ``loop.add_writer`` callback flushes — so the loop never
waits on a worker.  A line that is JSON but not an object is answered
in place, like a line that is not JSON.  Each worker has at
most ``max_inflight`` requests in its pipe; further requests wait in
that worker's FIFO, and the reader callback sends the next one as
each response frees a slot — a slow worker holds its own queue
instead of flooding its pipe.  Workers answer with rendered JSON
bytes, which the writer puts on the socket as they are.  Two routing
policies pick the worker:

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
lines proceed — read-your-writes per connection.  A query behind a
pending barrier joins its worker's FIFO from the barrier's
done-callback.

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
A worker crash (pipe EOF) respawns the slot and resubmits the dead
worker's in-flight requests once — a worker request is always a
read-only query, so the retry is safe — answering a request with a
structured ``code="worker_crashed"`` error if its retry dies too;
requests still waiting in the dead worker's FIFO are rerouted as
they are.  A worker that stops responding past the request's
``timeout_ms`` plus a grace window (a ``loop.call_later`` watchdog)
is killed and the request answered ``code="worker_timeout"``.
``SIGTERM``/``SIGINT`` trigger a graceful drain: stop accepting, let
in-flight connections finish (bounded), stop workers, unlink the
segment.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing as mp
import os
import pickle
import struct
import zlib
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Union

from repro.exceptions import InvalidDeltaError, ReproError
from repro.graph.database import Graph
from repro.obs import Observability, merge_snapshots, render_prometheus
from repro.serve import shm
from repro.serve.worker import _error_payload, worker_main

#: JSONL line-length cap for the TCP reader (1 MiB, matching the
#: service's appetite for large mutation batches).
MAX_LINE = 1 << 20


#: What a query future resolves to: the worker's rendered JSON bytes,
#: or a dict the front-end made itself (errors, mutations, stats).
Response = Union[bytes, Dict[str, Any]]

#: The answer to a line that parses as JSON but not as an object —
#: the worker's own wording (:func:`~repro.serve.worker.execute_payload`).
_NOT_AN_OBJECT = _error_payload("request payload must be a JSON object")


class WorkerCrashed(Exception):
    """Internal: the worker serving a request died before answering."""


class _Call:
    """One request bound for a worker: the payload and its future.

    ``payload`` is ``None`` for a stats snapshot, which takes no
    in-flight slot and is never retried.  ``attempts`` counts sends,
    so a crash resubmits a query only once.
    """

    __slots__ = ("payload", "future", "attempts", "timer")

    def __init__(self, payload, future: asyncio.Future) -> None:
        self.payload = payload
        self.future = future
        self.attempts = 0
        self.timer: Optional[asyncio.TimerHandle] = None


#: ``multiprocessing.Connection`` framing: a signed 4-byte big-endian
#: byte count (``-1`` announces an 8-byte count) before each pickle.
_HEADER = struct.Struct("!i")
_BIG_HEADER = struct.Struct("!Q")


class _Channel:
    """The owner's non-blocking end of one worker pipe.

    The worker keeps the blocking ``Connection`` API; this end speaks
    the same framing on a non-blocking descriptor, so the event loop
    never blocks on the pipe.  A frame that does not fit is buffered
    and flushed by a ``loop.add_writer`` callback; reads collect
    partial frames until they are whole.  A blocking send here could
    deadlock: the loop stuck writing a large request to a worker that
    is itself stuck writing a large answer nobody reads.
    """

    __slots__ = ("_loop", "_conn", "_fd", "_inbuf", "_outbuf", "closed")

    def __init__(self, loop, conn, on_readable) -> None:
        self._loop = loop
        self._conn = conn
        self._fd = conn.fileno()
        self._inbuf = bytearray()
        self._outbuf = bytearray()
        self.closed = False
        os.set_blocking(self._fd, False)
        loop.add_reader(self._fd, on_readable)

    def send(self, msg) -> None:
        """Queue one message; raises ``OSError`` once the pipe is gone."""
        if self.closed:
            raise BrokenPipeError("worker channel closed")
        data = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
        if len(data) > 0x7FFFFFFF:
            header = _HEADER.pack(-1) + _BIG_HEADER.pack(len(data))
        else:
            header = _HEADER.pack(len(data))
        if self._outbuf:
            self._outbuf += header
            self._outbuf += data
            return
        frame = header + data
        try:
            sent = os.write(self._fd, frame)
        except (BlockingIOError, InterruptedError):
            sent = 0
        if sent < len(frame):
            self._outbuf += memoryview(frame)[sent:]
            self._loop.add_writer(self._fd, self._flush)

    def _flush(self) -> None:
        try:
            sent = os.write(self._fd, self._outbuf)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            sent = len(self._outbuf)  # the reader sees the EOF
        del self._outbuf[:sent]
        if not self._outbuf:
            self._loop.remove_writer(self._fd)

    def receive(self) -> list:
        """Every whole message that has arrived; ``EOFError`` at EOF."""
        try:
            data = os.read(self._fd, 1 << 18)
        except (BlockingIOError, InterruptedError):
            return []
        except OSError as exc:
            raise EOFError from exc
        if not data:
            raise EOFError
        buf = self._inbuf
        buf += data
        messages = []
        pos = 0
        while len(buf) - pos >= _HEADER.size:
            (size,) = _HEADER.unpack_from(buf, pos)
            start = pos + _HEADER.size
            if size == -1:
                if len(buf) - start < _BIG_HEADER.size:
                    break
                (size,) = _BIG_HEADER.unpack_from(buf, start)
                start += _BIG_HEADER.size
            if len(buf) - start < size:
                break
            messages.append(pickle.loads(buf[start:start + size]))
            pos = start + size
        del buf[:pos]
        return messages

    def close(self) -> None:
        """Stop watching the descriptor, then close it (idempotent)."""
        if not self.closed:
            self.closed = True
            self._loop.remove_reader(self._fd)
            if self._outbuf:
                self._loop.remove_writer(self._fd)
            self._conn.close()


class _Worker:
    """One generation of one worker slot (respawn replaces the object)."""

    __slots__ = (
        "index",
        "process",
        "channel",
        "inflight",
        "pending",
        "waiting",
        "ready",
        "stopped",
        "pid",
    )

    def __init__(self, index: int, process) -> None:
        self.index = index
        self.process = process
        self.channel: Optional[_Channel] = None
        #: Queries sent down the pipe and not yet answered.
        self.inflight = 0
        self.pending: Dict[int, _Call] = {}
        #: Queries routed here while every slot was taken, in order.
        self.waiting: Deque[_Call] = deque()
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
                "slow_ms": self.slow_ms,
            },
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(index, process)
        worker.channel = _Channel(
            self._loop, parent_conn, lambda: self._on_readable(worker)
        )
        return worker

    def _on_readable(self, worker: _Worker) -> None:
        """Reader callback: dispatch every whole message that arrived."""
        try:
            messages = worker.channel.receive()
        except EOFError:
            self._on_worker_died(worker)
            return
        for msg in messages:
            if worker.stopped:
                return
            self._on_message(worker, msg)

    def _on_message(self, worker: _Worker, msg) -> None:
        kind = msg[0]
        if kind == "res":
            call = worker.pending.pop(msg[1], None)
            if call is None:
                return  # answered by the watchdog already
            if call.payload is not None:
                worker.inflight -= 1
                if call.timer is not None:
                    call.timer.cancel()
            if not call.future.done():
                call.future.set_result(msg[2])
            self._fill_slots(worker)
        elif kind == "ready":
            worker.pid = msg[1]
            worker.ready.set()

    def _on_worker_died(self, worker: _Worker) -> None:
        """Crash handler: respawn the slot, resubmit its requests once."""
        if worker.stopped:
            return
        worker.stopped = True
        sent = list(worker.pending.values())
        waiting = list(worker.waiting)
        worker.pending.clear()
        worker.waiting.clear()
        worker.channel.close()
        if not self._draining:
            self._stats["respawns"] += 1
            # Replace the slot in place *before* resubmitting, so the
            # retries route to the fresh process.
            self._pool[worker.index] = self._spawn(worker.index)
        for call in sent:
            if call.timer is not None:
                call.timer.cancel()
            if call.payload is None:
                if not call.future.done():
                    call.future.set_exception(WorkerCrashed())
            elif call.attempts < 2 and not self._draining:
                self._stats["retries"] += 1
                self._route(call)
            else:
                self._fail_crashed(call)
        for call in waiting:
            self._route(call)

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
                worker.channel.send(("stop",))
            except OSError:
                pass
        for worker in self._pool:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - stuck child
                worker.process.kill()
                worker.process.join(timeout=1.0)
            worker.channel.close()
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

    def _submit(
        self, payload, barrier: Optional[asyncio.Future] = None
    ) -> asyncio.Future:
        """Route one query payload; the future resolves to its response.

        With a pending ``barrier`` the query joins a worker's FIFO from
        the barrier's done-callback instead of now.
        """
        self._stats["requests"] += 1
        call = _Call(payload, self._loop.create_future())
        if barrier is None or barrier.done():
            self._route(call)
        else:
            barrier.add_done_callback(lambda _barrier: self._route(call))
        return call.future

    async def dispatch_query(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Route one query payload to a worker; retry once on crash."""
        if not isinstance(payload, dict):
            return dict(_NOT_AN_OBJECT)
        response = await self._submit(payload)
        if isinstance(response, bytes):
            return json.loads(response)
        return response

    def _route(self, call: _Call) -> None:
        if call.future.done():
            return  # the caller gave up on it
        worker = self._pick(call.payload)
        if worker.stopped:  # draining: nothing respawns the slot
            self._fail_crashed(call)
        elif worker.waiting or worker.inflight >= self.max_inflight:
            worker.waiting.append(call)
        else:
            self._send(worker, call)

    def _fill_slots(self, worker: _Worker) -> None:
        """Send FIFO-waiting queries while ``worker`` has a free slot."""
        waiting = worker.waiting
        while (
            waiting
            and worker.inflight < self.max_inflight
            and not worker.stopped
        ):
            call = waiting.popleft()
            if not call.future.done():
                self._send(worker, call)

    def _send(self, worker: _Worker, call: _Call) -> None:
        rid = self._next_rid
        self._next_rid += 1
        call.attempts += 1
        worker.pending[rid] = call
        worker.inflight += 1
        payload = call.payload
        timeout_ms = payload.get("timeout_ms")
        if isinstance(timeout_ms, (int, float)) and timeout_ms > 0:
            # The engine enforces timeout_ms itself (answers
            # status="timeout" in-band); this watchdog only catches a
            # worker that stopped responding altogether.
            call.timer = self._loop.call_later(
                timeout_ms / 1000.0 + self.timeout_grace_s,
                self._on_hard_timeout,
                worker,
                rid,
            )
        try:
            worker.channel.send(("req", rid, payload))
        except OSError:
            self._on_worker_died(worker)

    def _on_hard_timeout(self, worker: _Worker, rid: int) -> None:
        call = worker.pending.pop(rid, None)
        if call is None:
            return
        worker.inflight -= 1
        self._stats["hard_timeouts"] += 1
        if not worker.stopped:
            worker.process.kill()  # pipe EOF → respawn
        if not call.future.done():
            call.future.set_result(
                _error_payload(
                    f"worker unresponsive past timeout_ms + "
                    f"{self.timeout_grace_s:.0f}s grace; worker killed",
                    code="worker_timeout",
                    rid=call.payload.get("id"),
                )
            )

    def _fail_crashed(self, call: _Call) -> None:
        if call.future.done():
            return
        self._stats["worker_errors"] += 1
        call.future.set_result(
            _error_payload(
                "worker crashed while serving the request (retried once)",
                code="worker_crashed",
                rid=call.payload.get("id"),
            )
        )

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
                worker.channel.send(("reload", new_segment.name))
            except OSError:
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
        loop = self._loop
        order: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.create_task(self._write_in_order(order, writer))
        # Every response future since the last mutation, and that
        # mutation (which itself waited for everything before it).
        prior: List[asyncio.Future] = []
        barrier: Optional[asyncio.Future] = None
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                ):  # pragma: no cover - line past MAX_LINE
                    fut = _resolved(
                        loop, _error_payload("request line too long")
                    )
                    prior.append(fut)
                    order.put_nowait(fut)
                    continue
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    payload = json.loads(text)
                except json.JSONDecodeError as exc:
                    fut = _resolved(loop, _error_payload(f"bad JSON: {exc}"))
                else:
                    if not isinstance(payload, dict):
                        fut = _resolved(loop, _NOT_AN_OBJECT)
                    elif "mutate" in payload:
                        fut = barrier = asyncio.create_task(
                            self._mutation_after(prior, payload)
                        )
                        prior = []
                    elif "stats" in payload:
                        # Admin request: aggregate now, no barrier —
                        # a stats read must not wait on (or block) the
                        # query traffic around it.
                        fut = asyncio.create_task(
                            self._stats_request(payload)
                        )
                    else:
                        fut = self._submit(payload, barrier)
                prior.append(fut)
                order.put_nowait(fut)
        finally:
            order.put_nowait(None)
            await writer_task
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _mutation_after(
        self, prior: List[asyncio.Future], payload
    ) -> Dict[str, Any]:
        if prior:
            await asyncio.wait(prior)
        return await self.apply_mutation(payload)

    async def _write_in_order(
        self, order: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            fut = await order.get()
            if fut is None:
                return
            try:
                response = await fut
            except Exception as exc:  # noqa: BLE001 — belt and braces.
                response = _error_payload(
                    f"internal error: {type(exc).__name__}: {exc}",
                    code="internal",
                )
            if not isinstance(response, bytes):
                response = json.dumps(response).encode()
            try:
                writer.write(response + b"\n")
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
            worker.pending[rid] = _Call(None, fut)
            try:
                worker.channel.send(("stats", rid))
            except OSError:
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


def _resolved(loop, response: Response) -> asyncio.Future:
    fut = loop.create_future()
    fut.set_result(response)
    return fut


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
