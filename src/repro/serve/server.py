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
Dispatch is callbacks on the event loop — no thread per worker, and
no task per request or connection.  Each connection is one
``asyncio.Protocol`` (:class:`_Connection`): ``data_received`` splits
its lines and sends a query down its worker's pipe in the same call,
and the line's future takes its place in the connection's order.  A
``loop.add_reader`` callback reads each worker pipe, and every answer
path (the worker's reply, the hard watchdog, a failed crash retry)
ends in :meth:`_Call.resolve`, which sets the future and writes every
finished head of that connection's order in the same callback.  The owner's
pipe ends are non-blocking both ways — a frame that does not fit waits
in a buffer a ``loop.add_writer`` callback flushes — so the loop never
waits on a worker.  A line that is not JSON, not an object, or longer
than :data:`MAX_LINE` is answered in place.  Each worker has at most
``max_inflight`` requests in its pipe; further requests wait in that
worker's FIFO, and the reader callback sends the next one as each
response frees a slot.  Workers answer with rendered JSON bytes, which
go to the socket as they are.  A connection whose write buffer passes
its high-water mark is not read until it drains, so a client that does
not read stops feeding lines.  Two routing policies pick the worker:

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
reload; label-footprint-precise cross-process invalidation is ROADMAP
item 19.  Edge ids are renumbered by compaction, so cursors
obtained before a mutation are invalid after it (same contract as
``Database.mutate`` with compaction).  Since every batch compacts, a
mutation's ``"compact"`` field may be ``"auto"`` or ``"always"``;
``"never"`` is answered with an error response that says so, and the
graph is left as it was.

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
``SIGTERM``/``SIGINT`` trigger a graceful drain: stop accepting and
reading, answer every line read (bounded), close the connections,
stop workers, unlink the segment.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing as mp
import os
import pickle
import shutil
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
    so a crash resubmits a query only once.  ``conn`` is the
    connection whose order holds the future, or ``None`` for
    :meth:`ServeServer.dispatch_query` and stats snapshots.
    """

    __slots__ = ("payload", "future", "attempts", "timer", "conn")

    def __init__(self, payload, future: asyncio.Future, conn=None) -> None:
        self.payload = payload
        self.future = future
        self.attempts = 0
        self.timer: Optional[asyncio.TimerHandle] = None
        self.conn = conn

    def resolve(self, response: Response) -> None:
        """Answer the call, then write the connection's finished heads."""
        if not self.future.done():
            self.future.set_result(response)
            if self.conn is not None:
                self.conn.flush()


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
        #: Owner-side observability: the live graph's mutation gauges
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
        #: Open connections (TCP and stdio), each until its write side
        #: is gone.
        self._conns: Set[_Connection] = set()
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
                self._fill_slots(worker)
            call.resolve(msg[2])
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
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        conns = list(self._conns)
        for conn in conns:
            conn.stop()
        if conns:
            await asyncio.wait(
                [conn.closed for conn in conns], timeout=drain_timeout_s
            )
            for conn in conns:
                conn.abort()
        if self._tcp_server is not None:
            await self._tcp_server.wait_closed()
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
        self,
        payload,
        barrier: Optional[asyncio.Future] = None,
        conn: Optional["_Connection"] = None,
    ) -> asyncio.Future:
        """Route one query payload; the future resolves to its response.

        A connection's query takes its place in ``conn``'s order before
        it is routed, so an answer made on the spot is written in turn.
        With a pending ``barrier`` the query joins a worker's FIFO from
        the barrier's done-callback instead of now.
        """
        self._stats["requests"] += 1
        call = _Call(payload, self._loop.create_future(), conn)
        if conn is not None:
            conn.order.append(call.future)
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
        call.resolve(
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
        call.resolve(
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
                if request.compact == "never":
                    raise RequestError(
                        "'compact': 'never' is not supported by repro "
                        "serve: every batch is compacted and the whole "
                        "graph republished to the workers"
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

    async def _mutation_after(
        self, prior: List[asyncio.Future], payload
    ) -> Dict[str, Any]:
        if prior:
            await asyncio.wait(prior)
        return await self.apply_mutation(payload)

    # -- listeners ----------------------------------------------------------

    async def start_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> int:
        """Start the TCP listener; returns the bound port."""
        self._tcp_server = await self._loop.create_server(
            lambda: _Connection(self), host, port
        )
        return self._tcp_server.sockets[0].getsockname()[1]

    async def run_stdio(self) -> None:
        """Serve one connection over stdin/stdout (tests, pipelines).

        ``connect_read_pipe``/``connect_write_pipe`` only accept pipes,
        sockets and character devices; when either end is redirected to
        a regular file (``repro serve --stdio < in.jsonl > out.jsonl``),
        stdout is written through :class:`_FileSink` and stdin is copied
        into a pipe by a thread.
        """
        import sys
        import threading

        loop = self._loop
        conn = _Connection(self)
        try:
            await loop.connect_write_pipe(lambda: conn, sys.stdout)
        except ValueError:
            conn.connection_made(_FileSink(sys.stdout.buffer, conn, loop))
        try:
            await loop.connect_read_pipe(lambda: conn, sys.stdin)
        except ValueError:
            read_end, write_end = os.pipe()
            threading.Thread(
                target=_copy_into, args=(sys.stdin.buffer, write_end), daemon=True
            ).start()
            await loop.connect_read_pipe(lambda: conn, open(read_end, "rb", buffering=0))
        await asyncio.shield(conn.closed)

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


class _Connection(asyncio.Protocol):
    """One JSONL client: concurrent execution, in-order responses.

    Every answered line takes a slot in :attr:`order`, a deque of
    futures in request order; whatever finishes a slot (a call's
    :meth:`~_Call.resolve`, a mutation or stats task's done-callback)
    calls :meth:`flush`.  TCP gives one transport for both sides,
    ``--stdio`` a read and a write transport.
    """

    def __init__(self, server: ServeServer) -> None:
        self._server = server
        self._reader: Any = None
        self._writer: Any = None
        self._attached = 0  # transports not yet lost
        self._partial = b""  # the unfinished last line
        self._skipping = False  # inside a line past MAX_LINE
        self._eof = False  # no more lines: close once answered
        self._barrier: Optional[asyncio.Future] = None
        self.order: Deque[asyncio.Future] = deque()
        self.closed = server._loop.create_future()

    def connection_made(self, transport) -> None:
        self._attached += 1
        if isinstance(transport, asyncio.ReadTransport):
            self._reader = transport
        if isinstance(transport, asyncio.WriteTransport):
            self._writer = transport
            self._server._conns.add(self)

    def data_received(self, data: bytes) -> None:
        if self._partial:
            data = self._partial + data
        start = 0
        end = data.find(b"\n")
        while end >= 0:
            if self._skipping:
                self._skipping = False
            elif end - start > MAX_LINE:
                self._answer(_error_payload("request line too long"))
            else:
                self._line(data[start:end])
            start = end + 1
            end = data.find(b"\n", start)
        self._partial = b""
        if len(data) - start > MAX_LINE and not self._skipping:
            self._answer(_error_payload("request line too long"))
            self._skipping = True
        elif not self._skipping:
            self._partial = data[start:]

    def _line(self, raw: bytes) -> None:
        text = raw.decode("utf-8", errors="replace").strip()
        if not text or text.startswith("#"):
            return
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:  # nested too deep
            self._answer(_error_payload(f"bad JSON: {exc}"))
            return
        server = self._server
        if not isinstance(payload, dict):
            self._answer(_NOT_AN_OBJECT)
        elif "mutate" in payload:
            # A barrier: every line before it is answered first.
            self._barrier = self._task(
                server._mutation_after(list(self.order), payload)
            )
        elif "stats" in payload:
            # Admin request: aggregate now, no barrier — a stats read
            # must not wait on (or block) the query traffic around it.
            self._task(server._stats_request(payload))
        else:
            server._submit(payload, self._barrier, self)

    def _answer(self, response: Response) -> None:
        future = self._server._loop.create_future()
        future.set_result(response)
        self.order.append(future)
        self.flush()

    def _task(self, coro) -> asyncio.Future:
        task = self._server._loop.create_task(coro)
        self.order.append(task)
        task.add_done_callback(self.flush)
        return task

    def flush(self, _done=None) -> None:
        """Write every finished head of the order, in one write."""
        order = self.order
        out = []
        while order and order[0].done():
            try:
                response = order.popleft().result()
            except (Exception, asyncio.CancelledError) as exc:  # noqa: BLE001
                # Belt and braces: a task cancelled at loop teardown.
                response = _error_payload(
                    f"internal error: {type(exc).__name__}: {exc}", code="internal"
                )
            out.append(
                response if isinstance(response, bytes) else json.dumps(response).encode()
            )
        writer = self._writer
        if out and not writer.is_closing():
            out.append(b"")
            writer.write(b"\n".join(out))
        if self._eof and not order:
            writer.close()

    def eof_received(self) -> bool:
        if self._partial:  # a last line without its newline
            self._line(self._partial)
            self._partial = b""
        self._eof = True
        self.flush()
        return True  # keep the socket open for the answers

    def pause_writing(self) -> None:
        self._reader.pause_reading()

    def resume_writing(self) -> None:
        if not self._eof:
            self._reader.resume_reading()

    def connection_lost(self, exc) -> None:
        self._attached -= 1
        if not self._attached:
            self._server._conns.discard(self)
            if not self.closed.done():
                self.closed.set_result(None)
        elif not self._eof:  # one --stdio side is gone: end the other
            self.stop()

    def stop(self) -> None:
        """Read no further; close once every line read is answered."""
        reader = self._reader
        if reader is self._writer:
            reader.pause_reading()
        elif reader is not None:
            reader.close()
        self._partial = b""
        self._eof = True
        self.flush()

    def abort(self) -> None:
        if not self.closed.done():
            self._writer.abort()


class _FileSink(asyncio.WriteTransport):
    """The write side for a regular-file stdout: each write goes to the
    file's page cache and is flushed; closing never closes stdout."""

    def __init__(self, fileobj, protocol, loop) -> None:
        super().__init__()
        self._file, self._protocol, self._loop = fileobj, protocol, loop
        self._closing = False

    def write(self, data: bytes) -> None:
        self._file.write(data)
        self._file.flush()

    def is_closing(self) -> bool:
        return self._closing

    def close(self) -> None:
        if not self._closing:
            self._closing = True
            self._loop.call_soon(self._protocol.connection_lost, None)

    abort = close


def _copy_into(source, fd: int) -> None:
    """Copy a regular-file stdin into the pipe ``fd`` (run in a thread)."""
    with open(fd, "wb", buffering=0) as sink, contextlib.suppress(OSError):
        shutil.copyfileobj(source, sink)


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
