"""Worker process: attach the shared graph, serve queries over a pipe.

Each worker is a forked child holding one end of a
``multiprocessing.Pipe``.  It attaches the published segment
(:func:`repro.serve.shm.attach`), registers the resulting
:class:`~repro.serve.shm.SharedGraph` with a **process-local**
:class:`~repro.service.QueryService` — so every worker gets its own
plan + annotation LRU caches over the *shared* read-only pages — and
loops over pickled control tuples:

parent → child
    ``("req", rid, payload)``  execute one JSONL query payload;
    ``("stats", rid)``         snapshot this worker's observability
    state (service counters, metrics registry, slow-query log);
    ``("reload", name)``       detach, attach segment ``name`` instead
    (the coarse v1 invalidation: the process-local caches are dropped
    wholesale by re-registering the new graph);
    ``("stop",)``              drain nothing further and exit 0.

child → parent
    ``("ready", pid, segment_name, epoch)``  after every successful
    (re-)attach; ``("res", rid, response_json)`` per request, the
    response already rendered to JSON bytes so the front-end writes
    them to the socket as they are; stats snapshots answer with the
    same kind carrying a dict, so the owner's pending-future plumbing
    serves both.

Mutations never reach a worker: the server owns the write path
(:mod:`repro.serve.server`).  A ``{"mutate": ...}`` payload that does
arrive is answered with a structured ``code="not_owner"`` error rather
than being applied, so a routing bug cannot fork the data.

``timeout_ms`` is honored by the engine itself (the enumeration's
deadline checks), so a worker answers ``status="timeout"`` responses
in-band; the server adds a generous out-of-band watchdog on top for
workers that stop responding entirely.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from repro.exceptions import ReproError


def _error_payload(
    message: str, code: Optional[str] = None, rid: Any = None
) -> Dict[str, Any]:
    """A minimal JSONL error response dict (wire shape of QueryResponse)."""
    out: Dict[str, Any] = {
        "status": "error",
        "lam": None,
        "walks": [],
        "next_cursor": None,
        "error": message,
    }
    if code is not None:
        out["code"] = code
    if rid is not None:
        out["id"] = rid
    return out


def execute_payload(service, payload: Dict[str, Any]) -> Dict[str, Any]:
    """One parsed JSONL payload → one response dict, never raising.

    Shared by the worker loop and the server's stdio fallback: wraps
    request parsing (the one stage :meth:`QueryService.execute` cannot
    guard, since it happens before a request object exists) and maps
    worker-side mutations to ``code="not_owner"``.
    """
    from repro.service.requests import QueryRequest, RequestError

    if not isinstance(payload, dict):
        return _error_payload("request payload must be a JSON object")
    if "mutate" in payload:
        return _error_payload(
            "mutations must go through the serving owner process",
            code="not_owner",
            rid=payload.get("id"),
        )
    try:
        request = QueryRequest.from_dict(payload)
    except (RequestError, ReproError) as exc:
        return _error_payload(str(exc), rid=payload.get("id"))
    except Exception as exc:  # noqa: BLE001 — parse-stage backstop.
        return _error_payload(
            f"internal error: {type(exc).__name__}: {exc}",
            code="internal",
            rid=payload.get("id"),
        )
    return service.execute(request).to_dict()


def worker_stats(service) -> Dict[str, Any]:
    """This process's observability snapshot (JSON-ready), never raising.

    Works without a graph registered: the service counters and the
    registry exist from construction, so a stats request against an
    idle pool still answers.
    """
    try:
        return {
            "status": "ok",
            "pid": os.getpid(),
            "service": service.stats(),
            "metrics": service.obs.registry.snapshot(),
            "slowlog": service.obs.slowlog.entries(),
        }
    except Exception as exc:  # noqa: BLE001 — stats must never kill serving.
        return {
            "status": "error",
            "pid": os.getpid(),
            "error": f"{type(exc).__name__}: {exc}",
        }


def worker_main(
    conn,
    segment_name: str,
    *,
    graph_name: str = "default",
    plan_cache_size: int = 256,
    annotation_cache_size: int = 128,
    slow_ms: float = 0.0,
) -> None:
    """Entry point of one serving worker (runs in the forked child).

    Exits cleanly on ``("stop",)``, on EOF from the parent (server
    died), and on any reload that names a vanished segment — the
    parent sees the pipe close and respawns/reroutes.
    """
    import signal

    # The parent's SIGTERM/SIGINT handlers were inherited across the
    # fork; the drain protocol is the pipe, not signals.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    from repro.serve import shm
    from repro.service import QueryService
    from repro.service.requests import encode_json

    def fresh_service(name: str):
        graph = shm.attach(name)
        service = QueryService(
            plan_cache_size=plan_cache_size,
            annotation_cache_size=annotation_cache_size,
            slow_ms=slow_ms,
        )
        service.register_graph(graph_name, graph, warm=True)
        return graph, service

    graph, service = fresh_service(segment_name)
    conn.send(("ready", os.getpid(), segment_name, graph.attached_epoch))

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "reload":
            # Coarse v1 invalidation: drop the whole process-local
            # cache state with the old graph and re-attach the new
            # segment.  Fine-grained label-footprint eviction stays a
            # follow-on (ROADMAP item 19).
            segment_name = msg[1]
            old = graph
            graph, service = fresh_service(segment_name)
            old.detach()
            conn.send(
                ("ready", os.getpid(), segment_name, graph.attached_epoch)
            )
            continue
        if kind == "stats":
            try:
                conn.send(("res", msg[1], worker_stats(service)))
            except (BrokenPipeError, OSError):
                break
            continue
        if kind == "req":
            rid, payload = msg[1], msg[2]
            try:
                rendered = encode_json(execute_payload(service, payload)).encode()
            except Exception as exc:  # noqa: BLE001 — last-ditch guard.
                rendered = json.dumps(
                    _error_payload(
                        f"internal error: {type(exc).__name__}: {exc}",
                        code="internal",
                    )
                ).encode()
            try:
                conn.send(("res", rid, rendered))
            except (BrokenPipeError, OSError):
                break
            continue
        # Unknown control message: protocol skew between parent and
        # child builds — die loudly so the parent respawns.
        raise RuntimeError(f"unknown worker control message {msg[0]!r}")

    graph.detach()
    conn.close()
