"""One caller per entry tier, all taking the same request dict.

A request is ``{"query", "source", "target", "limit", "mode"}``.  Every
tier's result becomes an :class:`Answer` ``(lam, edges, outputs)``
where ``edges`` is the tuple of delivered walks' edge-id tuples — an
answer counts as delivered once its ``walk.edges`` has been read — so
that tiers can be compared walk for walk.  The in-process tiers return
it directly; the service returns its JSON text and the TCP client its
parsed response, which :func:`to_answer` decodes after the clock has
stopped.

Only public entry points of ``repro`` are called; with a recorder the
calls are wrapped in spans, without one they are called directly.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.api import Database
from repro.automata import regex_to_nfa
from repro.core import annotate, compile_query, enumerate_walks, trim
from repro.service import QueryRequest, QueryService

from spans import Recorder, call

#: Outputs per delay sample: one clock read per batch keeps the clock
#: from being the workload at ~2 µs/output.
DELAY_BATCH = 64


class Answer(NamedTuple):
    lam: Optional[int]
    edges: Tuple[Tuple[int, ...], ...]
    outputs: int


class EngineProbe:
    """What one engine-tier request exposes besides its answer."""

    __slots__ = ("started", "enumerating_at", "first_at", "stamps", "da", "lam_a")

    def __init__(self) -> None:
        self.started = 0.0
        #: perf_counter() just before the enumerator was created.
        self.enumerating_at = 0.0
        #: perf_counter() when the first walk's edges were read (or when
        #: emptiness was established).
        self.first_at = 0.0
        #: perf_counter() after every DELAY_BATCH-th output.
        self.stamps: List[float] = []
        #: |D| × |A| and λ × |A| of the request, the paper's two units.
        self.da = 0
        self.lam_a = 0


def engine_request(
    graph,
    request: Dict[str, Any],
    rec: Optional[Recorder] = None,
    probe: Optional[EngineProbe] = None,
    keep: Optional[int] = None,
) -> Answer:
    """Cold engine tier: parse → compile → annotate → trim → enumerate.

    The annotation saturates (as the façade's cached
    ``MultiTargetShortestWalks`` does), so the preprocessing cost is
    the paper's O(|D|×|A|) whatever the target's distance, and the tier
    difference to ``Database`` compares like with like.  ``keep``
    bounds how many edge tuples are retained (all are read and
    counted).
    """
    probe = probe if probe is not None else EngineProbe()
    probe.started = time.perf_counter()
    probe.stamps = []
    limit = request.get("limit")
    root = rec.begin("engine") if rec is not None else -1
    nfa = call(rec, "automata", regex_to_nfa, request["query"])
    cq = call(rec, "compile", compile_query, graph, nfa)
    source = graph.resolve_vertex(request["source"])
    target = graph.resolve_vertex(request["target"])
    span = rec.begin("annotate") if rec is not None else -1
    annotation = annotate(cq, source, target, saturate=True)
    if rec is not None:
        rec.end(span, entries=annotation.annotation_entries())
    lam, states = annotation.target_info(target)
    a_size = cq.size()
    probe.da = graph.size() * a_size
    probe.lam_a = (lam or 0) * a_size
    if lam is None:
        probe.enumerating_at = probe.first_at = time.perf_counter()
        if rec is not None:
            rec.end(root)
        return Answer(None, (), 0)
    span = rec.begin("trim") if rec is not None else -1
    trimmed = trim(graph, annotation)
    if rec is not None:
        rec.end(span, items=trimmed.total_items())
    span = rec.begin("enumerate") if rec is not None else -1
    kept: List[Tuple[int, ...]] = []
    stamps = probe.stamps
    outputs = 0
    probe.enumerating_at = time.perf_counter()
    walks = enumerate_walks(graph, trimmed, lam, target, states)
    for walk in walks:
        edges = walk.edges
        outputs += 1
        if outputs == 1:
            probe.first_at = time.perf_counter()
        if keep is None or outputs <= keep:
            kept.append(edges)
        if not outputs % DELAY_BATCH:
            stamps.append(time.perf_counter())
        if outputs == limit:
            break
    walks.close()
    if rec is not None:
        rec.end(span, outputs=outputs)
        rec.end(root)
    return Answer(lam, tuple(kept), outputs)


def _run_query(db: Database, request: Dict[str, Any]) -> Answer:
    result = (
        db.query(request["query"])
        .from_(request["source"])
        .to(request["target"])
        .mode(request["mode"])
        .limit(request.get("limit"))
        .run()
    )
    edges = tuple(row.walk.edges for row in result)
    return Answer(result.lam, edges, len(edges))


def db_request(
    db: Database, request: Dict[str, Any], rec: Optional[Recorder] = None
) -> Answer:
    """``Database`` façade request with the page materialised."""
    return call(rec, "api", _run_query, db, request)


def _render(response) -> str:
    return json.dumps(response.to_dict())


def service_request(
    service: QueryService, request: Dict[str, Any], rec: Optional[Recorder] = None
) -> str:
    """Dict in → JSON text out through ``QueryService``."""
    root = rec.begin("service") if rec is not None else -1
    parsed = call(rec, "service.parse", QueryRequest.from_dict, request)
    response = call(rec, "service.execute", service.execute, parsed)
    text = call(rec, "service.render", _render, response)
    if rec is not None:
        rec.end(root, bytes=len(text))
    return text


def serve_request(
    client, request: Dict[str, Any], rec: Optional[Recorder] = None
) -> Dict[str, Any]:
    """One JSONL round trip over TCP through ``ServeClient``."""
    return call(rec, "serve", client.request, request)


def to_answer(raw) -> Answer:
    """Decode a tier's raw result — outside the timed region."""
    if isinstance(raw, Answer):
        return raw
    response = json.loads(raw) if isinstance(raw, str) else raw
    if response["status"] not in ("ok", "empty"):
        raise RuntimeError(
            f"request failed: {response['status']}: {response.get('error')}"
        )
    edges = tuple(tuple(w["edges"]) for w in response["walks"])
    return Answer(response["lam"], edges, len(edges))
