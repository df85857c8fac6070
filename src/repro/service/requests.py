"""Request/response model of the batched query service.

A :class:`QueryRequest` is one RPQ evaluation: *enumerate the distinct
shortest walks matching ``query`` from ``source`` to ``target``*, plus
serving knobs (pagination, time budget).  A
:class:`MutationRequest` is one write batch against a live graph
(:mod:`repro.live`): a list of mutation ops applied atomically with
fine-grained cache invalidation.  Requests round-trip through JSON
dictionaries — the on-disk batch format is JSONL, one request object
per line; a line is a mutation iff it carries a ``"mutate"`` key::

    {"query": "h* s (h | s)*", "source": "Alix", "target": "Bob"}
    {"mutate": [{"op": "add_edge", "src": "Alix", "tgt": "Eve",
                 "labels": ["h"]}]}
    {"query": "h+", "source": "Alix", "target": "Eve", "limit": 10}

Within a batch, the service executes the requests in order, so a
mutation acts as a **barrier**: every query before it runs first, then
the mutation, then the rest — the third line above sees the edge the
second line added.

A :class:`QueryResponse` carries the outcome:

* ``status`` — ``"ok"`` (answers enumerated), ``"empty"`` (no matching
  walk), ``"timeout"`` (budget exhausted; ``walks`` holds the partial
  page and ``next_cursor`` resumes it), or ``"error"`` (bad input —
  ``error`` holds the message, nothing was executed);
* ``lam`` — λ, the answer length (``None`` for empty/error);
* ``walks`` — the page of answers, in the paper's enumeration order,
  each rendered with :meth:`repro.core.walks.Walk.to_dict`;
* ``next_cursor`` — opaque resume token (the last walk's edge ids) to
  pass as ``cursor`` in a follow-up request for the next page, or
  ``None`` when the enumeration is exhausted;
* ``cached`` — which preprocessing layers were served from cache;
* ``timings`` — wall-clock seconds per phase for this request.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.api.query import MODES, RESTRICTIONS, is_budget
from repro.exceptions import ReproError, is_int

#: ``json.dumps`` with its defaults, less the circular-reference check:
#: the same bytes, and a response is acyclic by construction.  The
#: serving worker renders its answers with it too.
encode_json = json.JSONEncoder(check_circular=False).encode


class RequestError(ReproError):
    """A request is malformed (unknown field, bad type, bad value)."""


@dataclass
class QueryRequest:
    """One RPQ evaluation request against a registered graph."""

    query: str
    source: Hashable
    target: Hashable
    #: Registered graph name; ``None`` selects the service's sole graph.
    graph: Optional[str] = None
    #: A name from :data:`~repro.api.query.MODES`: validated, but it
    #: selects nothing — every request pages through one DFS (see
    #: :mod:`repro.api.query`).
    mode: str = "auto"
    #: Walk semantics: ``"walks"`` (distinct shortest walks, the
    #: default), ``"trails"`` / ``"simple"`` (no repeated edge /
    #: vertex), or ``"any"`` (one witness walk per pair).
    semantics: str = "walks"
    #: Page size; ``None`` = all answers.
    limit: Optional[int] = None
    #: Answers to skip before the page starts (O(offset) walk work;
    #: applied *after* ``cursor`` seeking).  If a timeout interrupts
    #: the skip phase, the response's ``skipped`` counter says how far
    #: it got — resume with the returned cursor and the remaining
    #: ``offset - skipped``.
    offset: int = 0
    #: Resume token from a previous response's ``next_cursor`` — the
    #: page starts right after that walk (one O(λ) seek).
    cursor: Optional[Tuple[int, ...]] = None
    #: Per-request wall-clock budget in milliseconds; ``None`` = none.
    timeout_ms: Optional[float] = None
    #: Client-chosen id, echoed verbatim in the response.
    id: Optional[Any] = None

    #: Set by :meth:`validate` (a plain attribute, not a field): the
    #: service skips the pass for a request that already made it.
    validated = False

    def validate(self) -> "QueryRequest":
        if not isinstance(self.query, str) or not self.query.strip():
            raise RequestError("'query' must be a non-empty string")
        if self.source is None or self.target is None:
            raise RequestError("'source' and 'target' are required")
        for name in ("source", "target", "graph"):
            value = getattr(self, name)
            try:
                hash(value)
            except TypeError:
                raise RequestError(
                    f"'{name}' must be hashable, got {type(value).__name__}"
                ) from None
        if self.mode not in MODES:
            raise RequestError(
                f"unknown mode {self.mode!r}; expected one of {MODES}"
            )
        if self.semantics not in RESTRICTIONS:
            raise RequestError(
                f"unknown semantics {self.semantics!r}; "
                f"expected one of {RESTRICTIONS}"
            )
        if self.limit is not None and (
            not is_int(self.limit) or self.limit < 1
        ):
            raise RequestError("'limit' must be a positive integer")
        if not is_int(self.offset) or self.offset < 0:
            raise RequestError("'offset' must be a non-negative integer")
        if self.cursor is not None:
            if not isinstance(self.cursor, (list, tuple)) or not all(
                is_int(e) and e >= 0 for e in self.cursor
            ):
                raise RequestError(
                    "'cursor' must be a list of non-negative edge ids"
                )
            self.cursor = tuple(self.cursor)
        if self.timeout_ms is not None and not is_budget(self.timeout_ms):
            raise RequestError(
                "'timeout_ms' must be a finite non-negative number"
            )
        self.validated = True
        return self

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QueryRequest":
        if not isinstance(payload, dict):
            raise RequestError(
                f"request must be a JSON object, got {type(payload).__name__}"
            )
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(payload) - known
        if unknown:
            raise RequestError(
                f"unknown request field(s): {', '.join(sorted(unknown))}"
            )
        missing = {"query", "source", "target"} - set(payload)
        if missing:
            raise RequestError(
                f"missing request field(s): {', '.join(sorted(missing))}"
            )
        return cls(**payload).validate()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "query": self.query,
            "source": self.source,
            "target": self.target,
        }
        if self.graph is not None:
            out["graph"] = self.graph
        if self.mode != "auto":
            out["mode"] = self.mode
        if self.semantics != "walks":
            out["semantics"] = self.semantics
        if self.limit is not None:
            out["limit"] = self.limit
        if self.offset:
            out["offset"] = self.offset
        if self.cursor is not None:
            out["cursor"] = list(self.cursor)
        if self.timeout_ms is not None:
            out["timeout_ms"] = self.timeout_ms
        if self.id is not None:
            out["id"] = self.id
        return out


@dataclass
class MutationRequest:
    """One write batch against a registered live graph.

    ``ops`` is the list of wire-form mutation ops (see
    :mod:`repro.live.delta`); they are parsed and type-checked by
    :meth:`validate`, and applied atomically by
    :meth:`repro.service.QueryService.execute`.
    """

    ops: List[Dict[str, Any]]
    #: Registered graph name; ``None`` selects the service's sole graph.
    graph: Optional[str] = None
    #: Compaction policy: ``"auto"`` (threshold), ``"always"``, ``"never"``.
    compact: str = "auto"
    #: Client-chosen id, echoed verbatim in the response.
    id: Optional[Any] = None

    _COMPACT = ("auto", "always", "never")

    def validate(self) -> "MutationRequest":
        from repro.live.delta import ops_from_dicts

        if not isinstance(self.ops, (list, tuple)) or not self.ops:
            raise RequestError(
                "'mutate' must be a non-empty list of op objects"
            )
        if self.compact not in self._COMPACT:
            raise RequestError(
                f"unknown compact policy {self.compact!r}; expected "
                f"one of {self._COMPACT}"
            )
        # Malformed op payloads raise the typed InvalidDeltaError,
        # which propagates as itself: QueryService maps it to a
        # structured ``code="invalid_delta"`` error response, and
        # read_requests_jsonl re-wraps it with the line number.
        self.parsed_ops = ops_from_dicts(self.ops)
        return self

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MutationRequest":
        known = {"mutate", "graph", "compact", "id"}
        unknown = set(payload) - known
        if unknown:
            raise RequestError(
                "unknown mutation request field(s): "
                f"{', '.join(sorted(unknown))}"
            )
        return cls(
            ops=payload["mutate"],
            graph=payload.get("graph"),
            compact=payload.get("compact", "auto"),
            id=payload.get("id"),
        ).validate()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"mutate": list(self.ops)}
        if self.graph is not None:
            out["graph"] = self.graph
        if self.compact != "auto":
            out["compact"] = self.compact
        if self.id is not None:
            out["id"] = self.id
        return out


#: Either kind of JSONL request line.
Request = Union["QueryRequest", "MutationRequest"]


@dataclass
class MutationResponse:
    """Outcome of one :class:`MutationRequest`."""

    status: str  # "ok" | "error"
    #: :meth:`repro.api.MutationResult.as_dict` of the applied batch.
    result: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    #: Machine-readable error category (currently ``"invalid_delta"``
    #: for malformed op payloads); ``None`` for uncategorized errors.
    code: Optional[str] = None
    timings: Dict[str, float] = field(default_factory=dict)
    id: Optional[Any] = None

    @property
    def ok(self) -> bool:
        return self.status != "error"

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"status": self.status}
        if self.result:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if self.code is not None:
            out["code"] = self.code
        if self.timings:
            out["timings"] = {
                k: round(v, 6) for k, v in self.timings.items()
            }
        if self.id is not None:
            out["id"] = self.id
        return out

    def to_json(self) -> str:
        return encode_json(self.to_dict())


@dataclass
class QueryResponse:
    """Outcome of one :class:`QueryRequest`."""

    status: str  # "ok" | "empty" | "timeout" | "error"
    lam: Optional[int] = None
    walks: List[Dict[str, Any]] = field(default_factory=list)
    next_cursor: Optional[List[int]] = None
    #: Answers consumed by the request's ``offset`` (≤ offset; smaller
    #: only when a timeout interrupted the skip phase).
    skipped: int = 0
    error: Optional[str] = None
    #: Machine-readable error category so callers can branch without
    #: parsing the message: ``"internal"`` for the in-process
    #: backstop, ``"worker_crashed"`` / ``"worker_timeout"`` /
    #: ``"not_owner"`` from the :mod:`repro.serve` tier; ``None`` for
    #: ordinary client-input errors.
    code: Optional[str] = None
    cached: Dict[str, bool] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    id: Optional[Any] = None

    @property
    def ok(self) -> bool:
        """True unless the request itself was rejected."""
        return self.status != "error"

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "status": self.status,
            "lam": self.lam,
            "walks": self.walks,
            "next_cursor": self.next_cursor,
        }
        if self.skipped:
            out["skipped"] = self.skipped
        if self.error is not None:
            out["error"] = self.error
        if self.code is not None:
            out["code"] = self.code
        if self.cached:
            out["cached"] = self.cached
        if self.timings:
            out["timings"] = {
                k: round(v, 6) for k, v in self.timings.items()
            }
        if self.id is not None:
            out["id"] = self.id
        return out

    def to_json(self) -> str:
        return encode_json(self.to_dict())


def iter_jsonl(lines: Iterable[str]) -> Iterator[Tuple[int, Any]]:
    """Yield ``(lineno, payload)`` for a JSONL stream.

    The shared scaffolding of every JSONL consumer (the batch request
    reader here, the CLI ``mutate`` ops reader): blank lines and
    ``#`` comment lines are skipped, and a syntactically broken line
    raises :class:`RequestError` naming the line number — a malformed
    file is a caller bug, not a per-line failure.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            yield lineno, json.loads(line)
        except json.JSONDecodeError as exc:
            raise RequestError(
                f"line {lineno}: invalid JSON ({exc.msg})"
            ) from None


def read_requests_jsonl(lines: Iterable[str]) -> Iterator[Request]:
    """Parse a JSONL stream into query and mutation requests.

    A line whose object carries a ``"mutate"`` key parses as a
    :class:`MutationRequest`, anything else as a
    :class:`QueryRequest`; line hygiene and error reporting as in
    :func:`iter_jsonl`.
    """
    from repro.exceptions import InvalidDeltaError

    for lineno, payload in iter_jsonl(lines):
        try:
            if isinstance(payload, dict) and "mutate" in payload:
                yield MutationRequest.from_dict(payload)
            else:
                yield QueryRequest.from_dict(payload)
        except (RequestError, InvalidDeltaError) as exc:
            # File-level parsing keeps its contract — a malformed op
            # on some line is the caller's file bug, reported with the
            # line number (the typed per-request mapping applies to
            # directly-submitted requests, not batch files).
            raise RequestError(f"line {lineno}: {exc}") from None
