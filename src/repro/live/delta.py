"""The mutation op model of :mod:`repro.live`.

A mutation is a sequence of :data:`Delta` ops applied to a
:class:`~repro.live.live_graph.LiveGraph` as one atomic **batch**:

* :class:`AddVertex` — register a (possibly isolated) vertex by name;
* :class:`AddEdge` — append one edge (named endpoints, label names, an
  optional positive cost); endpoints are interned on first sight, like
  :class:`~repro.graph.builder.GraphBuilder`;
* :class:`RemoveEdge` — tombstone an edge by id.  The id keeps its
  slot in the edge-id space and its ``TgtIdx`` position (see the
  no-reindexing invariant in :mod:`repro.live`), it merely disappears
  from every adjacency view;
* :class:`SetEdgeLabels` — replace an edge's label set in place.  The
  edge id and its ``TgtIdx`` are preserved, which is what makes label
  edits cheaper than a remove + re-add (those allocate a new id).

Ops round-trip through plain dictionaries (``op_to_dict`` /
``op_from_dict``) — the wire form used by the JSONL ``mutate`` request
of :mod:`repro.service.requests`, the CLI ``mutate`` subcommand and
the :mod:`repro.wal` write-ahead log::

    {"v": 1, "op": "add_vertex", "name": "city99"}
    {"v": 1, "op": "add_edge", "src": "city0", "tgt": "city99",
     "labels": ["ferry"], "cost": 12}
    {"v": 1, "op": "remove_edge", "edge": 17}
    {"v": 1, "op": "set_edge_labels", "edge": 3,
     "labels": ["train", "night"]}

The ``"v"`` field versions the wire schema (currently
:data:`WIRE_VERSION` = 1) so WAL files survive future evolution: the
reader accepts payloads without it (pre-versioning writers), rejects
unknown fields at the version it knows (they are typos, not
extensions), and *ignores* unknown fields on payloads stamped with a
**newer** version — a downgraded reader replays what it understands
instead of refusing the whole log.  Malformed payloads of every kind
raise the typed :class:`~repro.exceptions.InvalidDeltaError` (a
:class:`~repro.exceptions.GraphError`), never a raw
``KeyError``/``TypeError``.

Applying a batch yields a :class:`MutationBatch` receipt: what was
added/removed, which label *names* the batch touched, and which label
names it introduced to the graph.  The receipt is the currency of
fine-grained cache invalidation (:meth:`repro.api.Database.mutate`
evicts only cached artifacts whose label footprint intersects
``touched_labels``) and of the :meth:`LiveGraph.subscribe` change
feed (standing queries compare it against their own footprint).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Optional,
    Tuple,
    Union,
)

from repro.exceptions import InvalidDeltaError, is_int

#: Version stamped into every :func:`op_to_dict` payload.  Bump it
#: when the wire schema gains fields; readers at an older version
#: ignore fields they do not know on payloads carrying a newer ``v``.
WIRE_VERSION = 1


@dataclass(frozen=True)
class AddVertex:
    """Register a vertex by name (idempotent, like the builder's)."""

    name: Hashable

    op = "add_vertex"


@dataclass(frozen=True)
class AddEdge:
    """Append one edge; unknown endpoint names are interned."""

    src: Hashable
    tgt: Hashable
    labels: Tuple[str, ...]
    cost: Optional[int] = None

    op = "add_edge"

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class RemoveEdge:
    """Tombstone an edge by id (slot and TgtIdx position retained)."""

    edge: int

    op = "remove_edge"


@dataclass(frozen=True)
class SetEdgeLabels:
    """Replace an edge's label set in place (id and TgtIdx keep)."""

    edge: int
    labels: Tuple[str, ...]

    op = "set_edge_labels"

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))


#: One mutation op.
Delta = Union[AddVertex, AddEdge, RemoveEdge, SetEdgeLabels]

_OP_TYPES: Dict[str, type] = {
    "add_vertex": AddVertex,
    "add_edge": AddEdge,
    "remove_edge": RemoveEdge,
    "set_edge_labels": SetEdgeLabels,
}

_OP_FIELDS: Dict[str, Tuple[Tuple[str, bool], ...]] = {
    # field name -> required?
    "add_vertex": (("name", True),),
    "add_edge": (
        ("src", True), ("tgt", True), ("labels", True), ("cost", False),
    ),
    "remove_edge": (("edge", True),),
    "set_edge_labels": (("edge", True), ("labels", True)),
}


def op_to_dict(op: Delta) -> Dict[str, Any]:
    """The wire form of one op (inverse of :func:`op_from_dict`)."""
    out: Dict[str, Any] = {"v": WIRE_VERSION, "op": op.op}
    for name, _ in _OP_FIELDS[op.op]:
        value = getattr(op, name)
        if value is None:
            continue
        out[name] = list(value) if name == "labels" else value
    return out


def op_from_dict(payload: Dict[str, Any]) -> Delta:
    """Parse one wire-form op.

    Every malformed payload — wrong container type, unknown op kind
    (including unhashable ones a JSON list can smuggle into ``"op"``),
    missing/unknown fields, wrong field types — raises the typed
    :class:`~repro.exceptions.InvalidDeltaError`.  A payload stamped
    with a ``"v"`` *newer* than :data:`WIRE_VERSION` is read
    tolerantly: fields this reader does not know are ignored rather
    than rejected, so logs written by a future schema still replay.
    """
    if not isinstance(payload, dict):
        raise InvalidDeltaError(
            f"mutation op must be an object, got {type(payload).__name__}"
        )
    version = payload.get("v", WIRE_VERSION)
    if not is_int(version) or version < 1:
        raise InvalidDeltaError(
            f"op field 'v' must be a positive integer, got {version!r}"
        )
    kind = payload.get("op")
    cls = _OP_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidDeltaError(
            f"unknown mutation op {kind!r}; expected one of "
            f"{', '.join(sorted(_OP_TYPES))}"
        )
    fields = _OP_FIELDS[kind]
    known = {"op", "v"} | {name for name, _ in fields}
    unknown = set(payload) - known
    if unknown and version <= WIRE_VERSION:
        raise InvalidDeltaError(
            f"unknown field(s) for op {kind!r}: "
            f"{', '.join(sorted(map(str, unknown)))}"
        )
    kwargs: Dict[str, Any] = {}
    for name, required in fields:
        if name in payload:
            kwargs[name] = payload[name]
        elif required:
            raise InvalidDeltaError(
                f"op {kind!r} is missing field {name!r}"
            )
    if "labels" in kwargs:
        labels = kwargs["labels"]
        if not isinstance(labels, (list, tuple)) or not all(
            isinstance(a, str) for a in labels
        ):
            raise InvalidDeltaError(
                f"op {kind!r}: 'labels' must be a list of strings"
            )
        kwargs["labels"] = tuple(labels)
    if "edge" in kwargs and not is_int(kwargs["edge"]):
        raise InvalidDeltaError(f"op {kind!r}: 'edge' must be an edge id")
    if "cost" in kwargs and not is_int(kwargs["cost"]):
        raise InvalidDeltaError(
            f"op {kind!r}: 'cost' must be an integer"
        )
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:  # Defensive backstop.
        raise InvalidDeltaError(
            f"malformed op {kind!r}: {exc}"
        ) from None


def ops_from_dicts(payloads: Iterable[Dict[str, Any]]) -> Tuple[Delta, ...]:
    """Parse a sequence of wire-form ops."""
    if isinstance(payloads, dict):
        raise InvalidDeltaError(
            "mutation ops must be a sequence of op objects, got a "
            "single object"
        )
    return tuple(op_from_dict(p) for p in payloads)


@dataclass(frozen=True)
class MutationBatch:
    """Receipt of one applied batch — the invalidation currency.

    ``touched_labels`` holds the label *names* carried by every edge
    the batch added, removed or relabeled (for label edits: old set ∪
    new set); ``new_labels`` the subset this batch introduced to the
    graph's label universe (⊆ ``touched_labels``, since labels only
    enter through edges).  Cached plans are only affected by
    ``new_labels`` (compilation drops transitions on absent labels and
    expands wildcards over the alphabet it saw); cached annotations by
    any ``touched_labels`` their automaton can fire on.
    """

    epoch: int
    ops: Tuple[Delta, ...]
    touched_labels: FrozenSet[str] = frozenset()
    new_labels: FrozenSet[str] = frozenset()
    added_vertices: Tuple[int, ...] = ()
    added_edges: Tuple[int, ...] = ()
    removed_edges: Tuple[int, ...] = ()
    relabeled_edges: Tuple[int, ...] = ()
    #: True for the receipt a :meth:`LiveGraph.compact` emits: no data
    #: changed, but **edge ids were renumbered** — subscribers holding
    #: id-addressed state (caches, materialized rows, cursors) must
    #: rebuild it wholesale; label-footprint reasoning does not apply.
    compaction: bool = False

    def summary(self) -> Dict[str, Any]:
        """A JSON-friendly digest (the service/CLI response body)."""
        return {
            "epoch": self.epoch,
            "ops": len(self.ops),
            "added_vertices": len(self.added_vertices),
            "added_edges": len(self.added_edges),
            "removed_edges": len(self.removed_edges),
            "relabeled_edges": len(self.relabeled_edges),
            "touched_labels": sorted(self.touched_labels),
            "new_labels": sorted(self.new_labels),
        }

