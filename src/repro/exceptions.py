"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised deliberately by the library derive from
:class:`ReproError`, so callers can catch the whole family with one
``except`` clause while letting genuine bugs (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


def is_int(value: object) -> bool:
    """``value`` is an ``int`` and not a ``bool`` (``True`` is an
    ``int``, but no count, id or version)."""
    return isinstance(value, int) and not isinstance(value, bool)


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class GraphError(ReproError):
    """Structural problem in a graph database (bad vertex/edge/label)."""


class UnknownVertexError(GraphError):
    """A vertex name or id was requested that does not exist."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"unknown vertex: {vertex!r}")
        self.vertex = vertex


class UnknownEdgeError(GraphError):
    """An edge id was requested that does not exist."""

    def __init__(self, edge: object) -> None:
        super().__init__(f"unknown edge: {edge!r}")
        self.edge = edge


class UnknownLabelError(GraphError):
    """A label name was requested that does not exist in the graph."""

    def __init__(self, label: object) -> None:
        super().__init__(f"unknown label: {label!r}")
        self.label = label


class InvalidDeltaError(GraphError):
    """A mutation op payload is malformed (wire form or op object).

    Raised by :func:`repro.live.delta.op_from_dict` for *every* kind
    of bad input — unknown op kind, missing/unknown fields, wrong
    field types, unhashable values smuggled in through JSON — so that
    serving layers can map malformed mutation payloads to a structured
    error response instead of leaking a raw ``KeyError``/``TypeError``
    through their internal-error backstop.  Subclasses
    :class:`GraphError`, so existing ``except GraphError`` call sites
    keep working unchanged.
    """


class WalError(ReproError):
    """Durability-layer failure (WAL framing, snapshot, recovery).

    Raised for structural problems in a write-ahead-log directory that
    recovery must not paper over: a valid frame with a non-contiguous
    LSN, a snapshot watermark the log cannot replay from, a durable
    graph fed values that do not survive the JSON wire form.  Torn or
    corrupt *tail* frames are NOT errors — recovery stops cleanly at
    the first invalid frame (see :mod:`repro.wal`).
    """


class AutomatonError(ReproError):
    """Structural problem in an automaton (bad state, transition...)."""


class RegexSyntaxError(ReproError):
    """A regular path query expression failed to parse.

    Attributes
    ----------
    position:
        0-based offset in the input string where the error was detected.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class QueryError(ReproError):
    """A query was invalid for the database it was run against."""


class PatternSyntaxError(ReproError):
    """A GQL-style path pattern failed to parse.

    Attributes
    ----------
    position:
        0-based offset in the input string where the error was detected.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CostError(ReproError):
    """Edge costs were missing, non-positive, or of mixed bad types."""


class SegmentError(ReproError):
    """A graph segment (:mod:`repro.graph.segment`) failed to encode
    (a vertex name that does not round-trip through JSON) or to
    validate; :class:`ShmError` and :class:`WalError` wrap it."""


class ShmError(ReproError):
    """Shared-memory serving-segment failure (repro.serve.shm).

    Raised when a segment cannot be published (a vertex name that does
    not survive the JSON interning table), when an attach target is
    missing, or when the attached block fails validation (bad magic,
    unsupported version, header or data CRC mismatch — e.g. a stale or
    torn segment left behind by a crashed owner).
    """
