"""Structured results of the fluent query API.

A façade query returns a stream of :class:`Row` objects instead of
bare :class:`~repro.core.walks.Walk` iterators: every row names its
endpoints, so the multi-target and multi-source endpoint shapes can
share one result type with plain source→target queries.

:class:`Cursor` is the resume token of that stream.  For a pair query
it degenerates to the service-layer cursor (the last walk's edge ids);
for the bucketed shapes (``to_all``, ``from_any``, ``all_pairs``) it
additionally pins the bucket — the (source, target) pair the walk
belongs to — so a resumed query can seek straight to the right bucket
and then to the right walk (one O(λ) seek inside the bucket).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import (
    Any,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.walks import Walk
from repro.exceptions import QueryError, is_int


@dataclass(frozen=True)
class Cursor:
    """Opaque resume token: *the last walk the client has seen*.

    ``edges`` are the walk's edge ids; ``source``/``target`` are vertex
    *names* and only set for endpoint shapes with more than one bucket
    (they select the bucket the walk belongs to).
    """

    edges: Tuple[int, ...]
    source: Optional[Hashable] = None
    target: Optional[Hashable] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"edges": list(self.edges)}
        if self.source is not None:
            out["source"] = self.source
        if self.target is not None:
            out["target"] = self.target
        return out

    @classmethod
    def coerce(
        cls, value: Union["Cursor", Dict[str, Any], Sequence[int]]
    ) -> "Cursor":
        """Accept a :class:`Cursor`, a ``to_dict`` payload, or a bare
        edge-id sequence (the service-layer pair-query token)."""
        if isinstance(value, Cursor):
            return value
        if isinstance(value, dict):
            unknown = set(value) - {"edges", "source", "target"}
            if unknown:
                raise QueryError(
                    f"unknown cursor field(s): {', '.join(sorted(unknown))}"
                )
            edges = value.get("edges")
            if not isinstance(edges, (list, tuple)):
                raise QueryError("cursor 'edges' must be a list of edge ids")
            return cls(
                edges=tuple(edges),
                source=value.get("source"),
                target=value.get("target"),
            )
        if isinstance(value, (list, tuple)):
            return cls(edges=tuple(value))
        raise QueryError(
            "cursor must be a Cursor, a dict, or a sequence of edge ids; "
            f"got {type(value).__name__}"
        )

    def validate_edges(self) -> "Cursor":
        if not all(
            is_int(e) and e >= 0
            for e in self.edges
        ):
            raise QueryError(
                "cursor edges must be non-negative integer edge ids"
            )
        return self


class Row(NamedTuple):
    """One answer of a façade query.

    ``source``/``target`` are vertex names, ``lam`` is the bucket's
    answer length (edge count for ``shortest`` semantics, total cost
    for ``cheapest``), and ``multiplicity`` is the number of accepting
    runs — populated only when the query asked
    :meth:`~repro.api.query.Query.with_multiplicity`.

    A row is an immutable record of those five fields, in that order:
    rows compare and hash by them, and assigning to any attribute
    raises :class:`~dataclasses.FrozenInstanceError`.  Being a tuple,
    it is built in one step — the result set fills ``tuple.__new__``
    directly, with no per-field work per row.
    """

    source: Hashable
    target: Hashable
    walk: Walk
    lam: int
    multiplicity: Optional[int] = None

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def length(self) -> int:
        """Number of edges of the walk."""
        return self.walk.length

    @property
    def cost(self) -> int:
        """Total edge cost of the walk (= length without costs)."""
        return self.walk.cost()

    @property
    def edges(self) -> Tuple[int, ...]:
        """The walk's edge ids (the enumeration's canonical identity)."""
        return self.walk.edges

    def vertex_names(self) -> List[Hashable]:
        return self.walk.vertex_names()

    def cursor(self, bucketed: bool) -> Cursor:
        """The resume token pointing *at* this row."""
        if bucketed:
            return Cursor(
                edges=self.walk.edges, source=self.source, target=self.target
            )
        return Cursor(edges=self.walk.edges)

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "source": str(self.source),
            "target": str(self.target),
            "lam": self.lam,
            **self.walk.to_dict(),
        }
        if self.multiplicity is not None:
            out["multiplicity"] = self.multiplicity
        return out

    def describe(self) -> str:
        """Human-readable rendering (delegates to the walk)."""
        return self.walk.describe()
