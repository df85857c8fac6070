"""Ergonomic construction of :class:`~repro.graph.database.Graph`.

The builder accepts vertex names (any hashable — strings in practice)
and label names (strings), interns them to dense integer ids, and
produces an immutable :class:`Graph`.

Edge insertion order matters: ``In(v)`` lists edges in insertion order,
which fixes ``TgtIdx`` and therefore the *enumeration order* of the
algorithm (children of a node in the backward-search tree are visited
in increasing ``TgtIdx``).  Tests that reproduce the paper's Figure 3
rely on this.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.exceptions import CostError, GraphError, is_int
from repro.graph.database import Graph, vertex_key


class GraphBuilder:
    """Incrementally assemble a multi-labeled multi-edge graph.

    >>> b = GraphBuilder()
    >>> _ = b.add_edge("Alix", "Cassie", ["h"])
    >>> _ = b.add_edge("Alix", "Dan", ["h", "s"])
    >>> g = b.build()
    >>> g.vertex_count, g.edge_count
    (3, 2)
    """

    def __init__(self) -> None:
        self._vertex_names: List[Hashable] = []
        self._vertex_ids: Dict[Hashable, int] = {}
        self._label_names: List[str] = []
        self._label_ids: Dict[str, int] = {}
        self._src: List[int] = []
        self._tgt: List[int] = []
        self._labels: List[Tuple[int, ...]] = []
        self._costs: List[int] = []
        self._any_cost = False

    # -- vertices -------------------------------------------------------

    def add_vertex(self, name: Hashable) -> int:
        """Register a vertex (idempotent) and return its id."""
        key = name if type(name) is not bool else vertex_key(name)
        vid = self._vertex_ids.get(key)
        if vid is None:
            vid = len(self._vertex_names)
            self._vertex_ids[key] = vid
            self._vertex_names.append(name)
        return vid

    def add_vertices(self, names: Iterable[Hashable]) -> List[int]:
        """Register several vertices; returns their ids in order."""
        return [self.add_vertex(name) for name in names]

    # -- labels -----------------------------------------------------------

    def _label_id(self, name: str) -> int:
        if not isinstance(name, str) or not name:
            raise GraphError(f"labels must be non-empty strings, got {name!r}")
        lid = self._label_ids.get(name)
        if lid is None:
            lid = len(self._label_names)
            self._label_ids[name] = lid
            self._label_names.append(name)
        return lid

    # -- edges ---------------------------------------------------------------

    def add_edge(
        self,
        src: Hashable,
        tgt: Hashable,
        labels: Iterable[str],
        cost: Optional[int] = None,
    ) -> int:
        """Add one edge and return its id.

        ``labels`` must contain at least one label name; duplicates are
        removed.  ``cost``, when given, must be a positive integer — the
        Distinct Cheapest Walks extension requires exact arithmetic and
        strictly positive costs (Section 5.3).
        """
        label_ids = tuple(sorted({self._label_id(name) for name in labels}))
        if not label_ids:
            raise GraphError("an edge must carry at least one label")
        if cost is not None:
            if not is_int(cost):
                raise CostError(f"edge cost must be an int, got {cost!r}")
            if cost <= 0:
                raise CostError(f"edge cost must be positive, got {cost}")
            self._any_cost = True
        eid = len(self._src)
        self._src.append(self.add_vertex(src))
        self._tgt.append(self.add_vertex(tgt))
        self._labels.append(label_ids)
        self._costs.append(cost if cost is not None else 1)
        return eid

    def add_edges(
        self, edges: Iterable[Tuple[Hashable, Hashable, Iterable[str]]]
    ) -> List[int]:
        """Add ``(src, tgt, labels)`` triples; returns the new edge ids."""
        return [self.add_edge(s, t, ls) for s, t, ls in edges]

    # -- finalization -------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        """Number of vertices registered so far."""
        return len(self._vertex_names)

    @property
    def edge_count(self) -> int:
        """Number of edges registered so far."""
        return len(self._src)

    def build(self) -> Graph:
        """Freeze the builder into an immutable :class:`Graph`.

        The builder remains usable afterwards (e.g. to build a larger
        superset graph), since :class:`Graph` copies everything.
        """
        return Graph(
            vertex_names=self._vertex_names,
            label_names=self._label_names,
            src=self._src,
            tgt=self._tgt,
            labels=self._labels,
            costs=self._costs if self._any_cost else None,
        )
