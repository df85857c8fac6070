"""Walk objects — the algorithm's outputs.

A walk (Definition 5) is an alternating sequence of vertices and edges.
Because consecutive edges share their junction vertex, a walk is fully
determined by its edge sequence — plus a start vertex for the empty
walk ``⟨v⟩``.  :class:`Walk` stores exactly that and renders the full
form on demand.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import GraphError, QueryError, is_int
from repro.graph.database import Graph


class Walk:
    """An immutable walk in a graph database.

    >>> # doctest setup uses the Example 9 database
    >>> from repro.workloads.fraud import example9_graph
    >>> g = example9_graph()
    >>> w = Walk(g, (g.parallel_edges(g.vertex_id("Alix"), g.vertex_id("Dan"))[0],))
    >>> w.length
    1
    """

    __slots__ = ("_graph", "_edges", "_start")

    def __init__(
        self,
        graph: Graph,
        edges: Tuple[int, ...],
        start: Optional[int] = None,
    ) -> None:
        self._graph = graph
        self._edges = tuple(edges)
        if self._edges:
            self._start = graph.src(self._edges[0])
            if start is not None and start != self._start:
                raise GraphError(
                    f"start vertex {start} is not the source of edge "
                    f"{self._edges[0]}"
                )
        elif start is None:
            raise GraphError("an empty walk needs an explicit start vertex")
        else:
            graph.vertex_name(start)  # range check: UnknownVertexError
            self._start = start
        for e1, e2 in zip(self._edges, self._edges[1:]):
            if graph.tgt(e1) != graph.src(e2):
                raise GraphError(
                    f"edges {e1} and {e2} do not concatenate"
                )

    @classmethod
    def from_edges_unchecked(
        cls,
        graph: Graph,
        edges: Tuple[int, ...],
        start: int,
    ) -> "Walk":
        """Construct without per-edge validation — enumerator use only.

        The enumeration loops build walks that concatenate by
        construction (each edge is chosen from ``In(Src(previous))``),
        so re-walking the edge list through the public constructor's
        checks would double the per-output cost.  ``edges`` must
        already be a tuple and ``start`` must equal
        ``graph.src(edges[0])`` (or the intended start vertex for the
        empty walk).
        """
        walk = cls.__new__(cls)
        walk._graph = graph
        walk._edges = edges
        walk._start = start
        return walk

    # -- structure ----------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The database this walk lives in."""
        return self._graph

    @property
    def edges(self) -> Tuple[int, ...]:
        """Edge ids, in walk order."""
        return self._edges

    @property
    def length(self) -> int:
        """``Len(w)`` — the number of edges."""
        return len(self._edges)

    @property
    def src(self) -> int:
        """``Src(w)`` — first vertex id."""
        return self._start

    @property
    def tgt(self) -> int:
        """``Tgt(w)`` — last vertex id."""
        if not self._edges:
            return self._start
        return self._graph.tgt(self._edges[-1])

    def vertices(self) -> List[int]:
        """All vertex ids, in walk order (length + 1 entries)."""
        result = [self._start]
        result.extend(self._graph.tgt(e) for e in self._edges)
        return result

    def vertex_names(self) -> List[Hashable]:
        """All vertex names, in walk order."""
        return [self._graph.vertex_name(v) for v in self.vertices()]

    def cost(self) -> int:
        """Total edge cost (= length when the graph has no costs)."""
        return sum(self._graph.cost(e) for e in self._edges)

    # -- labels ------------------------------------------------------------------

    def label_sets(self) -> List[Tuple[str, ...]]:
        """Per-edge label-name sets, in walk order."""
        return [self._graph.label_names_of(e) for e in self._edges]

    def label_words(
        self, limit: Optional[int] = None
    ) -> Iterator[Tuple[str, ...]]:
        """Iterate over ``Lbl(w)`` — one label choice per edge.

        The set can be exponential in the walk length, hence the
        generator and the optional ``limit``; a negative, ``bool`` or
        non-``int`` ``limit`` is refused, as ``first(k)`` refuses ``k``.
        """
        if limit is not None and (not is_int(limit) or limit < 0):
            raise QueryError(
                f"label_words() takes a non-negative int limit, got {limit!r}"
            )
        words = product(*self.label_sets())
        return islice(words, limit) if limit is not None else words

    # -- concatenation (Definition 5) ----------------------------------------------

    def concat(self, other: "Walk") -> "Walk":
        """``w · w'`` — requires ``Tgt(w) == Src(w')``."""
        if self._graph is not other._graph:
            raise GraphError("cannot concatenate walks from different graphs")
        if self.tgt != other.src:
            raise GraphError(
                f"walks do not concatenate: {self.tgt} != {other.src}"
            )
        return Walk(self._graph, self._edges + other._edges, self._start)

    def prepend_edge(self, e: int) -> "Walk":
        """``e · w`` — the paper's shorthand for extending backwards."""
        if self._graph.tgt(e) != self.src:
            raise GraphError(f"edge {e} does not end at walk source")
        return Walk(self._graph, (e,) + self._edges)

    # -- value semantics -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Walk):
            return NotImplemented
        return (
            self._graph is other._graph
            and self._edges == other._edges
            and self._start == other._start
        )

    def __hash__(self) -> int:
        return hash((id(self._graph), self._edges, self._start))

    def __len__(self) -> int:
        return len(self._edges)

    def __repr__(self) -> str:
        return f"Walk({self.describe()})"

    def to_dict(self) -> dict:
        """JSON-ready rendering — the answer format of the CLI's
        ``--json`` output.

        Contains the edge ids (stable within the graph), the vertex
        names, per-edge label sets, the length, and the total cost.
        Every graph class renders it from its columns
        (:meth:`~repro.graph.database.FlatAccessors.render_walk`).
        """
        return self._graph.render_walk(self._start, self._edges)

    def describe(self) -> str:
        """Human-readable rendering with vertex names and labels."""
        graph = self._graph
        if not self._edges:
            return f"⟨{graph.vertex_name(self._start)}⟩"
        parts = [str(graph.vertex_name(self._start))]
        for e in self._edges:
            labels = ",".join(graph.label_names_of(e))
            parts.append(f"-e{e}[{labels}]->")
            parts.append(str(graph.vertex_name(graph.tgt(e))))
        return " ".join(parts)


def shared_suffix_length(a: Sequence[int], b: Sequence[int]) -> int:
    """How many trailing edge ids the edge sequences ``a`` and ``b``
    share.  For two consecutive outputs of the DFS this is the tree
    path above their lowest common ancestor (the part nearest the
    target), found in O(shared) from the stream alone.

    >>> shared_suffix_length((4, 7, 9), (5, 7, 9)), shared_suffix_length((), (1,))
    (2, 0)
    """
    shared, n = 0, min(len(a), len(b))
    while shared < n and a[-1 - shared] == b[-1 - shared]:
        shared += 1
    return shared
