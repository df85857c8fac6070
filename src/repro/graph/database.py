"""The graph database (paper, Definition 3 and Section 2.2).

A database is a tuple ``(Σ, V, E, Src, Tgt, Lbl)``: a finite directed
graph where multiple edges may connect the same pair of vertices and
every edge carries a non-empty *set* of labels.

:class:`Graph` is immutable; build instances with
:class:`~repro.graph.builder.GraphBuilder`.  Internally everything is
integer-indexed for speed; names are kept for presentation.  The class
honours the paper's O(1) accessor contract:

==================  =======================================
Paper               Here
==================  =======================================
``In(v)``           :meth:`Graph.in_edges`
``InDeg(v)``        :meth:`Graph.in_degree`
``Out(v)``          :meth:`Graph.out_edges`
``OutDeg(v)``       :meth:`Graph.out_degree`
``Src(e)``          :meth:`Graph.src`
``Tgt(e)``          :meth:`Graph.tgt`
``Lbl(e)``          :meth:`Graph.labels` (ids) / :meth:`Graph.label_names_of`
``TgtIdx(e)``       :meth:`Graph.tgt_idx`
``|D|``             :meth:`Graph.size`
==================  =======================================

Every read in that table, the name and label lookups, the label
buckets below and the walk render live once, in
:class:`FlatAccessors`, over the columns every graph class holds under
the same names; :class:`Graph`, the shared-memory
:class:`~repro.serve.shm.SharedGraph` and the mutable
:class:`~repro.live.LiveGraph` all inherit them.  The builders of
those arrays (:func:`build_adjacency`, and :func:`build_csr` and
:func:`build_successors` behind :class:`LabelIndex`) and the endpoint
check (:func:`check_endpoints`) are shared the same way.

A graph has one binary form, the segment of :mod:`repro.graph.segment`,
which shared memory publishes and WAL snapshots write to disk; JSON
(:mod:`repro.graph.io`) is for import and export only.

Label-indexed CSR adjacency
---------------------------

On top of the paper's ``In``/``Out`` arrays a graph exposes a
*label-indexed* compressed-sparse-row view of the incidence relation
``{(e, a) : a ∈ Lbl(e)}``, bucketed by ``(label, endpoint)``:

* ``Out_a(v)`` — edges leaving ``v`` that carry label ``a`` —
  :meth:`FlatAccessors.out_by_label`;
* ``In_a(v)`` — edges entering ``v`` that carry label ``a`` —
  :meth:`FlatAccessors.in_by_label`.

The index is two flat ``array('q')`` buffers per direction (an
``indptr`` of |Σ|·|V| + 1 bucket offsets and an edge-id payload of
``Σ_e |Lbl(e)|`` entries, bucket ``a·|V| + v``), built in O(|D|) by
counting sort.  The Dijkstra variant walks the out-CSR's edge ids,
since it needs each edge's cost, and the bottom-up levels of
``Annotate`` probe the in-CSR: a candidate ``(u, p)`` only touches the
labels on which some state can enter ``p`` — O(Σ_{a} |In_a(u)|)
instead of O(InDeg(u) × |Lbl|).  The cell pull and the witness read
no CSR: they walk all of ``In(v)``, whose positions are the
``TgtIdx`` order the cells keep, and every live label of each edge.

The top-down levels of ``Annotate`` need no edge id, only where an
edge leads, so they read :attr:`FlatAccessors.succ`: ``succ[a][v]`` is
the tuple of ``Tgt(e)`` for ``e ∈ Out_a(v)``, in edge-id order, built
from the out-CSR (:func:`build_successors`).  A whole frontier's
successors on a label are then gathered into one set in C.

The three views of one immutable edge set live in one
:class:`LabelIndex`, each built on its first read, once: a
:class:`Graph` holds one for its lifetime (a decoded segment seeds its
two CSRs), and each :class:`~repro.live.LiveGraph` epoch its own.
"""

from __future__ import annotations

import threading
from array import array
from itertools import accumulate, repeat
from operator import getitem
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.serve.shm import GraphSegment

#: A label-indexed CSR view: (bucket offsets, edge-id payload).  Bucket
#: ``a * |V| + v`` spans ``payload[indptr[b] : indptr[b + 1]]``, edge
#: ids in ascending order.
CsrIndex = Tuple[array, array]

#: Vertex-id-indexed edge-id tuples (``Out`` or ``In`` lists).
Adjacency = Tuple[Tuple[int, ...], ...]

#: Per label, per vertex, the targets of ``Out_a(v)`` (:func:`build_successors`).
Successors = Tuple[Tuple[Tuple[int, ...], ...], ...]

from repro.exceptions import (
    GraphError,
    UnknownEdgeError,
    UnknownLabelError,
    UnknownVertexError,
    is_int,
)


# -- builders shared by every graph class -------------------------------------


def check_endpoints(
    src: Sequence[int], tgt: Sequence[int], n_vertices: int
) -> None:
    """Raise :class:`GraphError` unless every endpoint of the equally
    long ``src``/``tgt`` columns lies in ``range(n_vertices)``: a
    C-level min/max, then a scan only to name the first bad edge."""
    n = n_vertices
    if len(src) and not (
        0 <= min(src) and max(src) < n and 0 <= min(tgt) and max(tgt) < n
    ):
        e = next(
            e for e, (u, v) in enumerate(zip(src, tgt))
            if not (0 <= u < n and 0 <= v < n)
        )
        raise GraphError(
            f"edge {e} has endpoint outside the vertex range: "
            f"({src[e]}, {tgt[e]}) with |V| = {n}"
        )


def build_adjacency(
    src: Sequence[int], tgt: Sequence[int], n_vertices: int
) -> Tuple[Adjacency, Adjacency]:
    """``(Out, In)`` per vertex, edge ids ascending — so an edge's
    position in ``In(Tgt(e))`` is its ``TgtIdx``.  O(|V| + |E|); every
    endpoint must lie in ``range(n_vertices)``."""
    out_lists: List[List[int]] = [[] for _ in range(n_vertices)]
    in_lists: List[List[int]] = [[] for _ in range(n_vertices)]
    # One loop, so Out and In share each edge id's int object.
    for e, (u, v) in enumerate(zip(src, tgt)):
        out_lists[u].append(e)
        in_lists[v].append(e)
    return tuple(map(tuple, out_lists)), tuple(map(tuple, in_lists))


def build_csr(
    endpoint: Sequence[int],
    labels: Sequence[Tuple[int, ...]],
    n_vertices: int,
    n_labels: int,
) -> CsrIndex:
    """Counting-sort the (edge, label) incidences by (label, endpoint).

    O(|Σ|·|V| + Σ_e |Lbl(e)|) ⊆ O(|D|) for a fixed alphabet; edge
    ids within each bucket stay in ascending order because edges
    are scattered in edge-id order.  An edge with an empty label
    tuple has no incidence and lands in no bucket.
    """
    n = n_vertices
    n_buckets = n_labels * n
    counts = [0] * (n_buckets + 1)
    for v, ls in zip(endpoint, labels):
        for a in ls:
            counts[a * n + v + 1] += 1
    counts = list(accumulate(counts))
    indptr = array("q", counts)
    payload = array("q", bytes(8 * counts[n_buckets]))
    cursor = counts[:-1]
    for e, v in enumerate(endpoint):
        for a in labels[e]:
            b = a * n + v
            payload[cursor[b]] = e
            cursor[b] += 1
    return indptr, payload


def build_successors(
    csr: CsrIndex, tgt: Sequence[int], n_vertices: int
) -> Successors:
    """``succ[a][v]``: the targets of ``Out_a(v)``, bucket for bucket
    of the out-CSR ``csr``, as tuples.

    Every tuple holds one shared int object per vertex.  A label's
    targets are gathered in one C-level pass over its part of the
    payload and cut into its buckets by slicing, so the only temporary
    is one label's share of the payload, never the whole of it; an
    empty bucket is the empty tuple.  O(|Σ|·|V| + Σ_e |Lbl(e)|).
    """
    indptr, payload = csr
    n = n_vertices
    if not n:
        return ()
    vertex = list(range(n)).__getitem__
    succ = []
    for lo in range(0, len(indptr) - 1, n):
        start = indptr[lo]
        targets = tuple(
            map(vertex, map(tgt.__getitem__, payload[start:indptr[lo + n]]))
        )
        bounds = [b - start for b in indptr[lo:lo + n + 1]]
        succ.append(tuple(
            map(getitem, repeat(targets), map(slice, bounds, bounds[1:]))
        ))
    return tuple(succ)


class LabelIndex:
    """The label-indexed views of one immutable edge set: the out-CSR,
    the in-CSR and the successor tuples ``succ``.

    Each view is built on its first read, once, under the index's lock,
    from the columns the index was made with — ``Src``, ``Tgt``, the
    per-edge label tuples (``()`` for an edge that carries none, such
    as a tombstone) and the counts.  A decoded segment passes its
    stored CSRs in, so only ``succ`` is ever built over it.  This is
    the only caller of :func:`build_csr` and :func:`build_successors`.
    """

    __slots__ = (
        "_src", "_tgt", "_labels", "_n", "_k", "_out_csr", "_in_csr",
        "_succ", "_lock",
    )

    def __init__(
        self,
        src: Sequence[int],
        tgt: Sequence[int],
        labels: Sequence[Tuple[int, ...]],
        n_vertices: int,
        n_labels: int,
        out_csr: Optional[CsrIndex] = None,
        in_csr: Optional[CsrIndex] = None,
    ) -> None:
        self._src = src
        self._tgt = tgt
        self._labels = labels
        self._n = n_vertices
        self._k = n_labels
        self._out_csr = out_csr
        self._in_csr = in_csr
        self._succ: Optional[Successors] = None
        # Re-entrant: building ``succ`` reads ``out_csr`` under it.  The
        # views are shared read-only by every query on the edge set,
        # including the batch executor's threads, so the first reader
        # builds each one and the others wait for it.
        self._lock = threading.RLock()

    def _built(self, slot: str, build):
        view = getattr(self, slot)
        if view is None:
            with self._lock:
                view = getattr(self, slot)
                if view is None:
                    view = build()
                    setattr(self, slot, view)
        return view

    @property
    def out_csr(self) -> CsrIndex:
        """Bucket ``a·|V| + v`` holds ``Out_a(v)``, edge ids ascending."""
        return self._built("_out_csr", lambda: build_csr(
            self._src, self._labels, self._n, self._k
        ))

    @property
    def in_csr(self) -> CsrIndex:
        """Bucket ``a·|V| + v`` holds ``In_a(v)``, edge ids ascending."""
        return self._built("_in_csr", lambda: build_csr(
            self._tgt, self._labels, self._n, self._k
        ))

    @property
    def succ(self) -> Successors:
        """``succ[a][v]``: the targets of ``Out_a(v)``, edge-id order."""
        return self._built("_succ", lambda: build_successors(
            self.out_csr, self._tgt, self._n
        ))


class FlatAccessors:
    """The point accessors and the walk render, written once over one
    column contract.

    A subclass holds its current state in whole columns under these
    names: ``_vertex_names``/``_vertex_ids`` and
    ``_label_names``/``_label_ids`` (the interning tables), the
    edge-id-indexed ``_src``, ``_tgt``, ``_tgt_idx`` and ``_labels``,
    and ``_costs`` (``None`` for unit costs).  A :class:`Graph`'s never
    change, over ``array('q')`` buffers or ``'q'`` casts over a
    segment; a :class:`~repro.live.LiveGraph`'s are written by its
    ``apply``.  It also supplies the adjacency views (``out_array``,
    ``in_array``, ``tgt_array``) and ``_label_index()``, the
    :class:`LabelIndex` of its current edge set.  Every read below is a
    range check plus an index into those columns or views.
    """

    __slots__ = ()

    # -- counts and interning ---------------------------------------------

    @property
    def vertex_count(self) -> int:
        """|V|."""
        return len(self._vertex_names)

    @property
    def edge_count(self) -> int:
        """Size of the edge-*id* space: |E|, and a
        :class:`~repro.live.LiveGraph`'s removed edges too."""
        return len(self._src)

    @property
    def label_count(self) -> int:
        """|Σ| — the labels interned so far (never shrinks)."""
        return len(self._label_names)

    def vertices(self) -> range:
        """All vertex ids."""
        return range(self.vertex_count)

    def edges(self) -> range:
        """All edge ids (a :class:`~repro.live.LiveGraph`'s removed
        ones included)."""
        return range(self.edge_count)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices())

    def vertex_id(self, name: Hashable) -> int:
        """Translate a vertex name to its internal id."""
        try:
            return self._vertex_ids[vertex_key(name)]
        except KeyError:
            raise UnknownVertexError(name) from None

    def vertex_name(self, v: int) -> Hashable:
        """Translate an internal vertex id to its name."""
        names = self._vertex_names
        if not 0 <= v < len(names):
            raise UnknownVertexError(v)
        return names[v]

    def has_vertex(self, name: Hashable) -> bool:
        """True when a vertex called ``name`` exists."""
        return vertex_key(name) in self._vertex_ids

    def resolve_vertex(self, vertex: Hashable) -> int:
        """Accept either a vertex name or a valid internal id.

        Integer inputs are treated as ids only when no vertex is *named*
        by that integer, so graphs with integer vertex names behave
        intuitively.  A ``bool`` is never an id and names only a vertex
        named by that very ``bool``; an ``int`` never names one (see
        :func:`vertex_key`).
        """
        v = self._vertex_ids.get(
            (_BOOL, vertex) if type(vertex) is bool else vertex
        )
        if v is not None:
            return v
        if is_int(vertex) and 0 <= vertex < self.vertex_count:
            return vertex
        raise UnknownVertexError(vertex)

    def label_id(self, name: str) -> int:
        """Translate a label name to its internal id."""
        try:
            return self._label_ids[name]
        except KeyError:
            raise UnknownLabelError(name) from None

    def label_name(self, a: int) -> str:
        """Translate an internal label id to its name."""
        if not 0 <= a < self.label_count:
            raise UnknownLabelError(a)
        return self._label_names[a]

    def has_label(self, name: str) -> bool:
        """True when ``name`` is in the label universe."""
        return name in self._label_ids

    @property
    def alphabet(self) -> Tuple[str, ...]:
        """All label names, indexed by label id."""
        return tuple(self._label_names)

    # -- per-edge reads (Src, Tgt, Lbl, TgtIdx) ----------------------------

    def _check_edge(self, e: int) -> None:
        if not 0 <= e < self.edge_count:
            raise UnknownEdgeError(e)

    def src(self, e: int) -> int:
        """``Src(e)`` — source vertex id."""
        self._check_edge(e)
        return self._src[e]

    def tgt(self, e: int) -> int:
        """``Tgt(e)`` — target vertex id."""
        self._check_edge(e)
        return self._tgt[e]

    def labels(self, e: int) -> Tuple[int, ...]:
        """``Lbl(e)`` as a tuple of label ids (sorted, duplicate-free)."""
        self._check_edge(e)
        return self._labels[e]

    def label_names_of(self, e: int) -> Tuple[str, ...]:
        """``Lbl(e)`` as a tuple of label names."""
        return tuple(self._label_names[a] for a in self.labels(e))

    def tgt_idx(self, e: int) -> int:
        """``TgtIdx(e)`` — position of ``e`` inside ``In(Tgt(e))``."""
        self._check_edge(e)
        return self._tgt_idx[e]

    def cost(self, e: int) -> int:
        """Cost of edge ``e`` (1 when the graph carries no costs)."""
        self._check_edge(e)
        return 1 if self._costs is None else self._costs[e]

    @property
    def has_costs(self) -> bool:
        """True when some edge was given an explicit cost."""
        return self._costs is not None

    def edge_str(self, e: int) -> str:
        """Human-readable rendering of one edge."""
        lbls = ",".join(self.label_names_of(e))
        return (
            f"e{e}:{self.vertex_name(self.src(e))}"
            f"-[{lbls}]->{self.vertex_name(self.tgt(e))}"
        )

    # -- adjacency (In, Out and the label buckets) --------------------------

    @property
    def out_csr(self) -> CsrIndex:
        """The label-indexed out-CSR ``(indptr, edge ids)`` (hot path)."""
        return self._label_index().out_csr

    @property
    def in_csr(self) -> CsrIndex:
        """The label-indexed in-CSR ``(indptr, edge ids)`` (hot path)."""
        return self._label_index().in_csr

    @property
    def succ(self) -> Successors:
        """``succ[a][v]``: the targets of ``Out_a(v)``, edge-id order
        (hot path; :func:`build_successors`)."""
        return self._label_index().succ

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise UnknownVertexError(v)

    def out_edges(self, v: int) -> Tuple[int, ...]:
        """``Out(v)`` — ids of the (live) edges leaving ``v``, ascending."""
        self._check_vertex(v)
        return self.out_array[v]

    def in_edges(self, v: int) -> Tuple[int, ...]:
        """``In(v)`` — ids of edges entering ``v``; position = TgtIdx.

        A :class:`~repro.live.LiveGraph`'s tombstoned edges keep their
        slot here, so every cached ``TgtIdx`` stays valid; filter with
        ``is_live`` for live in-edges only.
        """
        self._check_vertex(v)
        return self.in_array[v]

    def out_degree(self, v: int) -> int:
        """``OutDeg(v)``."""
        return len(self.out_edges(v))

    def in_degree(self, v: int) -> int:
        """``InDeg(v)`` — the size of the ``In(v)`` slot range."""
        return len(self.in_edges(v))

    def max_in_degree(self) -> int:
        """The ``d`` of Section 4.2 (0 for the empty graph)."""
        return max(map(len, self.in_array), default=0)

    @property
    def total_label_occurrences(self) -> int:
        """``Σ_e |Lbl(e)|`` over the (live) edges — the label part of
        |D|: the length of the label-indexed CSR payload, so O(1) once
        the index is built."""
        return len(self.in_csr[1])

    def out_by_label(self, v: int, a: int) -> Tuple[int, ...]:
        """``Out_a(v)`` — edges leaving ``v`` carrying label ``a``.

        Edge ids in ascending order; the empty tuple when ``v`` has no
        out-edge with that label.  O(1) bucket lookup after the lazy
        O(|D|) index build.
        """
        return self._bucket(self.out_csr, v, a)

    def in_by_label(self, v: int, a: int) -> Tuple[int, ...]:
        """``In_a(v)`` — edges entering ``v`` carrying label ``a``."""
        return self._bucket(self.in_csr, v, a)

    def _bucket(self, csr: CsrIndex, v: int, a: int) -> Tuple[int, ...]:
        self._check_vertex(v)
        if not 0 <= a < self.label_count:
            raise UnknownLabelError(a)
        indptr, payload = csr
        b = a * self.vertex_count + v
        return tuple(payload[indptr[b]:indptr[b + 1]])

    def out_labels(self, v: int) -> Tuple[int, ...]:
        """Distinct label ids appearing on ``Out(v)``, ascending."""
        return self._labels_at(self.out_csr, v)

    def in_labels(self, v: int) -> Tuple[int, ...]:
        """Distinct label ids appearing on the live ``In(v)``, ascending."""
        return self._labels_at(self.in_csr, v)

    def _labels_at(self, csr: CsrIndex, v: int) -> Tuple[int, ...]:
        """The labels whose bucket at ``v`` is non-empty: O(|Σ|)."""
        self._check_vertex(v)
        indptr = csr[0]
        buckets = range(v, self.label_count * self.vertex_count, self.vertex_count)
        return tuple(
            a for a, b in enumerate(buckets) if indptr[b] != indptr[b + 1]
        )

    def parallel_edges(self, u: int, v: int) -> List[int]:
        """All (live) edge ids from ``u`` to ``v`` (multi-edges are allowed)."""
        tgt = self.tgt_array
        return [e for e in self.out_edges(u) if tgt[e] == v]

    def render_walk(self, start: int, edges: Tuple[int, ...]) -> dict:
        """:meth:`~repro.core.walks.Walk.to_dict` straight off the flat
        arrays — no per-edge range check, since every ``Walk`` holds
        edges that were validated (or chosen) when it was built."""
        names, tgt, labels = self._vertex_names, self._tgt, self._labels
        label_names, costs = self._label_names, self._costs
        vertices = [str(names[start])]
        vertices.extend([str(names[tgt[e]]) for e in edges])
        return {
            "edges": list(edges),
            "vertices": vertices,
            "labels": [[label_names[a] for a in labels[e]] for e in edges],
            "length": len(edges),
            "cost": len(edges) if costs is None else sum(
                [costs[e] for e in edges]
            ),
        }


#: The tag of a ``bool`` vertex name's key (see :func:`vertex_key`).
_BOOL = object()


def vertex_key(name: Hashable) -> Hashable:
    """The key ``name`` is stored under in a name → id map.

    That is the name itself, except for a ``bool``: ``True == 1`` and
    both hash alike, so a bool name is keyed apart — a vertex named
    ``True`` and one named ``1`` are two vertices, as the segment's
    name rule (:func:`repro.graph.segment.check_vertex_name`) already
    keeps them.
    """
    return (_BOOL, name) if type(name) is bool else name


def vertex_ids(names: Sequence[Hashable]) -> Dict[Hashable, int]:
    """The name → id map of ``names`` (ids are positions), keyed by
    :func:`vertex_key` — one type test per name."""
    return {
        ((_BOOL, name) if type(name) is bool else name): i
        for i, name in enumerate(names)
    }


class Graph(FlatAccessors):
    """Immutable multi-labeled multi-edge directed graph.

    Do not call the constructor directly — use
    :class:`~repro.graph.builder.GraphBuilder`, which enforces the
    structural invariants, or the deserializers in
    :mod:`repro.graph.io`.
    """

    __slots__ = (
        "_vertex_names",
        "_vertex_ids",
        "_label_names",
        "_label_ids",
        "_src",
        "_tgt",
        "_labels",
        "_costs",
        "_out",
        "_in",
        "_tgt_idx",
        "_index",
        "_cost_cache",
        "_lazy_lock",
    )

    def __init__(
        self,
        vertex_names: Sequence[Hashable],
        label_names: Sequence[str],
        src: Sequence[int],
        tgt: Sequence[int],
        labels: Sequence[Tuple[int, ...]],
        costs: Optional[Sequence[int]] = None,
    ) -> None:
        self._vertex_names: Tuple[Hashable, ...] = tuple(vertex_names)
        self._vertex_ids: Dict[Hashable, int] = vertex_ids(self._vertex_names)
        self._label_names: Tuple[str, ...] = tuple(label_names)
        self._label_ids: Dict[str, int] = {
            name: i for i, name in enumerate(self._label_names)
        }
        # The flat edge-indexed columns are packed ``array('q')``
        # buffers, not tuples: they index and iterate exactly like the
        # tuples they replaced, but live in one contiguous allocation
        # that ``Graph.to_shared`` can blit into a shared-memory
        # segment without re-packing.
        self._src: array = array("q", src)
        self._tgt: array = array("q", tgt)
        self._labels: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(ls) for ls in labels
        )
        self._costs: Optional[array] = (
            array("q", costs) if costs is not None else None
        )

        n = len(self._vertex_names)
        check_endpoints(self._src, self._tgt, n)
        self._out, self._in = build_adjacency(self._src, self._tgt, n)
        # TgtIdx(e): position of e inside In(Tgt(e)) — Remark 4 says this
        # may be precomputed in O(|V| + |E|), which is what we do here.
        tgt_idx = [0] * len(self._src)
        for in_list in self._in:
            for i, e in enumerate(in_list):
                tgt_idx[e] = i
        self._tgt_idx: array = array("q", tgt_idx)

        self._index = LabelIndex(
            self._src, self._tgt, self._labels, n, len(self._label_names)
        )
        self._cost_cache: Optional[array] = None
        # Build-once guard of the unit-cost column, which every query
        # against this (immutable) graph may read first, concurrently.
        self._lazy_lock = threading.Lock()

    def size(self) -> int:
        """The paper's ``|D| = |V| + |E| + Σ_e |Lbl(e)|``."""
        return self.vertex_count + self.edge_count + self.total_label_occurrences

    # -- label-indexed CSR adjacency -------------------------------------------

    def warm_indexes(self) -> "Graph":
        """Build both CSRs and the successor tuples now (thread-safe,
        idempotent).

        They are normally built on first read; a serving layer calls
        this once at graph-registration time so that no request pays
        the O(|D|) build inside its latency budget.  Returns ``self``
        for chaining.
        """
        self.out_csr
        self.in_csr
        self.succ
        return self

    def _label_index(self) -> LabelIndex:
        return self._index

    # -- raw arrays for hot loops ------------------------------------------------

    # The enumeration core reads these flat buffers directly instead of
    # going through bound methods; this is the single concession to
    # speed and is part of the intra-package interface only.  The
    # edge-indexed columns (`src`/`tgt`/`tgt_idx`/`cost`) are packed
    # ``array('q')`` buffers (zero-copy ``memoryview`` casts on a
    # shared-memory attached graph); consumers index and iterate them
    # like the tuples they replaced but must not compare them *to*
    # tuples with ``==``.

    @property
    def src_array(self) -> Sequence[int]:
        """Edge-id-indexed source vertices, flat ``'q'`` buffer."""
        return self._src

    @property
    def tgt_array(self) -> Sequence[int]:
        """Edge-id-indexed target vertices, flat ``'q'`` buffer."""
        return self._tgt

    @property
    def label_array(self) -> Tuple[Tuple[int, ...], ...]:
        """Edge-id-indexed label-id tuples (internal fast path)."""
        return self._labels

    @property
    def live_label_array(self) -> Tuple[Tuple[int, ...], ...]:
        """Edge-id-indexed label tuples of the live edges, ``()`` in a
        removed edge's slot — :attr:`label_array` here, where no edge
        is ever removed."""
        return self._labels

    @property
    def out_array(self) -> Tuple[Tuple[int, ...], ...]:
        """Vertex-id-indexed Out lists (internal fast path)."""
        return self._out

    @property
    def in_array(self) -> Tuple[Tuple[int, ...], ...]:
        """Vertex-id-indexed In lists (internal fast path)."""
        return self._in

    @property
    def tgt_idx_array(self) -> Sequence[int]:
        """Edge-id-indexed TgtIdx values, flat ``'q'`` buffer."""
        return self._tgt_idx

    @property
    def cost_array(self) -> Sequence[int]:
        """Edge-id-indexed costs; unit costs when none were provided.

        Memoized: the unit-cost buffer is materialized once, not on
        every access (the Dijkstra setup reads this per query).
        """
        if self._costs is not None:
            return self._costs
        if self._cost_cache is None:
            with self._lazy_lock:
                if self._cost_cache is None:
                    self._cost_cache = array("q", [1]) * self.edge_count
        return self._cost_cache

    # -- shared memory -----------------------------------------------------------

    def to_shared(self, name: Optional[str] = None) -> "GraphSegment":
        """Publish this graph into a named shared-memory segment.

        Packs every flat buffer (edge columns plus both label-indexed
        CSR views) and the interning tables into one
        :class:`multiprocessing.shared_memory.SharedMemory` block with
        a CRC'd header, so worker processes can map it zero-copy via
        :meth:`from_shared`.  Returns the owning
        :class:`repro.serve.shm.GraphSegment` handle — the caller is
        responsible for ``close(unlink=True)`` (the serve tier also
        unlinks on SIGTERM/atexit).
        """
        from repro.serve.shm import GraphSegment

        return GraphSegment.create(self, name=name)

    @classmethod
    def from_shared(cls, name: str) -> "Graph":
        """Attach a segment published by :meth:`to_shared`.

        Returns a :class:`repro.serve.shm.SharedGraph` — a ``Graph``
        whose flat edge columns and CSR buffers are zero-copy
        ``memoryview`` casts over the shared block.  Call its
        ``detach()`` when done (closing does *not* unlink; the owner
        does that).
        """
        from repro.serve.shm import attach

        return attach(name)

    # -- convenience ----------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Summary counters, handy for logging and benchmarks."""
        return {
            "vertices": self.vertex_count,
            "edges": self.edge_count,
            "labels": self.label_count,
            "label_occurrences": self.total_label_occurrences,
            "size": self.size(),
            "max_in_degree": self.max_in_degree(),
        }

    def __repr__(self) -> str:
        return (
            f"Graph(|V|={self.vertex_count}, |E|={self.edge_count}, "
            f"|Σ|={self.label_count})"
        )
