""":class:`LiveGraph` — a mutable graph held as whole columns.

See :mod:`repro.live` for the architecture overview.  The class
implements the full :class:`~repro.graph.database.Graph` accessor
contract (``In``/``Out``/``Src``/``Tgt``/``Lbl``/``TgtIdx``, the
label-indexed ``out_by_label``/``in_by_label`` buckets and the raw
flat-array views the product-BFS hot loops consume), so ``annotate``,
``cheapest_annotate``, the enumerators and the counting DP all run on
a ``LiveGraph`` unmodified.

The current state is whole columns under the names a :class:`Graph`
uses (``_src``, ``_tgt``, ``_tgt_idx``, ``_labels``, ``_costs`` and
the interning tables), loaded from a :class:`Graph` at construction
and after :meth:`compact`.  :meth:`apply` appends to them, and a
relabel writes the edge's slot.  The per-edge and name reads (``src``,
``labels``, ``tgt_idx``, ``vertex_id`` …) are
:class:`~repro.graph.database.FlatAccessors`' over those columns,
shared with :class:`Graph`; :meth:`apply` reads them too.

The hot loops read something else: the **epoch-lazy flat views**
(``out_array``, ``src_array``, ``tgt_idx_array`` …), copied from the
columns on first use after a mutation batch and kept for the rest of
the epoch, and the epoch's :class:`~repro.graph.database.LabelIndex`
over them, which builds ``out_csr``, ``in_csr`` and ``succ`` each on
its own first read, as a :class:`Graph`'s does.  A view is a copy, so
a relabel written in place never reaches a view that an annotation or
a stream still holds.  One read after a batch pays the O(|V| + |E|)
copy, a CSR read O(|D|) more; every other read in the epoch indexes
plain arrays at immutable-graph speed.  The adjacency point reads
(``out_edges``, ``in_edges``, ``out_by_label`` …) are over those
views.

The **no-reindexing invariant** (load-bearing — see :mod:`repro.live`):
between compactions, vertex ids, label ids and edge ids are
append-only, and the ``TgtIdx`` of an existing edge never changes.
Tombstoned edges keep their slot in ``In(v)`` (they simply never carry
annotation cells), and label edits rewrite the label set in place.
Cached annotations therefore remain *positionally* valid across
batches, and fine-grained invalidation only has to reason about label
footprints, never about renumbering.

:meth:`compact` drops the tombstones into a fresh immutable
:class:`Graph` and reloads the columns from it — edge ids are
renumbered (tombstone slots close up), so compaction is the one
operation after which every cached artifact and cursor of this graph
must be dropped (:meth:`repro.api.Database.mutate` handles that with a
version bump).
"""

from __future__ import annotations

import threading
import time
from array import array
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import (
    CostError,
    GraphError,
    UnknownEdgeError,
    is_int,
)
from repro.graph.database import (
    FlatAccessors,
    Graph,
    LabelIndex,
    vertex_key,
)
from repro.live.delta import (
    AddEdge,
    AddVertex,
    Delta,
    MutationBatch,
    RemoveEdge,
    SetEdgeLabels,
)

#: A subscriber receives the receipt of every applied batch.
Subscriber = Callable[[MutationBatch], None]


def _column(column: Sequence[int]) -> array:
    """A writable ``array('q')`` copy of a ``'q'`` column — an
    ``array('q')``, or a cast over a segment — in one buffer copy."""
    copy = array("q")
    copy.frombytes(memoryview(column).cast("B"))
    return copy


def _writable(adjacency: List[Sequence[int]], v: int) -> List[int]:
    """``adjacency[v]`` as a list this graph may append to: a loaded
    tuple is turned into one on its first write."""
    edges = adjacency[v]
    if type(edges) is not list:
        edges = adjacency[v] = list(edges)
    return edges


class _View:
    """One epoch's materialized flat-array views (immutable once built)."""

    __slots__ = (
        "src_array",
        "tgt_array",
        "label_array",
        "live_label_array",
        "cost_array",
        "out_array",
        "in_array",
        "tgt_idx_array",
        "index",
    )


class LiveGraph(FlatAccessors):
    """A mutable multi-labeled multi-edge graph, held as whole columns
    loaded from ``graph`` (the empty graph when none is given).

    >>> from repro.graph import GraphBuilder
    >>> b = GraphBuilder()
    >>> _ = b.add_edge("Alix", "Dan", ["h", "s"])
    >>> live = LiveGraph(b.build())
    >>> _ = live.add_edge("Dan", "Bob", ["h"])
    >>> live.vertex_count, live.live_edge_count
    (3, 2)
    >>> _ = live.remove_edge(0)
    >>> live.live_edge_count
    1
    """

    def __init__(
        self,
        graph: Optional[Graph] = None,
        *,
        compact_threshold: float = 0.5,
    ) -> None:
        if graph is None:
            graph = Graph(
                vertex_names=(), label_names=(), src=(), tgt=(), labels=()
            )
        if not 0.0 < compact_threshold:
            raise GraphError("compact_threshold must be positive")
        self.compact_threshold = compact_threshold
        self._lock = threading.RLock()
        self._epoch = 0
        self._compactions = 0
        self._subscribers: List[Subscriber] = []
        # Duck-typed durability hook (see attach_wal); survives
        # compaction, unlike the columns loaded below.
        self._wal_hook = None
        # Duck-typed metrics registry (see attach_metrics); also
        # survives compaction.
        self._metrics = None
        self._load(graph)

    def _load(self, graph: Graph) -> None:
        """Take ``graph``'s columns as the current state, copied, since
        :meth:`apply` writes them."""
        self._vertex_names: List[Hashable] = list(graph._vertex_names)
        self._vertex_ids: Dict[Hashable, int] = dict(graph._vertex_ids)
        self._label_names: List[str] = list(graph._label_names)
        self._label_ids: Dict[str, int] = dict(graph._label_ids)
        self._src = _column(graph._src)
        self._tgt = _column(graph._tgt)
        self._tgt_idx = _column(graph._tgt_idx)
        self._labels: List[Tuple[int, ...]] = list(graph._labels)
        self._costs: Optional[array] = (
            None if graph._costs is None else _column(graph._costs)
        )
        # Out and In per vertex, each the graph's tuple until a batch
        # writes it (see _writable).  In keeps tombstones in place: a
        # position is a TgtIdx; Out holds live edges only.
        self._out: List[Sequence[int]] = list(graph._out)
        self._in: List[Sequence[int]] = list(graph._in)
        # The bookkeeping delta_ratio weighs against the loaded graph:
        # its edge count, tombstones, and loaded edges relabelled.
        self._loaded_edges = len(self._src)
        self._removed: Set[int] = set()
        self._relabeled: Set[int] = set()
        self._view: Optional[_View] = None

    # -- counts ---------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Number of mutation batches applied (compaction included)."""
        return self._epoch

    @property
    def compactions(self) -> int:
        """Number of :meth:`compact` runs over this graph's lifetime."""
        return self._compactions

    @property
    def live_edge_count(self) -> int:
        """Number of non-tombstoned edges (:attr:`edge_count` counts
        every id, since ids are append-only between compactions)."""
        return self.edge_count - len(self._removed)

    def size(self) -> int:
        """The paper's ``|D|`` over the *live* edge set."""
        return (
            self.vertex_count
            + self.live_edge_count
            + self.total_label_occurrences
        )

    @property
    def delta_ratio(self) -> float:
        """Mutation weight since the last load: the compaction signal.

        Counts edges added, tombstones and relabelled loaded edges
        against ``max(1, edges loaded)``.
        :meth:`repro.api.Database.mutate` compacts when this crosses
        :attr:`compact_threshold`.
        """
        weight = (
            self.edge_count - self._loaded_edges
            + len(self._removed) + len(self._relabeled)
        )
        return weight / max(1, self._loaded_edges)

    # -- liveness ---------------------------------------------------------------

    def live_edges(self) -> Iterator[int]:
        """Edge ids that are currently traversable."""
        removed = self._removed
        return (e for e in range(self.edge_count) if e not in removed)

    def is_live(self, e: int) -> bool:
        """True when ``e`` exists and is not tombstoned."""
        return 0 <= e < self.edge_count and e not in self._removed

    def edge_str(self, e: int) -> str:
        """Human-readable rendering of one edge."""
        dead = " (removed)" if e in self._removed else ""
        return super().edge_str(e) + dead

    # -- epoch-lazy flat views (the hot-loop contract) -------------------------

    def warm_indexes(self) -> "LiveGraph":
        """Build this epoch's flat views and both CSRs now (idempotent);
        ``succ`` waits for its first read."""
        self.out_csr
        self.in_csr
        return self

    def _materialized(self) -> _View:
        view = self._view
        if view is None:
            with self._lock:
                view = self._view
                if view is None:
                    view = self._build_view()
                    self._view = view
        return view

    def _build_view(self) -> _View:
        view = _View()
        view.src_array = _column(self._src)
        view.tgt_array = _column(self._tgt)
        view.tgt_idx_array = _column(self._tgt_idx)
        view.label_array = tuple(self._labels)
        view.cost_array = (
            array("q", [1]) * self.edge_count
            if self._costs is None
            else _column(self._costs)
        )
        # A tuple the columns still hold is shared; a written list is
        # copied.
        view.out_array = tuple(map(tuple, self._out))
        view.in_array = tuple(map(tuple, self._in))

        # A tombstone carries no incidence, so no CSR bucket holds it.
        incidences: Sequence[Tuple[int, ...]] = view.label_array
        if self._removed:
            incidences = list(incidences)
            for e in self._removed:
                incidences[e] = ()
        view.live_label_array = incidences
        view.index = LabelIndex(
            view.src_array, view.tgt_array, incidences, self.vertex_count,
            self.label_count,
        )

        # Defensive self-check of the bookkeeping: every edge added
        # since the load sits at its recorded TgtIdx slot.
        for e in range(self._loaded_edges, self.edge_count):
            ti = view.tgt_idx_array[e]
            assert view.in_array[view.tgt_array[e]][ti] == e
        return view

    def _label_index(self) -> LabelIndex:
        """This epoch's index: its CSRs and ``succ`` are built on their
        first read in the epoch, not by :meth:`apply`."""
        return self._materialized().index

    @property
    def src_array(self) -> Sequence[int]:
        """Edge-id-indexed sources (tombstone slots included)."""
        return self._materialized().src_array

    @property
    def tgt_array(self) -> Sequence[int]:
        """Edge-id-indexed targets (tombstone slots included)."""
        return self._materialized().tgt_array

    @property
    def label_array(self) -> Tuple[Tuple[int, ...], ...]:
        """Edge-id-indexed label tuples, relabels applied."""
        return self._materialized().label_array

    @property
    def live_label_array(self) -> Sequence[Tuple[int, ...]]:
        """Edge-id-indexed label tuples with ``()`` in every tombstone's
        slot: what the epoch's CSRs index, and the liveness test of a
        read that walks an ``In`` list, which keeps tombstones."""
        return self._materialized().live_label_array

    @property
    def out_array(self) -> Tuple[Tuple[int, ...], ...]:
        """Vertex-id-indexed live Out lists."""
        return self._materialized().out_array

    @property
    def in_array(self) -> Tuple[Tuple[int, ...], ...]:
        """Vertex-id-indexed In lists; position = TgtIdx (slots keep)."""
        return self._materialized().in_array

    @property
    def tgt_idx_array(self) -> Sequence[int]:
        """Edge-id-indexed TgtIdx values."""
        return self._materialized().tgt_idx_array

    @property
    def cost_array(self) -> Sequence[int]:
        """Edge-id-indexed costs (unit costs when none were given)."""
        return self._materialized().cost_array

    # -- mutation -----------------------------------------------------------------

    def add_vertex(self, name: Hashable) -> int:
        """Apply a one-op :class:`AddVertex` batch; returns the id."""
        self.apply([AddVertex(name)])
        return self.vertex_id(name)

    def add_edge(
        self,
        src: Hashable,
        tgt: Hashable,
        labels: Sequence[str],
        cost: Optional[int] = None,
    ) -> int:
        """Apply a one-op :class:`AddEdge` batch; returns the edge id."""
        # The id comes from the batch receipt (assigned under the
        # apply lock) — reading edge_count afterwards could hand back
        # a concurrent writer's edge.
        return self.apply(
            [AddEdge(src, tgt, tuple(labels), cost)]
        ).added_edges[0]

    def remove_edge(self, e: int) -> MutationBatch:
        """Apply a one-op :class:`RemoveEdge` batch."""
        return self.apply([RemoveEdge(e)])

    def set_edge_labels(
        self, e: int, labels: Sequence[str]
    ) -> MutationBatch:
        """Apply a one-op :class:`SetEdgeLabels` batch."""
        return self.apply([SetEdgeLabels(e, tuple(labels))])

    def subscribe(
        self, fn: Subscriber, *, front: bool = False
    ) -> Callable[[], None]:
        """Register a change-feed callback; returns an unsubscriber.

        ``fn`` is called synchronously with the
        :class:`~repro.live.delta.MutationBatch` receipt after every
        applied batch, and with a ``compaction=True`` receipt after
        every :meth:`compact` (ids renumbered — rebuild id-addressed
        state); delivery is in subscription order.  Standing queries
        intersect a data receipt's ``touched_labels`` with their own
        footprint and skip refreshes for unrelated writes — see
        :class:`~repro.live.standing.StandingQuery`.

        ``front=True`` prepends instead of appending — the hook for
        *infrastructure* subscribers (the database's cache-eviction
        pass) that must observe the batch before user-level ones, even
        when they re-subscribe later (e.g. after a compaction
        re-registration).
        """
        with self._lock:
            if front:
                self._subscribers.insert(0, fn)
            else:
                self._subscribers.append(fn)

        def unsubscribe() -> None:
            with self._lock:
                try:
                    self._subscribers.remove(fn)
                except ValueError:
                    pass

        return unsubscribe

    def attach_wal(self, hook) -> None:
        """Attach a durability hook (write-ahead logging).

        ``hook`` is duck-typed — any object with ``log_batch(ops)``
        and ``log_compaction(new_graph)`` (in practice a
        :class:`repro.wal.WalWriter`; this module never imports the
        durability layer).  Once attached:

        * :meth:`apply` calls ``hook.log_batch(ops)`` inside the apply
          lock, *after* validation and *before* any state change — the
          batch is logged exactly when it is about to commit, LSN
          order equals apply order, and a hook failure aborts the
          batch with the graph untouched;
        * :meth:`compact` calls ``hook.log_compaction(new_graph)``
          with the already-merged state before installing it, so a
          replayer compacts at the same point and later id-addressed
          ops resolve to the same edges.

        Only one hook at a time; attaching a second replaces the
        first (callers owning the old hook close it themselves).
        """
        with self._lock:
            self._wal_hook = hook

    def detach_wal(self) -> None:
        """Remove the durability hook (no-op when none is attached)."""
        with self._lock:
            self._wal_hook = None

    @property
    def wal_hook(self):
        """The attached durability hook, or ``None``."""
        return self._wal_hook

    def attach_metrics(self, registry) -> None:
        """Attach a :class:`repro.obs.MetricsRegistry` (duck-typed,
        like :meth:`attach_wal` — this module never imports the
        observability layer).  :meth:`apply` then maintains the
        ``live.overlay_edges``/``live.tombstones`` gauges and mutation
        counters, and :meth:`compact` records its duration.  One
        registry at a time; attaching again (the database's compaction
        re-registration path) just re-resolves the instruments.
        """
        with self._lock:
            self._m_overlay_edges = registry.gauge("live.overlay_edges")
            self._m_tombstones = registry.gauge("live.tombstones")
            self._m_batches = registry.counter("live.mutation_batches")
            self._m_ops = registry.counter("live.mutation_ops")
            self._m_compactions = registry.counter("live.compactions")
            self._m_compact_s = registry.histogram("live.compact_seconds")
            self._metrics = registry

    def detach_metrics(self) -> None:
        """Stop exporting metrics (no-op when none attached)."""
        with self._lock:
            self._metrics = None

    @staticmethod
    def _check_vertex_name(name: Hashable) -> None:
        # JSON payloads can smuggle lists/dicts into name fields; an
        # unhashable name would only explode inside _intern_vertex,
        # after earlier ops committed — reject it up front instead.
        try:
            hash(name)
        except TypeError:
            raise GraphError(
                f"vertex names must be hashable, got {name!r}"
            ) from None

    def _check_ops(self, ops: Sequence[Delta]) -> None:
        """Pre-validate a batch so apply never half-commits."""
        pending_removed: Set[int] = set()
        pending_edges = 0
        for op in ops:
            if isinstance(op, AddVertex):
                self._check_vertex_name(op.name)
                continue
            if isinstance(op, AddEdge):
                self._check_vertex_name(op.src)
                self._check_vertex_name(op.tgt)
                if not op.labels:
                    raise GraphError("an edge must carry at least one label")
                for name in op.labels:
                    if not isinstance(name, str) or not name:
                        raise GraphError(
                            f"labels must be non-empty strings, got {name!r}"
                        )
                if op.cost is not None:
                    if not is_int(op.cost):
                        raise CostError(
                            f"edge cost must be an int, got {op.cost!r}"
                        )
                    if op.cost <= 0:
                        raise CostError(
                            f"edge cost must be positive, got {op.cost}"
                        )
                pending_edges += 1
                continue
            if isinstance(op, (RemoveEdge, SetEdgeLabels)):
                e = op.edge
                if not is_int(e) or not 0 <= e < self.edge_count + pending_edges:
                    raise UnknownEdgeError(e)
                if e in self._removed or e in pending_removed:
                    raise GraphError(
                        f"edge {e} is already removed (tombstoned)"
                    )
                if isinstance(op, RemoveEdge):
                    pending_removed.add(e)
                else:
                    if not op.labels:
                        raise GraphError(
                            "an edge must carry at least one label"
                        )
                    for name in op.labels:
                        if not isinstance(name, str) or not name:
                            raise GraphError(
                                f"labels must be non-empty strings, "
                                f"got {name!r}"
                            )
                continue
            raise GraphError(f"unknown mutation op: {op!r}")

    def _intern_vertex(self, name: Hashable) -> int:
        key = vertex_key(name)
        vid = self._vertex_ids.get(key)
        if vid is None:
            vid = len(self._vertex_names)
            self._vertex_names.append(name)
            self._out.append(())
            self._in.append(())
            self._vertex_ids[key] = vid
        return vid

    def _intern_label(self, name: str, new_names: Set[str]) -> int:
        lid = self._label_ids.get(name)
        if lid is None:
            lid = len(self._label_names)
            self._label_names.append(name)
            self._label_ids[name] = lid
            new_names.add(name)
        return lid

    def apply(self, ops: Sequence[Delta]) -> MutationBatch:
        """Apply one batch atomically; returns the receipt.

        The batch is pre-validated in full before the first op takes
        effect; a :class:`~repro.exceptions.GraphError` (bad edge id,
        empty label set, non-positive cost …) leaves the graph
        untouched.  Subscribers are notified after the commit.
        """
        ops = tuple(ops)
        with self._lock:
            self._check_ops(ops)
            if self._wal_hook is not None:
                # Write-ahead: the batch hits the log after validation
                # but before the first state change; a hook failure
                # (full disk, closed writer, non-wire-safe name) aborts
                # here with the graph untouched.
                self._wal_hook.log_batch(ops)
            touched: Set[str] = set()
            new_labels: Set[str] = set()
            added_vertices: List[int] = []
            added_edges: List[int] = []
            removed_edges: List[int] = []
            relabeled_edges: List[int] = []

            def label_ids(names: Sequence[str]) -> Tuple[int, ...]:
                touched.update(names)
                return tuple(sorted(
                    {self._intern_label(name, new_labels) for name in names}
                ))

            for op in ops:
                if isinstance(op, AddVertex):
                    before = self.vertex_count
                    vid = self._intern_vertex(op.name)
                    if vid >= before:
                        added_vertices.append(vid)
                elif isinstance(op, AddEdge):
                    before = self.vertex_count
                    u = self._intern_vertex(op.src)
                    v = self._intern_vertex(op.tgt)
                    added_vertices.extend(
                        range(before, self.vertex_count)
                    )
                    e = self.edge_count
                    self._src.append(u)
                    self._tgt.append(v)
                    self._labels.append(label_ids(op.labels))
                    if op.cost is not None and self._costs is None:
                        self._costs = array("q", [1]) * e
                    if self._costs is not None:
                        self._costs.append(1 if op.cost is None else op.cost)
                    _writable(self._out, u).append(e)
                    in_list = _writable(self._in, v)
                    self._tgt_idx.append(len(in_list))
                    in_list.append(e)
                    added_edges.append(e)
                elif isinstance(op, RemoveEdge):
                    e = op.edge
                    touched.update(self.label_names_of(e))
                    self._removed.add(e)
                    _writable(self._out, self._src[e]).remove(e)
                    removed_edges.append(e)
                else:  # SetEdgeLabels
                    e = op.edge
                    touched.update(self.label_names_of(e))
                    self._labels[e] = label_ids(op.labels)
                    if e < self._loaded_edges:
                        self._relabeled.add(e)
                    relabeled_edges.append(e)
            self._epoch += 1
            self._view = None
            batch = MutationBatch(
                epoch=self._epoch,
                ops=ops,
                touched_labels=frozenset(touched),
                new_labels=frozenset(new_labels),
                added_vertices=tuple(added_vertices),
                added_edges=tuple(added_edges),
                removed_edges=tuple(removed_edges),
                relabeled_edges=tuple(relabeled_edges),
            )
            if self._metrics is not None:
                self._m_batches.inc()
                self._m_ops.inc(len(ops))
                self._m_overlay_edges.set(self.edge_count - self._loaded_edges)
                self._m_tombstones.set(len(self._removed))
            subscribers = tuple(self._subscribers)
        for fn in subscribers:
            fn(batch)
        return batch

    # -- compaction ---------------------------------------------------------------

    def compact(self) -> Graph:
        """Drop the tombstones into a fresh immutable :class:`Graph`,
        reload the columns from it, and return it.

        Vertex and label interning is carried over unchanged (ids
        stable); **edge ids are renumbered** in ascending old-id order
        as tombstone slots close up.  The bookkeeping
        :attr:`delta_ratio` reads resets and the epoch counter keeps
        counting.

        Subscribers are notified with a receipt whose ``compaction``
        flag is set (and no op/label details): every piece of
        id-addressed state must be rebuilt — the database's eviction
        subscriber answers with a full version-bump purge, and
        :class:`~repro.live.standing.StandingQuery` re-runs
        unconditionally (its held rows reference pre-compaction edge
        ids).  Outstanding pagination *cursors* live client-side and
        cannot be notified; they must be discarded.
        """
        t0 = time.perf_counter()
        with self._lock:  # RLock: to_graph re-enters safely.
            new_graph = self.to_graph()
            if self._wal_hook is not None:
                # Logged before the swap: a hook failure leaves the
                # columns (and every edge id) exactly as they were.
                self._wal_hook.log_compaction(new_graph)
            self._load(new_graph)
            self._epoch += 1
            self._compactions += 1
            receipt = MutationBatch(
                epoch=self._epoch, ops=(), compaction=True
            )
            if self._metrics is not None:
                self._m_compactions.inc()
                self._m_compact_s.observe(time.perf_counter() - t0)
                self._m_overlay_edges.set(0)
                self._m_tombstones.set(0)
            subscribers = tuple(self._subscribers)
        # Outside the lock, like apply(): subscribers run queries and
        # re-registrations that take this lock (and others) themselves.
        for fn in subscribers:
            fn(receipt)
        return new_graph

    def to_graph(self) -> Graph:
        """A fresh immutable :class:`Graph` equal to the current live
        state, *without* mutating this graph (unlike :meth:`compact`)."""
        with self._lock:
            removed = self._removed
            live = [e for e in range(self.edge_count) if e not in removed]

            def kept(column):
                return [column[e] for e in live] if removed else column

            return Graph(
                vertex_names=self._vertex_names,
                label_names=self._label_names,
                src=kept(self._src),
                tgt=kept(self._tgt),
                labels=kept(self._labels),
                costs=None if self._costs is None else kept(self._costs),
            )

    # -- convenience ----------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Summary counters (live sizes + mutation bookkeeping)."""
        return {
            "vertices": self.vertex_count,
            "edges": self.live_edge_count,
            "labels": self.label_count,
            "label_occurrences": self.total_label_occurrences,
            "size": self.size(),
            "max_in_degree": self.max_in_degree(),
            "epoch": self._epoch,
            "overlay_edges": self.edge_count - self._loaded_edges,
            "tombstones": len(self._removed),
            "label_overrides": len(self._relabeled),
            "delta_ratio": round(self.delta_ratio, 4),
            "compactions": self._compactions,
        }

    def __repr__(self) -> str:
        return (
            f"LiveGraph(|V|={self.vertex_count}, "
            f"|E|={self.live_edge_count} live "
            f"(+{len(self._removed)} tombstoned), "
            f"|Σ|={self.label_count}, epoch={self._epoch})"
        )


#: The label footprint of a query automaton: the label *names* its
#: transitions mention plus whether it uses the ANY wildcard (which
#: compiles against the whole alphabet and is therefore touched by
#: every label).  This is what fine-grained invalidation intersects
#: with a batch's ``touched_labels``/``new_labels``.
QueryFootprint = Tuple[FrozenSet[str], bool]


def query_label_footprint(automaton) -> QueryFootprint:
    """``(mentioned label names, uses_any)`` for an NFA.

    ε-transitions carry no label and are ignored; an automaton using
    :data:`~repro.automata.nfa.ANY` is affected by *every* label the
    graph may gain or touch, so it is flagged instead of enumerated.
    """
    from repro.automata.nfa import ANY, EPSILON

    names: Set[str] = set()
    uses_any = False
    for q in automaton.states():
        for label, _targets in automaton.transitions_from(q):
            if label is EPSILON:
                continue
            if label is ANY:
                uses_any = True
            else:
                names.add(label)
    return frozenset(names), uses_any
