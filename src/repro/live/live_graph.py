""":class:`LiveGraph` — a mutable delta overlay over an immutable CSR base.

See :mod:`repro.live` for the architecture overview.  The class
implements the full :class:`~repro.graph.database.Graph` accessor
contract (``In``/``Out``/``Src``/``Tgt``/``Lbl``/``TgtIdx``, the
label-indexed ``out_by_label``/``in_by_label`` buckets and the raw
flat-array views the product-BFS hot loops consume), so ``annotate``,
``cheapest_annotate``, the enumerators and the counting DP all run on
a ``LiveGraph`` unmodified.

There is one read path: the **epoch-lazy flat views** (``out_array``,
``src_array``, ``tgt_idx_array`` …), built over the live edge set on
first use after a mutation batch and cached for the rest of the epoch,
and the epoch's :class:`~repro.graph.database.LabelIndex` over them,
which builds ``out_csr``, ``in_csr`` and ``succ`` each on its own first
read, as a :class:`Graph`'s does.  One read after a batch pays the
O(|V| + |E|) view build, a CSR read O(|D|) more; every other read in
the epoch indexes plain arrays at immutable-graph speed.  The
adjacency point reads (``out_edges``, ``in_edges``, ``out_by_label``
…) and the walk render are :class:`~repro.graph.database.FlatAccessors`'
over those views.  The per-edge reads (``src``, ``tgt``, ``labels``,
``tgt_idx``, ``cost``) answer from the overlay directly, without a
view, because :meth:`apply` itself reads them.

The **no-reindexing invariant** (load-bearing — see :mod:`repro.live`):
between compactions, vertex ids, label ids and edge ids are
append-only, and the ``TgtIdx`` of an existing edge never changes.
Tombstoned edges keep their slot in ``In(v)`` (they simply never carry
annotation cells), and label edits rewrite the label set in place.
Cached annotations therefore remain *positionally* valid across
batches, and fine-grained invalidation only has to reason about label
footprints, never about renumbering.

:meth:`compact` merges the overlay into a fresh immutable
:class:`Graph` — edge ids are renumbered (tombstone slots close up),
so compaction is the one operation after which every cached artifact
and cursor of this graph must be dropped
(:meth:`repro.api.Database.mutate` handles that with a version bump).
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
    UnknownLabelError,
    UnknownVertexError,
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


def _joined(column: Sequence[int], tail: Sequence[int]) -> array:
    """A base column — an ``array('q')``, or a ``'q'`` cast over a
    segment — followed by ``tail``, as one new ``array('q')``."""
    joined = array("q")
    joined.frombytes(memoryview(column).cast("B"))
    joined.extend(tail)
    return joined


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
        "vertex_names",
    )


class LiveGraph(FlatAccessors):
    """A mutable multi-labeled multi-edge graph: immutable base + overlay.

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
        base: Optional[Graph] = None,
        *,
        compact_threshold: float = 0.5,
    ) -> None:
        if base is None:
            base = Graph(
                vertex_names=(), label_names=(), src=(), tgt=(), labels=()
            )
        if not 0.0 < compact_threshold:
            raise GraphError("compact_threshold must be positive")
        self._base = base
        self.compact_threshold = compact_threshold
        self._lock = threading.RLock()
        self._epoch = 0
        self._compactions = 0
        self._subscribers: List[Subscriber] = []
        # Duck-typed durability hook (see attach_wal); survives
        # compaction, unlike the per-epoch overlay state below.
        self._wal_hook = None
        # Duck-typed metrics registry (see attach_metrics); also
        # survives compaction.
        self._metrics = None
        self._reset_overlay()

    def _reset_overlay(self) -> None:
        base = self._base
        # Interning overlays (append-only; base ids stay authoritative).
        self._new_vertex_names: List[Hashable] = []
        self._new_vertex_ids: Dict[Hashable, int] = {}
        self._new_label_names: List[str] = []
        self._new_label_ids: Dict[str, int] = {}
        # Overlay edges occupy ids >= base.edge_count, in apply order.
        self._o_src: List[int] = []
        self._o_tgt: List[int] = []
        self._o_labels: List[Tuple[int, ...]] = []
        self._o_costs: List[int] = []
        self._o_any_cost = False
        self._o_tgt_idx: List[int] = []
        # Tombstones and in-place label overrides (base or overlay ids).
        self._removed: Set[int] = set()
        self._label_override: Dict[int, Tuple[int, ...]] = {}
        # Per-vertex overlay adjacency, in apply order (incl. tombstoned
        # overlay edges — In positions must never shift).
        self._o_out: Dict[int, List[int]] = {}
        self._o_in: Dict[int, List[int]] = {}
        self._view: Optional[_View] = None

    # -- global counts ----------------------------------------------------

    @property
    def base(self) -> Graph:
        """The current immutable base (replaced by :meth:`compact`)."""
        return self._base

    @property
    def epoch(self) -> int:
        """Number of mutation batches applied (compaction included)."""
        return self._epoch

    @property
    def compactions(self) -> int:
        """Number of :meth:`compact` runs over this graph's lifetime."""
        return self._compactions

    @property
    def vertex_count(self) -> int:
        """|V| (base + overlay)."""
        return self._base.vertex_count + len(self._new_vertex_names)

    @property
    def edge_count(self) -> int:
        """Size of the edge-*id* space, tombstones included.

        Edge ids are append-only between compactions, so this is
        ``base.edge_count + overlay edges``; use
        :attr:`live_edge_count` for the number of traversable edges.
        """
        return self._base.edge_count + len(self._o_src)

    @property
    def live_edge_count(self) -> int:
        """Number of non-tombstoned edges."""
        return self.edge_count - len(self._removed)

    @property
    def label_count(self) -> int:
        """|Σ| (base + overlay; labels are never removed)."""
        return self._base.label_count + len(self._new_label_names)

    def size(self) -> int:
        """The paper's ``|D|`` over the *live* edge set."""
        return (
            self.vertex_count
            + self.live_edge_count
            + self.total_label_occurrences
        )

    @property
    def delta_ratio(self) -> float:
        """Overlay weight relative to the base: the compaction signal.

        Counts overlay edges, tombstones and label overrides against
        ``max(1, base.edge_count)``.  :meth:`repro.api.Database.mutate`
        compacts when this crosses :attr:`compact_threshold`.
        """
        weight = (
            len(self._o_src) + len(self._removed) + len(self._label_override)
        )
        return weight / max(1, self._base.edge_count)

    # -- vertices -----------------------------------------------------------

    def vertices(self) -> range:
        """All vertex ids."""
        return range(self.vertex_count)

    def vertex_id(self, name: Hashable) -> int:
        """Translate a vertex name to its internal id."""
        vid = self._vertex_lookup(vertex_key(name))
        if vid is None:
            raise UnknownVertexError(name)
        return vid

    def _vertex_lookup(self, key: Hashable) -> Optional[int]:
        """The id stored under a :func:`vertex_key`, or ``None``."""
        vid = self._base._vertex_ids.get(key)
        if vid is None:
            vid = self._new_vertex_ids.get(key)
        return vid

    def vertex_name(self, v: int) -> Hashable:
        """Translate an internal vertex id to its name."""
        names = self._base._vertex_names
        if 0 <= v < len(names):
            return names[v]
        new = self._new_vertex_names
        if 0 <= v - len(names) < len(new):
            return new[v - len(names)]
        raise UnknownVertexError(v)

    def has_vertex(self, name: Hashable) -> bool:
        """True when a vertex called ``name`` exists."""
        return self._vertex_lookup(vertex_key(name)) is not None

    def resolve_vertex(self, vertex: Hashable) -> int:
        """Name-or-id resolution, same semantics as :class:`Graph`:
        one probe of each name map, and the id fallback only when
        neither holds ``vertex``."""
        key = vertex if type(vertex) is not bool else vertex_key(vertex)
        v = self._base._vertex_ids.get(key)
        if v is None:
            v = self._new_vertex_ids.get(key)
            if v is None:
                if is_int(vertex) and 0 <= vertex < self.vertex_count:
                    return vertex
                raise UnknownVertexError(vertex)
        return v

    # -- labels ---------------------------------------------------------------

    def label_id(self, name: str) -> int:
        """Translate a label name to its internal id."""
        lid = self._base._label_ids.get(name)
        if lid is None:
            lid = self._new_label_ids.get(name)
        if lid is None:
            raise UnknownLabelError(name)
        return lid

    def label_name(self, a: int) -> str:
        """Translate an internal label id to its name."""
        base_k = self._base.label_count
        if 0 <= a < base_k:
            return self._base.label_name(a)
        if base_k <= a < self.label_count:
            return self._new_label_names[a - base_k]
        raise UnknownLabelError(a)

    def has_label(self, name: str) -> bool:
        """True when ``name`` is in the label universe (never shrinks)."""
        return name in self._base._label_ids or name in self._new_label_ids

    @property
    def alphabet(self) -> Tuple[str, ...]:
        """All label names, indexed by label id."""
        return self._base.alphabet + tuple(self._new_label_names)

    # -- edges -----------------------------------------------------------------

    def edges(self) -> range:
        """All edge *ids*, tombstones included (see :meth:`live_edges`)."""
        return range(self.edge_count)

    def live_edges(self) -> Iterator[int]:
        """Edge ids that are currently traversable."""
        removed = self._removed
        if not removed:
            yield from range(self.edge_count)
            return
        for e in range(self.edge_count):
            if e not in removed:
                yield e

    def is_live(self, e: int) -> bool:
        """True when ``e`` exists and is not tombstoned."""
        return 0 <= e < self.edge_count and e not in self._removed

    def _check_edge(self, e: int) -> None:
        if not 0 <= e < self.edge_count:
            raise UnknownEdgeError(e)

    def src(self, e: int) -> int:
        """``Src(e)`` (answers for tombstoned ids too — slots persist)."""
        self._check_edge(e)
        base_m = self._base.edge_count
        return (
            self._base._src[e] if e < base_m else self._o_src[e - base_m]
        )

    def tgt(self, e: int) -> int:
        """``Tgt(e)``."""
        self._check_edge(e)
        base_m = self._base.edge_count
        return (
            self._base._tgt[e] if e < base_m else self._o_tgt[e - base_m]
        )

    def labels(self, e: int) -> Tuple[int, ...]:
        """``Lbl(e)`` as sorted label ids (overrides applied)."""
        self._check_edge(e)
        override = self._label_override.get(e)
        if override is not None:
            return override
        base_m = self._base.edge_count
        return (
            self._base._labels[e]
            if e < base_m
            else self._o_labels[e - base_m]
        )

    def label_names_of(self, e: int) -> Tuple[str, ...]:
        """``Lbl(e)`` as label names."""
        return tuple(self.label_name(a) for a in self.labels(e))

    def tgt_idx(self, e: int) -> int:
        """``TgtIdx(e)`` — stable for the lifetime of the overlay."""
        self._check_edge(e)
        base_m = self._base.edge_count
        return (
            self._base._tgt_idx[e]
            if e < base_m
            else self._o_tgt_idx[e - base_m]
        )

    def cost(self, e: int) -> int:
        """Cost of edge ``e`` (1 when no cost was ever provided)."""
        self._check_edge(e)
        base_m = self._base.edge_count
        return (
            self._base.cost(e) if e < base_m else self._o_costs[e - base_m]
        )

    @property
    def has_costs(self) -> bool:
        """True when the base or any overlay edge carries a cost."""
        return self._base.has_costs or self._o_any_cost

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
        base = self._base
        n = self.vertex_count
        base_n = base.vertex_count
        base_m = base.edge_count
        view = _View()

        view.vertex_names = base._vertex_names + tuple(
            self._new_vertex_names
        )
        view.src_array = _joined(base._src, self._o_src)
        view.tgt_array = _joined(base._tgt, self._o_tgt)
        if self._label_override:
            labels = list(base._labels) + self._o_labels
            for e, ls in self._label_override.items():
                labels[e] = ls
            view.label_array = tuple(labels)
        else:
            view.label_array = base._labels + tuple(self._o_labels)
        if self.has_costs:
            view.cost_array = _joined(base.cost_array, self._o_costs)
        else:
            view.cost_array = array("q", [1]) * self.edge_count

        removed = self._removed
        out_lists: List[Tuple[int, ...]] = []
        in_lists: List[Tuple[int, ...]] = []
        for v in range(n):
            base_out: Sequence[int] = base._out[v] if v < base_n else ()
            base_in: Sequence[int] = base._in[v] if v < base_n else ()
            if removed:
                base_out = [e for e in base_out if e not in removed]
                o_out = [
                    e for e in self._o_out.get(v, ()) if e not in removed
                ]
            else:
                o_out = self._o_out.get(v, [])
            out_lists.append(tuple(base_out) + tuple(o_out))
            # In-lists keep tombstones in place: position = TgtIdx.
            in_lists.append(tuple(base_in) + tuple(self._o_in.get(v, ())))
        view.out_array = tuple(out_lists)
        view.in_array = tuple(in_lists)
        view.tgt_idx_array = _joined(base._tgt_idx, self._o_tgt_idx)

        # A tombstone carries no incidence, so no CSR bucket holds it.
        incidences: Sequence[Tuple[int, ...]] = view.label_array
        if removed:
            incidences = list(incidences)
            for e in removed:
                incidences[e] = ()
        view.live_label_array = incidences
        view.index = LabelIndex(
            view.src_array, view.tgt_array, incidences, n, self.label_count
        )

        # Defensive self-check of the overlay bookkeeping: every live
        # edge must sit at its recorded TgtIdx slot (cheap: O(overlay)).
        for e in range(base_m, self.edge_count):
            ti = view.tgt_idx_array[e]
            assert view.in_array[view.tgt_array[e]][ti] == e
        return view

    def _label_index(self) -> LabelIndex:
        """This epoch's index: its CSRs and ``succ`` are built on their
        first read in the epoch, not by :meth:`apply`."""
        return self._materialized().index

    def _walk_columns(self) -> tuple:
        """This epoch's columns for :meth:`render_walk` (see
        :class:`~repro.graph.database.FlatAccessors`)."""
        view = self._materialized()
        return (
            view.vertex_names, view.tgt_array, view.label_array,
            self.alphabet, view.cost_array if self.has_costs else None,
        )

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
        """Edge-id-indexed label tuples, overrides applied."""
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
        vid = self._vertex_lookup(key)
        if vid is None:
            vid = self.vertex_count
            self._new_vertex_ids[key] = vid
            self._new_vertex_names.append(name)
        return vid

    def _intern_label(self, name: str, new_names: Set[str]) -> int:
        lid = self._base._label_ids.get(name)
        if lid is None:
            lid = self._new_label_ids.get(name)
        if lid is None:
            lid = self.label_count
            self._new_label_ids[name] = lid
            self._new_label_names.append(name)
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
                    label_ids = tuple(
                        sorted(
                            {
                                self._intern_label(name, new_labels)
                                for name in op.labels
                            }
                        )
                    )
                    touched.update(op.labels)
                    e = self.edge_count
                    self._o_src.append(u)
                    self._o_tgt.append(v)
                    self._o_labels.append(label_ids)
                    self._o_costs.append(
                        op.cost if op.cost is not None else 1
                    )
                    if op.cost is not None:
                        self._o_any_cost = True
                    self._o_out.setdefault(u, []).append(e)
                    in_list = self._o_in.setdefault(v, [])
                    base_deg = (
                        self._base.in_degree(v)
                        if v < self._base.vertex_count
                        else 0
                    )
                    self._o_tgt_idx.append(base_deg + len(in_list))
                    in_list.append(e)
                    added_edges.append(e)
                elif isinstance(op, RemoveEdge):
                    e = op.edge
                    touched.update(self.label_names_of(e))
                    self._removed.add(e)
                    removed_edges.append(e)
                else:  # SetEdgeLabels
                    e = op.edge
                    touched.update(self.label_names_of(e))
                    new_ids = tuple(
                        sorted(
                            {
                                self._intern_label(name, new_labels)
                                for name in op.labels
                            }
                        )
                    )
                    touched.update(op.labels)
                    if e < self._base.edge_count:
                        self._label_override[e] = new_ids
                    else:
                        self._o_labels[e - self._base.edge_count] = new_ids
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
                self._m_overlay_edges.set(len(self._o_src))
                self._m_tombstones.set(len(self._removed))
            subscribers = tuple(self._subscribers)
        for fn in subscribers:
            fn(batch)
        return batch

    # -- compaction ---------------------------------------------------------------

    def compact(self) -> Graph:
        """Merge the overlay into a fresh immutable base; returns it.

        The live edge set is counting-sort-merged into new CSR-backed
        :class:`Graph` arrays.  Vertex and label interning is carried
        over unchanged (ids stable); **edge ids are renumbered** in
        ascending old-id order as tombstone slots close up.  The
        overlay resets and the epoch counter keeps counting.

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
                # overlay (and every edge id) exactly as it was.
                self._wal_hook.log_compaction(new_graph)
            self._base = new_graph
            self._reset_overlay()
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
        state, *without* mutating this overlay (unlike :meth:`compact`)."""
        with self._lock:
            live = list(self.live_edges())
            return Graph(
                vertex_names=[
                    self.vertex_name(v) for v in self.vertices()
                ],
                label_names=list(self.alphabet),
                src=[self.src(e) for e in live],
                tgt=[self.tgt(e) for e in live],
                labels=[self.labels(e) for e in live],
                costs=(
                    [self.cost(e) for e in live] if self.has_costs else None
                ),
            )

    # -- convenience ----------------------------------------------------------------

    def edge_str(self, e: int) -> str:
        """Human-readable rendering of one edge."""
        lbls = ",".join(self.label_names_of(e))
        dead = " (removed)" if e in self._removed else ""
        return (
            f"e{e}:{self.vertex_name(self.src(e))}"
            f"-[{lbls}]->{self.vertex_name(self.tgt(e))}{dead}"
        )

    def stats(self) -> Dict[str, float]:
        """Summary counters (live sizes + overlay bookkeeping)."""
        return {
            "vertices": self.vertex_count,
            "edges": self.live_edge_count,
            "labels": self.label_count,
            "label_occurrences": self.total_label_occurrences,
            "size": self.size(),
            "max_in_degree": self.max_in_degree(),
            "epoch": self._epoch,
            "overlay_edges": len(self._o_src),
            "tombstones": len(self._removed),
            "label_overrides": len(self._label_override),
            "delta_ratio": round(self.delta_ratio, 4),
            "compactions": self._compactions,
        }

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices())

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
