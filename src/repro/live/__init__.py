"""``repro.live`` — incremental graph mutations over the frozen engine.

The paper's engine (and everything built on it through PR-3) assumes a
frozen database: :class:`~repro.graph.database.Graph` is immutable,
any change means a full :class:`~repro.graph.builder.GraphBuilder`
rebuild, and re-registering bumps a version that evicts *every* cached
plan and saturated annotation.  This subpackage opens the read-write
workload dimension without giving up the cached read path.

Architecture
------------

**Whole columns** (:class:`~repro.live.live_graph.LiveGraph`).  A
mutable graph held as whole columns under the names an immutable
:class:`~repro.graph.database.Graph` uses, loaded from one:
``add_edge`` / ``remove_edge`` / ``add_vertex`` / ``set_edge_labels``
are logged :mod:`~repro.live.delta` ops applied in atomic batches,
which append to the columns or write a relabelled edge's slot.  The
point reads (``src``, ``labels``, ``tgt_idx``, ``vertex_id`` …) are
:class:`~repro.graph.database.FlatAccessors`' over those columns,
written once and shared with ``Graph`` and the shared-memory graph.
Adjacency reads have one path: the flat-array views (``out_array``,
``tgt_idx_array`` …), copied from the columns lazily, once per
mutation *epoch*, and the epoch's label index, which builds
``out_csr``, ``in_csr`` and ``succ`` each on its first read in the
epoch, as an immutable graph's does.  So ``annotate``,
``cheapest_annotate``, the enumerators and the counting DP run on a
``LiveGraph`` unmodified (a shared contract test in
``tests/graph/test_accessor_contract.py``, with seeded random mutation
histories among its graphs, keeps it that way).

**The no-reindexing invariant.**  Between compactions, vertex ids,
label ids and edge ids are append-only and the ``TgtIdx`` of an
existing edge never changes: tombstoned edges keep their slot inside
``In(v)`` and label edits rewrite the label set in place.  This is
what makes *fine-grained* cache invalidation sound — a cached
annotation addresses predecessor cells positionally by
``TgtIdx``, so an annotation whose automaton cannot fire on any label
a batch touched is still byte-for-byte valid afterwards and is **kept
warm** instead of evicted.  Those cached annotations *are* a flat
``dist`` array plus the trim cells pulled from it so far (``TgtIdx``
and edge ids baked in — see :mod:`repro.datastructures.packed`),
which is precisely the representation the invariant keeps valid:
retained entries stay correct positionally with no per-cell
re-validation, a later pull over the current epoch finds the same
cells (it reads ``live_label_array``, so a tombstone is never one), and vertices
added after the annotation was built are provably unreachable for it
(:meth:`~repro.core.annotate.Annotation.target_info` answers "no
matching walk" beyond the packed vertex range).  A kept entry not yet
run to exhaustion deepens over the current epoch's views: such a batch
adds no product edge its BFS could follow.  :meth:`repro.api.Database.mutate` evicts
only the entries whose label footprint
(:func:`~repro.live.live_graph.query_label_footprint`) intersects the
batch's ``touched_labels`` (plans: only ``new_labels`` — compilation
drops transitions on labels absent from the alphabet it saw, and
wildcards expand over that alphabet).

**Epoch-based compaction.**  When
:attr:`~repro.live.live_graph.LiveGraph.delta_ratio` (edges added,
tombstones and relabelled loaded edges, relative to the edges loaded)
crosses a threshold, :meth:`~repro.live.live_graph.LiveGraph.compact`
drops the tombstones into a fresh immutable graph and reloads the
columns from it.
Edge ids renumber as tombstone slots close up, so compaction is the
one mutation that pairs with a full version bump (all cached
artifacts and outstanding cursors of the graph drop); vertex and
label interning carries over unchanged.

**Change feed** (:meth:`~repro.live.live_graph.LiveGraph.subscribe`).
Every applied batch notifies subscribers with its
:class:`~repro.live.delta.MutationBatch` receipt; the database's own
eviction pass is one subscriber.  ``examples/standing_queries.py``
builds a standing query on it from the public API alone: one query kept
current, *skipping* refreshes for batches whose labels are disjoint
from its footprint.

Entry points: ``Database.mutate(ops)`` (the cached serving path), the
JSONL ``{"mutate": [...]}`` request of :mod:`repro.service`, the CLI
``repro mutate`` subcommand, and direct ``LiveGraph`` use for
engine-level code.
"""

from repro.live.delta import (
    AddEdge,
    AddVertex,
    Delta,
    MutationBatch,
    RemoveEdge,
    SetEdgeLabels,
    op_from_dict,
    op_to_dict,
    ops_from_dicts,
)
from repro.live.live_graph import LiveGraph, query_label_footprint

__all__ = [
    "AddEdge",
    "AddVertex",
    "Delta",
    "LiveGraph",
    "MutationBatch",
    "RemoveEdge",
    "SetEdgeLabels",
    "op_from_dict",
    "op_to_dict",
    "ops_from_dicts",
    "query_label_footprint",
]
