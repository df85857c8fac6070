"""The shared accessor contract, parametrized over Graph and LiveGraph.

The entire enumeration pipeline (``annotate`` → ``trim`` →
``enumerate``/``memoryless`` → counting DP) consumes a graph only
through the paper's accessor contract plus the label-indexed CSR
views.  :class:`~repro.live.LiveGraph` promises to honour that
contract bit-for-bit so the pipeline runs on it unmodified; this
module is the guard that keeps the implementations aligned — every
invariant is asserted against an immutable :class:`Graph`, a fresh
overlay, a mutated overlay (adds + tombstones + label edits + new
vertices/labels), a just-compacted overlay, and seeded random
mutation histories drawn from ``LIVE_DIFF_SEED_BASE`` (so each entry
of the CI ``mutation-fuzz`` matrix checks different histories).

Every graph class reads its adjacency through one path — the point
accessors of :class:`~repro.graph.database.FlatAccessors` over the flat
views — so two layers of checking remain:

* **views vs per-edge accessors** — the flat views (``out_array``,
  ``out_csr``, ``tgt_idx_array`` …), and the point reads over them,
  must describe the edge set that the per-edge accessors (``src``,
  ``tgt``, ``labels``, ``is_live``), which a ``LiveGraph`` answers
  from its overlay without a view, describe;
* **semantic equivalence** — a ``LiveGraph`` must describe the same
  labeled multigraph as the immutable ``Graph`` rebuilt from its live
  edge list (modulo edge-id renumbering).
"""

from __future__ import annotations

import os
import random
import tempfile

import pytest

from repro.exceptions import UnknownVertexError
from repro.graph.builder import GraphBuilder
from repro.graph.database import Graph
from repro.live import LiveGraph
from repro.wal.snapshot import load_snapshot, write_snapshot

SEED_BASE = int(os.environ.get("LIVE_DIFF_SEED_BASE", "0"))
N_RANDOM_HISTORIES = 4


def _seed_graph() -> Graph:
    b = GraphBuilder()
    b.add_edge("A", "B", ["h"])
    b.add_edge("B", "C", ["h", "s"])
    b.add_edge("C", "A", ["s"])
    b.add_edge("A", "C", ["x"])
    b.add_edge("B", "C", ["h"])  # Parallel edge.
    b.add_edge("C", "C", ["x"])  # Self-loop.
    b.add_vertex("isolated")
    return b.build()


def _mutated_live() -> LiveGraph:
    live = LiveGraph(_seed_graph())
    live.add_edge("C", "D", ["h", "ferry"])  # New vertex + new label.
    live.add_edge("D", "A", ["s"])
    live.remove_edge(1)  # Tombstone a base edge.
    live.remove_edge(live.add_edge("A", "D", ["x"]))  # Overlay tombstone.
    live.set_edge_labels(3, ["h", "night"])  # Base label edit, new label.
    live.set_edge_labels(6, ["ferry"])  # Overlay label edit.
    live.add_vertex("late_isolated")
    return live


def _compacted_live() -> LiveGraph:
    live = _mutated_live()
    live.compact()
    live.add_edge("D", "B", ["h"])  # Keep an overlay on the new base.
    return live


def _random_history(seed: int) -> LiveGraph:
    """A seeded history of one-op batches over a random base.

    Every history starts with an add and then holds each kind of step
    at least once, in a drawn order: adds (with new vertices and new
    labels), tombstones of a base and of an overlay edge, and a relabel
    of a base edge that drops one of its base labels and, a later
    batch, re-adds it.
    """
    rng = random.Random(seed)
    alphabet = ["a", "b", "c"]
    b = GraphBuilder()
    n = rng.randint(2, 6)
    b.add_vertices([f"v{i}" for i in range(n)])
    for _ in range(rng.randint(3, 10)):
        b.add_edge(
            f"v{rng.randrange(n)}", f"v{rng.randrange(n)}",
            rng.sample(alphabet, rng.randint(1, 3)),
        )
    live = LiveGraph(b.build())
    base_m = live.edge_count
    fresh = iter(range(1_000))

    def add(new_vertex: bool, new_label: bool) -> None:
        names = [live.vertex_name(v) for v in live.vertices()]
        src = f"n{next(fresh)}" if new_vertex else rng.choice(names)
        labels = rng.sample(alphabet, rng.randint(1, 2))
        if new_label:
            labels.append(f"l{next(fresh)}")
            alphabet.append(labels[-1])
        live.add_edge(src, rng.choice(names), labels)

    def tombstone(overlay: bool) -> None:
        ids = [
            e for e in live.live_edges() if (e >= base_m) == overlay
        ]
        if ids:
            live.remove_edge(rng.choice(ids))

    relabeled = []

    def drop_base_label() -> None:
        ids = [e for e in live.live_edges() if e < base_m]
        if ids:
            e = rng.choice(ids)
            labels = list(live.label_names_of(e))
            dropped = labels.pop(rng.randrange(len(labels)))
            if not labels:
                labels = [rng.choice([a for a in alphabet if a != dropped])]
            live.set_edge_labels(e, labels)
            relabeled.append((e, dropped))

    def readd_base_label() -> None:
        if relabeled:
            e, dropped = relabeled.pop()
            if live.is_live(e):
                live.set_edge_labels(
                    e, sorted({dropped, *live.label_names_of(e)})
                )

    steps = [
        lambda: tombstone(overlay=False),
        lambda: tombstone(overlay=True),
        drop_base_label,
    ] + [
        lambda: add(rng.random() < 0.3, rng.random() < 0.2)
        for _ in range(rng.randint(2, 6))
    ] + [
        lambda: tombstone(overlay=rng.random() < 0.5),
        drop_base_label,
    ]
    rng.shuffle(steps)
    # Re-adds go after their drop: somewhere later, always at the end.
    steps.insert(rng.randint(len(steps) // 2, len(steps)), readd_base_label)
    # The first add gives the overlay tombstone an edge to remove.
    add(new_vertex=True, new_label=True)
    for step in steps + [readd_base_label, readd_base_label]:
        step()
    if rng.random() < 0.5:
        live.add_vertex(f"n{next(fresh)}")  # An isolated overlay vertex.
    return live


def _snapshot_roundtrip() -> Graph:
    """A recovered base: a compacted graph through a snapshot file,
    whose columns are ``'q'`` casts over the file's bytes."""
    with tempfile.TemporaryDirectory() as wal_dir:
        path = write_snapshot(wal_dir, _mutated_live().to_graph(), 4)
        return load_snapshot(path, 4)


def _live_on_snapshot() -> LiveGraph:
    live = LiveGraph(_snapshot_roundtrip())
    live.add_edge("A", "new", ["h"])
    live.remove_edge(0)
    live.set_edge_labels(2, ["s", "x"])
    return live


FACTORIES = {
    "immutable": _seed_graph,
    "snapshot_roundtrip": _snapshot_roundtrip,
    "live_fresh": lambda: LiveGraph(_seed_graph()),
    "live_mutated": _mutated_live,
    "live_compacted": _compacted_live,
    "live_on_snapshot": _live_on_snapshot,
    **{
        f"live_random_{i}": (lambda i=i: _random_history(SEED_BASE + i))
        for i in range(N_RANDOM_HISTORIES)
    },
}
LIVE_FACTORIES = sorted(name for name in FACTORIES if name.startswith("live_"))


def _live_ids(graph):
    if isinstance(graph, LiveGraph):
        return list(graph.live_edges())
    return list(graph.edges())


@pytest.fixture(params=sorted(FACTORIES), name="graph")
def _graph(request):
    return FACTORIES[request.param]()


class TestSharedContract:
    """Invariants every accessor-compatible graph must satisfy."""

    def test_out_by_label_matches_csr_buckets(self, graph) -> None:
        indptr, payload = graph.out_csr
        n = graph.vertex_count
        for a in range(graph.label_count):
            for v in graph.vertices():
                b = a * n + v
                bucket = tuple(payload[indptr[b]:indptr[b + 1]])
                assert bucket == graph.out_by_label(v, a)

    def test_successors_match_out_buckets(self, graph) -> None:
        """``succ[a][v]`` is where ``Out_a(v)`` leads, in edge-id order,
        one int object per vertex across every tuple — over the
        tombstones, compactions, new vertices and seeded histories of
        every factory."""
        succ = graph.succ
        objects = {}
        for a in range(graph.label_count):
            for v in graph.vertices():
                want = tuple(graph.tgt(e) for e in graph.out_by_label(v, a))
                assert succ[a][v] == want
                for u in succ[a][v]:
                    assert objects.setdefault(u, u) is u
        assert graph.succ is succ

    def test_in_by_label_matches_csr_buckets(self, graph) -> None:
        indptr, payload = graph.in_csr
        n = graph.vertex_count
        for a in range(graph.label_count):
            for v in graph.vertices():
                b = a * n + v
                bucket = tuple(payload[indptr[b]:indptr[b + 1]])
                assert bucket == graph.in_by_label(v, a)

    def test_buckets_sorted_and_labeled(self, graph) -> None:
        for a in range(graph.label_count):
            for v in graph.vertices():
                for bucket, endpoint in (
                    (graph.out_by_label(v, a), graph.src),
                    (graph.in_by_label(v, a), graph.tgt),
                ):
                    assert list(bucket) == sorted(bucket)
                    for e in bucket:
                        assert endpoint(e) == v
                        assert a in graph.labels(e)

    def test_out_edges_union_of_buckets(self, graph) -> None:
        for v in graph.vertices():
            from_buckets = {
                e
                for a in range(graph.label_count)
                for e in graph.out_by_label(v, a)
            }
            assert set(graph.out_edges(v)) == from_buckets
            assert graph.out_degree(v) == len(graph.out_edges(v))

    def test_out_label_summaries(self, graph) -> None:
        for v in graph.vertices():
            expected = tuple(
                sorted(
                    {a for e in graph.out_edges(v) for a in graph.labels(e)}
                )
            )
            assert graph.out_labels(v) == expected
            assert graph.out_labels_array[v] == expected

    def test_in_label_summaries(self, graph) -> None:
        for v in graph.vertices():
            expected = tuple(
                sorted(
                    {
                        a
                        for a_ in range(graph.label_count)
                        for e in graph.in_by_label(v, a_)
                        for a in graph.labels(e)
                    }
                )
            )
            assert graph.in_labels(v) == expected
            assert graph.in_labels_array[v] == expected

    def test_tgt_idx_positions(self, graph) -> None:
        """``In(Tgt(e))[TgtIdx(e)] == e`` for every live edge."""
        for e in _live_ids(graph):
            v = graph.tgt(e)
            in_list = graph.in_edges(v)
            ti = graph.tgt_idx(e)
            assert in_list[ti] == e
            assert graph.in_array[v][ti] == e
            assert graph.tgt_idx_array[e] == ti
            assert ti < graph.in_degree(v)

    def test_flat_edge_arrays_agree_with_accessors(self, graph) -> None:
        for e in _live_ids(graph):
            assert graph.src_array[e] == graph.src(e)
            assert graph.tgt_array[e] == graph.tgt(e)
            assert graph.label_array[e] == graph.labels(e)
            assert graph.cost_array[e] == graph.cost(e)
            assert graph.labels(e) == tuple(sorted(set(graph.labels(e))))

    def test_out_array_agrees_with_out_edges(self, graph) -> None:
        for v in graph.vertices():
            assert graph.out_array[v] == graph.out_edges(v)
            for e in graph.out_edges(v):
                assert graph.src(e) == v

    def test_name_interning_round_trips(self, graph) -> None:
        for v in graph.vertices():
            name = graph.vertex_name(v)
            assert graph.vertex_id(name) == v
            assert graph.resolve_vertex(name) == v
            assert graph.has_vertex(name)
        for a in range(graph.label_count):
            name = graph.label_name(a)
            assert graph.label_id(name) == a
            assert graph.has_label(name)
        assert len(graph.alphabet) == graph.label_count

    def test_views_hold_exactly_the_live_edges(self, graph) -> None:
        """Rebuilt from the per-edge accessors alone, every ``Out`` list,
        ``In`` list and label bucket equals the point read — so no live
        edge is missing from the views and no tombstone sits in a
        bucket."""
        live = _live_ids(graph)
        for v in graph.vertices():
            assert graph.out_edges(v) == tuple(
                e for e in live if graph.src(e) == v
            )
            assert tuple(e for e in graph.in_edges(v) if e in live) == tuple(
                e for e in live if graph.tgt(e) == v
            )
            for a in range(graph.label_count):
                assert graph.out_by_label(v, a) == tuple(
                    e for e in live
                    if graph.src(e) == v and a in graph.labels(e)
                )
                assert graph.in_by_label(v, a) == tuple(
                    e for e in live
                    if graph.tgt(e) == v and a in graph.labels(e)
                )

    def test_parallel_edges_checks_its_source(self, graph) -> None:
        """``parallel_edges`` reads the range-checked ``Out``: a negative
        id does not wrap around to the last vertices, and one past the
        end is an unknown vertex, not an ``IndexError``."""
        n = graph.vertex_count
        for u in (-1, -2, n, n + 3):
            with pytest.raises(UnknownVertexError):
                graph.parallel_edges(u, 0)
        for u in graph.vertices():
            for v in graph.vertices():
                assert graph.parallel_edges(u, v) == [
                    e for e in graph.out_edges(u) if graph.tgt(e) == v
                ]

    def test_size_accounting(self, graph) -> None:
        live = _live_ids(graph)
        occurrences = sum(len(graph.labels(e)) for e in live)
        assert graph.total_label_occurrences == occurrences
        assert graph.size() == (
            graph.vertex_count + len(live) + occurrences
        )


@pytest.mark.parametrize("factory_name", LIVE_FACTORIES)
def test_livegraph_equals_rebuilt_immutable(factory_name: str) -> None:
    """A LiveGraph describes the same multigraph as a from-scratch build.

    Edge ids differ (the rebuild closes tombstone slots), so edges are
    compared as (src name, tgt name, label names, cost) multisets, and
    adjacency per vertex as multisets of the same rendering.
    """
    live = FACTORIES[factory_name]()
    rebuilt = live.to_graph()

    def rendered(graph, e):
        return (
            graph.vertex_name(graph.src(e)),
            graph.vertex_name(graph.tgt(e)),
            graph.label_names_of(e),
            graph.cost(e),
        )

    live_edges = sorted(rendered(live, e) for e in live.live_edges())
    rebuilt_edges = sorted(rendered(rebuilt, e) for e in rebuilt.edges())
    assert live_edges == rebuilt_edges
    assert live.vertex_count == rebuilt.vertex_count
    assert sorted(map(str, live.alphabet)) == sorted(
        map(str, rebuilt.alphabet)
    )
    assert live.has_costs == rebuilt.has_costs

    for v in live.vertices():
        name = live.vertex_name(v)
        rv = rebuilt.vertex_id(name)
        live_out = sorted(rendered(live, e) for e in live.out_edges(v))
        rebuilt_out = sorted(
            rendered(rebuilt, e) for e in rebuilt.out_edges(rv)
        )
        assert live_out == rebuilt_out, name
        live_in = sorted(
            rendered(live, e) for e in live.in_edges(v) if live.is_live(e)
        )
        rebuilt_in = sorted(
            rendered(rebuilt, e) for e in rebuilt.in_edges(rv)
        )
        assert live_in == rebuilt_in, name

    # Relative In-order (the enumeration-order contract): live in-lists
    # filtered of tombstones must list edges in the same relative order
    # as the rebuild, because compaction/rebuild closes slots in
    # ascending old-id order.
    for v in live.vertices():
        rv = rebuilt.vertex_id(live.vertex_name(v))
        live_seq = [
            rendered(live, e)
            for e in live.in_edges(v)
            if live.is_live(e)
        ]
        rebuilt_seq = [rendered(rebuilt, e) for e in rebuilt.in_edges(rv)]
        assert live_seq == rebuilt_seq


def test_live_successors_are_built_per_epoch_on_first_read() -> None:
    """A ``LiveGraph`` builds an epoch's ``succ`` on its first read —
    neither ``apply()`` nor ``warm_indexes()`` pays for it — and a batch
    drops it with the rest of the epoch's views."""
    live = LiveGraph(_seed_graph())
    live.warm_indexes()
    assert live._view.succ is None
    before = live.succ
    assert live._view.succ is before
    live.add_edge("isolated", "A", ["h"])
    assert live._view is None
    live.warm_indexes()
    assert live._view.succ is None
    after = live.succ
    h, iso = live.label_id("h"), live.vertex_id("isolated")
    assert before[h][iso] == () and after[h][iso] == (live.vertex_id("A"),)


def test_random_histories_hold_every_kind_of_step() -> None:
    """The drawn histories are not degenerate: overlay edges, new
    vertices and labels, base and overlay tombstones, and base label
    overrides all occur."""
    for i in range(N_RANDOM_HISTORIES):
        live = _random_history(SEED_BASE + i)
        base_m = live.base.edge_count
        removed = set(live.edges()) - set(live.live_edges())
        context = f"seed={SEED_BASE + i}"
        assert live.edge_count > base_m, context
        assert live.vertex_count > live.base.vertex_count, context
        assert live.label_count > live.base.label_count, context
        assert any(e < base_m for e in removed), context
        assert any(e >= base_m for e in removed), context
        assert live.stats()["label_overrides"] > 0, context


def test_compacted_overlay_keeps_interning() -> None:
    """Vertex and label ids survive compaction (only edge ids move)."""
    live = _mutated_live()
    before_vertices = {
        v: live.vertex_name(v) for v in live.vertices()
    }
    before_labels = {a: live.label_name(a) for a in range(live.label_count)}
    live.compact()
    assert {
        v: live.vertex_name(v) for v in live.vertices()
    } == before_vertices
    assert {
        a: live.label_name(a) for a in range(live.label_count)
    } == before_labels


def test_snapshot_roundtrip_keeps_every_column() -> None:
    """A recovered base is the compacted graph, column for column: edge
    ids, ``TgtIdx``, label tuples, ``Out``/``In`` and both CSRs."""
    source = _mutated_live().to_graph()
    loaded = _snapshot_roundtrip()

    def columns(graph):
        return (
            [graph.vertex_name(v) for v in graph.vertices()],
            graph.alphabet,
            list(graph.src_array),
            list(graph.tgt_array),
            list(graph.tgt_idx_array),
            graph.label_array,
            graph.out_array,
            graph.in_array,
            [list(buf) for buf in graph.out_csr + graph.in_csr],
        )

    assert columns(loaded) == columns(source)
