"""Overlay edge cases of :class:`repro.live.LiveGraph`.

The accessor contract itself is guarded by
``tests/graph/test_accessor_contract.py``; this module covers the
*stateful* corners the ISSUE calls out — tombstoned-then-readded
edges, multi-label edge label edits, never-compacted vs
just-compacted equivalence — plus batch atomicity, the change feed
and the standing-query footprint skip.
"""

from __future__ import annotations

import pytest

from repro.automata import regex_to_nfa
from repro.core.multi_target import MultiTargetShortestWalks
from repro.exceptions import CostError, GraphError, UnknownEdgeError
from repro.graph.builder import GraphBuilder
from repro.live import (
    AddEdge,
    AddVertex,
    LiveGraph,
    RemoveEdge,
    SetEdgeLabels,
    op_from_dict,
    op_to_dict,
)


def _chain() -> LiveGraph:
    b = GraphBuilder()
    b.add_edge("A", "B", ["h"])
    b.add_edge("B", "C", ["h"])
    b.add_edge("A", "C", ["s"])
    return LiveGraph(b.build())


def _answers(graph, expression: str, source, target):
    mt = MultiTargetShortestWalks(graph, regex_to_nfa(expression), source)
    lam = mt.lam_for(target)
    if lam is None:
        return None, []
    return lam, [w.edges for w in mt.walks_to(target)]


class TestTombstoneReadd:
    def test_readd_gets_fresh_id_and_slot(self) -> None:
        live = _chain()
        live.remove_edge(0)
        assert not live.is_live(0)
        e = live.add_edge("A", "B", ["h"])
        assert e == 3  # Fresh id; the tombstone slot never recycles.
        assert live.is_live(e)
        # The tombstone keeps its In slot; the re-add appends a new one.
        assert live.in_edges(live.vertex_id("B")) == (0, 3)
        assert live.tgt_idx(3) == 1
        assert live.out_edges(live.vertex_id("A")) == (2, 3)

    def test_readd_restores_answers(self) -> None:
        live = _chain()
        lam0, _ = _answers(live, "h h", "A", "C")
        live.remove_edge(0)
        assert _answers(live, "h h", "A", "C") == (None, [])
        live.add_edge("A", "B", ["h"])
        lam, walks = _answers(live, "h h", "A", "C")
        assert lam == lam0 == 2
        assert walks == [(3, 1)]

    def test_remove_twice_rejected(self) -> None:
        live = _chain()
        live.remove_edge(0)
        with pytest.raises(GraphError):
            live.remove_edge(0)

    def test_remove_unknown_edge_rejected(self) -> None:
        live = _chain()
        with pytest.raises(UnknownEdgeError):
            live.remove_edge(99)

    def test_counts_track_tombstones(self) -> None:
        live = _chain()
        live.remove_edge(1)
        assert live.edge_count == 3  # Id space keeps the slot...
        assert live.live_edge_count == 2  # ...the live count drops.
        assert list(live.live_edges()) == [0, 2]
        assert live.stats()["tombstones"] == 1


class TestLabelEdits:
    def test_multi_label_edit_moves_buckets(self) -> None:
        live = _chain()
        a_h, a_s = live.label_id("h"), live.label_id("s")
        u = live.vertex_id("A")
        live.set_edge_labels(0, ["s", "night"])  # Was ["h"].
        assert live.out_by_label(u, a_h) == ()
        assert 0 in live.out_by_label(u, a_s)
        a_night = live.label_id("night")
        assert live.out_by_label(u, a_night) == (0,)
        assert live.labels(0) == tuple(sorted((a_s, a_night)))
        assert set(live.label_names_of(0)) == {"s", "night"}

    def test_edit_keeps_id_and_tgt_idx(self) -> None:
        live = _chain()
        ti = live.tgt_idx(0)
        live.set_edge_labels(0, ["h", "s", "night"])
        assert live.tgt_idx(0) == ti
        assert live.in_edges(live.tgt(0))[ti] == 0

    def test_edit_overlay_edge(self) -> None:
        live = _chain()
        e = live.add_edge("C", "A", ["x"])
        live.set_edge_labels(e, ["y"])
        assert live.label_names_of(e) == ("y",)
        c = live.vertex_id("C")
        assert live.out_by_label(c, live.label_id("y")) == (e,)
        assert live.out_by_label(c, live.label_id("x")) == ()

    def test_edit_changes_query_answers(self) -> None:
        live = _chain()
        live.set_edge_labels(2, ["h"])  # A->C joins the h-world.
        lam, walks = _answers(live, "h+", "A", "C")
        assert lam == 1 and walks == [(2,)]

    def test_edit_back_to_base_labels(self) -> None:
        live = _chain()
        live.set_edge_labels(0, ["s"])
        live.set_edge_labels(0, ["h"])  # Back to the base label set.
        u = live.vertex_id("A")
        assert live.out_by_label(u, live.label_id("h")) == (0,)
        assert live.out_by_label(u, live.label_id("s")) == (2,)

    def test_empty_label_set_rejected_atomically(self) -> None:
        live = _chain()
        with pytest.raises(GraphError):
            live.set_edge_labels(0, [])
        assert live.label_names_of(0) == ("h",)


class TestBatchAtomicity:
    def test_bad_op_leaves_graph_untouched(self) -> None:
        live = _chain()
        before = live.stats()
        with pytest.raises(GraphError):
            live.apply(
                [
                    AddEdge("A", "Z", ("h",)),
                    RemoveEdge(99),  # Invalid: the whole batch aborts.
                ]
            )
        assert live.stats() == before
        assert not live.has_vertex("Z")

    def test_bad_cost_rejected(self) -> None:
        live = _chain()
        with pytest.raises(CostError):
            live.apply([AddEdge("A", "B", ("h",), cost=0)])
        assert live.epoch == 0

    def test_remove_then_edit_same_edge_rejected(self) -> None:
        live = _chain()
        with pytest.raises(GraphError):
            live.apply([RemoveEdge(0), SetEdgeLabels(0, ("s",))])
        assert live.is_live(0)

    def test_batch_receipt_contents(self) -> None:
        live = _chain()
        batch = live.apply(
            [
                AddVertex("lonely"),
                AddEdge("C", "D", ("ferry",)),
                RemoveEdge(2),
                SetEdgeLabels(1, ("h", "night")),
            ]
        )
        assert batch.epoch == 1
        assert len(batch.added_vertices) == 2  # "lonely" and "D".
        assert batch.added_edges == (3,)
        assert batch.removed_edges == (2,)
        assert batch.relabeled_edges == (1,)
        assert batch.touched_labels == {"ferry", "s", "h", "night"}
        assert batch.new_labels == {"ferry", "night"}

    def test_ops_round_trip_wire_form(self) -> None:
        ops = [
            AddVertex("v"),
            AddEdge("a", "b", ("h", "s"), cost=3),
            RemoveEdge(7),
            SetEdgeLabels(2, ("x",)),
        ]
        for op in ops:
            assert op_from_dict(op_to_dict(op)) == op
        with pytest.raises(GraphError):
            op_from_dict({"op": "warp_edge", "edge": 1})
        with pytest.raises(GraphError):
            op_from_dict({"op": "add_edge", "src": "a", "tgt": "b"})


class TestCompactionEquivalence:
    """Never-compacted vs just-compacted: same answers, fresh ids."""

    def _mutate(self, live: LiveGraph) -> None:
        live.add_edge("C", "D", ["h"])
        live.add_edge("B", "D", ["s"])
        live.remove_edge(1)
        live.set_edge_labels(2, ["h"])

    def test_same_answers_before_and_after_compact(self) -> None:
        overlay = _chain()
        self._mutate(overlay)
        compacted = _chain()
        self._mutate(compacted)
        compacted.compact()

        def rendered(graph, walks):
            return [
                tuple(
                    (
                        graph.vertex_name(graph.src(e)),
                        graph.vertex_name(graph.tgt(e)),
                        graph.label_names_of(e),
                    )
                    for e in w
                )
                for w in walks
            ]

        for expression, s, t in (
            ("h+", "A", "D"),
            ("h h", "A", "D"),
            ("s", "B", "D"),
            ("h* s", "A", "D"),
        ):
            lam_o, walks_o = _answers(overlay, expression, s, t)
            lam_c, walks_c = _answers(compacted, expression, s, t)
            assert lam_o == lam_c, expression
            assert rendered(overlay, walks_o) == rendered(
                compacted, walks_c
            ), expression

    def test_compact_resets_overlay_bookkeeping(self) -> None:
        live = _chain()
        self._mutate(live)
        assert live.delta_ratio > 0
        live.compact()
        stats = live.stats()
        assert stats["overlay_edges"] == 0
        assert stats["tombstones"] == 0
        assert stats["label_overrides"] == 0
        assert stats["delta_ratio"] == 0.0
        assert live.compactions == 1
        # Edge ids are dense again.
        assert live.edge_count == live.live_edge_count

    def test_bookkeeping_counts_each_kind_of_step_exactly(self) -> None:
        """One scripted history: an add, a loaded edge removed, one
        loaded edge relabelled twice and an added edge relabelled.
        The ``compact="auto"`` trigger reads ``delta_ratio``: one added
        edge, one tombstone and one relabelled loaded edge over three
        loaded edges.  Relabelling the same edge twice counts once,
        and relabelling an added edge not at all."""
        live = _chain()
        e = live.add_edge("C", "D", ["h", "t"])
        live.remove_edge(1)
        live.set_edge_labels(0, ["s"])
        live.set_edge_labels(0, ["s", "u"])
        live.set_edge_labels(e, ["h"])
        assert e == 3
        assert live.delta_ratio == 1.0
        assert live.live_edge_count == 3
        assert live.stats() == {
            "vertices": 4,
            "edges": 3,
            "labels": 4,
            "label_occurrences": 4,
            "size": 11,
            "max_in_degree": 2,
            "epoch": 5,
            "overlay_edges": 1,
            "tombstones": 1,
            "label_overrides": 1,
            "delta_ratio": 1.0,
            "compactions": 0,
        }

    def test_mutations_on_just_compacted_graph(self) -> None:
        live = _chain()
        self._mutate(live)
        live.compact()
        live.add_edge("D", "A", ["h"])
        live.remove_edge(0)
        lam, _walks = _answers(live, "h+", "C", "A")
        assert lam == 2  # C -h-> D -h-> A.

    def test_to_graph_does_not_mutate(self) -> None:
        live = _chain()
        self._mutate(live)
        ratio = live.delta_ratio
        frozen = live.to_graph()
        assert live.delta_ratio == ratio
        assert frozen.edge_count == live.live_edge_count


class TestChangeFeed:
    def test_subscribe_and_unsubscribe(self) -> None:
        live = _chain()
        seen = []
        unsubscribe = live.subscribe(seen.append)
        live.add_edge("A", "B", ["h"])
        assert len(seen) == 1 and seen[0].added_edges == (3,)
        unsubscribe()
        live.remove_edge(0)
        assert len(seen) == 1
        unsubscribe()  # Idempotent.

    def test_compact_notifies_with_compaction_receipt(self) -> None:
        live = _chain()
        seen = []
        live.subscribe(seen.append)
        live.add_edge("A", "B", ["h"])
        live.compact()
        assert len(seen) == 2
        assert not seen[0].compaction
        assert seen[1].compaction and seen[1].ops == ()
        assert seen[1].touched_labels == frozenset()

    def test_front_subscribers_run_first(self) -> None:
        live = _chain()
        order = []
        live.subscribe(lambda b: order.append("user"))
        live.subscribe(lambda b: order.append("infra"), front=True)
        live.add_edge("A", "B", ["h"])
        assert order == ["infra", "user"]

    def test_add_edge_returns_receipt_id(self) -> None:
        live = _chain()
        batch_id = live.add_edge("A", "B", ["h"])
        assert live.src(batch_id) == live.vertex_id("A")
        assert live.labels(batch_id) == (live.label_id("h"),)
