"""Packed pipeline vs the paper-structure oracle pipeline.

:mod:`repro.core` keeps ``L``/``B`` in flat CSR-packed arrays
end-to-end; :mod:`repro.baselines.paper_pipeline` builds the paper's
maps, queues and skip arrays natively.  These property tests pin the
two pipelines together:

* **annotation contents** — the packed annotation's read-only views
  (``L``, ``B``, entry counts, ``target_info``) must equal the
  oracle annotation's maps cell-for-cell, with each cell's witness
  *multiset* identical (duplicates included; within-cell order is
  traversal-specific — the label-indexed scan and the edge-major
  reference discover a BFS level in different orders, so frontier
  pairs of the same vertex may append to a shared cell in either
  order, which ``Trim``'s certificate sort makes unobservable);
* **structure contents** — the packed ``Trim`` cells, which are
  ``ResumableTrim``'s as built (:meth:`PackedCells.items`), must match the oracle's queues and skip
  arrays queue-for-queue and payload-for-payload (witness payloads
  again as multisets — the queue items and skip-index cells inherit
  ``B``'s within-cell append order, and every consumer unions them
  into a certificate set);
* **enumeration order** — the packed eager DFS, the packed memoryless
  ``NextOutput`` (a fresh ``enumerate_walks(resume_after=w)`` per
  output), the recursive transcription over queues built from
  the packed annotation's ``B`` view, *and* the full oracle pipeline
  (map annotation → dict trim → recursive DFS, and → skip arrays →
  skip-pointer ``NextOutput``) must emit the identical walk sequence,
  for both the target and the saturated (multi-target) mode.
"""

from __future__ import annotations

from functools import partial

from hypothesis import given, settings

from repro.baselines import paper_pipeline as oracle
from repro.baselines.paper_pipeline import (
    annotate_reference,
    enumerate_walks_recursive,
    resumable_trim_maps,
    trim_maps,
)
from repro.core.annotate import annotate
from repro.core.compile import compile_query
from repro.core.count import count_distinct_shortest
from repro.core.enumerate import enumerate_walks
from repro.core.trim import trim

from tests.conftest import one_seek_per_output, small_instances

_SETTINGS = dict(max_examples=60, deadline=None)


def _edges(walks):
    return [w.edges for w in walks]


def _normalized_b(b):
    """``B`` with every cell's witness list sorted (multiset form)."""
    return [
        {
            p: {ti: sorted(cell) for ti, cell in by_ti.items()}
            for p, by_ti in back_map.items()
        }
        for back_map in b
    ]


class TestAnnotationViews:
    @given(small_instances())
    @settings(**_SETTINGS)
    def test_views_equal_reference_maps(self, instance):
        """``L``/``B`` views reproduce the reference maps verbatim."""
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa)
        for saturate in (False, True):
            packed = annotate(cq, s, t, saturate=saturate)
            ref = annotate_reference(cq, s, t, saturate=saturate)
            assert packed.lam == ref.lam
            assert packed.target_states == ref.target_states
            assert packed.L == ref.L
            # Same cells, same witness multiset per cell (duplicates
            # included).  Within-cell order is traversal-specific (see
            # module docstring) and dict key order is not part of the
            # contract, so both are normalized before comparing.
            assert _normalized_b(packed.B) == _normalized_b(ref.B)
            assert (
                packed.annotation_entries() == ref.annotation_entries()
            )

    @given(small_instances())
    @settings(**_SETTINGS)
    def test_target_info_off_packed_arrays(self, instance):
        """Saturated ``target_info`` agrees with the reference's."""
        graph, nfa, s, _ = instance
        cq = compile_query(graph, nfa)
        packed = annotate(cq, s, saturate=True)
        ref = annotate_reference(cq, s, saturate=True)
        for v in graph.vertices():
            assert packed.target_info(v) == ref.target_info(v)
        beyond = graph.vertex_count + 3
        assert packed.target_info(beyond) == (None, frozenset())

    @given(small_instances())
    @settings(**_SETTINGS)
    def test_entry_count_is_packed_length(self, instance):
        """The O(1) count is what the store holds: nothing before a
        read, then the exhaustive sum once the ``B`` view has pulled
        every reached node."""
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa)
        ann = annotate(cq, s, t)
        assert ann.annotation_entries() == 0
        exhaustive = sum(
            len(preds)
            for vertex_map in ann.B
            for cells in vertex_map.values()
            for preds in cells.values()
        )
        assert ann.annotation_entries() == exhaustive
        assert ann.packed.entries() == exhaustive


class TestTrimViews:
    @given(small_instances())
    @settings(**_SETTINGS)
    def test_queues_match_reference_trim(self, instance):
        """Packed trim's cells == dict trim of the oracle annotation."""
        graph, nfa, s, _ = instance
        cq = compile_query(graph, nfa)
        packed_trim = trim(graph, annotate(cq, s, saturate=True))
        ref_queues = trim_maps(
            graph, annotate_reference(cq, s, saturate=True)
        )
        for u in graph.vertices():
            for p in range(cq.n_states):
                got_items = packed_trim.items(u, p)
                ref_items = list(ref_queues[u].get(p, ()))
                # Same edges in the same TgtIdx order; witness payloads
                # as multisets (within-cell order is traversal-specific
                # — see the module docstring).
                assert [(e, sorted(preds)) for e, preds in got_items] \
                    == [(e, sorted(preds)) for e, preds in ref_items]
        # Every queue was read, so every reached node is built.
        assert packed_trim.total_items() == sum(
            len(queue) for per_vertex in ref_queues
            for queue in per_vertex.values()
        )

    @given(small_instances())
    @settings(**_SETTINGS)
    def test_resumable_matches_reference(self, instance):
        graph, nfa, s, _ = instance
        cq = compile_query(graph, nfa)
        cells = trim(graph, annotate(cq, s, saturate=True))
        ref_index = resumable_trim_maps(
            graph, annotate_reference(cq, s, saturate=True)
        )
        for u in graph.vertices():
            for p in range(cq.n_states):
                got = cells.items(u, p)
                ref_idx = ref_index[u].get(p)
                if ref_idx is None:
                    assert got == []
                    continue
                assert [graph.tgt_idx(e) for e, _ in got] \
                    == ref_idx.non_empty_indices()
                for e, preds in got:
                    # Witness multiset per cell; within-cell order is
                    # traversal-specific (see the module docstring).
                    assert sorted(preds) \
                        == sorted(ref_idx.payload(graph.tgt_idx(e)))
        assert len(cells) == sum(
            len(idx) for per_vertex in ref_index
            for idx in per_vertex.values()
        )


class TestEnumerationOrder:
    @given(small_instances())
    @settings(**_SETTINGS)
    def test_all_pipelines_identical_order(self, instance):
        """Packed eager / packed memoryless / recursive over the ``B``
        view / full oracle pipeline (both enumerators): one output
        sequence."""
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa)

        ann = annotate(cq, s, t)
        args = (graph, trim(graph, ann), ann.lam, t, ann.target_states)
        eager = _edges(enumerate_walks(*args))
        memoryless = _edges(
            one_seek_per_output(partial(enumerate_walks, *args))
        )
        # The recursive transcription over queues built from the packed
        # annotation's own B view.
        recursive = _edges(
            enumerate_walks_recursive(
                graph, trim_maps(graph, ann), ann.lam, t, ann.target_states
            )
        )

        ref_ann = annotate_reference(cq, s, t)
        reference = _edges(
            enumerate_walks_recursive(
                graph, trim_maps(graph, ref_ann), ref_ann.lam, t,
                ref_ann.target_states,
            )
        )
        ref_memoryless = _edges(
            oracle.enumerate_memoryless(
                graph, resumable_trim_maps(graph, ref_ann), ref_ann.lam, t,
                ref_ann.target_states,
            )
        )

        assert eager == reference
        assert memoryless == reference
        assert recursive == reference
        assert ref_memoryless == reference
        if ann.lam is not None:
            assert len(reference) == count_distinct_shortest(
                graph, ann, ann.lam, t, ann.target_states
            )

    @given(small_instances())
    @settings(**_SETTINGS)
    def test_saturated_order_per_target(self, instance):
        """Multi-target mode: per-target order equality, packed vs
        oracle, eager and memoryless."""
        graph, nfa, s, _ = instance
        cq = compile_query(graph, nfa)
        ann = annotate(cq, s, saturate=True)
        ref_ann = annotate_reference(cq, s, saturate=True)
        trimmed = trim(graph, ann)
        ref_queues = trim_maps(graph, ref_ann)
        for v in graph.vertices():
            lam_v, states_v = ann.target_info(v)
            assert (lam_v, states_v) == ref_ann.target_info(v)
            got = _edges(
                enumerate_walks(graph, trimmed, lam_v, v, states_v)
            )
            want = _edges(
                enumerate_walks_recursive(
                    graph, ref_queues, lam_v, v, states_v
                )
            )
            assert got == want
            assert want == _edges(one_seek_per_output(partial(
                enumerate_walks, graph, trimmed, lam_v, v, states_v
            )))
