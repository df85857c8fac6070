"""Segment mechanics: header validation, CRC, epochs, cleanup, reclaim."""

from __future__ import annotations

import struct
from multiprocessing import shared_memory

import pytest

from repro import DistinctShortestWalks
from repro.exceptions import ShmError
from repro.graph.builder import GraphBuilder
from repro.graph.database import Graph
from repro.live import LiveGraph
from repro.serve.shm import (
    _HEADER,
    GraphSegment,
    attach,
    default_segment_name,
)


@pytest.fixture
def demo_graph() -> Graph:
    builder = GraphBuilder()
    builder.add_edge("A", "B", ["h"])
    builder.add_edge("B", "C", ["s"])
    builder.add_edge("A", "C", ["h", "s"])
    return builder.build()


def test_attach_missing_name_raises() -> None:
    with pytest.raises(ShmError, match="no shared graph segment"):
        attach(default_segment_name())


def test_attach_rejects_bad_magic() -> None:
    name = default_segment_name()
    block = shared_memory.SharedMemory(name=name, create=True, size=128)
    try:
        block.buf[: _HEADER.size] = b"\xde" * _HEADER.size
        with pytest.raises(ShmError, match="bad magic"):
            attach(name)
    finally:
        block.close()
        block.unlink()


def test_attach_rejects_unsupported_version(demo_graph: Graph) -> None:
    with demo_graph.to_shared() as segment:
        raw = shared_memory.SharedMemory(name=segment.name)
        try:
            struct.pack_into("<I", raw.buf, 8, 99)  # version field
            with pytest.raises(ShmError, match="layout version"):
                attach(segment.name)
        finally:
            raw.close()


def test_attach_rejects_corrupt_meta(demo_graph: Graph) -> None:
    with demo_graph.to_shared() as segment:
        raw = shared_memory.SharedMemory(name=segment.name)
        try:
            raw.buf[_HEADER.size] ^= 0xFF  # first meta byte
            with pytest.raises(ShmError, match="header CRC"):
                attach(segment.name)
        finally:
            raw.close()


def test_attach_rejects_corrupt_data(demo_graph: Graph) -> None:
    with demo_graph.to_shared() as segment:
        raw = shared_memory.SharedMemory(name=segment.name)
        try:
            raw.buf[len(raw.buf) - 1] ^= 0xFF  # last data byte
            with pytest.raises(ShmError, match="data CRC"):
                attach(segment.name)
        finally:
            raw.close()


def test_epoch_bump_marks_attached_readers_stale(demo_graph: Graph) -> None:
    with demo_graph.to_shared() as segment:
        shared = segment.attach()
        try:
            assert shared.attached_epoch == 0
            assert shared.current_epoch() == 0
            assert not shared.is_stale()
            assert segment.bump_epoch() == 1
            assert shared.current_epoch() == 1
            assert shared.is_stale()
        finally:
            shared.detach()
        with pytest.raises(ShmError, match="detached"):
            shared.current_epoch()


def _successors_of(graph: Graph):
    """``succ`` read back off the point accessors."""
    return [
        [
            tuple(graph.tgt(e) for e in graph.out_by_label(v, a))
            for v in graph.vertices()
        ]
        for a in range(graph.label_count)
    ]


def test_reattached_reader_derives_the_new_epochs_successors(
    demo_graph: Graph,
) -> None:
    """A reader's successor tuples are derived from the segment it maps:
    after the owner republishes a mutated graph as the next epoch, the
    stale reader re-attaches and its ``succ`` is the new segment's — a
    new vertex and edge included — and ``detach`` drops the old ones."""
    live = LiveGraph(demo_graph)
    live.add_edge("C", "D", ["h"])
    live.add_edge("A", "D", ["s", "h"])
    mutated = live.to_graph()
    with demo_graph.to_shared() as first:
        shared = first.attach()
        try:
            assert list(map(list, shared.succ)) == _successors_of(demo_graph)
            with GraphSegment.create(mutated, epoch=1) as second:
                first.bump_epoch()
                assert shared.is_stale()
                shared.detach()
                assert shared._index is None
                shared = second.attach()
                assert shared.attached_epoch == 1
                got = list(map(list, shared.succ))
                assert got == _successors_of(mutated) == _successors_of(shared)
                assert got[mutated.label_id("h")][mutated.vertex_id("C")] == (
                    mutated.vertex_id("D"),
                )
                shared.detach()
        finally:
            shared.detach()


def test_close_unlinks_and_is_idempotent(demo_graph: Graph) -> None:
    segment = demo_graph.to_shared()
    name = segment.name
    segment.close(unlink=True)
    segment.close(unlink=True)  # second close is a no-op
    with pytest.raises(ShmError, match="no shared graph segment"):
        attach(name)
    with pytest.raises(ShmError, match="closed"):
        segment.bump_epoch()


def test_detach_is_idempotent(demo_graph: Graph) -> None:
    with demo_graph.to_shared() as segment:
        shared = segment.attach()
        shared.detach()
        shared.detach()


def test_a_detached_graph_answers_nothing() -> None:
    """Detaching empties the edge columns, so a detached graph must not
    answer from what is left: a query, a point read and every label
    index read raise ``ShmError`` instead of an empty answer or an edge
    the graph no longer counts.  ``repr`` still works."""
    builder = GraphBuilder()
    builder.add_edge("A", "B", ["a"])
    builder.add_edge("B", "C", ["a"])
    with builder.build().to_shared() as segment:
        shared = segment.attach()
        walks = DistinctShortestWalks(shared, "a*", "A", "C").enumerate()
        assert [w.edges for w in walks] == [(0, 1)]
        shared.detach()
        with pytest.raises(ShmError, match="detached"):
            DistinctShortestWalks(shared, "a*", "A", "C").lam
        for read in (
            lambda: shared.out_edges(0),
            lambda: shared.in_by_label(2, 0),
            lambda: shared.out_labels(0),
            lambda: shared.in_csr,
            lambda: shared.out_csr,
            lambda: shared.succ,
        ):
            with pytest.raises(ShmError, match="detached"):
                read()
        assert "detached" in repr(shared)


def test_create_reclaims_stale_block(demo_graph: Graph) -> None:
    """A leftover block under the target name is unlinked, not an error."""
    name = default_segment_name()
    litter = shared_memory.SharedMemory(name=name, create=True, size=64)
    litter.buf[:4] = b"junk"
    litter.close()  # handle closed, block still registered: a "crash"
    segment = GraphSegment.create(demo_graph, name=name)
    try:
        shared = attach(name)
        try:
            assert shared.edge_count == demo_graph.edge_count
        finally:
            shared.detach()
    finally:
        segment.close(unlink=True)


def test_to_shared_rejects_unrepresentable_names() -> None:
    builder = GraphBuilder()
    builder.add_vertex(("tuple", "name"))
    graph = builder.build()
    with pytest.raises(ShmError, match="vertex names"):
        graph.to_shared()


def test_segment_survives_many_readers(demo_graph: Graph) -> None:
    with demo_graph.to_shared() as segment:
        readers = [segment.attach() for _ in range(4)]
        try:
            for reader in readers:
                assert list(reader.src_array) == list(demo_graph.src_array)
        finally:
            for reader in readers:
                reader.detach()
