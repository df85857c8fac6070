"""Unit tests for the tailing read replica (:mod:`repro.wal.follower`)."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.api import Database
from repro.exceptions import WalError
from repro.live.delta import AddEdge
from repro.live.live_graph import LiveGraph
from repro.wal.follower import FollowerDatabase
from repro.wal.frames import encode_frame
from repro.wal.recovery import recover
from repro.wal.writer import LOG_NAME, WalWriter


def _leader(tmp_path):
    live = LiveGraph()
    writer = WalWriter(str(tmp_path), sync="none")
    live.attach_wal(writer)
    return live, writer


def test_initial_catch_up_from_recovery(tmp_path) -> None:
    live, writer = _leader(tmp_path)
    live.apply([AddEdge("a", "b", ("x",))])
    live.apply([AddEdge("b", "c", ("y",))])
    writer.sync_now()
    follower = FollowerDatabase(str(tmp_path))
    assert follower.last_lsn == 2
    assert follower.graph.to_graph().edge_count == 2
    writer.close()


def test_tailing_new_records(tmp_path) -> None:
    live, writer = _leader(tmp_path)
    live.apply([AddEdge("a", "b", ("x",))])
    writer.sync_now()
    follower = FollowerDatabase(str(tmp_path))
    assert follower.catch_up() == 0  # Already current.
    live.apply([AddEdge("b", "c", ("y",))])
    live.apply([AddEdge("c", "a", ("x",))])
    writer.sync_now()
    assert follower.catch_up() == 2
    assert follower.last_lsn == 3
    assert follower.graph.to_graph().edge_count == 3
    writer.close()


def test_partial_frame_retried_without_advancing(tmp_path) -> None:
    live, writer = _leader(tmp_path)
    live.apply([AddEdge("a", "b", ("x",))])
    writer.sync_now()
    follower = FollowerDatabase(str(tmp_path))
    offset_before = follower.offset

    # Simulate the leader mid-write: half a frame on disk.
    frame = encode_frame({"v": 1, "lsn": 2, "kind": "batch", "ops": []})
    path = os.path.join(str(tmp_path), LOG_NAME)
    writer.close()
    with open(path, "ab") as fh:
        fh.write(frame[: len(frame) // 2])
    assert follower.catch_up() == 0
    assert follower.offset == offset_before  # Did not advance.

    with open(path, "ab") as fh:
        fh.write(frame[len(frame) // 2:])
    assert follower.catch_up() == 1
    assert follower.last_lsn == 2


def test_compaction_records_are_followed(tmp_path) -> None:
    live, writer = _leader(tmp_path)
    live.apply([AddEdge("a", "b", ("x",)), AddEdge("b", "c", ("y",))])
    writer.sync_now()
    follower = FollowerDatabase(str(tmp_path))
    live.compact()
    live.apply([AddEdge("c", "a", ("z",))])
    writer.sync_now()
    assert follower.catch_up() == 2
    assert follower.graph.to_graph().edge_count == 3
    writer.close()


def test_wait_for(tmp_path) -> None:
    live, writer = _leader(tmp_path)
    live.apply([AddEdge("a", "b", ("x",))])
    writer.sync_now()
    follower = FollowerDatabase(str(tmp_path), poll_interval=0.005)
    assert follower.wait_for(1, timeout=0.5)
    assert not follower.wait_for(2, timeout=0.05)
    live.apply([AddEdge("b", "c", ("y",))])
    writer.sync_now()
    assert follower.wait_for(2, timeout=0.5)
    writer.close()


def test_run_bounds(tmp_path) -> None:
    live, writer = _leader(tmp_path)
    live.apply([AddEdge("v0", "v1", ("x",))])
    writer.sync_now()
    follower = FollowerDatabase(str(tmp_path), poll_interval=0.005)
    # Recovery already caught everything; run() observes no new records
    # and returns at the duration bound.
    assert follower.run(duration=0.02) == 0
    for i in range(1, 3):
        live.apply([AddEdge(f"v{i}", f"v{i + 1}", ("x",))])
    writer.sync_now()
    assert follower.run(max_records=2) == 2
    assert follower.last_lsn == 3
    writer.close()


def test_replaced_log_is_loud(tmp_path) -> None:
    live, writer = _leader(tmp_path)
    live.apply([AddEdge("a", "b", ("x",))])
    live.apply([AddEdge("b", "c", ("y",))])
    writer.sync_now()
    follower = FollowerDatabase(str(tmp_path))
    writer.close()
    # Rewrite the log with a different history: the follower's offset
    # now points into a stream whose next record is not last_lsn + 1.
    path = os.path.join(str(tmp_path), LOG_NAME)
    data = Path(path).read_bytes()
    with open(path, "wb") as fh:
        fh.write(data + encode_frame({"v": 1, "lsn": 9, "kind": "batch"}))
    with pytest.raises(WalError, match="no longer continues"):
        follower.catch_up()


def test_unreplayable_record_raises_as_recovery_does(tmp_path) -> None:
    """A CRC-valid record that fails to replay is the same
    :class:`WalError` at a follower as at recovery, and the follower
    stays at the record before it."""
    live, writer = _leader(tmp_path)
    live.apply([AddEdge("a", "b", ("x",))])
    writer.sync_now()
    follower = FollowerDatabase(str(tmp_path))
    writer.close()
    offset_before = follower.offset
    with open(os.path.join(str(tmp_path), LOG_NAME), "ab") as fh:
        fh.write(encode_frame({
            "v": 1, "lsn": 2, "kind": "batch",
            "ops": [{"op": "remove_edge", "edge": 99}],
        }))
    with pytest.raises(WalError, match="lsn 2 failed to replay") as tailed:
        follower.catch_up()
    with pytest.raises(WalError) as recovered:
        recover(str(tmp_path))
    assert str(tailed.value) == str(recovered.value)
    assert (follower.last_lsn, follower.offset) == (1, offset_before)


def _rendered(graph, edges):
    return tuple(
        (
            str(graph.vertex_name(graph.src(e))),
            str(graph.vertex_name(graph.tgt(e))),
            graph.label_names_of(e),
        )
        for e in edges
    )


def test_reads_match_leader(tmp_path) -> None:
    live, writer = _leader(tmp_path)
    live.apply(
        [
            AddEdge("a", "b", ("x",)),
            AddEdge("b", "c", ("x",)),
            AddEdge("a", "c", ("y",)),
        ]
    )
    writer.sync_now()
    follower = FollowerDatabase(str(tmp_path))

    frozen = live.to_graph()
    oracle = Database(frozen)
    want = oracle.query("x x | y").from_("a").to("c").run()
    got = follower.query("x x | y").from_("a").to("c").run()
    assert got.lam == want.lam
    assert [
        _rendered(follower.graph, row.walk.edges) for row in got
    ] == [_rendered(frozen, row.walk.edges) for row in want]
    writer.close()


def test_missing_log_is_quiet(tmp_path) -> None:
    follower = FollowerDatabase(str(tmp_path))
    assert follower.catch_up() == 0
    assert follower.last_lsn == 0
