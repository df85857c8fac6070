"""Unit tests for crash recovery (:mod:`repro.wal.recovery`)."""

from __future__ import annotations

import json
import os
import time
import zlib
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import Database
from repro.exceptions import WalError
from repro.live.delta import AddEdge, AddVertex, RemoveEdge, SetEdgeLabels
from repro.live.live_graph import LiveGraph
from repro.wal.frames import encode_frame
from repro.wal.recovery import recover
from repro.wal.snapshot import snapshot_name, write_snapshot
from repro.wal import writer as wal_writer
from repro.wal.writer import LOG_NAME, WalWriter


def _log_path(wal_dir) -> str:
    return os.path.join(str(wal_dir), LOG_NAME)


def _rendered(live: LiveGraph):
    """Name-wise view of the live graph — ids differ across rebuilds."""
    g = live.to_graph()
    edges = sorted(
        (
            g.vertex_name(g.src(e)),
            g.vertex_name(g.tgt(e)),
            tuple(g.label_names_of(e)),
            g.cost(e) if g.has_costs else None,
        )
        for e in g.edges()
    )
    names = sorted((g.vertex_name(v) for v in g.vertices()), key=repr)
    return names, edges


def test_missing_dir_is_loud(tmp_path) -> None:
    with pytest.raises(WalError):
        recover(str(tmp_path / "nope"))


def test_empty_dir_recovers_empty(tmp_path) -> None:
    state = recover(str(tmp_path))
    assert state.last_lsn == 0
    assert state.snapshot_lsn == 0
    assert state.graph.to_graph().edge_count == 0
    assert not state.torn_tail


def test_log_only_replay(tmp_path) -> None:
    live = LiveGraph()
    with WalWriter(str(tmp_path), sync="none") as writer:
        live.attach_wal(writer)
        live.apply([AddEdge("a", "b", ("x",))])
        live.apply([AddEdge("b", "c", ("y",)), AddVertex("lonely")])
    state = recover(str(tmp_path))
    assert state.last_lsn == 2
    assert state.snapshot_lsn == 0
    assert state.replayed_batches == 2
    assert _rendered(state.graph) == _rendered(live)


def test_snapshot_plus_tail(tmp_path) -> None:
    live = LiveGraph()
    with WalWriter(str(tmp_path), sync="none") as writer:
        live.attach_wal(writer)
        live.apply([AddEdge("a", "b", ("x",))])
        live.compact()  # Snapshot at lsn 2.
        live.apply([AddEdge("b", "c", ("y",))])
    state = recover(str(tmp_path))
    assert state.snapshot_lsn == 2
    assert state.last_lsn == 3
    assert state.replayed_batches == 1
    assert state.replayed_compactions == 0
    assert _rendered(state.graph) == _rendered(live)


def test_compaction_replay_keeps_edge_ids_consistent(tmp_path) -> None:
    """Id-addressed ops after a compaction must resolve identically."""
    live = LiveGraph()
    with WalWriter(str(tmp_path), sync="none") as writer:
        live.attach_wal(writer)
        live.apply(
            [
                AddEdge("a", "b", ("x",)),
                AddEdge("b", "c", ("y",)),
                AddEdge("c", "a", ("x", "y")),
            ]
        )
        live.apply([RemoveEdge(1)])
        live.compact()  # Renumbers: surviving edges become 0, 1.
        live.apply([SetEdgeLabels(1, ("z",))])
    # Remove the snapshot so recovery must REPLAY the compact record
    # (not start after it) and still resolve edge id 1 the same way.
    os.unlink(os.path.join(str(tmp_path), snapshot_name(3)))
    state = recover(str(tmp_path))
    assert state.replayed_compactions == 1
    assert _rendered(state.graph) == _rendered(live)


def test_torn_tail_is_tolerated_and_reported(tmp_path) -> None:
    live = LiveGraph()
    with WalWriter(str(tmp_path), sync="none") as writer:
        live.attach_wal(writer)
        live.apply([AddEdge("a", "b", ("x",))])
    with open(_log_path(tmp_path), "ab") as fh:
        fh.write(b"999:00000000:{torn")
    state = recover(str(tmp_path))
    assert state.last_lsn == 1
    assert state.torn_tail
    assert state.valid_offset < os.path.getsize(_log_path(tmp_path))


def test_snapshot_ahead_of_truncated_log_is_skipped(tmp_path) -> None:
    live = LiveGraph()
    with WalWriter(str(tmp_path), sync="none") as writer:
        live.attach_wal(writer)
        live.apply([AddEdge("a", "b", ("x",))])
        live.apply([AddEdge("b", "c", ("y",))])
        live.compact()  # Snapshot at lsn 3.
    # Truncate the log below the snapshot watermark: the log is the
    # source of truth, so recovery must fall back to replaying it.
    data = Path(_log_path(tmp_path)).read_bytes()
    first_end = data.index(b"\n") + 1
    with open(_log_path(tmp_path), "wb") as fh:
        fh.write(data[:first_end])
    state = recover(str(tmp_path))
    assert state.snapshot_lsn == 0
    assert state.last_lsn == 1
    g = state.graph.to_graph()
    assert g.edge_count == 1


def test_corrupt_snapshot_falls_back_to_replay(tmp_path) -> None:
    live = LiveGraph()
    with WalWriter(str(tmp_path), sync="none") as writer:
        live.attach_wal(writer)
        live.apply([AddEdge("a", "b", ("x",))])
        live.compact()
    snap = os.path.join(str(tmp_path), snapshot_name(2))
    with open(snap, "r+b") as fh:
        fh.seek(5)
        fh.write(b"X")
    state = recover(str(tmp_path))
    assert state.snapshot_lsn == 0  # Fell back to empty + full replay.
    assert state.last_lsn == 2
    assert _rendered(state.graph) == _rendered(live)


def test_recovery_keeps_only_the_replay_tail(tmp_path, monkeypatch) -> None:
    """A log of 40 batches, a snapshot, then 3 more: recovery holds the
    3 tail records, not the whole log — and re-scans for the longer
    tail only when it has to fall back to an older snapshot."""
    import repro.wal.recovery as recovery

    kept = []
    scan_file = recovery.scan_file

    def counting(*args, **kwargs):
        scan = scan_file(*args, **kwargs)
        kept.append(len(scan.records))
        return scan

    monkeypatch.setattr(recovery, "scan_file", counting)
    live = LiveGraph()
    with WalWriter(str(tmp_path), sync="none") as writer:
        live.attach_wal(writer)
        for i in range(40):
            live.apply([AddEdge(f"v{i}", f"v{i + 1}", ("x",))])
        live.compact()  # Snapshot at lsn 41.
        for i in range(3):
            live.apply([AddEdge(f"w{i}", f"v{i}", ("y",))])
    state = recover(str(tmp_path))
    assert (state.snapshot_lsn, state.last_lsn) == (41, 44)
    assert state.replayed_batches == 3
    assert kept == [3]
    assert _rendered(state.graph) == _rendered(live)

    kept.clear()
    snap = os.path.join(str(tmp_path), snapshot_name(41))
    with open(snap, "rb") as fh:
        blob = bytearray(fh.read())
    os.unlink(snap)
    state = recover(str(tmp_path))
    assert state.snapshot_lsn == 0 and state.replayed_batches == 43
    assert kept == [44]  # No snapshot left: one scan keeps everything.
    assert _rendered(state.graph) == _rendered(live)

    kept.clear()
    blob[5] ^= 0xFF
    with open(snap, "wb") as fh:
        fh.write(blob)
    state = recover(str(tmp_path))
    assert state.snapshot_lsn == 0
    assert kept == [3, 44]  # The corrupt newest snapshot costs a re-scan.
    assert _rendered(state.graph) == _rendered(live)


def test_corrupt_bootstrap_snapshot_is_loud(tmp_path) -> None:
    """Losing the lsn-0 snapshot must not silently recover empty.

    The bootstrap snapshot is the only record of the state the
    database was seeded with — the log starts *after* it.  When it is
    corrupt and no other snapshot validates, "empty + full replay"
    would silently drop the seed data, so recovery refuses instead.
    """
    base = LiveGraph()
    base.apply([AddEdge("seed", "data", ("x",))])
    write_snapshot(str(tmp_path), base.to_graph(), 0)
    with WalWriter(str(tmp_path), sync="none") as writer:
        writer.append_batch([AddVertex("later")])
    snap = os.path.join(str(tmp_path), snapshot_name(0))
    with open(snap, "r+b") as fh:
        fh.seek(5)
        fh.write(b"X")
    with pytest.raises(WalError, match="bootstrap"):
        recover(str(tmp_path))


def test_old_json_bootstrap_is_loud(tmp_path) -> None:
    """A directory whose only bootstrap is a snapshot of the retired
    JSON format must not recover by replaying onto an empty base: the
    file is listed, fails decoding, and recovery refuses — as does
    reopening the directory."""
    document = {
        "format": "repro-wal-snapshot", "v": 1, "lsn": 0,
        "vertices": ["seed", "data"], "labels": ["x"],
        "edges": [{"src": 0, "tgt": 1, "labels": [0]}],
        "counts": {"vertices": 2, "edges": 1, "labels": 1},
    }
    # The old format's own CRC: the file was valid where it was written.
    canonical = json.dumps(document, separators=(",", ":"), sort_keys=True)
    document["crc"] = f"{zlib.crc32(canonical.encode()):08x}"
    with open(os.path.join(str(tmp_path), "snapshot-000000000000.json"), "w") as fh:
        json.dump(document, fh)
    with WalWriter(str(tmp_path), sync="none") as writer:
        writer.append_batch([AddVertex("later")])
    with pytest.raises(WalError, match="bootstrap"):
        recover(str(tmp_path))
    with pytest.raises(WalError, match="bootstrap"):
        Database.open(str(tmp_path))


def test_log_surgery_is_loud(tmp_path) -> None:
    """A log with a missing record must not replay off by one.

    Replay must start at exactly ``watermark + 1``: a hole in the LSN
    sequence (here lsn 2 was cut out, leaving a snapshot at watermark
    1 that the remaining log cannot continue from) raises instead of
    silently skipping a committed batch.
    """
    live = LiveGraph()
    with WalWriter(str(tmp_path), sync="none") as writer:
        live.attach_wal(writer)
        live.apply([AddEdge("a", "b", ("x",))])  # lsn 1
        live.apply([AddEdge("b", "c", ("y",))])  # lsn 2
        live.apply([AddEdge("c", "d", ("x",))])  # lsn 3
    write_snapshot(str(tmp_path), live.to_graph(), 1)
    data = Path(_log_path(tmp_path)).read_bytes()
    frames = data.splitlines(keepends=True)
    surgery = frames[0] + encode_frame(
        {"v": 1, "lsn": 3, "kind": "batch", "ops": []}
    )
    with open(_log_path(tmp_path), "wb") as fh:
        fh.write(surgery)
    with pytest.raises(WalError):
        recover(str(tmp_path))


def test_unreplayable_record_is_wrapped(tmp_path) -> None:
    with open(_log_path(tmp_path), "wb") as fh:
        fh.write(
            encode_frame(
                {
                    "v": 1,
                    "lsn": 1,
                    "kind": "batch",
                    "ops": [{"op": "remove_edge", "edge": 99}],
                }
            )
        )
    with pytest.raises(WalError, match="failed to replay"):
        recover(str(tmp_path))


def test_writer_truncates_torn_tail_on_reopen(tmp_path) -> None:
    live = LiveGraph()
    with WalWriter(str(tmp_path), sync="none") as writer:
        live.attach_wal(writer)
        live.apply([AddEdge("a", "b", ("x",))])
    with open(_log_path(tmp_path), "ab") as fh:
        fh.write(b"junk after the valid prefix")
    state = recover(str(tmp_path))
    assert state.torn_tail
    writer = WalWriter(
        str(tmp_path),
        sync="none",
        start_lsn=state.last_lsn,
        start_offset=state.valid_offset,
    )
    live2 = state.graph
    live2.attach_wal(writer)
    live2.apply([AddEdge("b", "c", ("y",))])
    writer.close()
    clean = recover(str(tmp_path))
    assert clean.last_lsn == 2
    assert not clean.torn_tail


def test_stale_future_snapshot_is_discarded_on_reopen(tmp_path) -> None:
    """A snapshot ahead of a truncated log must not survive a reopen.

    After the log is cut below a compaction snapshot's watermark,
    continuing the log reuses those LSNs for a *different* history; if
    the stale snapshot stayed, a later recovery would trust it at its
    (colliding) watermark and resurrect discarded state.
    """
    live = LiveGraph()
    with WalWriter(str(tmp_path), sync="none") as writer:
        live.attach_wal(writer)
        live.apply([AddEdge("a", "b", ("x",))])  # lsn 1
        live.apply([AddEdge("b", "c", ("y",))])  # lsn 2
        live.compact()                           # lsn 3 + snapshot-3
    # Fault: lose everything after the first record.
    data = Path(_log_path(tmp_path)).read_bytes()
    with open(_log_path(tmp_path), "wb") as fh:
        fh.write(data[: data.index(b"\n") + 1])
    state = recover(str(tmp_path))
    assert state.last_lsn == 1
    # Continue the log on the new timeline: lsns 2 and 3 get new ops.
    writer = WalWriter(
        str(tmp_path),
        sync="none",
        start_lsn=state.last_lsn,
        start_offset=state.valid_offset,
    )
    assert os.path.basename(snapshot_name(3)) not in os.listdir(
        str(tmp_path)
    )
    live2 = state.graph
    live2.attach_wal(writer)
    live2.apply([AddEdge("x", "y", ("z",))])  # lsn 2
    live2.apply([AddEdge("y", "z", ("z",))])  # lsn 3
    writer.close()
    again = recover(str(tmp_path))
    assert again.snapshot_lsn == 0  # Never the dead timeline's 3.
    assert _rendered(again.graph) == _rendered(live2)


def test_writer_refuses_shrunken_log(tmp_path) -> None:
    with WalWriter(str(tmp_path), sync="none") as writer:
        writer.append_batch([AddVertex("a")])
    with pytest.raises(WalError, match="behind recovery"):
        WalWriter(str(tmp_path), start_lsn=5, start_offset=10_000)


@pytest.mark.parametrize("sync, barriers", [("group", 1), ("always", 5)])
def test_batches_inside_one_window_share_one_fsync(
    tmp_path, monkeypatch, sync, barriers
) -> None:
    """Group commit, counted: with the writer's clock faked, five
    batches inside one 50 ms window make one ``os.fsync`` under
    ``"group"`` (the first batch, a window after the open) and five
    under ``"always"``; closing syncs the group's pending four."""
    clock = [0.0]
    monkeypatch.setattr(
        wal_writer,
        "time",
        SimpleNamespace(monotonic=lambda: clock[0],
                        perf_counter=time.perf_counter),
    )
    writer = WalWriter(str(tmp_path), sync=sync, group_window_ms=50.0)
    fsyncs = []
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fsync(fd)))
    for i in range(5):
        clock[0] = 0.050 + 0.009 * i  # [50 ms, 86 ms]: one window.
        writer.append_batch([AddVertex(f"v{i}")])
    assert len(fsyncs) == barriers
    writer.close()
    assert len(fsyncs) == barriers + 1
    assert recover(str(tmp_path)).last_lsn == 5
