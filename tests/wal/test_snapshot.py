"""Unit tests for snapshot files (:mod:`repro.wal.snapshot`).

A snapshot file holds the graph segment of :mod:`repro.graph.segment`,
so a round trip keeps every column exactly — edge ids, ``TgtIdx``,
label tuples, costs and both label-indexed CSRs — not merely the same
multigraph up to renumbering.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.exceptions import SegmentError, ShmError, WalError
from repro.graph.database import Graph
from repro.graph.segment import HEADER, SegmentLayout, check_vertex_name
from repro.wal.recovery import _pick_snapshot
from repro.wal.snapshot import (
    list_snapshots,
    load_snapshot,
    snapshot_name,
    write_snapshot,
)
from tests.conftest import small_graphs

_NEWEST = 10**9  # A log head past every watermark below.


def _graph(costs=None) -> Graph:
    return Graph(
        vertex_names=["v0", "v1", "v2"],
        label_names=["a", "b"],
        src=[0, 1, 2],
        tgt=[1, 2, 0],
        labels=[(0,), (1,), (0, 1)],
        costs=costs,
    )


def _columns(graph: Graph):
    """Every column a reader consumes, exactly as stored."""
    return {
        "vertices": [
            (type(graph.vertex_name(v)), graph.vertex_name(v))
            for v in graph.vertices()
        ],
        "labels": graph.alphabet,
        "src": list(graph.src_array),
        "tgt": list(graph.tgt_array),
        "tgt_idx": list(graph.tgt_idx_array),
        "lbl": graph.label_array,
        "cost": list(graph.cost_array) if graph.has_costs else None,
        "out_csr": [list(buf) for buf in graph.out_csr],
        "in_csr": [list(buf) for buf in graph.in_csr],
        "out": graph.out_array,
        "in": graph.in_array,
    }


def _pick(wal_dir: str):
    return _pick_snapshot(list_snapshots(wal_dir), _NEWEST)


def test_round_trip(tmp_path) -> None:
    g = _graph()
    path = write_snapshot(str(tmp_path), g, 7)
    assert os.path.basename(path) == snapshot_name(7) == "snapshot-000000000007.seg"
    loaded = load_snapshot(path, 7)
    assert loaded is not None
    assert _columns(loaded) == _columns(g)
    assert not loaded.has_costs


def test_round_trip_with_costs(tmp_path) -> None:
    g = _graph(costs=[3, 1, 2])
    path = write_snapshot(str(tmp_path), g, 1)
    loaded = load_snapshot(path, 1)
    assert loaded.has_costs
    assert _columns(loaded) == _columns(g)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(graph=small_graphs())
def test_random_graphs_keep_every_column(tmp_path, graph) -> None:
    path = write_snapshot(str(tmp_path), graph, 5)
    assert _columns(load_snapshot(path, 5)) == _columns(graph)


def test_non_string_vertex_names_survive(tmp_path) -> None:
    # graph_to_dict would stringify these; the segment must not.
    g = Graph(
        vertex_names=[0, 1, None, 2.5, True],
        label_names=["a"],
        src=[0],
        tgt=[1],
        labels=[(0,)],
    )
    path = write_snapshot(str(tmp_path), g, 3)
    assert _columns(load_snapshot(path, 3)) == _columns(g)


def test_tuple_vertex_name_rejected(tmp_path) -> None:
    g = Graph(
        vertex_names=[("p", 1), "v1"],
        label_names=["a"],
        src=[0],
        tgt=[1],
        labels=[(0,)],
    )
    with pytest.raises(WalError):
        write_snapshot(str(tmp_path), g, 1)
    # And nothing was left under the final name.
    assert list_snapshots(str(tmp_path)) == []


def test_one_vertex_name_rule(tmp_path) -> None:
    """The segment's rule is the only one: shared memory and snapshot
    files refuse exactly the names it refuses."""
    for ok in ("x", 7, 1.5, True, None):
        check_vertex_name(ok)
    for bad in ((1, 2), frozenset({1}), math.nan, math.inf, -math.inf):
        with pytest.raises(SegmentError):
            check_vertex_name(bad)
        g = Graph(
            vertex_names=[bad, "v1"], label_names=["a"],
            src=[0], tgt=[1], labels=[(0,)],
        )
        with pytest.raises(WalError):
            write_snapshot(str(tmp_path), g, 1)
        with pytest.raises(ShmError, match="vertex names"):
            g.to_shared()
    assert list_snapshots(str(tmp_path)) == []


def test_no_tmp_artifacts(tmp_path) -> None:
    write_snapshot(str(tmp_path), _graph(), 2)
    assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []


def test_corrupt_newest_falls_back_to_older(tmp_path) -> None:
    g = _graph()
    write_snapshot(str(tmp_path), g, 2)
    newest = write_snapshot(str(tmp_path), g, 5)
    with open(newest, "r+b") as fh:
        fh.seek(HEADER.size + 10)  # Inside the meta blob.
        fh.write(b"X")
    assert load_snapshot(newest, 5) is None
    assert _pick(str(tmp_path)).lsn == 2


def test_truncated_newest_falls_back(tmp_path) -> None:
    write_snapshot(str(tmp_path), _graph(), 1)
    newest = write_snapshot(str(tmp_path), _graph(), 4)
    data = Path(newest).read_bytes()
    with open(newest, "wb") as fh:
        fh.write(data[: len(data) // 2])
    assert _pick(str(tmp_path)).lsn == 1


def test_renamed_snapshot_is_skipped(tmp_path) -> None:
    # A file lying about its watermark via its name must not win.
    path = write_snapshot(str(tmp_path), _graph(), 3)
    renamed = os.path.join(str(tmp_path), snapshot_name(9))
    os.rename(path, renamed)
    assert load_snapshot(renamed, 9) is None
    assert _pick(str(tmp_path)) is None


def test_crc_covers_body(tmp_path) -> None:
    """The watermark lives in the CRC'd meta: rewriting it in place
    (same length, still valid JSON) is refused at either value."""
    path = write_snapshot(str(tmp_path), _graph(), 3)
    blob = Path(path).read_bytes()
    assert blob.count(b'"lsn":3') == 1
    with open(path, "wb") as fh:
        fh.write(blob.replace(b'"lsn":3', b'"lsn":4'))
    assert load_snapshot(path, 3) is None
    assert load_snapshot(path, 4) is None


def test_bytes_outside_the_crcs_change_nothing(tmp_path) -> None:
    """The epoch word, ``flags``, ``reserved`` and the padding before
    the data region carry no meaning: a flipped byte there decodes to
    the same graph."""
    g = _graph(costs=[3, 1, 2])
    path = write_snapshot(str(tmp_path), g, 6)
    blob = Path(path).read_bytes()
    meta_end = HEADER.size + HEADER.unpack_from(blob, 0)[4]
    padding = list(range(meta_end, (meta_end + 7) & ~7))
    for pos in [16, 23, 12, 36, *padding]:  # epoch, flags, reserved.
        flipped = bytearray(blob)
        flipped[pos] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(flipped)
        assert _columns(load_snapshot(path, 6)) == _columns(g), pos


def test_crc_valid_but_broken_file_is_refused(tmp_path) -> None:
    """The decoder checks what the CRCs cannot: a file whose CRCs match
    but whose edge points past the vertex table is skipped like a
    corrupt one."""
    g = _graph()
    layout = SegmentLayout(g, lsn=2)
    dict(layout.columns)["src"][0] = 7  # |V| = 3
    data = bytearray(layout.size)
    layout.write_into(data)
    path = os.path.join(str(tmp_path), snapshot_name(2))
    with open(path, "wb") as fh:
        fh.write(data)
    assert load_snapshot(path, 2) is None


def test_old_json_snapshot_is_listed_and_refused(tmp_path) -> None:
    """A snapshot of the retired JSON format is listed, so it can never
    be silently ignored, and fails decoding like any corrupt file."""
    path = os.path.join(str(tmp_path), "snapshot-000000000000.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format": "repro-wal-snapshot", "v": 1, "lsn": 0}, fh)
    assert list_snapshots(str(tmp_path)) == [(0, path)]
    assert load_snapshot(path, 0) is None


def test_list_snapshots_newest_first(tmp_path) -> None:
    for lsn in (1, 9, 4):
        write_snapshot(str(tmp_path), _graph(), lsn)
    assert [lsn for lsn, _ in list_snapshots(str(tmp_path))] == [9, 4, 1]


def test_missing_dir_is_empty(tmp_path) -> None:
    assert list_snapshots(str(tmp_path / "nope")) == []
    assert load_snapshot(str(tmp_path / "nope" / snapshot_name(0)), 0) is None
