"""Snapshot files of durable graphs.

A snapshot captures the *compacted* state of a graph at a specific WAL
position: the file ``snapshot-<lsn 12 digits>.seg`` inside the WAL
directory holds the graph in the segment layout of
:mod:`repro.graph.segment` — the bytes ``Graph.to_shared`` publishes,
with ``TgtIdx`` and both label-indexed CSR views pre-built — plus the
watermark ``lsn`` in the segment's CRC'd meta.  The snapshot equals
the graph after applying WAL records 1..lsn, so recovery replays the
tail starting at exactly ``lsn + 1`` (and refuses — loudly — a log
that cannot provide that record; an off-by-one would silently
double-apply a batch).

This module only handles files: naming, listing, writing and reading
one.  A torn, bit-flipped or renamed snapshot fails
:func:`load_snapshot` and recovery falls back to an older one.  Files
of the retired JSON format (``snapshot-<lsn>.json``) are still listed,
and fail the same way.

Writes are atomic and durable: the bytes go to a ``*.tmp`` file that
is flushed and fsync'd, then :func:`os.replace`-d into place, and the
directory entry is fsync'd too — a crash leaves either the old
snapshot set or the old set plus one complete new file, never a torn
snapshot under the final name.
"""

from __future__ import annotations

import os
import re
from typing import List, Optional, Tuple

from repro.exceptions import SegmentError, WalError
from repro.graph.database import Graph
from repro.graph.segment import SegmentLayout, decode_into

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})\.(?:seg|json)$")


def snapshot_name(lsn: int) -> str:
    """File name of the snapshot at watermark ``lsn``."""
    return f"snapshot-{lsn:012d}.seg"


def write_snapshot(wal_dir: str, graph: Graph, lsn: int) -> str:
    """Atomically write ``graph`` as the snapshot at watermark ``lsn``.

    Returns the final path.  The graph must be compacted (edge ids
    dense, no tombstones) — callers snapshot either a base
    :class:`Graph` or the output of ``LiveGraph.to_graph()``.
    """
    try:
        layout = SegmentLayout(graph, lsn=lsn)
    except SegmentError as exc:
        raise WalError(f"cannot snapshot a durable graph: {exc}") from None
    data = bytearray(layout.size)
    layout.write_into(data)
    path = os.path.join(wal_dir, snapshot_name(lsn))
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(wal_dir)
    return path


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # Platforms without directory fds.
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def load_snapshot(path: str, lsn: int) -> Optional[Graph]:
    """The graph in the snapshot file ``path``, or ``None`` unless it
    decodes and its CRC'd watermark is ``lsn`` (a file renamed to lie
    about its watermark is refused like a corrupt one)."""
    graph = Graph.__new__(Graph)
    try:
        with open(path, "rb") as fh:
            _, meta, _ = decode_into(graph, fh.read())
    except (OSError, SegmentError):
        return None
    return graph if meta.get("lsn") == lsn else None


def list_snapshots(wal_dir: str) -> List[Tuple[int, str]]:
    """``(lsn, path)`` of every snapshot-named file, newest first."""
    found: List[Tuple[int, str]] = []
    try:
        entries = os.listdir(wal_dir)
    except FileNotFoundError:
        return []
    for entry in entries:
        match = _SNAPSHOT_RE.match(entry)
        if match:
            found.append((int(match.group(1)), os.path.join(wal_dir, entry)))
    found.sort(reverse=True)
    return found
