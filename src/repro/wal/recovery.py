"""Crash recovery: latest valid snapshot + WAL tail replay.

:func:`recover` rebuilds the graph state a WAL directory describes:

1. scan ``wal.log`` for its valid frame prefix (stopping at the first
   torn/corrupt frame — never at a valid one — and remembering the
   byte offset of the cut), keeping only the records past the newest
   snapshot's watermark: every frame is validated, but the log's
   replayed prefix is never held in memory;
2. pick the newest snapshot that validates **and** whose watermark the
   scanned log can actually continue from (a snapshot ahead of the
   log's last valid LSN is skipped: the log is the source of truth for
   what committed) — falling back to an older one, or to none,
   re-scans the log for the longer tail;
3. replay the records after the watermark, in LSN order, through
   :func:`replay_record` — the ordinary :meth:`LiveGraph.apply` /
   :meth:`LiveGraph.compact`, the same code paths that produced them,
   so replay is deterministic down to edge-id renumbering at
   compaction points.

The watermark contiguity assert (step 3's precondition) is the guard
against the silent double-apply hazard: the first replayed record
must carry exactly ``snapshot.lsn + 1``.  Off-by-one here would
re-apply a batch the snapshot already contains (or skip one), so a
mismatch raises :class:`~repro.exceptions.WalError` instead of
guessing.

The returned :class:`RecoveredState` carries everything a writer
needs to *continue* the log safely — ``last_lsn`` to number the next
record and ``valid_offset`` to truncate a torn tail before appending.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ReproError, WalError
from repro.graph.database import Graph
from repro.live.delta import ops_from_dicts
from repro.live.live_graph import LiveGraph
from repro.wal.frames import scan_file
from repro.wal.snapshot import list_snapshots, load_snapshot
from repro.wal.writer import LOG_NAME


@dataclass
class SnapshotLoad:
    """A decoded snapshot: the graph state after WAL records 1..lsn."""

    graph: Graph
    lsn: int
    path: str


@dataclass
class RecoveredState:
    """Outcome of :func:`recover` — a live graph plus log geometry."""

    #: The recovered graph: the snapshot, with the tail replayed onto it.
    graph: LiveGraph
    #: LSN of the last valid record (0 for an empty log, no snapshot).
    last_lsn: int
    #: Watermark of the snapshot recovery started from (0 = none/empty).
    snapshot_lsn: int
    #: Batch records replayed after the snapshot.
    replayed_batches: int
    #: Compaction records replayed after the snapshot.
    replayed_compactions: int
    #: Byte offset right after the last valid frame in ``wal.log``.
    valid_offset: int
    #: True when invalid bytes (a torn tail) follow ``valid_offset``.
    torn_tail: bool


def _pick_snapshot(
    snapshots: List[Tuple[int, str]], last_lsn: int
) -> Optional[SnapshotLoad]:
    """Newest valid snapshot a log ending at ``last_lsn`` can replay from.

    Beyond decoding (:func:`load_snapshot`), the snapshot's watermark
    must not exceed the log's last valid LSN: a snapshot *ahead* of
    the log (possible when the log was truncated by a fault after the
    snapshot was written) cannot be trusted to match any committed
    prefix, so recovery falls back to an older snapshot — or to empty
    + full replay.
    """
    for lsn, path in snapshots:
        graph = load_snapshot(path, lsn) if lsn <= last_lsn else None
        if graph is not None:
            return SnapshotLoad(graph=graph, lsn=lsn, path=path)
    return None


def replay_record(live: LiveGraph, record: Dict[str, Any]) -> None:
    """Apply one record that :func:`~repro.wal.frames.checked_frames`
    passed to ``live``: a batch through :meth:`LiveGraph.apply`, a
    compaction through :meth:`LiveGraph.compact`.

    A record that fails to replay raises
    :class:`~repro.exceptions.WalError` naming its LSN: a CRC-valid
    record the log committed must replay, so its failure is damage,
    whether recovery or a follower meets it.
    """
    try:
        if record["kind"] == "batch":
            live.apply(ops_from_dicts(record.get("ops", [])))
        else:  # "compact" — checked_frames rejected every other kind.
            live.compact()
    except WalError:
        raise
    except ReproError as exc:
        raise WalError(
            f"WAL record lsn {record['lsn']} failed to replay: {exc}"
        ) from exc


def recover(wal_dir: str) -> RecoveredState:
    """Rebuild the state of ``wal_dir`` (see module docstring).

    Raises :class:`~repro.exceptions.WalError` for structural damage
    recovery must not paper over (non-contiguous LSNs, a watermark the
    log cannot continue from, a record that fails to replay); torn or
    corrupt *tail* frames are tolerated by construction.
    """
    if not os.path.isdir(wal_dir):
        raise WalError(f"not a WAL directory: {wal_dir!r}")
    log = os.path.join(wal_dir, LOG_NAME)
    snapshots = list_snapshots(wal_dir)
    # One pass keeps only what the newest snapshot lacks; falling back
    # to an older one re-scans for the longer tail.
    newest = snapshots[0][0] if snapshots else 0
    scan = scan_file(log, keep_after=newest)
    snapshot = _pick_snapshot(snapshots, scan.last_lsn)

    if snapshot is not None:
        live = LiveGraph(snapshot.graph)
        watermark = snapshot.lsn
    else:
        if any(lsn == 0 for lsn, _ in snapshots):
            # A bootstrap snapshot exists but nothing validates: the
            # state the database was seeded with predates the log, so
            # "empty + full replay" would silently drop it.  Loud.
            raise WalError(
                f"no snapshot in {wal_dir!r} validates, and the "
                f"bootstrap snapshot (lsn 0) cannot be reconstructed "
                f"from the log — refusing to recover a partial state"
            )
        live = LiveGraph()
        watermark = 0
    if watermark < newest:
        scan = scan_file(log, keep_after=watermark)

    tail = scan.records
    if tail and tail[0]["lsn"] != watermark + 1:
        # The double-apply guard (scan contiguity makes this
        # unreachable for a log starting at LSN 1, but a trimmed or
        # hand-edited log must fail loudly, not replay off by one).
        raise WalError(
            f"snapshot watermark is {watermark} but the first WAL "
            f"record past it has lsn {tail[0]['lsn']}; replay must "
            f"start at exactly {watermark + 1}"
        )

    for record in tail:
        replay_record(live, record)
    compactions = sum(record["kind"] == "compact" for record in tail)

    return RecoveredState(
        graph=live,
        last_lsn=scan.last_lsn,
        snapshot_lsn=watermark,
        replayed_batches=len(tail) - compactions,
        replayed_compactions=compactions,
        valid_offset=scan.valid_offset,
        torn_tail=scan.torn,
    )
