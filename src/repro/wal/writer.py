"""The append side of the WAL: framing, fsync policy, snapshots.

:class:`WalWriter` owns the log file ``wal.log`` inside a WAL
directory.  It implements the duck-typed hook protocol of
:meth:`repro.live.LiveGraph.attach_wal` — ``log_batch(ops)`` /
``log_compaction(new_graph)`` — which the live graph invokes *inside
its apply lock, after validation, before any state change*: a batch is
durable (or at least queued per the sync policy) before it is visible,
and a writer failure aborts the batch with the graph untouched.

Sync policies (``sync=``):

``"always"``
    ``flush`` + ``fsync`` after every record — one batch, one disk
    barrier; maximum durability, maximum cost.
``"group"`` (default)
    group commit: every record is flushed to the OS, but ``fsync``
    runs at most once per ``group_window_ms`` — batches inside one
    window share a barrier.  A crash can lose at most the last
    window's worth of *acknowledged* batches; it can never corrupt
    the log (torn tails are detected and truncated by recovery).
``"none"``
    flush only; durability left to the OS.  For tests and bulk loads.
"""

from __future__ import annotations

import os
import time
from typing import Any, Optional, Sequence

from repro.exceptions import SegmentError, WalError
from repro.graph.segment import check_vertex_name
from repro.live.delta import AddEdge, AddVertex, Delta, op_to_dict
from repro.wal.frames import RECORD_VERSION, encode_frame
from repro.wal.snapshot import _fsync_dir, list_snapshots, write_snapshot

LOG_NAME = "wal.log"

_SYNC_MODES = ("always", "group", "none")

_null_registry = None


def _disabled_registry():
    """Shared disabled registry: null instruments for metrics=None."""
    global _null_registry
    if _null_registry is None:
        from repro.obs.metrics import MetricsRegistry

        _null_registry = MetricsRegistry(enabled=False)
    return _null_registry


def _check_ops_wire_safe(ops: Sequence[Delta]) -> None:
    """Fail a batch *before* logging when no snapshot could hold it.

    Vertex names reach the log and the snapshots through JSON; a tuple
    name would come back as a list after recovery, a NaN as a name no
    lookup finds.  The segment's one vertex-name rule applies at commit
    time rather than at (much later) snapshot or replay time.
    """
    try:
        for op in ops:
            if isinstance(op, AddVertex):
                check_vertex_name(op.name)
            elif isinstance(op, AddEdge):
                check_vertex_name(op.src)
                check_vertex_name(op.tgt)
    except SegmentError as exc:
        raise WalError(f"durable graphs refuse this batch: {exc}") from None


class WalWriter:
    """Appends framed records to ``<wal_dir>/wal.log``.

    ``start_lsn`` is the LSN of the last record already in the log and
    ``start_offset`` the byte length of its valid prefix (both come
    from recovery); the file is truncated to ``start_offset`` on open
    so a torn tail left by a crash never precedes fresh records.
    """

    def __init__(
        self,
        wal_dir: str,
        *,
        sync: str = "group",
        group_window_ms: float = 50.0,
        start_lsn: int = 0,
        start_offset: int = 0,
        metrics: Optional[Any] = None,
    ) -> None:
        if sync not in _SYNC_MODES:
            raise WalError(
                f"unknown sync mode {sync!r}; expected one of "
                f"{', '.join(_SYNC_MODES)}"
            )
        # Instruments resolve before the file opens: the torn-tail
        # truncation below already fsyncs.  With metrics=None these
        # are the shared null instruments (no-op methods).
        registry = metrics if metrics is not None else _disabled_registry()
        self._h_fsync = registry.histogram("wal.fsync_seconds")
        self._h_batch = registry.histogram(
            "wal.group_batch_size", bounds=(1, 2, 4, 8, 16, 32, 64, 128)
        )
        self._c_torn = registry.counter("wal.torn_tail_truncations")
        self._records_since_sync = 0
        os.makedirs(wal_dir, exist_ok=True)
        self.wal_dir = wal_dir
        self.path = os.path.join(wal_dir, LOG_NAME)
        self.sync = sync
        self.group_window = max(group_window_ms, 0.0) / 1000.0
        self._fh = open(self.path, "ab")
        size = self._fh.tell()
        if size < start_offset:
            self._fh.close()
            raise WalError(
                f"WAL file {self.path} is {size} bytes, shorter than "
                f"its recovered valid prefix ({start_offset}) — the "
                f"log was modified behind recovery's back"
            )
        if size > start_offset:
            # Drop the torn tail (or any bytes past the valid prefix)
            # before appending, so the log stays a clean frame stream.
            self._c_torn.inc()
            self._fh.truncate(start_offset)
            self._fh.seek(start_offset)
            self._fsync()
        # A snapshot whose watermark is AHEAD of the log head belongs
        # to a timeline a truncation discarded.  It must go before any
        # append: new records will reuse those LSNs for a *different*
        # history, and a later recovery would otherwise trust the
        # stale snapshot at its (now colliding) watermark.
        stale = [
            path for lsn, path in list_snapshots(wal_dir) if lsn > start_lsn
        ]
        for path in stale:
            try:
                os.unlink(path)
            except OSError:
                pass
        if stale:
            _fsync_dir(wal_dir)
        self._last_lsn = start_lsn
        self._last_fsync = time.monotonic()
        self._pending_sync = False
        self._closed = False

    # -- introspection ------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended (or recovered) record."""
        return self._last_lsn

    @property
    def closed(self) -> bool:
        return self._closed

    # -- appending ----------------------------------------------------

    def _append(self, record: dict) -> int:
        if self._closed:
            raise WalError("WAL writer is closed")
        frame = encode_frame(record)
        self._fh.write(frame)
        self._commit()
        self._last_lsn = record["lsn"]
        return self._last_lsn

    def _commit(self) -> None:
        self._records_since_sync += 1
        self._fh.flush()
        if self.sync == "always":
            self._fsync()
        elif self.sync == "group":
            now = time.monotonic()
            if now - self._last_fsync >= self.group_window:
                self._fsync()
            else:
                self._pending_sync = True

    def _fsync(self) -> None:
        t0 = time.perf_counter()
        os.fsync(self._fh.fileno())
        self._h_fsync.observe(time.perf_counter() - t0)
        if self._records_since_sync:
            # Records sharing this barrier — the group-commit batch.
            self._h_batch.observe(self._records_since_sync)
            self._records_since_sync = 0
        self._last_fsync = time.monotonic()
        self._pending_sync = False

    def append_batch(self, ops: Sequence[Delta]) -> int:
        """Log one atomic batch; returns its LSN."""
        ops = tuple(ops)
        _check_ops_wire_safe(ops)
        return self._append(
            {
                "v": RECORD_VERSION,
                "lsn": self._last_lsn + 1,
                "kind": "batch",
                "ops": [op_to_dict(op) for op in ops],
            }
        )

    def append_compaction(self, graph: Optional[Any] = None) -> int:
        """Log a compaction point; returns its LSN.

        When ``graph`` (the already-compacted state, i.e.
        ``LiveGraph.to_graph()``) is provided, a snapshot at this LSN
        is written too — the record goes first and is fsync'd
        unconditionally, so the snapshot's watermark always refers to
        a durable log position.
        """
        lsn = self._append(
            {"v": RECORD_VERSION, "lsn": self._last_lsn + 1, "kind": "compact"}
        )
        self._fsync()
        if graph is not None:
            write_snapshot(self.wal_dir, graph, lsn)
        return lsn

    # -- the LiveGraph hook protocol ----------------------------------

    def log_batch(self, ops: Sequence[Delta]) -> None:
        self.append_batch(ops)

    def log_compaction(self, new_graph: Any) -> None:
        self.append_compaction(new_graph)

    # -- lifecycle ----------------------------------------------------

    def sync_now(self) -> None:
        """Force an fsync (drains a pending group-commit window)."""
        if not self._closed:
            self._fh.flush()
            self._fsync()

    def close(self) -> None:
        """Flush, fsync and close the log file (idempotent)."""
        if self._closed:
            return
        try:
            self._fh.flush()
            if self.sync != "none" or self._pending_sync:
                os.fsync(self._fh.fileno())
        finally:
            self._closed = True
            self._fh.close()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
