""":mod:`repro.wal` — durability: write-ahead log, snapshots, recovery, followers.

Why
---

:mod:`repro.live` (PR 4) made the graph mutable: atomic ``Delta``
batches, wire-serializable ops, a change feed — a write-ahead log in
all but name, except that a process death lost every applied batch.
This package closes that gap and adds the first multi-process story:
mutations survive crashes, and read replicas can tail the log.

Architecture
------------

::

    Database.mutate / LiveGraph.apply ── attach_wal hook ──┐
                                                           ▼
         wal_dir/wal.log         ◄── WalWriter (writer.py)
           <len>:<crc32>:<json>\\n      fsync policy: always | group | none
         wal_dir/snapshot-<lsn>.seg  ◄── written at each compaction
                                                           │
         recover() (recovery.py) = latest valid snapshot   │
             + replay of the WAL tail (frames.py scanner) ◄┘
                                                           │
         FollowerDatabase (follower.py) = recover + tail ──┘

**Logging before applying.**  :meth:`LiveGraph.attach_wal` installs a
duck-typed hook that :meth:`LiveGraph.apply` invokes inside its lock,
after batch validation, *before* the first state change: LSN order
equals apply order, only valid batches are logged, and a writer
failure aborts the batch with the graph untouched.  Compactions are
themselves WAL records — ``compact()`` renumbers edge ids
deterministically (ascending old-id order), so a replayer that
compacts at the same LSN resolves every later id-addressed op to the
same edge.  The compaction record is also where snapshots happen: the
record is fsync'd first, then the already-merged graph is written as
``snapshot-<lsn>.seg`` (atomic tmp + fsync + rename + dir fsync),
so a snapshot's watermark always names a durable log position.

**Snapshots** (:mod:`repro.wal.snapshot`) hold the graph in the
segment layout of :mod:`repro.graph.segment` — the bytes
``Graph.to_shared`` publishes, CSRs pre-built — with the watermark in
the CRC'd meta; recovery decodes them with the serving tier's decoder,
so edge ids and ``TgtIdx`` come back exactly.  Vertex names obey the
segment's one rule, checked before a batch is logged.

**Framing** (:mod:`repro.wal.frames`).  One record per line,
``<len>:<crc32-hex>:<compact json>\\n``.  A frame is valid only if
newline-terminated with matching length and CRC — torn writes,
truncations and bit flips at the tail are all detected, and the
scanner stops at the first invalid frame, never at a valid one.  A
*valid* frame with a non-contiguous LSN is different: that is log
surgery, not a crash artifact, and raises
:class:`~repro.exceptions.WalError`.

**Recovery** (:mod:`repro.wal.recovery`).  Load the newest snapshot
that validates *and* whose watermark the scanned log can continue
from (corrupt or too-new snapshots fall back to older ones, then to
empty + full replay); assert the first replayed record carries
exactly ``watermark + 1`` (the double-apply guard); replay batches
and compactions through the ordinary live-graph code paths.  The scan
validates every frame but keeps only the records past the newest
snapshot's watermark, so memory follows the replay tail, not the log;
falling back to an older snapshot re-scans for the longer tail.  The
result carries ``last_lsn`` and ``valid_offset`` so a writer can
truncate the torn tail and continue the log — which is exactly what
:meth:`repro.api.Database.open` does on restart.

**Followers** (:mod:`repro.wal.follower`).  A
:class:`FollowerDatabase` recovers once, then polls the log tail with
backoff, applying complete frames and retrying partial ones without
advancing.  Reads are served by an unmodified
:class:`repro.api.Database` over the replica's ``LiveGraph``, so the
façade's caches — including fine-grained footprint invalidation —
stay warm and coherent across catch-ups for free.

Entry points
------------

* ``Database.open(wal_dir, graph=...)`` — durable database (existing
  state wins over the bootstrap graph).
* ``Database.recover(wal_dir)`` — one-shot recovery, no writer.
* ``FollowerDatabase(wal_dir)`` — tailing read replica.
* CLI: ``repro batch/mutate --wal-dir``, ``repro recover``,
  ``repro follow``.

The fault-injection property suite (``tests/wal/test_crash_fuzz.py``,
env knobs ``WAL_FUZZ_SEED_BASE`` / ``WAL_FUZZ_CASES``) kills the log
at random byte offsets and diffs recovery against a
rebuild-from-scratch oracle and a full-scan reference recovery,
across the query modes.
"""

from repro.wal.follower import FollowerDatabase
from repro.wal.frames import (
    RECORD_VERSION,
    WalScan,
    encode_frame,
    iter_frames,
    scan_bytes,
    scan_file,
)
from repro.wal.recovery import RecoveredState, SnapshotLoad, recover
from repro.wal.snapshot import (
    list_snapshots,
    load_snapshot,
    snapshot_name,
    write_snapshot,
)
from repro.wal.writer import LOG_NAME, WalWriter

__all__ = [
    "FollowerDatabase",
    "LOG_NAME",
    "RECORD_VERSION",
    "RecoveredState",
    "SnapshotLoad",
    "WalScan",
    "WalWriter",
    "encode_frame",
    "iter_frames",
    "list_snapshots",
    "load_snapshot",
    "recover",
    "scan_bytes",
    "scan_file",
    "snapshot_name",
    "write_snapshot",
]
