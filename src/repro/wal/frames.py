"""Record framing for the write-ahead log.

The WAL is a JSONL file of **framed** records: one record per line,

    <len>:<crc>:<payload>\\n

where ``payload`` is the record's compact JSON (no raw newlines — the
JSON encoder escapes them), ``len`` its byte length in decimal and
``crc`` the ``zlib.crc32`` of the payload bytes as 8 hex digits.  A
frame is *valid* only when the line is newline-terminated, the header
parses, the declared length matches the payload and the CRC checks
out — so a torn write (partial line at the tail), a truncation mid
frame and a flipped byte are all detected, and the scanner stops at
the **first invalid frame, never at a valid one**.

Record payloads are dictionaries carrying

* ``v`` — the WAL record schema version (:data:`RECORD_VERSION`);
  unknown fields on records stamped with a newer version are ignored,
  mirroring the tolerant op reader of :mod:`repro.live.delta`;
* ``lsn`` — the record's log sequence number (monotonic, gap-free,
  starting at 1; contiguity is checked by :func:`checked_frames`,
  which recovery and the follower both read through, because a
  valid-CRC frame with a hole in the LSN sequence means log surgery,
  not a torn write, and must be loud);
* ``kind`` — ``"batch"`` (``ops`` holds the wire-form mutation ops of
  one atomic :class:`~repro.live.delta.Delta` batch) or ``"compact"``
  (the graph's edge ids renumbered at this point; replay must run
  :meth:`~repro.live.live_graph.LiveGraph.compact`, which renumbers
  deterministically, so later id-addressed ops keep meaning the same
  edges).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

from repro.exceptions import WalError, is_int

#: WAL record schema version (independent of the op wire version).
RECORD_VERSION = 1

#: The record kinds this reader knows how to replay.
KINDS = ("batch", "compact")


def encode_frame(record: Dict[str, Any]) -> bytes:
    """One framed line for ``record`` (raises ``WalError`` when the
    record does not survive JSON — a non-serializable value would
    otherwise poison the log for every later reader)."""
    try:
        payload = json.dumps(
            record, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WalError(f"record is not JSON-serializable: {exc}") from None
    return b"%d:%08x:%s\n" % (len(payload), zlib.crc32(payload), payload)


def _parse_frame(line: bytes) -> Dict[str, Any]:
    """The record of one complete line, or ``None`` when invalid."""
    head, sep, rest = line.partition(b":")
    if not sep or not head.isdigit():
        return None
    crc_hex, sep, payload = rest.partition(b":")
    if not sep or len(crc_hex) != 8:
        return None
    try:
        declared_len = int(head)
        declared_crc = int(crc_hex, 16)
    except ValueError:
        return None
    if len(payload) != declared_len:
        return None
    if zlib.crc32(payload) != declared_crc:
        return None
    try:
        record = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    lsn = record.get("lsn")
    if not is_int(lsn) or lsn < 1:
        return None
    version = record.get("v")
    if not is_int(version) or version < 1:
        return None
    return record


def iter_frames(
    data: bytes, offset: int = 0
) -> Iterator[Tuple[Dict[str, Any], int]]:
    """Yield ``(record, end_offset)`` for every valid frame in order.

    Stops silently at the first invalid or incomplete frame (torn
    tail); ``end_offset`` is the byte position right after the frame's
    newline — the resume point for a tailing reader.
    """
    while True:
        newline = data.find(b"\n", offset)
        if newline < 0:
            return
        record = _parse_frame(data[offset:newline])
        if record is None:
            return
        offset = newline + 1
        yield record, offset


@dataclass
class WalScan:
    """Outcome of scanning one WAL file."""

    #: The valid records past the scan's ``keep_after``, in log order.
    records: List[Dict[str, Any]]
    #: Byte offset right after the last valid frame.
    valid_offset: int
    #: True when bytes (torn/corrupt frames) follow ``valid_offset``.
    torn: bool
    #: LSN of the last valid record, kept or not (0 for none).
    last_lsn: int


def checked_frames(
    data: bytes, start_lsn: int = 0
) -> Iterator[Tuple[Dict[str, Any], int]]:
    """:func:`iter_frames`, checked for replay.

    ``start_lsn`` is the LSN the log is expected to continue from
    (records at or below it would be duplicates).  The first record
    must carry ``start_lsn + 1`` and every later one the predecessor's
    LSN + 1, and each must be of a kind in :data:`KINDS`.  A valid
    frame out of sequence raises :class:`~repro.exceptions.WalError`
    (CRC-valid frames do not appear out of order by accident), and so
    does one this reader cannot replay — before it is yielded.
    """
    expected = start_lsn + 1
    for record, end in iter_frames(data):
        lsn = record["lsn"]
        if lsn != expected:
            raise WalError(
                f"WAL record lsn {lsn} where lsn {expected} was "
                f"expected: the log no longer continues from lsn "
                f"{expected - 1} (was it rewritten, or the WAL "
                f"directory replaced?)"
            )
        kind = record.get("kind")
        if kind not in KINDS:
            if record.get("v", 1) > RECORD_VERSION:
                raise WalError(
                    f"WAL record lsn {lsn} has kind {kind!r} from a "
                    f"newer schema (v={record.get('v')}); this reader "
                    f"cannot replay it"
                )
            raise WalError(
                f"WAL record lsn {lsn} has unknown kind {kind!r}; "
                f"expected one of {', '.join(KINDS)}"
            )
        yield record, end
        expected = lsn + 1


def scan_bytes(
    data: bytes, *, start_lsn: int = 0, keep_after: int = 0
) -> WalScan:
    """Scan a WAL byte string through :func:`checked_frames`.

    Every frame is validated, but only records with an LSN above
    ``keep_after`` are kept: recovery keeps the replay tail past a
    snapshot's watermark, not the whole log.
    """
    records: List[Dict[str, Any]] = []
    valid_offset = last_lsn = 0
    for record, end in checked_frames(data, start_lsn):
        if record["lsn"] > keep_after:
            records.append(record)
        valid_offset, last_lsn = end, record["lsn"]
    return WalScan(
        records=records,
        valid_offset=valid_offset,
        torn=valid_offset < len(data),
        last_lsn=last_lsn,
    )


def scan_file(path, *, start_lsn: int = 0, keep_after: int = 0) -> WalScan:
    """:func:`scan_bytes` over a file; a missing file is an empty log."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return WalScan(records=[], valid_offset=0, torn=False, last_lsn=0)
    return scan_bytes(data, start_lsn=start_lsn, keep_after=keep_after)
