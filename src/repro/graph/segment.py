"""The graph segment: one binary layout of an immutable :class:`Graph`.

Shared memory (:mod:`repro.serve.shm`) publishes it and the WAL's
snapshot files (:mod:`repro.wal.snapshot`) hold it on disk; this
module owns its bytes.  A segment starts with a fixed 40-byte header::

    offset  0   magic      8 bytes  b"RPQSHM01"
    offset  8   version    u32      LAYOUT_VERSION
    offset 12   flags      u32      reserved, 0
    offset 16   epoch      u64      mutation epoch (mutable in place)
    offset 24   meta_len   u32      length of the JSON meta blob
    offset 28   meta_crc   u32      crc32 of the meta blob
    offset 32   data_crc   u32      crc32 of the packed data region
    offset 36   reserved   u32      0

followed by ``meta_len`` bytes of UTF-8 JSON meta, then (8-byte
aligned) the packed ``'q'`` data region.  The meta blob carries the
interned vertex/label name tables, the counts, a snapshot's ``lsn``
watermark (``null`` in shared memory), and a ``segments`` table
mapping segment name → ``[offset relative to the data region, item
count]`` for:

``src`` / ``tgt`` / ``tgt_idx``
    the edge-indexed endpoint columns (``cost`` too when the graph
    carries explicit costs),
``lbl_indptr`` / ``lbl_payload``
    ``Lbl(e)`` as a CSR over edge ids (payload = sorted label ids),
``out_indptr`` / ``out_payload`` and ``in_indptr`` / ``in_payload``
    the two label-indexed CSR adjacency views of
    :attr:`repro.graph.Graph.out_csr` / ``in_csr`` (bucket
    ``a·|V| + v``), stored pre-built so a reader never pays the O(|D|)
    counting sort.  The successor tuples :attr:`repro.graph.Graph.succ`
    are Python objects, not columns: a reader derives them from the
    out-CSR on first use.

Only CRC'd bytes carry meaning.  The epoch word, ``flags``,
``reserved`` and the alignment padding lie outside both CRCs, so the
owner of a shared block bumps the epoch in place, and a flipped byte
there decodes to the same graph.

:class:`SegmentLayout` plans a graph's segment so the caller can size
its target (a shared-memory block, a ``bytearray`` bound for disk) and
lay the columns straight into it; :func:`decode_into` validates a
segment and fills a graph's slots with zero-copy ``'q'`` casts over
it.  Vertex names travel in the JSON meta, so
:func:`check_vertex_name` is the rule every shared or durable graph's
names obey.
"""

from __future__ import annotations

import json
import math
import struct
import threading
import zlib
from array import array
from typing import Dict, Hashable, Optional, Tuple

from repro.exceptions import GraphError, SegmentError
from repro.graph.database import Graph, build_adjacency, check_endpoints

MAGIC = b"RPQSHM01"
LAYOUT_VERSION = 1

#: magic, version, flags, epoch, meta_len, meta_crc, data_crc, reserved
HEADER = struct.Struct("<8sIIQIIII")
_EPOCH_OFFSET = 16
_EPOCH_WORD = struct.Struct("<Q")

#: Flat buffers stored per graph, in layout order.  ``cost`` is
#: present only when the graph carries explicit costs.
COLUMNS = (
    "src",
    "tgt",
    "tgt_idx",
    "cost",
    "lbl_indptr",
    "lbl_payload",
    "out_indptr",
    "out_payload",
    "in_indptr",
    "in_payload",
)

_SCALARS = (str, int, float, bool, type(None))


def check_vertex_name(name: Hashable) -> None:
    """The one vertex-name rule of a segment: a JSON scalar that the
    meta blob gives back equal and of the same type.

    That is a ``str``, ``int``, ``bool``, ``None`` or finite ``float``
    (subclasses excluded): a tuple would come back as a list, NaN as a
    name no lookup finds.  Raises :class:`SegmentError`.
    """
    if type(name) not in _SCALARS or (
        type(name) is float and not math.isfinite(name)
    ):
        raise SegmentError(
            "vertex names must round-trip through JSON exactly "
            "(str/int/bool/None or a finite float); got "
            f"{type(name).__name__}: {name!r}"
        )


def _align8(n: int) -> int:
    return (n + 7) & ~7


class SegmentLayout:
    """One graph planned as a segment: its meta blob, columns and size.

    Planning fixes every byte's position before any is written, so the
    caller allocates :attr:`size` bytes and :meth:`write_into` lays the
    columns straight into them.  ``lsn`` goes into the CRC'd meta.
    """

    __slots__ = ("columns", "meta", "data_start", "data_size", "size")

    def __init__(self, graph: Graph, lsn: Optional[int] = None) -> None:
        names = [graph.vertex_name(v) for v in graph.vertices()]
        for name in names:
            check_vertex_name(name)

        lbl_indptr = array("q", [0]) * (graph.edge_count + 1)
        lbl_payload = array("q")
        total = 0
        for e, labels in enumerate(graph.label_array):
            total += len(labels)
            lbl_indptr[e + 1] = total
            lbl_payload.extend(labels)
        out_indptr, out_payload = graph.out_csr
        in_indptr, in_payload = graph.in_csr
        buffers = {
            "src": graph.src_array,
            "tgt": graph.tgt_array,
            "tgt_idx": graph.tgt_idx_array,
            "lbl_indptr": lbl_indptr,
            "lbl_payload": lbl_payload,
            "out_indptr": out_indptr,
            "out_payload": out_payload,
            "in_indptr": in_indptr,
            "in_payload": in_payload,
        }
        if graph.has_costs:
            buffers["cost"] = graph.cost_array
        self.columns = [(k, buffers[k]) for k in COLUMNS if k in buffers]

        segments: Dict[str, list] = {}
        self.data_size = 0
        for key, column in self.columns:
            segments[key] = [self.data_size, len(column)]
            self.data_size += 8 * len(column)
        meta = {
            "vertices": names,
            "labels": list(graph.alphabet),
            "edge_count": graph.edge_count,
            "has_costs": graph.has_costs,
            "lsn": lsn,
            "segments": segments,
        }
        self.meta = json.dumps(meta, separators=(",", ":")).encode()
        self.data_start = _align8(HEADER.size + len(self.meta))
        self.size = self.data_start + max(self.data_size, 8)

    def write_into(self, buf, epoch: int = 0) -> None:
        """Lay the segment into ``buf`` (writable, ≥ :attr:`size` bytes)."""
        with memoryview(buf) as view:
            pos = self.data_start
            for _, column in self.columns:
                n = 8 * len(column)
                if n:
                    view[pos:pos + n] = memoryview(column).cast("B")
                pos += n
            meta_end = HEADER.size + len(self.meta)
            view[HEADER.size:meta_end] = self.meta
            data_crc = zlib.crc32(
                view[self.data_start:self.data_start + self.data_size]
            )
            HEADER.pack_into(
                view, 0, MAGIC, LAYOUT_VERSION, 0, epoch, len(self.meta),
                zlib.crc32(self.meta), data_crc, 0,
            )


def read_epoch(buf) -> int:
    """The header's epoch word (outside both CRCs)."""
    return _EPOCH_WORD.unpack_from(buf, _EPOCH_OFFSET)[0]


def write_epoch(buf, epoch: int) -> None:
    """Overwrite the header's epoch word in place."""
    _EPOCH_WORD.pack_into(buf, _EPOCH_OFFSET, epoch)


def decode_into(
    graph: Graph, buf
) -> Tuple[int, dict, Dict[str, memoryview]]:
    """Validate the segment in ``buf`` and fill every slot of ``graph``.

    Checks magic, layout version, truncation, the meta CRC and the
    data CRC, then that the columns match the counts and every edge
    endpoint is a vertex.  The edge columns and both CSRs become
    zero-copy ``'q'`` casts over ``buf``; the name tables, the label
    tuples and ``Out``/``In`` are rebuilt (O(|D|)).

    Returns ``(epoch, meta, views)``: ``views`` holds every
    ``memoryview`` now pinning ``buf``, for a caller that must release
    them before it unmaps.  On failure they are released already and
    :class:`SegmentError` is raised.
    """
    views: Dict[str, memoryview] = {}
    try:
        epoch, meta = _decode(graph, buf, views)
    except (
        SegmentError, GraphError, AttributeError, IndexError, KeyError,
        TypeError, ValueError,
    ) as exc:
        for view in views.values():
            view.release()
        if isinstance(exc, SegmentError):
            raise
        raise SegmentError(f"malformed segment: {exc!r}") from exc
    return epoch, meta, views


def _decode(graph: Graph, buf, views: Dict[str, memoryview]):
    if len(buf) < HEADER.size:
        raise SegmentError("segment too small to hold a header")
    magic, version, _, epoch, meta_len, meta_crc, data_crc, _ = (
        HEADER.unpack_from(buf, 0)
    )
    if magic != MAGIC:
        raise SegmentError(f"bad magic {magic!r}: not a repro graph segment")
    if version != LAYOUT_VERSION:
        raise SegmentError(
            f"unsupported segment layout version {version} "
            f"(this build reads {LAYOUT_VERSION})"
        )
    meta_end = HEADER.size + meta_len
    if meta_end > len(buf):
        raise SegmentError("truncated segment: meta blob overruns the block")
    meta_bytes = bytes(buf[HEADER.size:meta_end])
    if zlib.crc32(meta_bytes) != meta_crc:
        raise SegmentError("header CRC mismatch: torn or corrupt segment")
    meta = json.loads(meta_bytes)

    # The parent view rides in ``views`` so that it is released too.
    data = views["__data__"] = memoryview(buf)
    start = _align8(meta_end)
    segments = meta["segments"]
    size = max((rel + 8 * n for rel, n in segments.values()), default=0)
    if start + size > len(buf):
        raise SegmentError("truncated segment: data region overruns block")
    if zlib.crc32(data[start:start + size]) != data_crc:
        raise SegmentError("data CRC mismatch: torn or corrupt segment")
    for key, (rel, n) in segments.items():
        views[key] = data[start + rel:start + rel + 8 * n].cast("q")

    names = tuple(meta["vertices"])
    labels = tuple(meta["labels"])
    n_e = meta["edge_count"]
    ptr = views["lbl_indptr"].tolist()
    incidences = ptr[n_e]
    buckets = len(labels) * len(names) + 1
    expected = {
        "src": n_e, "tgt": n_e, "tgt_idx": n_e, "lbl_indptr": n_e + 1,
        "lbl_payload": incidences, "out_indptr": buckets,
        "out_payload": incidences, "in_indptr": buckets,
        "in_payload": incidences,
    }
    if meta["has_costs"]:
        expected["cost"] = n_e
    if {k: len(views[k]) for k in segments} != expected:
        raise SegmentError("segment columns do not match its counts")
    src, tgt = views["src"], views["tgt"]
    check_endpoints(src, tgt, len(names))

    graph._vertex_names = names
    graph._vertex_ids = {v: i for i, v in enumerate(names)}
    graph._label_names = labels
    graph._label_ids = {a: i for i, a in enumerate(labels)}
    graph._src, graph._tgt = src, tgt
    graph._tgt_idx = views["tgt_idx"]
    graph._costs = views.get("cost")
    payload = views["lbl_payload"].tolist()
    graph._labels = tuple(
        tuple(payload[i:j]) for i, j in zip(ptr, ptr[1:])
    )
    graph._out, graph._in = build_adjacency(src, tgt, len(names))
    graph._out_csr = (views["out_indptr"], views["out_payload"])
    graph._in_csr = (views["in_indptr"], views["in_payload"])
    graph._out_label_tuples = graph._in_label_tuples = graph._succ = None
    graph._cost_cache = None
    graph._lazy_lock = threading.Lock()
    return epoch, meta
