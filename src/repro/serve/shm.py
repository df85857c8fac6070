"""Shared-memory segment layout for zero-copy graph serving.

One published graph = one named ``multiprocessing.shared_memory``
block.  The block starts with a fixed 40-byte header::

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
interned vertex/label name tables, the counts, and a ``segments``
table mapping segment name → ``[offset relative to the data region,
item count]`` for:

``src`` / ``tgt`` / ``tgt_idx``
    the edge-indexed endpoint columns (``cost`` too when the graph
    carries explicit costs),
``lbl_indptr`` / ``lbl_payload``
    ``Lbl(e)`` as a CSR over edge ids (payload = sorted label ids),
``out_indptr`` / ``out_payload`` and ``in_indptr`` / ``in_payload``
    the two label-indexed CSR adjacency views of
    :attr:`repro.graph.Graph.out_csr` / ``in_csr`` (bucket
    ``a·|V| + v``), published pre-built so attaching workers never pay
    the O(|D|) counting sort.

Everything after the epoch word is immutable for the lifetime of the
segment: a mutation produces a *new* segment (see
:mod:`repro.serve.server`) and bumps the old segment's epoch word so a
straggling reader can detect that it is stale.  ``meta_crc`` guards
the header against torn/garbage blocks; ``data_crc`` guards the
payload.

The owner side is :class:`GraphSegment` (created by
:meth:`Graph.to_shared`); readers use :func:`attach` (via
:meth:`Graph.from_shared`) and get a :class:`SharedGraph` — a real
:class:`~repro.graph.database.Graph` whose flat buffers are
``memoryview`` casts over the block, so the annotate/trim/enumerate
hot loops run on shared pages without copying.  Owner cleanup is
belt-and-braces: ``close(unlink=True)``, an ``atexit`` sweep of every
still-open owned segment, and create-time reclaim of a stale block
left behind under the same name by a crashed run.
"""

from __future__ import annotations

import atexit
import json
import os
import struct
import threading
import uuid
import zlib
from array import array
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ShmError
from repro.graph.database import Graph, build_adjacency

MAGIC = b"RPQSHM01"
LAYOUT_VERSION = 1

#: magic, version, flags, epoch, meta_len, meta_crc, data_crc, reserved
_HEADER = struct.Struct("<8sIIQIIII")
_EPOCH_OFFSET = 16
_EPOCH_WORD = struct.Struct("<Q")

#: Flat buffers published per graph, in layout order.  ``cost`` is
#: present only when the graph carries explicit costs.
_SEGMENT_ORDER = (
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


def default_segment_name() -> str:
    """A collision-resistant default shm name for one publication."""
    return f"repro-{os.getpid():x}-{uuid.uuid4().hex[:12]}"


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _as_byte_view(buf) -> memoryview:
    """A flat unsigned-byte view over any ``'q'`` buffer (zero-copy)."""
    return memoryview(buf).cast("B")


def _attach_raw(name: str, track: bool = True) -> shared_memory.SharedMemory:
    """Open an existing block, optionally without tracker registration.

    On 3.11 the attach side of ``SharedMemory`` registers the block
    with the ``resource_tracker`` as if it owned it.  Inside the
    serving tier that is harmless — forked workers share the owner's
    tracker, so the registration is an idempotent set-add and the
    tracker doubles as SIGKILL litter collection.  An attacher from an
    *unrelated* process tree has its own tracker, which would unlink
    the segment out from under the owner when that process exits; such
    callers pass ``track=False`` to drop the registration again.
    """
    seg = shared_memory.SharedMemory(name=name)
    if not track:
        try:  # pragma: no cover - tracker internals vary across versions
            from multiprocessing import resource_tracker

            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:
            pass
    return seg


# -- owner side -------------------------------------------------------------

#: Owned, still-open segments; swept by the ``atexit`` hook so owner
#: crashes short of SIGKILL do not leak /dev/shm blocks.
_OWNED: Dict[int, "GraphSegment"] = {}
_OWNED_LOCK = threading.Lock()


def _cleanup_owned() -> None:  # pragma: no cover - exercised in subprocess
    for segment in list(_OWNED.values()):
        try:
            segment.close(unlink=True)
        except Exception:
            pass


atexit.register(_cleanup_owned)


def _pack_meta(graph: Graph) -> Tuple[dict, Dict[str, object]]:
    """The JSON meta dict (sans segment table) plus the data buffers."""
    names = tuple(graph.vertex_name(v) for v in graph.vertices())
    try:
        vertices = json.loads(json.dumps(list(names), allow_nan=False))
    except (TypeError, ValueError) as exc:
        raise ShmError(
            "to_shared needs JSON-internable vertex names "
            f"(str/int/float/bool/None): {exc}"
        ) from None
    if tuple(vertices) != names:
        raise ShmError(
            "vertex names do not survive the JSON interning table "
            "round-trip; rename them to str/int/float/bool/None"
        )

    lbl_indptr = array("q", [0]) * (graph.edge_count + 1)
    lbl_payload = array("q")
    total = 0
    for e, labels in enumerate(graph.label_array):
        total += len(labels)
        lbl_indptr[e + 1] = total
        lbl_payload.extend(labels)

    out_indptr, out_payload = graph.out_csr
    in_indptr, in_payload = graph.in_csr
    buffers: Dict[str, object] = {
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

    meta = {
        "vertices": vertices,
        "labels": list(graph.alphabet),
        "edge_count": graph.edge_count,
        "has_costs": graph.has_costs,
    }
    return meta, buffers


class GraphSegment:
    """Owner handle for one published shared-memory graph.

    Create with :meth:`create` (or ``Graph.to_shared``).  The owner —
    and only the owner — unlinks the block: explicitly via
    :meth:`close`, or implicitly through the module's ``atexit``
    sweep.  Readers attach by name with :func:`attach`.
    """

    def __init__(
        self, seg: shared_memory.SharedMemory, name: str, epoch: int
    ) -> None:
        self._seg = seg
        self._name = name
        self._epoch = epoch
        self._closed = False
        with _OWNED_LOCK:
            _OWNED[id(self)] = self

    @classmethod
    def create(
        cls,
        graph: Graph,
        name: Optional[str] = None,
        epoch: int = 0,
    ) -> "GraphSegment":
        """Publish ``graph`` under ``name`` (default: fresh unique name).

        A stale block already registered under ``name`` — the litter of
        a crashed previous run — is unlinked and the name reused rather
        than erroring the new start.
        """
        name = name or default_segment_name()
        meta, buffers = _pack_meta(graph)

        # Segment offsets are relative to the data region, so the meta
        # blob (and hence the region's absolute start) is fixed before
        # any byte is laid out.
        segments: Dict[str, List[int]] = {}
        data_size = 0
        for key in _SEGMENT_ORDER:
            if key not in buffers:
                continue
            n = len(buffers[key])  # type: ignore[arg-type]
            segments[key] = [data_size, n]
            data_size += _align8(8 * n)
        meta["segments"] = segments
        meta_bytes = json.dumps(meta, separators=(",", ":")).encode()
        data_start = _align8(_HEADER.size + len(meta_bytes))
        total_size = data_start + max(data_size, 8)

        seg = cls._create_block(name, total_size)
        try:
            view = seg.buf
            for key, (rel, n) in segments.items():
                if n:
                    start = data_start + rel
                    view[start:start + 8 * n] = _as_byte_view(buffers[key])
            _HEADER.pack_into(
                view,
                0,
                MAGIC,
                LAYOUT_VERSION,
                0,
                epoch,
                len(meta_bytes),
                zlib.crc32(meta_bytes),
                zlib.crc32(view[data_start:data_start + data_size]),
                0,
            )
            view[_HEADER.size:_HEADER.size + len(meta_bytes)] = meta_bytes
        except Exception:
            seg.close()
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
            raise
        return cls(seg, name, epoch)

    @staticmethod
    def _create_block(name: str, size: int) -> shared_memory.SharedMemory:
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:
            stale = _attach_raw(name)
            stale.close()
            try:
                stale.unlink()
            except FileNotFoundError:
                pass
            return shared_memory.SharedMemory(name=name, create=True, size=size)

    # -- owner API ---------------------------------------------------------

    @property
    def name(self) -> str:
        """The shm block name readers pass to :func:`attach`."""
        return self._name

    @property
    def epoch(self) -> int:
        """The mutation epoch currently stamped in the header."""
        return self._epoch

    def bump_epoch(self) -> int:
        """Increment the header epoch word in place; returns the new value.

        The data region is untouched (``data_crc`` covers the data, the
        epoch word is outside both CRCs), so attached readers can poll
        :meth:`SharedGraph.current_epoch` to learn that the segment
        they map has been superseded.
        """
        if self._closed:
            raise ShmError(f"segment {self._name!r} is closed")
        self._epoch += 1
        _EPOCH_WORD.pack_into(self._seg.buf, _EPOCH_OFFSET, self._epoch)
        return self._epoch

    def attach(self) -> "SharedGraph":
        """Map this segment read-only in the current process."""
        return attach(self._name)

    def close(self, unlink: bool = True) -> None:
        """Release the owner mapping; by default also unlink the block."""
        if self._closed:
            return
        self._closed = True
        with _OWNED_LOCK:
            _OWNED.pop(id(self), None)
        self._seg.close()
        if unlink:
            try:
                self._seg.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "GraphSegment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"epoch={self._epoch}"
        return f"GraphSegment({self._name!r}, {state})"


# -- reader side ------------------------------------------------------------


class SharedGraph(Graph):
    """A :class:`Graph` whose flat buffers live in an attached segment.

    Behaves exactly like an immutable graph built in-process — the
    whole accessor contract holds — but ``src/tgt/tgt_idx/cost`` and
    both label-indexed CSR views are zero-copy ``memoryview`` casts
    over shared pages.  Only the Python-level interning dicts, the
    per-edge label tuples and the ``Out``/``In`` adjacency tuples are
    rebuilt locally at attach time (O(|D|), once per worker).

    Call :meth:`detach` when done; detaching never unlinks (that is
    the owner's job).
    """

    __slots__ = ("_shm_seg", "_shm_name", "_attached_epoch", "_shm_views")

    def __init__(
        self,
        seg: shared_memory.SharedMemory,
        name: str,
        epoch: int,
        meta: dict,
        views: Dict[str, memoryview],
    ) -> None:
        # Deliberately no super().__init__: every Graph slot is filled
        # from the attached buffers instead of from sequences.
        self._shm_seg = seg
        self._shm_name = name
        self._attached_epoch = epoch
        self._shm_views = views

        self._vertex_names = tuple(meta["vertices"])
        self._vertex_ids = {v: i for i, v in enumerate(self._vertex_names)}
        self._label_names = tuple(meta["labels"])
        self._label_ids = {a: i for i, a in enumerate(self._label_names)}
        self._src = views["src"]
        self._tgt = views["tgt"]
        self._tgt_idx = views["tgt_idx"]
        self._costs = views.get("cost")

        lbl_indptr = views["lbl_indptr"]
        lbl_payload = views["lbl_payload"]
        self._labels = tuple(
            tuple(lbl_payload[lbl_indptr[e]:lbl_indptr[e + 1]])
            for e in range(meta["edge_count"])
        )

        self._out, self._in = build_adjacency(
            self._src, self._tgt, len(self._vertex_names)
        )

        self._out_csr = (views["out_indptr"], views["out_payload"])
        self._in_csr = (views["in_indptr"], views["in_payload"])
        self._out_label_tuples = None
        self._in_label_tuples = None
        self._cost_cache = None
        self._lazy_lock = threading.Lock()

    # -- segment introspection --------------------------------------------

    @property
    def segment_name(self) -> str:
        """Name of the shm block this graph maps."""
        return self._shm_name

    @property
    def attached_epoch(self) -> int:
        """Header epoch observed at attach time."""
        return self._attached_epoch

    def current_epoch(self) -> int:
        """Re-read the (mutable) epoch word from the shared header.

        A value greater than :attr:`attached_epoch` means the owner has
        published a successor segment: re-attach and drop graph-derived
        caches.
        """
        if self._shm_seg is None:
            raise ShmError(f"segment {self._shm_name!r} is detached")
        return _EPOCH_WORD.unpack_from(self._shm_seg.buf, _EPOCH_OFFSET)[0]

    def is_stale(self) -> bool:
        """True once the owner bumped the epoch past our attach point."""
        return self.current_epoch() != self._attached_epoch

    def detach(self) -> None:
        """Release every view and the mapping (idempotent; no unlink)."""
        seg, self._shm_seg = self._shm_seg, None
        if seg is None:
            return
        # The 'q' casts pin seg.buf; release them before closing or
        # SharedMemory.close() raises BufferError.
        self._src = self._tgt = self._tgt_idx = ()
        self._costs = None
        self._out_csr = self._in_csr = None
        views, self._shm_views = self._shm_views, {}
        for view in views.values():
            view.release()
        seg.close()

    def __repr__(self) -> str:
        state = (
            "detached"
            if self._shm_seg is None
            else f"epoch={self._attached_epoch}"
        )
        return (
            f"SharedGraph({self._shm_name!r}, |V|={len(self._vertex_names)}, "
            f"|E|={len(self._labels)}, {state})"
        )


def read_header(buf) -> Tuple[int, dict, int, int]:
    """Validate the fixed header + meta blob in ``buf``.

    Returns ``(epoch, meta, data_start, data_crc)``; raises
    :class:`ShmError` on bad magic, unsupported version, truncation or
    meta CRC mismatch.
    """
    if len(buf) < _HEADER.size:
        raise ShmError("segment too small to hold a header")
    (
        magic,
        version,
        _flags,
        epoch,
        meta_len,
        meta_crc,
        data_crc,
        _reserved,
    ) = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise ShmError(f"bad magic {magic!r}: not a repro graph segment")
    if version != LAYOUT_VERSION:
        raise ShmError(
            f"unsupported segment layout version {version} "
            f"(this build reads {LAYOUT_VERSION})"
        )
    if _HEADER.size + meta_len > len(buf):
        raise ShmError("truncated segment: meta blob overruns the block")
    meta_bytes = bytes(buf[_HEADER.size:_HEADER.size + meta_len])
    if zlib.crc32(meta_bytes) != meta_crc:
        raise ShmError("header CRC mismatch: torn or corrupt segment")
    return (
        epoch,
        json.loads(meta_bytes.decode()),
        _align8(_HEADER.size + meta_len),
        data_crc,
    )


def attach(name: str, track: bool = True) -> SharedGraph:
    """Attach the segment published as ``name`` and rebuild the graph.

    Validates magic, layout version, header CRC and the data-region
    CRC before exposing anything, so a torn or stale block surfaces as
    :class:`~repro.exceptions.ShmError` rather than garbage answers.
    Pass ``track=False`` when attaching from a process tree that does
    not share the owner's ``resource_tracker`` (see
    :func:`_attach_raw`).
    """
    try:
        seg = _attach_raw(name, track=track)
    except FileNotFoundError:
        raise ShmError(f"no shared graph segment named {name!r}") from None
    # The parent view rides in the dict too so detach() releases every
    # export before SharedMemory.close() (else BufferError) — and the
    # error path below must do the same before bailing out.
    views: Dict[str, memoryview] = {}
    try:
        epoch, meta, data_start, data_crc = read_header(seg.buf)
        segments = meta["segments"]
        data_size = max(
            (_align8(rel + 8 * n) for rel, n in segments.values()),
            default=0,
        )
        if data_start + data_size > len(seg.buf):
            raise ShmError("truncated segment: data region overruns block")
        data_view = memoryview(seg.buf)
        views["__data__"] = data_view
        crc = zlib.crc32(data_view[data_start:data_start + data_size])
        if crc != data_crc:
            raise ShmError("data CRC mismatch: torn or corrupt segment")
        for key, (rel, n) in segments.items():
            off = data_start + rel
            views[key] = data_view[off:off + 8 * n].cast("q")
        return SharedGraph(seg, name, epoch, meta, views)
    except Exception:
        for view in views.values():
            view.release()
        seg.close()
        raise
