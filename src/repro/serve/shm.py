"""Shared-memory publication of graph segments for zero-copy serving.

One published graph = one named ``multiprocessing.shared_memory``
block holding the graph in the segment layout of
:mod:`repro.graph.segment` — the same bytes a WAL snapshot file holds.
This module keeps only the block's lifecycle: create, reclaim, the
epoch word, detach, unlink, and the ``atexit`` sweep.

Everything after the epoch word is immutable for the lifetime of the
block: a mutation produces a *new* segment (see
:mod:`repro.serve.server`) and bumps the old segment's epoch word, which
lies outside both CRCs, so a straggling reader can detect that it is
stale.

The owner side is :class:`GraphSegment` (created by
:meth:`Graph.to_shared`), which lays the columns straight into the
block; readers use :func:`attach` (via :meth:`Graph.from_shared`) and
get a :class:`SharedGraph` — a real
:class:`~repro.graph.database.Graph` whose flat buffers are
``memoryview`` casts over the block, so the annotate/trim/enumerate
hot loops run on shared pages without copying.  Owner cleanup is
belt-and-braces: ``close(unlink=True)``, an ``atexit`` sweep of every
still-open owned segment, and create-time reclaim of a stale block
left behind under the same name by a crashed run.
"""

from __future__ import annotations

import atexit
import os
import threading
import uuid
from multiprocessing import shared_memory
from typing import Dict, Optional

from repro.exceptions import SegmentError, ShmError
from repro.graph.database import Graph
from repro.graph.segment import HEADER as _HEADER  # noqa: F401 - for raw-block probes
from repro.graph.segment import (
    SegmentLayout,
    decode_into,
    read_epoch,
    write_epoch,
)


def default_segment_name() -> str:
    """A collision-resistant default shm name for one publication."""
    return f"repro-{os.getpid():x}-{uuid.uuid4().hex[:12]}"


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
        try:
            layout = SegmentLayout(graph)
        except SegmentError as exc:
            raise ShmError(f"to_shared: {exc}") from None
        seg = cls._create_block(name, layout.size)
        try:
            layout.write_into(seg.buf, epoch)
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
        write_epoch(self._seg.buf, self._epoch)
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
    rebuilt locally at attach time (O(|D|), once per worker); the
    successor tuples ``succ`` are not in the segment either, and are
    derived from the shared out-CSR on this process's first read.

    Call :meth:`detach` when done; detaching never unlinks (that is
    the owner's job).  A detached graph answers no adjacency read: a
    query, a point read or a CSR or ``succ`` read raises
    :class:`~repro.exceptions.ShmError`.
    """

    __slots__ = ("_shm_seg", "_shm_name", "_attached_epoch", "_shm_views")

    def __init__(self, seg: shared_memory.SharedMemory, name: str) -> None:
        # No super().__init__: the segment decoder fills every Graph
        # slot from the attached buffers instead of from sequences.
        self._shm_seg = seg
        self._shm_name = name
        self._attached_epoch, _, self._shm_views = decode_into(self, seg.buf)

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
        self._require_attached()
        return read_epoch(self._shm_seg.buf)

    def is_stale(self) -> bool:
        """True once the owner bumped the epoch past our attach point."""
        return self.current_epoch() != self._attached_epoch

    def _require_attached(self) -> None:
        if self._shm_seg is None:
            raise ShmError(f"segment {self._shm_name!r} is detached")

    def _check_vertex(self, v: int) -> None:
        self._require_attached()
        super()._check_vertex(v)

    def _label_index(self):
        self._require_attached()
        return self._index

    def detach(self) -> None:
        """Release every view and the mapping (idempotent; no unlink);
        the label index, with the successor tuples derived here, goes
        too."""
        seg, self._shm_seg = self._shm_seg, None
        if seg is None:
            return
        # The 'q' casts pin seg.buf; release them before closing or
        # SharedMemory.close() raises BufferError.
        self._src = self._tgt = self._tgt_idx = ()
        self._costs = None
        self._index = None
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


def attach(name: str, track: bool = True) -> SharedGraph:
    """Attach the segment published as ``name`` and rebuild the graph.

    The segment decoder validates magic, layout version, both CRCs and
    the columns before exposing anything, so a torn or stale block
    surfaces as :class:`~repro.exceptions.ShmError` rather than garbage
    answers.  Pass ``track=False`` when attaching from a process tree
    that does not share the owner's ``resource_tracker`` (see
    :func:`_attach_raw`).
    """
    try:
        seg = _attach_raw(name, track=track)
    except FileNotFoundError:
        raise ShmError(f"no shared graph segment named {name!r}") from None
    try:
        return SharedGraph(seg, name)
    except SegmentError as exc:
        # The decoder released its views, so the mapping can close.
        seg.close()
        raise ShmError(str(exc)) from None
