"""``repro.serve`` — the multi-process serving tier.

The GIL escape hatch the ROADMAP promised: every CPU-bound stage of
the paper's Annotate → Trim → Enumerate pipeline runs in worker
*processes*, all mapping one read-only packed graph **zero-copy** from
a shared-memory segment, behind an asyncio front-end speaking the
JSONL protocol the single-process :class:`repro.service.QueryService`
already speaks.

Architecture (one box per process)::

                       TCP / stdio (JSONL)
                              │
    ┌─────────────────────────▼─────────────────────────┐
    │ ServeServer (asyncio)                — the OWNER   │
    │  · per-connection in-order response writer         │
    │  · dispatch: round-robin / (query,source) affinity │
    │    with bounded in-flight per worker (backpressure)│
    │  · crash → respawn + one retry or code=            │
    │    "worker_crashed"; SIGTERM → graceful drain      │
    │  · the ONLY writer: LiveGraph.apply → compact →    │
    │    publish segment e(N+1) → bump old epoch →       │
    │    in-band "reload" per pipe → unlink old          │
    └──────┬──────────────────┬──────────────────┬───────┘
           │ mp.Pipe          │                  │
    ┌──────▼──────┐    ┌──────▼──────┐    ┌──────▼──────┐
    │  worker 0   │    │  worker 1   │    │  worker N   │
    │ QueryService│    │ QueryService│    │ QueryService│
    │ plan+annot  │    │   caches    │    │   caches    │
    │ caches      │    │ (process-   │    │             │
    │ (local LRU) │    │   local)    │    │             │
    └──────┬──────┘    └──────┬──────┘    └──────┬──────┘
           │   zero-copy memoryview casts        │
    ┌──────▼──────────────────▼──────────────────▼───────┐
    │  shared-memory segment  <base>-e<epoch>            │
    │  CRC'd header (magic, version, epoch, meta) +      │
    │  packed 'q' buffers: src/tgt/tgt_idx/cost,         │
    │  Lbl CSR, out/in label-indexed CSR, name tables    │
    └────────────────────────────────────────────────────┘

Module map: :mod:`repro.serve.shm` (shared-memory blocks holding the
segment layout of :mod:`repro.graph.segment`, ``Graph.to_shared`` /
``from_shared``), :mod:`repro.serve.worker`
(child process loop), :mod:`repro.serve.server`
(:class:`ServeServer`, :func:`serve`), :mod:`repro.serve.client`
(:class:`ServeClient`, the blocking JSONL helper the bench and smoke
tests use).

Consistency model (v1, documented trade-offs):

* mutations are serialized through the owner; a mutation **republishes
  the whole compacted graph** and coarsely drops every worker's local
  caches (label-footprint-precise cross-process invalidation is a
  ROADMAP follow-on);
* per connection you get read-your-writes: a ``{"mutate": ...}`` line
  is a barrier, and the in-band reload marker reaches each worker pipe
  before any post-mutation query does;
* compaction renumbers edge ids, so cursors do not survive a mutation
  (the same contract as ``Database.mutate`` with compaction);
* across *different* connections a query racing a mutation may see
  either side of it — last-write-wins on the epoch chain.

Start one from the CLI with ``python -m repro serve GRAPH --port 7687
--workers 4`` or in code via :func:`repro.serve.serve`.
"""

from repro.serve.client import ServeClient
from repro.serve.server import ServeServer, serve
from repro.serve.shm import GraphSegment, SharedGraph, attach

__all__ = [
    "GraphSegment",
    "ServeClient",
    "ServeServer",
    "SharedGraph",
    "attach",
    "serve",
]
