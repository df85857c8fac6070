"""The ``Trim`` cell store — Lemma 11's queues as flat, append-only columns.

The paper's ``Annotate`` fills ``L`` and ``B`` (Lemma 10) and ``Trim``
turns ``B_u[p]`` into the queue ``C_u[p]`` of pairs ``(e, X)``, sorted
by ``TgtIdx(e)`` (Lemma 11).  Every ``B`` entry of a node ``(u, p)``
first reached at level ℓ is a product edge from level ℓ − 1, so the
entries are a function of ``L`` and the graph: this store never sees a
``B`` log.  It *pulls* a node's queue from ``dist`` — walk ``In(u)`` in
``TgtIdx`` order and, for every live in-edge ``e`` from ``w`` and every
label ``a`` of ``e``, keep each ``q ∈ Δ⁻¹(p, a)`` that ``w`` holds one
level down (``dist[w, q] = ℓ − 1``; under edge costs ``dist[w, q] +
cost(e) = ℓ``).  That is one entry per firing label, as Lemma 10(3)
counts them, and the cells come out in Lemma 11's order with no sort.
An in-edge costs one ``dist`` read per distinct candidate state.  A
one-label edge reads ``Δ⁻¹(p, a)`` as it is (the compile makes equal
``Δ⁻¹`` tuples one object); any other label tuple's candidates — raw
and distinct — come from a per-build memo keyed by ``(p, labels)``, a
tombstone's ``()`` mapping to none.  Only a partial match (some
candidates one level down, not all) builds a filtered pair, memoized
per build as well.  Each predecessor node is pushed once.

:meth:`PackedCells.build` pulls only what an asked target's enumeration
can read: the nodes backward-reachable from ``(t, f)``, ``f ∈ S_t``,
through the cells themselves — the target's shortest-walk graph.  One
store serves an annotation for its lifetime; later targets append the
nodes not yet built and nothing is rebuilt.  Records:

* cell ``c`` — ``cell_ti[c]`` (its ``TgtIdx``, strictly increasing
  within a node), ``cell_edge[c]`` (``In(u)[TgtIdx]``),
  ``cell_entries[c]`` (its raw entries: pull order, duplicates kept)
  and ``certs[c]`` (its certificate ``X``: the entries sorted and
  duplicate-free).  Both are written when the cell is pulled, as
  tuples shared by every cell of the store with the same content, so
  a reader only reads them;
* ``spans[k]`` — ``(first cell, end cell)`` of node ``k = u·|Q| + p``,
  for the built nodes only: a dict, so nothing is allocated per
  unreached or unasked node.

Publishing: a build stages the spans of the nodes it pulls and stores
them all in one ``dict.update`` once every cell of the closure is
written whole, so a stored node's closure is stored: a reader that
finds its roots stored never meets a node still being pulled.  A build
that finds a root missing holds the store's lock until that update —
single flight; a build whose roots are all stored takes no lock.  The
columns only grow, so enumerations keep reading a store that another
target is extending, on any thread.  A node's pull reads ``dist`` only
at levels below its own, which a deepening traversal never rewrites:
cells built before a deepen stay valid after it.

Epochs: a pull runs lazily, at a target's first read, so the store
captures the graph columns it reads (``In``, sources, live labels and,
under costs, edge costs) when it is made — the epoch ``dist`` was built
on.  A stream read across a mutation batch keeps pulling from that
epoch.  A cached annotation is kept across a batch only when the batch
touches no label its query fires on, and on those labels the captured
columns and the new epoch's agree.

A :class:`~repro.live.LiveGraph` keeps a removed edge in its ``In``
slot (the slot is its ``TgtIdx``) and in ``label_array``; the pull reads
``live_label_array``, where that slot is empty.
"""

from __future__ import annotations

import threading
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The paper's mapping forms, as served by the read-only ``L``/``B`` views.
LengthMap = Dict[int, int]
BackMap = Dict[int, Dict[int, List[int]]]

#: A cell's raw entries or its certificate.
States = Tuple[int, ...]


class PackedCells:
    """One annotation's ``Trim`` cells, pulled per asked target.

    ``dist`` is the annotation's flat ``L`` (``dist[v·|Q| + p]``, ``-1``
    = unreached), ``delta_inv`` the compiled query's reversed moves;
    ``costed`` reads ``dist`` as the costs of a Dijkstra annotation, so
    an edge steps down by its cost instead of one level.  ``graph``'s
    columns are read here, once (see the module docstring).
    A store made with ``dist=None`` holds given cells only
    (:meth:`publish`) and pulls nothing.
    """

    __slots__ = (
        "n", "n_states", "dist", "delta_inv", "columns", "spans",
        "cell_ti", "cell_edge", "cell_entries", "certs", "_n_entries",
        "_tuples", "_lock",
    )

    def __init__(
        self,
        graph,
        n: int,
        n_states: int,
        dist: Optional[array] = None,
        delta_inv: Sequence[Dict[int, Tuple[int, ...]]] = (),
        costed: bool = False,
    ) -> None:
        self.n = n
        self.n_states = n_states
        self.dist = dist
        self.delta_inv = delta_inv
        #: ``(In, sources, live labels, costs or None)`` of the epoch
        #: ``dist`` was built on — what every pull reads.
        self.columns = None if dist is None else (
            graph.in_array, graph.src_array, graph.live_label_array,
            graph.cost_array if costed else None,
        )
        self.spans: Dict[int, Tuple[int, int]] = {}
        self.cell_ti = array("q")
        self.cell_edge = array("q")
        self.cell_entries: List[States] = []
        self.certs: List[States] = []
        self._n_entries = 0
        #: Content → the one tuple every cell with that content holds.
        self._tuples: Dict[States, States] = {}
        self._lock = threading.Lock()

    # -- building ----------------------------------------------------------

    def build(self, target: int, states: Iterable[int]) -> None:
        """Make every cell an enumeration toward ``target`` from its
        final states ``states`` reads available (a no-op once built)."""
        base = target * self.n_states
        spans = self.spans
        for f in states:
            if base + f not in spans:
                self._close([base + f for f in states])
                return

    def _share(self, raw: States) -> Tuple[States, States]:
        """``raw`` and its certificate, as the store's shared tuples —
        ``Δ⁻¹``'s own first, which one-label cells hold as they are."""
        shared = self._tuples
        if not shared:
            for into in self.delta_inv:
                for t in into.values():
                    shared.setdefault(t, t)
        raw = shared.setdefault(raw, raw)
        cert = tuple(sorted(set(raw)))
        return raw, shared.setdefault(cert, cert)

    def _close(self, roots: List[int]) -> None:
        """Pull ``roots`` and every node their cells name, under the
        lock; a stored node's closure is already stored, so roots that
        are all stored return without it (the closure's spans are
        published in one update, after all its cells)."""
        spans = self.spans
        if self.columns is None or all(k in spans for k in roots):
            return
        with self._lock:
            staged: Dict[int, Tuple[int, int]] = {}
            stack = [k for k in roots if k not in spans]
            seen = set(stack)
            push = stack.append
            mark = seen.add
            in_array, src_arr, live, costs = self.columns
            dist = self.dist
            delta_inv = self.delta_inv
            n_states = self.n_states
            share = self._share
            # Per state p: a label tuple of more (or fewer) than one
            # label → the (raw, certificate) of the candidates Δ⁻¹(p, ·)
            # names over it.
            memos: List[Dict[States, Tuple[States, States]]] = [
                {} for _ in range(n_states)
            ]
            # (raw, *the states that hold) → the filtered pair.
            cut: Dict[tuple, Tuple[States, States]] = {}
            cell_ti = self.cell_ti
            ti_append = cell_ti.append
            edge_append = self.cell_edge.append
            cell_entries = self.cell_entries
            first = len(cell_entries)
            entries_append = cell_entries.append
            cert_append = self.certs.append
            while stack:
                k = stack.pop()
                if k in spans:
                    continue
                lo = len(cell_ti)
                level = dist[k]
                if level > 0:
                    u, p = divmod(k, n_states)
                    into = delta_inv[p]
                    memo = memos[p]
                    need = level - 1
                    for ti, e in enumerate(in_array[u]):
                        labels = live[e]
                        if len(labels) == 1:
                            raw = cert = into.get(labels[0])
                            if raw is None:
                                continue  # The label does not fire.
                        else:
                            got = memo.get(labels)
                            if got is None:
                                raw = ()
                                fired = 0
                                for a in labels:
                                    qs = into.get(a)
                                    if qs is not None:
                                        raw += qs
                                        fired += 1
                                got = memo[labels] = (
                                    share(raw) if fired > 1 else (raw, raw)
                                )
                            raw, cert = got
                            if not raw:
                                continue  # No label fires (or a tombstone).
                        if costs is not None:
                            need = level - costs[e]
                            if need < 0:
                                continue
                        w_base = src_arr[e] * n_states
                        if len(cert) == 1:
                            pred = w_base + cert[0]
                            if dist[pred] != need:
                                continue
                            if pred not in seen:
                                mark(pred)
                                push(pred)
                        else:
                            hit = []
                            for q in cert:
                                pred = w_base + q
                                if dist[pred] == need:
                                    hit.append(q)
                                    if pred not in seen:
                                        mark(pred)
                                        push(pred)
                            if not hit:
                                continue
                            if len(hit) < len(cert):
                                key = (raw, *hit)
                                got = cut.get(key)
                                if got is None:
                                    got = cut[key] = share(
                                        tuple(q for q in raw if q in hit)
                                    )
                                raw, cert = got
                        ti_append(ti)
                        edge_append(e)
                        entries_append(raw)
                        cert_append(cert)
                staged[k] = (lo, len(cell_ti))
            self._n_entries += sum(map(len, cell_entries[first:]))
            spans.update(staged)

    def build_reached(self, bound: Optional[int] = None) -> None:
        """Pull every reached node (level 1…``bound``) — the ``B`` view's
        inspection path, one pass over ``dist``."""
        if self.dist is not None:
            self._close([
                k for k, level in enumerate(self.dist)
                if level > 0 and (bound is None or level <= bound)
            ])

    def publish(self, k: int, cells: Iterable[Tuple[int, int, Sequence[int]]]) -> None:
        """Store node ``k``'s ``(TgtIdx, edge, entries)`` cells, given in
        ``TgtIdx`` order, entries in their recorded order — for a store
        that pulls nothing."""
        lo = len(self.cell_ti)
        for ti, e, preds in cells:
            raw, cert = self._share(tuple(preds))
            self.cell_ti.append(ti)
            self.cell_edge.append(e)
            self.cell_entries.append(raw)
            self.certs.append(cert)
            self._n_entries += len(raw)
        self.spans[k] = (lo, len(self.cell_ti))

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        """Number of stored cells (= Trim queue items), O(1)."""
        return len(self.cell_ti)

    def total_items(self) -> int:
        """Number of stored (e, X) pairs — for the memory experiment."""
        return len(self)

    def entries(self) -> int:
        """Number of stored predecessor entries — Remark 17's quantity
        for what is kept, O(1)."""
        return self._n_entries

    @property
    def nbytes(self) -> int:
        """Bytes of the two cell arrays, the two tuple pointers of each
        cell and three words (key, first cell, end cell) per built node
        — 32 B per cell plus 24 B per node, O(1); the shared entry and
        certificate tuples themselves are not counted."""
        return 32 * len(self.cell_ti) + 24 * len(self.spans)

    def items(self, u: int, p: int) -> List[Tuple[int, States]]:
        """The queue ``C_u[p]`` of Lemma 11 as ``(edge, predecessors)``
        pairs, ``TgtIdx``-ascending, predecessors in pull order with
        duplicates kept; ``[]`` for an empty queue.  Inspection only:
        pulls the node (and what its cells name) if not yet built."""
        k = u * self.n_states + p
        if self.dist is not None and 0 <= k < len(self.dist) and self.dist[k] > 0:
            self._close([k])
        lo, hi = self.spans.get(k, (0, 0))
        return list(zip(self.cell_edge[lo:hi], self.cell_entries[lo:hi]))

    def to_maps(self) -> List[BackMap]:
        """The paper's ``B[u][p][i]`` dict-of-dicts view of the built
        nodes, cells keyed by ``TgtIdx``, entries in pull order with
        duplicates kept.  Read-only inspection: nothing is built from
        these maps."""
        B: List[BackMap] = [{} for _ in range(self.n)]
        ti, entries = self.cell_ti, self.cell_entries
        n_states = self.n_states
        for k, (lo, hi) in self.spans.items():
            if lo < hi:
                B[k // n_states][k % n_states] = {
                    ti[c]: list(entries[c]) for c in range(lo, hi)
                }
        return B
