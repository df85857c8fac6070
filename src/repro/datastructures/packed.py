"""The ``Trim`` cell store — Lemma 11's queues as flat, append-only arrays.

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

:meth:`PackedCells.build` pulls only what an asked target's enumeration
can read: the nodes backward-reachable from ``(t, f)``, ``f ∈ S_t``,
through the cells themselves — the target's shortest-walk graph.  One
store serves an annotation for its lifetime; later targets append the
nodes not yet built and nothing is rebuilt.  Records:

* cell ``c`` — ``cell_ti[c]`` (its ``TgtIdx``, strictly increasing
  within a node), ``cell_edge[c]`` (``In(u)[TgtIdx]``) and its entries
  ``ent_pred[cell_pred_indptr[c] : cell_pred_indptr[c + 1]]`` (raw,
  duplicates kept); ``certs[c]``, the sorted duplicate-free certificate
  tuple, is built lazily on first use (``None`` until then);
* ``spans[k]`` — ``(first cell, end cell)`` of node ``k = u·|Q| + p``,
  for the built nodes only: a dict, so nothing is allocated per
  unreached or unasked node.

Publishing: a node's span is stored after its cells are written, and a
build that finds a root missing holds the store's lock until every node
its target needs is stored — single flight; a build whose roots are all
stored takes no lock.  The arrays only grow, so enumerations keep
reading a store that another target is extending, on any thread.  A
node's pull reads ``dist`` only at levels below its own, which a
deepening traversal never rewrites: cells built before a deepen stay
valid after it.

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
        "cell_ti", "cell_edge", "cell_pred_indptr", "ent_pred", "certs",
        "_lock",
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
        self.cell_pred_indptr = array("q", [0])
        self.ent_pred = array("q")
        self.certs: List[Optional[Tuple[int, ...]]] = []
        self._lock = threading.Lock()

    # -- building ----------------------------------------------------------

    def build(self, target: int, states: Iterable[int]) -> None:
        """Make every cell an enumeration toward ``target`` from its
        final states ``states`` reads available (a no-op once built)."""
        base = target * self.n_states
        self._close([base + f for f in states])

    def _close(self, roots: List[int]) -> None:
        """Pull ``roots`` and every node their cells name, under the
        lock; a stored node's closure is already stored, so roots that
        are all stored return without it (a span is published after
        its cells)."""
        spans = self.spans
        if self.columns is None or all(k in spans for k in roots):
            return
        with self._lock:
            stack = [k for k in roots if k not in spans]
            in_array, src_arr, live, costs = self.columns
            dist = self.dist
            delta_inv = self.delta_inv
            n_states = self.n_states
            cell_ti = self.cell_ti
            ti_append = cell_ti.append
            edge_append = self.cell_edge.append
            span_append = self.cell_pred_indptr.append
            ent_pred = self.ent_pred
            pred_append = ent_pred.append
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
                    need = level - 1
                    mark = len(ent_pred)
                    for ti, e in enumerate(in_array[u]):
                        labels = live[e]
                        if not labels:
                            continue  # A tombstone (or no label at all).
                        if costs is not None:
                            need = level - costs[e]
                            if need < 0:
                                continue
                        w_base = src_arr[e] * n_states
                        for a in labels:
                            for q in into.get(a, ()):
                                pred = w_base + q
                                if dist[pred] == need:
                                    pred_append(q)
                                    if pred not in spans:
                                        stack.append(pred)
                        if len(ent_pred) > mark:
                            mark = len(ent_pred)
                            ti_append(ti)
                            edge_append(e)
                            span_append(mark)
                            cert_append(None)
                spans[k] = (lo, len(cell_ti))

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
        ``TgtIdx`` order — for a store that pulls nothing."""
        lo = len(self.cell_ti)
        for ti, e, preds in cells:
            self.cell_ti.append(ti)
            self.cell_edge.append(e)
            self.ent_pred.extend(preds)
            self.cell_pred_indptr.append(len(self.ent_pred))
            self.certs.append(None)
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
        return len(self.ent_pred)

    @property
    def nbytes(self) -> int:
        """Bytes of the four cell arrays plus three words (key, first
        cell, end cell) per built node, O(1); the lazily built
        certificate tuples are not counted."""
        arrays = (self.cell_ti, self.cell_edge, self.cell_pred_indptr, self.ent_pred)
        return sum(len(a) * a.itemsize for a in arrays) + 24 * len(self.spans)

    def cert(self, c: int) -> Tuple[int, ...]:
        """The certificate tuple of cell ``c`` — sorted, deduplicated,
        cached after the first call."""
        t = self.certs[c]
        if t is None:
            indptr = self.cell_pred_indptr
            lo, hi = indptr[c], indptr[c + 1]
            preds = self.ent_pred
            if hi == lo + 1:
                t = (preds[lo],)
            else:
                t = tuple(sorted(set(preds[lo:hi])))
            self.certs[c] = t
        return t

    def items(self, u: int, p: int) -> List[Tuple[int, Tuple[int, ...]]]:
        """The queue ``C_u[p]`` of Lemma 11 as ``(edge, predecessors)``
        pairs, ``TgtIdx``-ascending, predecessors in pull order with
        duplicates kept; ``[]`` for an empty queue.  Inspection only:
        pulls the node (and what its cells name) if not yet built."""
        k = u * self.n_states + p
        if self.dist is not None and 0 <= k < len(self.dist) and self.dist[k] > 0:
            self._close([k])
        lo, hi = self.spans.get(k, (0, 0))
        indptr, preds = self.cell_pred_indptr, self.ent_pred
        return [
            (self.cell_edge[c], tuple(preds[indptr[c]:indptr[c + 1]]))
            for c in range(lo, hi)
        ]

    def to_maps(self) -> List[BackMap]:
        """The paper's ``B[u][p][i]`` dict-of-dicts view of the built
        nodes, cells keyed by ``TgtIdx``, entries in pull order with
        duplicates kept.  Read-only inspection: nothing is built from
        these maps."""
        B: List[BackMap] = [{} for _ in range(self.n)]
        ti, indptr, preds = self.cell_ti, self.cell_pred_indptr, self.ent_pred
        n_states = self.n_states
        for k, (lo, hi) in self.spans.items():
            if lo < hi:
                B[k // n_states][k % n_states] = {
                    ti[c]: list(preds[indptr[c]:indptr[c + 1]])
                    for c in range(lo, hi)
                }
        return B
