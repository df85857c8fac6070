"""CSR-packed annotation storage — the interior of ``Annotate``'s output.

The paper's ``B_u[p]`` maps (Lemma 10(2)) are conceptually a sparse
three-dimensional table ``(vertex, state, TgtIdx) → [predecessor
states]``.  This module packs that table into four flat integer
arrays, the layout the rest of the pipeline (``Trim``, ``Enumerate``,
``NextOutput``, the counting DP) reads without any per-cell
allocation:

:class:`PackedBack` — the raw predecessor entries, one ``(TgtIdx,
predecessor state)`` pair per witnessing transition, grouped by the
flattened product node ``key = u·|Q| + p`` (ascending) and, within a
key, by ascending ``TgtIdx``; entries of the same ``(key, TgtIdx)``
cell keep their BFS/Dijkstra append order.  Built from the traversal's
append-only entry log by a stable LSD radix — deal the entries into one
bucket per ``TgtIdx`` (counting entries per key on the way), then
scatter the buckets, in ``TgtIdx`` order, to each key's fill cursor —
with the prefix sum over the key space and the list of non-empty keys
read off the per-key counts by ``accumulate`` / ``compress``:
O(|entries| + |V|·|Q| + max-InDeg), two interpreted passes over the
entries, no comparison sort over entries or keys anywhere.  Remark 17's
entry count is simply ``len(ent_pred)``, an O(1) read.

:class:`PackedCells` — the ``Trim`` product (paper, Figure 2 lines
34-41) in the same spirit: one record per *non-empty cell* — the queue
items ``(e, X)`` of Lemma 11 — as parallel arrays ``cell_ti`` /
``cell_edge`` / ``cell_pred_indptr``, grouped per key in ascending
``TgtIdx`` order.  Because :class:`PackedBack` already stores entries
in exactly that order, the build is a single O(entries) pointer-slicing
pass: no ``sorted()``, no tuple freezing.  Certificate tuples (the
sorted, duplicate-free predecessor sets ``Enumerate`` unions per tree
edge) are materialized lazily per cell and cached in :attr:`certs` —
a first-``k`` enumeration touches only the cells along its walks.

One :class:`PackedCells` instance is shared, read-only, by every
enumeration over its annotation (queue cursors are private to each
:func:`~repro.core.enumerate.enumerate_walks` generator) and by the
counting DP, so ``Trim`` and ``ResumableTrim`` cost O(entries) once per
annotation *combined*.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, compress
from typing import Dict, List, Optional, Tuple

#: The paper's mapping forms, as served by the read-only ``L``/``B`` views.
LengthMap = Dict[int, int]
BackMap = Dict[int, Dict[int, List[int]]]


def _nbytes(*arrays: array) -> int:
    return sum(len(a) * a.itemsize for a in arrays)


class PackedBack:
    """The packed ``B`` store: flat, grouped, TgtIdx-sorted entries.

    ``ent_ti[i]`` / ``ent_pred[i]`` are the ``TgtIdx`` and predecessor
    state of entry ``i``; entries of key ``k = u·|Q| + p`` occupy
    ``key_indptr[k] : key_indptr[k+1]``.  ``nonempty_keys`` lists the
    keys with at least one entry, ascending — iteration helpers skip
    the (typically vast) empty majority of the key space.
    """

    __slots__ = ("n", "n_states", "key_indptr", "ent_ti", "ent_pred",
                 "nonempty_keys")

    def __init__(
        self,
        n: int,
        n_states: int,
        key_indptr: array,
        ent_ti: array,
        ent_pred: array,
        nonempty_keys: List[int],
    ) -> None:
        self.n = n
        self.n_states = n_states
        self.key_indptr = key_indptr
        self.ent_ti = ent_ti
        self.ent_pred = ent_pred
        self.nonempty_keys = nonempty_keys

    def __len__(self) -> int:
        """Total predecessor entries — Remark 17's quantity, O(1)."""
        return len(self.ent_pred)

    @property
    def nbytes(self) -> int:
        """Bytes of the three arrays, O(1)."""
        return _nbytes(self.key_indptr, self.ent_ti, self.ent_pred)

    @classmethod
    def from_entries(
        cls,
        n: int,
        n_states: int,
        ent_key: array,
        ent_ti: array,
        ent_pred: array,
    ) -> "PackedBack":
        """Pack a traversal's append-order entry log.

        A stable LSD radix in two interpreted passes.  Pass 1 deals the
        ``(key, predecessor)`` pairs into one append-order bucket per
        ``TgtIdx`` present — list buckets, which cost less to make and
        fill than arrays — and counts entries per key on the way (when every
        ``TgtIdx`` is 0 the log is its own single bucket and only the
        counting remains).  Pass 2 reads the buckets in ``TgtIdx``
        order and drops each pair at its key's fill cursor — so the
        result is grouped by key with ``TgtIdx`` ascending inside each
        key and append order preserved inside each cell.  The prefix
        sum over the dense key space and ``nonempty_keys`` come from
        the counts in one C-level sweep each (``accumulate`` /
        ``compress``).  The input arrays are not modified.
        """
        m = len(ent_key)
        n_keys = n * n_states
        if not m:
            key_indptr = array("q", bytes(8 * (n_keys + 1)))
            return cls(n, n_states, key_indptr, array("q"), array("q"), [])

        # Pass 1 — bucket by TgtIdx, count by key.
        counts = [0] * n_keys
        max_ti = max(ent_ti)
        if max_ti:
            # Buckets for the TgtIdx values present: all of 0…max when
            # that is fewer than the entries, else the distinct values
            # the log holds, in order — O(entries) either way, never
            # O(max InDeg); the entries themselves are never sorted.
            present = range(max_ti + 1) if max_ti < m else sorted(set(ent_ti))
            keys_by_ti: List = [None] * (max_ti + 1)
            preds_by_ti: List = [None] * (max_ti + 1)
            for t in present:
                keys_by_ti[t] = []
                preds_by_ti[t] = []
            for t, k, q in zip(ent_ti, ent_key, ent_pred):
                keys_by_ti[t].append(k)
                preds_by_ti[t].append(q)
                counts[k] += 1
        else:
            for k in ent_key:
                counts[k] += 1
            present = (0,)
            keys_by_ti = [ent_key]
            preds_by_ti = [ent_pred]

        # Through a list: an array fills from it faster than from the
        # accumulate iterator.
        key_indptr = array("q", list(accumulate(counts, initial=0)))
        nonempty_keys = list(compress(range(n_keys), counts))

        # Pass 2 — stable scatter by key, one TgtIdx bucket at a time.
        fill = key_indptr[:n_keys]
        out_ti = array("q", bytes(8 * m))
        out_pred = array("q", bytes(8 * m))
        for t in present:
            for k, q in zip(keys_by_ti[t], preds_by_ti[t]):
                pos = fill[k]
                fill[k] = pos + 1
                out_ti[pos] = t
                out_pred[pos] = q
        return cls(n, n_states, key_indptr, out_ti, out_pred, nonempty_keys)

    # -- inspection ------------------------------------------------------

    def to_maps(self) -> List[BackMap]:
        """Materialize the paper's ``B[u][p][i]`` dict-of-dicts view.

        Cell lists keep the traversal's append order, duplicates
        included.  Read-only inspection: nothing packs these maps back.
        """
        B: List[BackMap] = [{} for _ in range(self.n)]
        key_indptr = self.key_indptr
        ent_ti = self.ent_ti
        ent_pred = self.ent_pred
        n_states = self.n_states
        for k in self.nonempty_keys:
            lo, hi = key_indptr[k], key_indptr[k + 1]
            if lo == hi:
                continue
            cells: Dict[int, List[int]] = {}
            i = lo
            while i < hi:
                t = ent_ti[i]
                j = i + 1
                while j < hi and ent_ti[j] == t:
                    j += 1
                cells[t] = list(ent_pred[i:j])
                i = j
            B[k // n_states][k % n_states] = cells
        return B


class PackedCells:
    """The packed ``Trim`` product — Lemma 11's queues as flat arrays.

    Cell ``c`` (a non-empty ``(u, p, TgtIdx)`` triple) has

    * ``cell_ti[c]`` — its ``TgtIdx`` (strictly increasing within a
      key: Lemma 11(2));
    * ``cell_edge[c]`` — the in-edge ``In(u)[TgtIdx]``, resolved once
      at build time;
    * predecessor entries ``back.ent_pred[cell_pred_indptr[c] :
      cell_pred_indptr[c+1]]`` — a zero-copy slice of the annotation's
      entry store (raw append order, duplicates preserved);
    * ``certs[c]`` — the sorted duplicate-free certificate tuple, built
      lazily on first use and cached (`None` until then).

    Cells of key ``k`` occupy ``key_indptr[k] : key_indptr[k+1]``;
    because keys are packed in ascending order, ``cell_pred_indptr`` is
    globally non-decreasing and one sentinel slot suffices.
    """

    __slots__ = ("graph", "back", "n", "n_states", "key_indptr",
                 "cell_ti", "cell_edge", "cell_pred_indptr", "certs")

    def __init__(self, graph, back: PackedBack) -> None:
        self.graph = graph
        self.back = back
        self.n = back.n
        self.n_states = back.n_states
        n_keys = back.n * back.n_states
        key_indptr_src = back.key_indptr
        ent_ti = back.ent_ti
        in_array = graph.in_array
        n_states = back.n_states

        cell_ti = array("q")
        cell_edge = array("q")
        # Entries are globally contiguous in cell order (keys ascending,
        # cells in entry order), so per-cell spans are one indptr array:
        # cell c's entries are [cell_pred_indptr[c], cell_pred_indptr[c+1]).
        cell_pred_indptr = array("q")
        counts = array("q", bytes(8 * n_keys))
        ti_append = cell_ti.append
        edge_append = cell_edge.append
        span_append = cell_pred_indptr.append
        for k in back.nonempty_keys:
            lo, hi = key_indptr_src[k], key_indptr_src[k + 1]
            if lo == hi:
                continue
            in_list = in_array[k // n_states]
            n_cells = 0
            i = lo
            while i < hi:
                t = ent_ti[i]
                ti_append(t)
                edge_append(in_list[t])
                span_append(i)
                n_cells += 1
                i += 1
                while i < hi and ent_ti[i] == t:
                    i += 1
            counts[k] = n_cells
        span_append(len(ent_ti))
        self.key_indptr = array("q", list(accumulate(counts, initial=0)))
        self.cell_ti = cell_ti
        self.cell_edge = cell_edge
        self.cell_pred_indptr = cell_pred_indptr
        self.certs: List[Optional[Tuple[int, ...]]] = [None] * len(cell_ti)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        """Number of stored cells (= Trim queue items), O(1)."""
        return len(self.cell_ti)

    def total_items(self) -> int:
        """Number of stored (e, X) pairs — for the memory experiment."""
        return len(self)

    @property
    def nbytes(self) -> int:
        """Bytes of the four cell arrays (not the lazily built
        certificate tuples), O(1)."""
        return _nbytes(
            self.key_indptr, self.cell_ti, self.cell_edge, self.cell_pred_indptr
        )

    def cert(self, c: int) -> Tuple[int, ...]:
        """The certificate tuple of cell ``c`` — sorted, deduplicated,
        cached after the first call."""
        t = self.certs[c]
        if t is None:
            indptr = self.cell_pred_indptr
            lo, hi = indptr[c], indptr[c + 1]
            preds = self.back.ent_pred
            if hi == lo + 1:
                t = (preds[lo],)
            else:
                t = tuple(sorted(set(preds[lo:hi])))
            self.certs[c] = t
        return t

    def items(self, u: int, p: int) -> List[Tuple[int, Tuple[int, ...]]]:
        """The queue ``C_u[p]`` of Lemma 11 as ``(edge, predecessors)``
        pairs, ``TgtIdx``-ascending, predecessors in append order with
        duplicates kept; ``[]`` for an empty queue.  Inspection only."""
        k = u * self.n_states + p
        indptr, preds = self.cell_pred_indptr, self.back.ent_pred
        return [
            (self.cell_edge[c], tuple(preds[indptr[c]:indptr[c + 1]]))
            for c in range(self.key_indptr[k], self.key_indptr[k + 1])
        ]
