"""The ``Enumerate`` phase (paper, Figure 2 lines 42-66).

``Enumerate`` performs a depth-first traversal of the backward-search
tree ``T`` (Definition 12): nodes are suffixes of answers, the root is
``⟨t⟩``, and the children of a node ``w`` are the walks ``e · w``,
ordered by ``TgtIdx(e)``.  Each node carries a certificate set ``S(w)``
(Definition 14) of automaton states that witness at least one accepting
run; Lemma 15 shows ``S(e · w)`` is the union of the predecessor lists
found for ``e`` at the heads of the queues ``C_u[p]``, ``p ∈ S(w)``.

:func:`enumerate_walks` is an **iterative** DFS with an explicit stack:
the recursion depth of the paper's formulation is λ, which would hit
Python's recursion limit on long walks.  Frames carry a *remaining
budget* instead of a depth, which lets the same code serve the Distinct
Cheapest Walks extension (budget = remaining cost, leaf ⇔ budget 0);
with unit costs it is exactly the paper's algorithm.  The DFS runs
directly over the flat cell arrays: queue heads are integer cursor
reads, cursor restarts are integer stores, and child certificates come
from the per-cell cached tuples — the common single-queue-head case
unions nothing and allocates nothing.  The per-edge cost callback
fires only in cheapest mode.

Delay: between two consecutive outputs the DFS traverses at most 2λ
tree edges, each costing O(|Q| + Σ_p |X_p|) = O(|A|) — hence the
O(λ × |A|) bound of Theorem 2.  No output is ever produced twice, and
abandoned generators restore the shared queue cursors.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterator, List, Optional, Tuple

from repro.core.trim import TrimmedAnnotation
from repro.core.walks import Walk
from repro.graph.database import Graph

#: Edge-cost callback; unit costs reproduce the paper's setting.
CostFn = Callable[[int], int]


def enumerate_walks(
    graph: Graph,
    trimmed: TrimmedAnnotation,
    budget: Optional[int],
    target: int,
    start_states: FrozenSet[int],
    cost_of: Optional[CostFn] = None,
) -> Iterator[Walk]:
    """Enumerate distinct shortest (or cheapest) walks, leftmost-first.

    Parameters
    ----------
    budget:
        λ — the length (or total cost) of the answers.  ``None`` or an
        empty ``start_states`` yields nothing (no matching walk);
        ``0`` yields the trivial walk ``⟨target⟩``.
    start_states:
        ``S(⟨t⟩)`` — the final states reached at the target at level λ.
    cost_of:
        per-edge cost; ``None`` (the default) is the paper's unit-cost
        setting, with no per-edge callback.

    Queue state is ``trimmed``'s per-node cursor array over the flat
    cell arrays of the shared
    :class:`~repro.datastructures.packed.PackedCells`.  Certificates
    are the per-cell cached tuples — already sorted and deduplicated —
    merged only when ``emin`` sits at more than one state's head.
    """
    if budget is None or not start_states:
        return
    if budget == 0:
        yield Walk(graph, (), start=target)
        return

    cells = trimmed.cells
    n_states = cells.n_states
    key_indptr = cells.key_indptr
    cell_ti = cells.cell_ti
    cell_edge = cells.cell_edge
    pred_indptr = cells.cell_pred_indptr
    preds_arr = cells.back.ent_pred
    certs = cells.certs
    cur = trimmed.cursor
    src_arr = graph.src_array
    unit = cost_of is None

    trimmed.acquire()
    chosen: List[int] = []
    # Frame: (vertex, certificate states, remaining budget).
    stack: List[Tuple[int, Tuple[int, ...], int]] = [
        (target, tuple(sorted(start_states)), budget)
    ]
    try:
        while stack:
            u, states, remaining = stack[-1]
            if remaining == 0:
                edges = tuple(reversed(chosen))
                yield Walk.from_edges_unchecked(graph, edges, src_arr[edges[0]])
                stack.pop()
                chosen.pop()
                continue

            base = u * n_states
            # Lines 48-53: queue heads are cursor reads; TgtIdx order
            # within a node makes the head the minimal candidate.
            emin_c = -1
            emin_ti = -1
            for p in states:
                k = base + p
                c = cur[k]
                if c < key_indptr[k + 1]:
                    t = cell_ti[c]
                    if emin_c < 0 or t < emin_ti:
                        emin_c, emin_ti = c, t

            if emin_c < 0:
                # Lines 54-57: restart this node's cursors and return.
                for p in states:
                    k = base + p
                    cur[k] = key_indptr[k]
                stack.pop()
                if chosen:
                    chosen.pop()
                continue

            # Lines 58-65: consume emin at every head carrying it and
            # union the (cached, sorted) certificates.
            single: Optional[Tuple[int, ...]] = None
            merged = None
            for p in states:
                k = base + p
                c = cur[k]
                if c < key_indptr[k + 1] and cell_ti[c] == emin_ti:
                    cur[k] = c + 1
                    cert = certs[c]
                    if cert is None:
                        lo, hi = pred_indptr[c], pred_indptr[c + 1]
                        if hi == lo + 1:
                            cert = (preds_arr[lo],)
                        else:
                            cert = tuple(sorted(set(preds_arr[lo:hi])))
                        certs[c] = cert
                    if merged is not None:
                        merged.update(cert)
                    elif single is None:
                        single = cert
                    elif single != cert:
                        merged = set(single)
                        merged.update(cert)
            child_states = (
                single if merged is None else tuple(sorted(merged))
            )

            emin = cell_edge[emin_c]
            chosen.append(emin)
            stack.append(
                (
                    src_arr[emin],
                    child_states,
                    remaining - 1 if unit else remaining - cost_of(emin),
                )
            )
    finally:
        trimmed.restart_all()
