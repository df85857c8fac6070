"""Memoryless enumeration — ``NextOutput`` (paper, Section 4.2, Thm 18).

A *memoryless* enumeration algorithm computes the (i+1)-th output from
the i-th output and the (read-only) precomputed structures alone; no
cursor state survives between outputs.  The paper obtains this by
replacing the queues ``C_u[p]`` with skip-indexed arrays
(``ResumableTrim``) that can be *seeked*: given the previous output
``w``, a guided descent re-positions local integer cursors along
``w``'s path in the backward-search tree, then the ordinary DFS resumes
and produces exactly the next leaf.

The output sequence is identical to
:func:`repro.core.enumerate.enumerate_walks`.  The shared structure is
the annotation's flat cell arrays
(:class:`~repro.datastructures.packed.PackedCells`): a frame cursor is
an absolute cell position, certificates come from the per-cell cached
tuples, and a seek is a binary search over the node's
``TgtIdx``-ascending cell span.  **The paper's O(1) seek (one skip
pointer per in-edge position) is O(log InDeg) here**: the cells store
only non-empty positions, so the delay is O(λ × |A| × log max-InDeg)
in the worst case — a span has at most ``InDeg(u)`` cells and in
practice a handful.  Nothing is ever written to the shared arrays, so
any number of concurrent enumerations may run — the property the
batched query service's annotation cache relies on.

Key cursor invariant (matching the eager enumerator): when the DFS has
descended into edge ``e`` from a frame at vertex ``u``, every queue of
that frame is positioned at its first non-empty cell with
``TgtIdx > TgtIdx(e)`` — queues consume cells in globally increasing
``TgtIdx`` order, so the guided descent can restore all cursors with a
single seek past ``TgtIdx(e)`` per state.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.core.walks import Walk
from repro.datastructures.packed import PackedCells
from repro.graph.database import Graph

CostFn = Callable[[int], int]


class _Frame:
    """One level of the (per-call, local) DFS stack."""

    __slots__ = ("vertex", "states", "cursors", "via_edge", "remaining")

    def __init__(
        self,
        vertex: int,
        states: Tuple[int, ...],
        cursors: Dict[int, int],
        via_edge: Optional[int],
        remaining: int,
    ) -> None:
        self.vertex = vertex
        self.states = states
        self.cursors = cursors
        self.via_edge = via_edge
        self.remaining = remaining


def next_output(
    graph: Graph,
    cells: PackedCells,
    budget: Optional[int],
    target: int,
    start_states: FrozenSet[int],
    previous_edges: Optional[Sequence[int]] = None,
    cost_of: Optional[CostFn] = None,
) -> Optional[Walk]:
    """Compute the output following ``previous_edges`` (or the first).

    ``previous_edges`` is the edge sequence of the previously returned
    walk (source → target order); ``None`` requests the first output.
    Returns ``None`` when the enumeration is finished.  The shared
    ``cells`` (:func:`~repro.core.trim.resumable_trim`) are never
    mutated: frame cursors are absolute cell positions local to this
    call (a cursor at its node's span end ⇔ that queue is exhausted),
    and the guided descent re-positions them with one binary search
    per (frame, state) over the node's ``TgtIdx`` span.
    """
    if budget is None or not start_states:
        return None
    if budget == 0:
        # Single trivial answer ⟨t⟩; it has no successor.
        return None if previous_edges is not None else Walk(graph, (), start=target)
    n_states = cells.n_states
    key_indptr = cells.key_indptr
    cell_ti = cells.cell_ti
    cell_edge = cells.cell_edge
    n = cells.n
    ti_arr = graph.tgt_idx_array
    src_arr = graph.src_array
    unit = cost_of is None
    cert_of = cells.cert

    def fresh_cursors(
        vertex: int, states: Tuple[int, ...]
    ) -> Dict[int, int]:
        base = vertex * n_states
        return {p: key_indptr[base + p] for p in states}

    root_states = tuple(sorted(start_states))
    frames: List[_Frame] = [
        _Frame(target, root_states, {}, None, budget)
    ]

    if previous_edges is None:
        if target >= n:
            # Outside the annotation's vertex range (a live graph grew
            # after caching): provably no matching walk — callers
            # normally never get here because λ_t is already None.
            return None
        frames[0].cursors = fresh_cursors(target, root_states)
    else:
        # Guided descent along the previous output.
        for e in reversed(list(previous_edges)):
            frame = frames[-1]
            base = frame.vertex * n_states
            ti = ti_arr[e]
            child_states_set = set()
            cursors: Dict[int, int] = {}
            for p in frame.states:
                k = base + p
                lo, hi = key_indptr[k], key_indptr[k + 1]
                c = bisect_left(cell_ti, ti, lo, hi)
                if c < hi and cell_ti[c] == ti:
                    child_states_set.update(cert_of(c))
                    cursors[p] = c + 1
                else:
                    # No cell at TgtIdx(e) for this state: the cursor
                    # lands on the first cell strictly past it.
                    cursors[p] = c
            frame.cursors = cursors
            frames.append(
                _Frame(
                    src_arr[e],
                    tuple(sorted(child_states_set)),
                    {},
                    e,
                    frame.remaining - (1 if unit else cost_of(e)),
                )
            )
        # The guided leaf *is* the previous output: skip it.
        frames.pop()

    # Ordinary DFS, resumed from the reconstructed stack.
    while frames:
        frame = frames[-1]
        if frame.remaining == 0:
            edges = tuple(
                f.via_edge for f in reversed(frames) if f.via_edge is not None
            )
            return Walk.from_edges_unchecked(graph, edges, src_arr[edges[0]])
        base = frame.vertex * n_states
        cursors = frame.cursors
        emin_c = -1
        emin_ti = -1
        for p in frame.states:
            c = cursors[p]
            if c < key_indptr[base + p + 1]:
                t = cell_ti[c]
                if emin_c < 0 or t < emin_ti:
                    emin_c, emin_ti = c, t
        if emin_c < 0:
            frames.pop()
            continue
        single: Optional[Tuple[int, ...]] = None
        merged = None
        for p in frame.states:
            c = cursors[p]
            if c < key_indptr[base + p + 1] and cell_ti[c] == emin_ti:
                cursors[p] = c + 1
                cert = cert_of(c)
                if merged is not None:
                    merged.update(cert)
                elif single is None:
                    single = cert
                elif single != cert:
                    merged = set(single)
                    merged.update(cert)
        child_states = single if merged is None else tuple(sorted(merged))
        emin = cell_edge[emin_c]
        child_vertex = src_arr[emin]
        frames.append(
            _Frame(
                child_vertex,
                child_states,
                fresh_cursors(child_vertex, child_states),
                emin,
                frame.remaining - (1 if unit else cost_of(emin)),
            )
        )
    return None


def enumerate_memoryless(
    graph: Graph,
    cells: PackedCells,
    budget: Optional[int],
    target: int,
    start_states: FrozenSet[int],
    cost_of: Optional[CostFn] = None,
    resume_after: Optional[Sequence[int]] = None,
) -> Iterator[Walk]:
    """Generator facade over :func:`next_output`.

    Each step forgets everything except the previous walk — the
    generator exists purely for caller convenience and can be resumed
    from any output by calling :func:`next_output` directly, or by
    passing that output's edge sequence as ``resume_after`` (the O(1)
    cursor the query service hands out for limit/offset pagination:
    the enumeration continues strictly *after* that walk).
    """
    if budget == 0 and start_states:
        # The single trivial answer ⟨t⟩; a resume point means it was
        # already delivered.
        if resume_after is None:
            yield Walk(graph, (), start=target)
        return
    previous = tuple(resume_after) if resume_after is not None else None
    walk = next_output(
        graph, cells, budget, target, start_states, previous, cost_of
    )
    while walk is not None:
        yield walk
        walk = next_output(
            graph, cells, budget, target, start_states, walk.edges, cost_of
        )
