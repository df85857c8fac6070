"""The ``Enumerate`` phase (paper, Figure 2 lines 42-66) — and the one
place the cells are walked to produce walks.

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
directly over the flat cell arrays of the annotation's
:class:`~repro.datastructures.packed.PackedCells` store, whose cells
for the target it has ``Trim`` pull before the first output (one
O(cells) build per target and store, a no-op once done): a node's cell
span is one dict read, queue heads are integer cursor reads, and child
certificates come from the per-cell cached tuples — the common
single-queue-head case unions nothing and allocates nothing.  The
per-edge cost callback fires only in cheapest mode.

**Two frame forms, one loop.**  A frame whose certificate is one state
``p`` has as children exactly the cells of ``C_u[p]``, already in
``TgtIdx`` order (Lemma 11): it carries *(next cell, end cell)*, and a
descent reads that cell's edge and certificate — no cursor, no
``TgtIdx``.  A frame with more states merges its queues' heads through
cursors private to the generator: a product node ``(u, p)`` only ever
appears in frames whose remaining budget is ``dist[u, p]``, so it sits
at most once on any DFS stack and entering a frame simply
re-initialises its nodes' cursors.  A leaf gets no frame — the descent
that lands on budget 0 outputs at once — and under unit costs a
one-state frame one hop from the source emits its cell run in a row.
Nothing is written to the cells a reader uses (bar the benign
certificate cache) — a build for another target only appends — so any
number of enumerations — interleaved, abandoned mid-way, on other
threads, toward any targets — run over one store.

**Outputs are snapshots.**  Under unit costs the edge chosen with
``left`` hops to go is written to slot ``left`` of one λ-slot list,
which is therefore the walk in source → target order: an output is
``tuple(buf)``.  A cost budget is not a length, so cheapest mode keeps
an edge stack (as long as the walk, not as its cost) and reverses it.

**The DFS can be re-positioned** (Theorem 18's ``NextOutput``).  Queues
are consumed in increasing ``TgtIdx`` order, so once the DFS has
descended into edge ``e`` from a frame, each of that frame's queues
stands at its first cell past ``TgtIdx(e)``.  Given a previous output,
``resume_after`` rebuilds the whole stack by that rule — as merge
frames, one binary search per (frame, state) over the node's cell
span, O(λ × |A| × log InDeg) — and the ordinary DFS continues with the
next leaf, each frame it enters taking the form its certificate has.
(The paper's skip-pointer seek is O(1); the cells store only non-empty
positions, hence the logarithm.)

Delay: between two consecutive outputs the DFS traverses at most 2λ
tree edges, each costing O(|Q| + Σ_p |X_p|) = O(|A|) — hence the
O(λ × |A|) bound of Theorem 2.  No output is ever produced twice.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.walks import Walk
from repro.datastructures.packed import PackedCells
from repro.exceptions import QueryError
from repro.graph.database import Graph

#: Edge-cost callback; unit costs reproduce the paper's setting.
CostFn = Callable[[int], int]

#: DFS frame, in one of two forms: (vertex, -1, remaining budget,
#: certificate states) merges its states' queues; (next cell, end cell,
#: remaining budget, None) walks the cell run of a one-state certificate.
_Frame = Tuple[int, int, int, Optional[Tuple[int, ...]]]


def _not_an_output() -> QueryError:
    return QueryError("cursor does not match any output of this enumeration")


def enumerate_walks(
    graph: Graph,
    cells: PackedCells,
    budget: Optional[int],
    target: int,
    start_states: FrozenSet[int],
    cost_of: Optional[CostFn] = None,
    resume_after: Optional[Sequence[int]] = None,
) -> Iterator[Walk]:
    """Enumerate distinct shortest (or cheapest) walks, leftmost-first.

    Parameters
    ----------
    cells:
        the annotation's cell store (:func:`~repro.core.trim.trim`);
        the target's cells are built in it before the first output.
    budget:
        λ — the length (or total cost) of the answers.  ``None`` or an
        empty ``start_states`` yields nothing (no matching walk);
        ``0`` yields the trivial walk ``⟨target⟩``.
    start_states:
        ``S(⟨t⟩)`` — the final states reached at the target at level λ.
    cost_of:
        per-edge cost; ``None`` (the default) is the paper's unit-cost
        setting, with no per-edge callback.
    resume_after:
        the edge sequence (source → target order) of a previous output:
        the enumeration continues strictly *after* that walk, in O(λ)
        seeks instead of a replay of the prefix.  A sequence that is
        not an output of this enumeration raises
        :class:`~repro.exceptions.QueryError`.

    Certificates are the per-cell cached tuples — already sorted and
    deduplicated — merged only when ``emin`` sits at more than one
    state's head.
    """
    if budget is None or not start_states:
        if resume_after is not None:
            raise _not_an_output()
        return
    if budget == 0:
        if resume_after is None:
            yield Walk(graph, (), start=target)
        elif len(resume_after):
            raise _not_an_output()
        return

    cells.build(target, start_states)
    n_states = cells.n_states
    spans = cells.spans
    cell_ti = cells.cell_ti
    cell_edge = cells.cell_edge
    pred_indptr = cells.cell_pred_indptr
    preds_arr = cells.ent_pred
    certs = cells.certs
    src_arr = graph.src_array
    unit = cost_of is None
    new_walk = Walk.__new__

    # cur[u·|Q| + p] = current cell of C_u[p] and end[…] its span's
    # end; merge frames only.
    cur: Dict[int, int] = {}
    end_of: Dict[int, int] = {}
    root_states = tuple(sorted(start_states))
    stack: List[_Frame] = [(target, -1, budget, root_states)]
    if resume_after is not None:
        _seek(graph, cells, stack, cur, end_of, resume_after, cost_of)
    elif len(root_states) == 1:
        stack[0] = (*spans[target * n_states + root_states[0]], budget, None)
    else:
        base = target * n_states
        for p in root_states:
            cur[base + p], end_of[base + p] = spans[base + p]
    # The walk under construction: ``buf[left]`` under unit costs,
    # ``chosen[depth]`` in cheapest mode (see the module docstring).
    if resume_after is not None:
        buf: List[int] = list(resume_after)
    else:
        buf = [0] * budget if unit else []
    chosen = [] if unit else buf[::-1]

    while stack:
        at, end, remaining, states = stack[-1]
        if states is None:
            # One state: the children are the cells at..end, in order.
            if at == end:
                stack.pop()
                continue
            if unit and remaining == 1:
                # The last level is a run of outputs; the frame goes
                # first, so a close() mid-run leaves nothing behind.
                stack.pop()
                for c in range(at, end):
                    buf[0] = emin = cell_edge[c]
                    walk = new_walk(Walk)
                    walk._graph = graph
                    walk._edges = tuple(buf)
                    walk._start = src_arr[emin]
                    yield walk
                continue
            stack[-1] = (at + 1, end, remaining, None)
            emin_c = at
            child_states = certs[at]
            if child_states is None:
                child_states = cells.cert(at)
        else:
            base = at * n_states
            # Lines 48-53: queue heads are cursor reads; TgtIdx order
            # within a node makes the head the minimal candidate.
            emin_c = -1
            emin_ti = -1
            for p in states:
                k = base + p
                c = cur[k]
                if c < end_of[k]:
                    t = cell_ti[c]
                    if emin_c < 0 or t < emin_ti:
                        emin_c, emin_ti = c, t

            if emin_c < 0:
                # Lines 54-57: every queue is exhausted — return.  (The
                # paper restarts the queues here; re-entry does it instead.)
                stack.pop()
                continue

            # Lines 58-65: consume emin at every head carrying it and
            # union the (cached, sorted) certificates.
            single: Optional[Tuple[int, ...]] = None
            merged = None
            for p in states:
                k = base + p
                c = cur[k]
                if c < end_of[k] and cell_ti[c] == emin_ti:
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
        child = src_arr[emin]
        if unit:
            left = remaining - 1
            buf[left] = emin
        else:
            left = remaining - cost_of(emin)
            chosen[len(stack) - 1:] = (emin,)
        if not left:
            # A leaf gets no frame: output at once.
            walk = new_walk(Walk)
            walk._graph = graph
            walk._edges = tuple(buf) if unit else tuple(chosen[::-1])
            walk._start = child
            yield walk
        elif len(child_states) == 1:
            lo, hi = spans[child * n_states + child_states[0]]
            stack.append((lo, hi, left, None))
        else:
            base = child * n_states
            for p in child_states:
                k = base + p
                cur[k], end_of[k] = spans[k]
            stack.append((child, -1, left, child_states))


def _seek(
    graph: Graph,
    cells: PackedCells,
    stack: List[_Frame],
    cur: Dict[int, int],
    end_of: Dict[int, int],
    resume_after: Sequence[int],
    cost_of: Optional[CostFn],
) -> None:
    """Guided descent: leave ``stack`` / ``cur`` as the DFS had them
    right after it output ``resume_after`` — as merge frames, whose
    cursors may stand mid-run; frames entered later take their own form.

    Walks the previous output from the target backwards; per frame and
    state, one binary search lands the cursor past ``TgtIdx(e)`` and the
    cell found *at* it contributes its certificate to the child frame.
    The sequence was an output iff every level finds ``e`` itself under
    a non-empty certificate and the budget lands on exactly 0.
    """
    n_states = cells.n_states
    spans = cells.spans
    cell_ti = cells.cell_ti
    cell_edge = cells.cell_edge
    cert_of = cells.cert
    ti_arr = graph.tgt_idx_array
    src_arr = graph.src_array
    n_edges = len(ti_arr)
    for e in reversed(resume_after):
        if not 0 <= e < n_edges:
            raise _not_an_output()
        u, _, remaining, states = stack[-1]
        base = u * n_states
        ti = ti_arr[e]
        child_states: set = set()
        for p in states:
            k = base + p
            lo, hi = spans[k]
            c = bisect_left(cell_ti, ti, lo, hi)
            if c < hi and cell_ti[c] == ti:
                if cell_edge[c] != e:
                    raise _not_an_output()
                child_states.update(cert_of(c))
                c += 1
            cur[k] = c
            end_of[k] = hi
        if not child_states:
            raise _not_an_output()
        stack.append(
            (
                src_arr[e],
                -1,
                remaining - (1 if cost_of is None else cost_of(e)),
                tuple(sorted(child_states)),
            )
        )
    # The guided leaf *is* the previous output, and a leaf has no frame.
    if stack.pop()[2] != 0:
        raise _not_an_output()


def skip_past_cursor(
    walks: Iterator[Walk], resume_after: Optional[Sequence[int]]
) -> Iterator[Walk]:
    """``resume_after`` for a stream with no cells to seek in (the
    restricted fallback DFS, an any-walk witness): replay it, dropping
    outputs up to and including that walk — O(position), and the same
    error when it never shows up."""
    if resume_after is None:
        return walks
    cursor = tuple(resume_after)

    def replay() -> Iterator[Walk]:
        stream = iter(walks)
        for walk in stream:
            if walk.edges == cursor:
                yield from stream
                return
        raise _not_an_output()

    return replay()
