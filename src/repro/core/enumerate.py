"""The ``Enumerate`` phase (paper, Figure 2 lines 42-66) — and the one
place the cells are walked to produce walks.

``Enumerate`` performs a depth-first traversal of the backward-search
tree ``T`` (Definition 12): nodes are suffixes of answers, the root is
``⟨t⟩``, and the children of a node ``w`` are the walks ``e · w``,
ordered by ``TgtIdx(e)``.  Each node carries a certificate set ``S(w)``
(Definition 14) of automaton states that witness at least one accepting
run; Lemma 15 shows ``S(e · w)`` is the union of the predecessor lists
found for ``e`` at the heads of the queues ``C_u[p]``, ``p ∈ S(w)``.

:func:`enumerate_walks` is an **iterative** DFS: the recursion depth
of the paper's formulation is λ, which would hit Python's recursion
limit on long walks.  Frames carry a *remaining budget* instead of a
depth, which lets the same code serve the Distinct Cheapest Walks
extension (budget = remaining cost, leaf ⇔ budget 0); with unit costs
it is exactly the paper's algorithm.  The DFS runs directly over the
flat cell arrays of the annotation's
:class:`~repro.datastructures.packed.PackedCells` store, whose cells
for the target it has ``Trim`` pull before the first output (one
O(cells) build per target and store, a no-op once done): a node's cell
span is one dict read, queue heads are integer cursor reads, and child
certificates are read from the ``certs`` column, which ``Trim`` wrote
whole when it pulled each cell — the common single-queue-head case
unions nothing and allocates nothing.  The per-edge cost callback
fires only in cheapest mode.

**Level columns.**  The stack is not a list of frame tuples but
preallocated columns indexed by stack height — ``f_at``, ``f_end``,
``f_rem``, ``f_states`` (and ``f_depth``, the node's depth, which only
cheapest mode reads) — so a step rewrites one slot instead of
unpacking and rebuilding a tuple.  Frames on the stack are nodes of
the current root-to-leaf path, one per depth, each with a budget ≥ 1:
under unit costs at most λ of them, so the columns have λ slots.  A
cost budget is not a length, so cheapest mode starts them small and
doubles them as the walk grows — never by the budget.

**Two frame forms, one loop.**  A frame whose certificate is one state
``p`` has as children exactly the cells of ``C_u[p]``, already in
``TgtIdx`` order (Lemma 11): it holds *(next cell, end cell)*, and
taking a child reads that cell's edge and certificate — no cursor, no
``TgtIdx``.  A frame with more states (``f_states`` holds them)
merges its queues' heads through cursors private to the generator: a
product node ``(u, p)`` only ever appears in frames whose remaining
budget is ``dist[u, p]``, so it sits at most once on any DFS stack and
entering a frame simply re-initialises its nodes' cursors.

**A straight-line descent.**  Under unit costs a one-state node never
gets a frame of its own: the loop carries it, as its cell span and
budget, into its next turn.  That turn takes the span's first cell,
pushes a one-state frame for the rest only if there is a rest, and
carries the child on down while the child's certificate is one state —
so a chain of one-state nodes costs one turn per edge and no stack
traffic.  A node one hop from the source emits its cell run as outputs
in one turn, and a merge certificate ends the descent in a frame.

**A frame leaves with its last child.**  Taking a one-state frame's
last cell, or consuming a merge frame's last queue head, pops the
frame in the same turn, so no turn is spent finding a frame exhausted.
The whole enumeration therefore costs one turn per leaf run, per
descent step and per sibling taken from the stack (``diamond_chain``:
1.5 turns per output; a frame per node, popped a turn after its last
child, took 2.0).  A leaf never gets a frame: the step that lands on
budget 0 outputs at once.  A reader writes nothing to the store, and
a build for another target only appends to it, so any number of
enumerations — interleaved, abandoned mid-way, on other threads,
toward any targets — run over one store.

**Outputs are snapshots.**  Under unit costs the edge chosen with
``left`` hops to go is written to slot ``left`` of one λ-slot list,
which is therefore the walk in source → target order: an output is
``tuple(buf)``.  A cost budget is not a length, so cheapest mode keeps
an edge stack (as long as the walk, not as its cost), written at each
frame's depth, and reverses it.

**The DFS can be re-positioned** (Theorem 18's ``NextOutput``).  Queues
are consumed in increasing ``TgtIdx`` order, so once the DFS has
descended into edge ``e`` from a frame, each of that frame's queues
stands at its first cell past ``TgtIdx(e)``.  Given a previous output,
``resume_after`` writes the whole stack into the columns by that rule —
as merge frames, one binary search per (frame, state) over the node's
cell span, O(λ × |A| × log InDeg), keeping only the frames with a cell
left — and the ordinary DFS continues with the next leaf, each node it
enters taking the form its certificate has.  (The paper's skip-pointer
seek is O(1); the cells store only non-empty positions, hence the
logarithm.)  A fresh generator per output, each resumed after the
last walk, is the memoryless enumeration itself: nothing survives
between two outputs but the walk.  An entry that is not a plain ``int`` is not an edge id:
``True`` does not stand for edge 1.

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
        not an output of this enumeration — an entry that is not a
        plain ``int`` included — raises
        :class:`~repro.exceptions.QueryError`.

    Certificates are the cells' stored tuples — already sorted and
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
    certs = cells.certs
    src_arr = graph.src_array
    unit = cost_of is None
    new_walk = Walk.__new__

    # cur[u·|Q| + p] = current cell of C_u[p] and end[…] its span's
    # end; merge frames only.
    cur: Dict[int, int] = {}
    end_of: Dict[int, int] = {}
    # The level columns (module docstring): frame h of the stack is
    # (f_at[h], f_end[h], f_rem[h], f_states[h]), plus the depth
    # f_depth[h] of its node in cheapest mode, whose columns grow with
    # the walk.
    size = budget if unit else max(len(resume_after or ()), 8)
    f_at = [0] * size
    f_end = [0] * size
    f_rem = [0] * size
    f_states: List[Optional[Tuple[int, ...]]] = [None] * size
    f_depth = [0] * size
    sp = -1  # The top frame's height; -1 is an empty stack.
    # The descent (unit costs): a one-state node whose children are the
    # cells lo..hi, at budget r; lo < 0 when there is none.
    lo = hi = -1
    r = budget
    depth = 0  # Cheapest mode: the depth of the node being expanded.
    root_states = tuple(sorted(start_states))
    if resume_after is not None:
        sp = _seek(
            graph, cells, (f_at, f_rem, f_states, f_depth), cur, end_of,
            target, budget, root_states, resume_after, cost_of,
        )
    elif len(root_states) == 1:
        lo, hi = spans[target * n_states + root_states[0]]
        if not unit:
            sp = 0
            f_at[0], f_end[0], f_rem[0] = lo, hi, budget
            lo = -1
    else:
        base = target * n_states
        for p in root_states:
            cur[base + p], end_of[base + p] = spans[base + p]
        sp = 0
        f_at[0], f_rem[0], f_states[0] = target, budget, root_states
    # The walk under construction: ``buf[left]`` under unit costs,
    # ``chosen[depth]`` in cheapest mode (see the module docstring).
    if resume_after is not None:
        buf: List[int] = list(resume_after)
    else:
        buf = [0] * budget if unit else []
    chosen = [] if unit else buf[::-1]

    while lo >= 0 or sp >= 0:
        if lo >= 0:
            # The descent: take the first child, leave its siblings.
            if r == 1:
                # The last level is a run of outputs.
                for c in range(lo, hi):
                    buf[0] = emin = cell_edge[c]
                    walk = new_walk(Walk)
                    walk._graph = graph
                    walk._edges = tuple(buf)
                    walk._start = src_arr[emin]
                    yield walk
                lo = -1
                continue
            emin_c = lo
            if hi - lo > 1:
                sp += 1
                f_at[sp] = lo + 1
                f_end[sp] = hi
                f_rem[sp] = r
                f_states[sp] = None
            lo = -1
            child_states = certs[emin_c]
        else:
            at = f_at[sp]
            r = f_rem[sp]
            states = f_states[sp]
            if not unit:
                depth = f_depth[sp]
            if states is None:
                # One state: the children are the cells at..end, in
                # order; the frame leaves with its last one.
                if at + 1 == f_end[sp]:
                    sp -= 1
                else:
                    f_at[sp] = at + 1
                emin_c = at
                child_states = certs[at]
            else:
                base = at * n_states
                # Lines 48-53: queue heads are cursor reads; TgtIdx
                # order within a node makes the head the minimal
                # candidate.
                emin_c = -1
                emin_ti = -1
                for p in states:
                    k = base + p
                    c = cur[k]
                    if c < end_of[k]:
                        t = cell_ti[c]
                        if emin_c < 0 or t < emin_ti:
                            emin_c, emin_ti = c, t

                # Lines 58-65: consume emin at every head carrying it
                # and union the (stored, sorted) certificates — equal
                # ones are one tuple, so an identity test skips them.  A frame
                # none of whose queues has a cell left leaves the stack
                # now: lines 54-57's return, one turn early.  (The paper
                # restarts the queues there; re-entry does it instead.)
                single: Optional[Tuple[int, ...]] = None
                merged = None
                more = False
                for p in states:
                    k = base + p
                    c = cur[k]
                    end = end_of[k]
                    if c < end:
                        if cell_ti[c] == emin_ti:
                            cert = certs[c]
                            if merged is not None:
                                merged.update(cert)
                            elif single is None:
                                single = cert
                            elif single is not cert:
                                merged = set(single)
                                merged.update(cert)
                            c += 1
                            cur[k] = c
                        if c < end:
                            more = True
                if not more:
                    sp -= 1
                child_states = (
                    single if merged is None else tuple(sorted(merged))
                )

        emin = cell_edge[emin_c]
        child = src_arr[emin]
        if unit:
            left = r - 1
            buf[left] = emin
        else:
            left = r - cost_of(emin)
            chosen[depth:] = (emin,)
            if sp + 1 == len(f_at):
                for column in (f_at, f_end, f_rem, f_states, f_depth):
                    column.extend(column)
        if not left:
            # A leaf gets no frame: output at once.
            walk = new_walk(Walk)
            walk._graph = graph
            walk._edges = tuple(buf) if unit else tuple(chosen[::-1])
            walk._start = child
            yield walk
        elif len(child_states) == 1:
            if unit:
                lo, hi = spans[child * n_states + child_states[0]]
                r = left
            else:
                sp += 1
                f_at[sp], f_end[sp] = spans[child * n_states + child_states[0]]
                f_rem[sp] = left
                f_states[sp] = None
                f_depth[sp] = depth + 1
        else:
            base = child * n_states
            for p in child_states:
                k = base + p
                cur[k], end_of[k] = spans[k]
            sp += 1
            f_at[sp] = child
            f_rem[sp] = left
            f_states[sp] = child_states
            f_depth[sp] = depth + 1


def _seek(
    graph: Graph,
    cells: PackedCells,
    columns: Tuple[list, list, list, list],
    cur: Dict[int, int],
    end_of: Dict[int, int],
    target: int,
    budget: int,
    states: Tuple[int, ...],
    resume_after: Sequence[int],
    cost_of: Optional[CostFn],
) -> int:
    """Guided descent: write the level columns and ``cur`` as the DFS
    had them right after it output ``resume_after``, and return the top
    frame's height — merge frames, whose cursors may stand mid-run, and
    only those with a cell left; frames entered later take their own
    form.

    Walks the previous output from the target backwards; per frame and
    state, one binary search lands the cursor past ``TgtIdx(e)`` and the
    cell found *at* it contributes its certificate to the child frame.
    The sequence was an output iff every entry is an edge id (a plain
    ``int``), every level finds ``e`` itself under a non-empty
    certificate and the budget lands on exactly 0.
    """
    f_at, f_rem, f_states, f_depth = columns
    n_states = cells.n_states
    spans = cells.spans
    cell_ti = cells.cell_ti
    cell_edge = cells.cell_edge
    certs = cells.certs
    ti_arr = graph.tgt_idx_array
    src_arr = graph.src_array
    n_edges = len(ti_arr)
    u, remaining, sp = target, budget, -1
    for depth, e in enumerate(reversed(resume_after)):
        if type(e) is not int or not 0 <= e < n_edges:
            raise _not_an_output()
        base = u * n_states
        ti = ti_arr[e]
        child_states: set = set()
        more = False
        for p in states:
            k = base + p
            lo, hi = spans[k]
            c = bisect_left(cell_ti, ti, lo, hi)
            if c < hi and cell_ti[c] == ti:
                if cell_edge[c] != e:
                    raise _not_an_output()
                child_states.update(certs[c])
                c += 1
            cur[k] = c
            end_of[k] = hi
            if c < hi:
                more = True
        if not child_states:
            raise _not_an_output()
        if more:
            sp += 1
            f_at[sp] = u
            f_rem[sp] = remaining
            f_states[sp] = states
            f_depth[sp] = depth
        u = src_arr[e]
        remaining -= 1 if cost_of is None else cost_of(e)
        states = tuple(sorted(child_states))
    # The guided leaf *is* the previous output, and a leaf has no frame.
    if remaining != 0:
        raise _not_an_output()
    return sp


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
