"""The paper's pipeline on the paper's own structures — a test oracle.

Figure 2 states Annotate / Trim / Enumerate over per-vertex maps
``L_u``, ``B_u`` and queues ``C_u[p]``; Section 4.2 states
``ResumableTrim`` / ``NextOutput`` over skip-pointer arrays.  This
module is that formulation, transcribed: dict-of-dicts ``L``/``B``
built in place,
:class:`~repro.baselines.restartable_queue.RestartableQueue` queues,
:class:`~repro.baselines.resumable_index.ResumableIndex` skip arrays,
the recursive ``Enumerate`` on a
:class:`~repro.baselines.cons_list.ConsList`.  It is also the only
home of what the paper states and production does not run: Section
5.1's ε-native ``PossiblyVisit`` (run it on a
``compile_query(..., eliminate_epsilon=False)``; it drops answers, see
``tests/core/test_epsilon.py``) and both priority queues of the
Dijkstra ``Annotate`` (``heap="binary"`` / ``"pairing"``, EXP-ABL-HEAP).
:mod:`repro.core` stores the same data as flat packed arrays, accepts
ε-free compiles only and has one queue; **nothing is shared** — no
traversal, trim, enumeration, queue or container code, only the public
input types (``CompiledQuery``, ``Walk``, ``PackedCells``).  The test
suite holds the two to identical annotation contents, walk sets and
enumeration order, and step-counts the paper's delay bound on the
structures below.

Stages (each consumes the previous one's plain output):

* :func:`annotate_reference` / :func:`cheapest_annotate_reference` →
  :class:`PaperAnnotation` (``L``, ``B``, ``lam``, ``target_states``);
* :func:`trim_maps` → ``queues[u][p]``; :func:`resumable_trim_maps` →
  ``index[u][p]``;
* :func:`enumerate_walks_recursive` over the queues,
  :func:`next_output` / :func:`enumerate_memoryless` over the index;
* :func:`recursive_walks` — the three stages end to end;
* :func:`packed_from_maps` — ``B`` maps to a
  :class:`~repro.datastructures.packed.PackedCells` store, the bridge
  the cell-order property tests compare against.

Nothing outside ``repro.baselines``, ``tests/``, ``benchmarks/`` and
``examples/`` may import this module (``tests/test_import_graph.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.automata import NFA, regex_to_nfa
from repro.baselines.cons_list import ConsList, nil
from repro.baselines.pairing_heap import HeapNode, PairingHeap
from repro.baselines.restartable_queue import RestartableQueue
from repro.baselines.resumable_index import ResumableIndex
from repro.core.compile import CompiledQuery, compile_epsilon_free
from repro.core.walks import Walk
from repro.datastructures.packed import BackMap, LengthMap, PackedCells
from repro.exceptions import CostError, QueryError
from repro.graph.database import Graph

CostFn = Callable[[int], int]

_HEAPS = ("binary", "pairing")

#: Queue elements: (edge id, tuple of predecessor states).
QueueItem = Tuple[int, Tuple[int, ...]]
#: ``Trim``'s output, ``queues[u][p]`` = ``C_u[p]``.
Queues = List[Dict[int, RestartableQueue]]
#: ``ResumableTrim``'s output, ``index[u][p]``.
Index = List[Dict[int, ResumableIndex]]


def _unit_cost(_e: int) -> int:
    return 1


@dataclass
class PaperAnnotation:
    """``Annotate``'s output as the paper's maps: ``L[u][p]`` and
    ``B[u][p][TgtIdx]`` (predecessor lists in append order, duplicates
    kept).  Field meanings match :class:`repro.core.annotate.Annotation`.
    """

    source: int
    target: Optional[int]
    lam: Optional[int]
    target_states: FrozenSet[int]
    L: List[LengthMap]
    B: List[BackMap]
    saturated: bool = False
    steps: int = 0
    final: FrozenSet[int] = frozenset()
    initial_closure: FrozenSet[int] = frozenset()
    n_states: int = 0

    def target_info(self, t: int) -> Tuple[Optional[int], FrozenSet[int]]:
        """``(λ_t, S_t)`` for an arbitrary target ``t`` (saturated
        annotations, or the annotation's own target)."""
        if not 0 <= t < len(self.L):
            return None, frozenset()
        if t == self.source and (self.initial_closure & self.final):
            return 0, frozenset(self.initial_closure & self.final)
        row = self.L[t]
        reached = [(row[f], f) for f in self.final if f in row]
        if not reached:
            return None, frozenset()
        lam_t = min(level for level, _ in reached)
        return lam_t, frozenset(f for level, f in reached if level == lam_t)

    def annotation_entries(self) -> int:
        """Total number of predecessor entries stored in ``B``."""
        return sum(
            len(preds)
            for vertex_map in self.B
            for cells in vertex_map.values()
            for preds in cells.values()
        )


def annotate_reference(
    cq: CompiledQuery,
    source: int,
    target: Optional[int] = None,
    saturate: bool = False,
) -> PaperAnnotation:
    """The paper's ``Annotate``: edge-major scan of ``Out(v)`` building
    the ``L``/``B`` maps in place.

    The correctness oracle for :func:`repro.core.annotate.annotate`
    (the equivalence property tests run both on random instances).
    Semantics are identical; per frontier pair it costs
    O(OutDeg(v) × |Lbl|) dict probes instead of the CSR traversal's
    output-sensitive bound.
    """
    graph = cq.graph
    n = graph.vertex_count
    out = graph.out_array
    tgt_arr = graph.tgt_array
    ti_arr = graph.tgt_idx_array
    labels_arr = graph.label_array
    delta = cq.delta
    eps = cq.eps
    has_eps = cq.has_eps
    final = cq.final

    L: List[LengthMap] = [{} for _ in range(n)]
    B: List[BackMap] = [{} for _ in range(n)]

    next_pairs: List[Tuple[int, int]] = []
    source_map = L[source]
    for p in sorted(cq.initial_closure):
        source_map[p] = 0
        next_pairs.append((source, p))

    # λ = 0 edge case: the trivial walk ⟨s⟩ matches iff ε ∈ L(A).
    if (
        target is not None
        and target == source
        and (cq.initial_closure & final)
        and not saturate
    ):
        return PaperAnnotation(
            source=source,
            target=target,
            lam=0,
            L=L,
            B=B,
            target_states=frozenset(cq.initial_closure & final),
            final=final,
            initial_closure=cq.initial_closure,
            n_states=cq.n_states,
        )

    stop = False
    level = 0
    while next_pairs and not stop:
        level += 1
        current, next_pairs = next_pairs, []
        for v, q in current:
            dq = delta[q]
            for e in out[v]:
                u = tgt_arr[e]
                level_map = L[u]
                back_map = B[u]
                ti = ti_arr[e]
                for a in labels_arr[e]:
                    targets = dq.get(a)
                    if not targets:
                        continue
                    for p in targets:
                        known = level_map.get(p)
                        if known is None:
                            # First time state p is reached at vertex u.
                            level_map[p] = level
                            next_pairs.append((u, p))
                            if u == target and p in final and not saturate:
                                stop = True
                            back_map.setdefault(p, {}).setdefault(
                                ti, []
                            ).append(q)
                            if has_eps and eps[p]:
                                # PossiblyVisit: ε-closure with the same
                                # predecessor q and edge e.
                                stack = list(eps[p])
                                while stack:
                                    r = stack.pop()
                                    known_r = level_map.get(r)
                                    if known_r is None:
                                        level_map[r] = level
                                        next_pairs.append((u, r))
                                        if (
                                            u == target
                                            and r in final
                                            and not saturate
                                        ):
                                            stop = True
                                        back_map.setdefault(r, {}).setdefault(
                                            ti, []
                                        ).append(q)
                                        stack.extend(eps[r])
                                    elif known_r == level:
                                        back_map[r].setdefault(ti, []).append(
                                            q
                                        )
                        elif known == level:
                            # Another walk of the same (minimal) length
                            # reaches p at u: record the extra witness.
                            back_map[p].setdefault(ti, []).append(q)

    if target is not None and not saturate:
        if stop:
            lam: Optional[int] = level
            target_states = frozenset(
                f for f in final if L[target].get(f) == level
            )
        else:
            lam, target_states = None, frozenset()
        return PaperAnnotation(
            source=source,
            target=target,
            lam=lam,
            L=L,
            B=B,
            target_states=target_states,
            steps=level,
            final=final,
            initial_closure=cq.initial_closure,
            n_states=cq.n_states,
        )

    return PaperAnnotation(
        source=source,
        target=target,
        lam=None,
        L=L,
        B=B,
        target_states=frozenset(),
        saturated=True,
        steps=level,
        final=final,
        initial_closure=cq.initial_closure,
        n_states=cq.n_states,
    )


class _LazyBinaryQueue:
    """``heapq`` with duplicate entries; the caller skips stale pops."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int]] = []

    def update(self, cost: int, v: int, q: int) -> None:
        heapq.heappush(self._heap, (cost, v, q))

    def pop(self) -> Tuple[int, int, int]:
        return heapq.heappop(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class _PairingQueue:
    """Pairing heap with one live node per ``(v, q)`` (decrease-key).

    No stale entries are ever popped, matching the Fredman–Tarjan
    accounting the paper cites for the Dijkstra variant.
    """

    __slots__ = ("_heap", "_handles")

    def __init__(self) -> None:
        self._heap: PairingHeap[int, Tuple[int, int]] = PairingHeap()
        self._handles: Dict[Tuple[int, int], HeapNode] = {}

    def update(self, cost: int, v: int, q: int) -> None:
        node = self._handles.get((v, q))
        if node is None:
            self._handles[(v, q)] = self._heap.push(cost, (v, q))
        elif cost < node.key:
            self._heap.decrease_key(node, cost)

    def pop(self) -> Tuple[int, int, int]:
        cost, (v, q) = self._heap.pop()
        del self._handles[(v, q)]
        return cost, v, q

    def __bool__(self) -> bool:
        return bool(self._heap)


def cheapest_annotate_reference(
    cq: CompiledQuery,
    source: int,
    target: Optional[int] = None,
    saturate: bool = False,
    heap: str = "binary",
) -> PaperAnnotation:
    """The Dijkstra ``Annotate`` on maps: edge-major ``Out(v)`` scan,
    witnesses discarded in place on improvement.

    The correctness oracle for
    :func:`repro.core.cheapest.cheapest_annotate` (equivalence property
    tests); semantics are identical.

    ``heap`` selects the priority queue: ``"binary"`` (lazy-deletion
    ``heapq``, what production runs) or ``"pairing"`` (decrease-key
    pairing heap, one live entry per product node — the structure the
    paper's Fredman–Tarjan citation presumes).  Both produce the same
    annotation content; EXP-ABL-HEAP times one against the other.
    """
    if heap not in _HEAPS:
        raise QueryError(f"unknown heap {heap!r}; expected one of {_HEAPS}")
    graph = cq.graph
    for e in graph.edges():
        if graph.cost(e) <= 0:
            raise CostError(f"edge {e} has non-positive cost {graph.cost(e)}")

    n = graph.vertex_count
    out = graph.out_array
    tgt_arr = graph.tgt_array
    ti_arr = graph.tgt_idx_array
    labels_arr = graph.label_array
    cost_arr = graph.cost_array
    delta = cq.delta
    eps = cq.eps
    has_eps = cq.has_eps
    final = cq.final

    L: List[LengthMap] = [{} for _ in range(n)]
    B: List[BackMap] = [{} for _ in range(n)]
    settled: List[set] = [set() for _ in range(n)]

    queue = _PairingQueue() if heap == "pairing" else _LazyBinaryQueue()
    for p in sorted(cq.initial_closure):
        L[source][p] = 0
        queue.update(0, source, p)

    lam: Optional[int] = None
    if target is not None and target == source and (cq.initial_closure & final):
        lam = 0  # Trivial walk ⟨s⟩ of cost 0.

    def reach(u: int, p: int, via_q: int, ti: int, cost: int) -> None:
        """Relax (u, p) at ``cost`` with witness (via_q, edge at ti)."""
        known = L[u].get(p)
        if known is None or cost < known:
            L[u][p] = cost
            # Better estimate: all previously recorded witnesses
            # belonged to costlier walks — discard them.
            B[u][p] = {ti: [via_q]}
            queue.update(cost, u, p)
        elif cost == known:
            B[u].setdefault(p, {}).setdefault(ti, []).append(via_q)

    steps = 0
    while queue and lam != 0:
        cost, v, q = queue.pop()
        if q in settled[v] or L[v].get(q) != cost:
            continue  # Stale heap entry.
        if lam is not None and cost > lam and not saturate:
            break  # Everything at distance ≤ λ is settled.
        settled[v].add(q)
        steps += 1
        if target is not None and v == target and q in final and lam is None:
            lam = cost
            if not saturate:
                # Keep draining entries of cost ≤ λ so that equal-cost
                # witnesses into the target are all recorded.
                continue
        dq = delta[q]
        for e in out[v]:
            u = tgt_arr[e]
            new_cost = cost + cost_arr[e]
            if lam is not None and new_cost > lam and not saturate:
                continue
            ti = ti_arr[e]
            for a in labels_arr[e]:
                targets = dq.get(a)
                if not targets:
                    continue
                for p in targets:
                    reach(u, p, q, ti, new_cost)
                    if has_eps and eps[p]:
                        stack = list(eps[p])
                        seen = set(eps[p])
                        while stack:
                            r = stack.pop()
                            reach(u, r, q, ti, new_cost)
                            for r2 in eps[r]:
                                if r2 not in seen:
                                    seen.add(r2)
                                    stack.append(r2)

    if target is not None and not saturate:
        if lam == 0:
            target_states: FrozenSet[int] = frozenset(
                cq.initial_closure & final
            )
        elif lam is not None:
            target_states = frozenset(
                f for f in final if L[target].get(f) == lam
            )
        else:
            target_states = frozenset()
        return PaperAnnotation(
            source=source,
            target=target,
            lam=lam,
            L=L,
            B=B,
            target_states=target_states,
            steps=steps,
            final=final,
            initial_closure=cq.initial_closure,
            n_states=cq.n_states,
        )
    return PaperAnnotation(
        source=source,
        target=target,
        lam=None,
        L=L,
        B=B,
        target_states=frozenset(),
        saturated=True,
        steps=steps,
        final=final,
        initial_closure=cq.initial_closure,
        n_states=cq.n_states,
    )


def trim_maps(graph: Graph, annotation) -> Queues:
    """The dict-driven ``Trim``: the queues ``C_u[p]`` as
    ``queues[u][p]`` (states with an empty queue are absent).
    ``annotation`` is anything carrying ``B`` maps — a
    :class:`PaperAnnotation` or the ``B`` view of a production one.

    For every vertex ``u`` and state ``p``, enqueue the pairs
    ``(e, B_u[p][TgtIdx(e)])`` for non-empty cells, in increasing
    ``TgtIdx`` order (Lemma 11).  Predecessor lists are frozen to
    tuples: the enumeration phase must never mutate them.
    """
    in_array = graph.in_array
    queues: Queues = []
    B = annotation.B
    for u in range(len(B)):
        in_list = in_array[u]
        per_state: Dict[int, RestartableQueue] = {}
        for p, cells in B[u].items():
            # Iterating positions in sorted order is equivalent to the
            # paper's In(u) scan and O(k log k) for k non-empty cells
            # (the paper's scan is O(InDeg(u)); both are within the
            # O(|E| × |Q|) total budget).
            items: List[QueueItem] = [
                (in_list[i], tuple(cells[i])) for i in sorted(cells)
            ]
            if items:
                per_state[p] = RestartableQueue(items)
        queues.append(per_state)
    return queues


def resumable_trim_maps(graph: Graph, annotation) -> Index:
    """The dict-driven ``ResumableTrim``: ``index[u][p]`` over the
    cells ``0 .. InDeg(u)-1``, payload of cell ``i`` the (non-empty)
    tuple ``B_u[p][i]``; a missing state means "all cells empty"."""
    index: Index = []
    B = annotation.B
    for u in range(len(B)):
        in_degree = graph.in_degree(u)
        per_state: Dict[int, ResumableIndex] = {}
        for p, cells in B[u].items():
            payloads = {i: tuple(preds) for i, preds in cells.items() if preds}
            if payloads:
                per_state[p] = ResumableIndex(in_degree, payloads)
        index.append(per_state)
    return index


def enumerate_walks_recursive(
    graph: Graph,
    queues: Queues,
    lam: Optional[int],
    target: int,
    start_states: FrozenSet[int],
    cost_of: CostFn = _unit_cost,
) -> Iterator[Walk]:
    """Faithful recursive transcription of the paper's ``Enumerate``.

    Uses a cons-list for the walk under construction (O(1) prepend and
    copy, per Section 2.1) and recursion of depth λ — the order
    oracle for :func:`repro.core.enumerate.enumerate_walks`, which has
    no recursion-depth limit.  ``queues`` is the output of
    :func:`trim_maps`; its cursors are restarted when the generator
    finishes or is closed.  With ``cost_of`` (and the queues of a
    :func:`cheapest_annotate_reference`) ``lam`` is a cost budget and
    a level is the cost still to spend — the cheapest-walk extension.
    """
    if lam is None or not start_states:
        return
    if lam == 0:
        yield Walk(graph, (), start=target)
        return

    ti_arr = graph.tgt_idx_array
    src_arr = graph.src_array

    def recurse(
        level: int, walk: ConsList, states: Iterable[int]
    ) -> Iterator[Walk]:
        # Line 43: u ← Src(w); the walk stores edges, whose first
        # element's source is the current vertex (or t for the root).
        first = next(iter(walk), None)
        u = target if first is None else src_arr[first]
        if level == 0:
            # Line 45: output w.
            yield Walk(graph, tuple(walk))
            return
        per_state = queues[u]
        while True:
            # Lines 48-53.
            emin = -1
            emin_ti = -1
            for p in states:
                queue = per_state.get(p)
                if queue is not None and not queue.exhausted:
                    e = queue.peek()[0]
                    if emin < 0 or ti_arr[e] < emin_ti:
                        emin, emin_ti = e, ti_arr[e]
            if emin < 0:
                # Lines 54-57.
                for p in states:
                    queue = per_state.get(p)
                    if queue is not None:
                        queue.restart()
                return
            # Lines 58-65.
            child_states = set()
            for p in states:
                queue = per_state.get(p)
                if queue is not None and not queue.exhausted:
                    e, preds = queue.peek()
                    if e == emin:
                        child_states.update(preds)
                        queue.advance()
            # Line 66: Enumerate(C, ℓ-1, e·w, S′).
            yield from recurse(
                level - cost_of(emin),
                walk.prepend(emin),
                tuple(sorted(child_states)),
            )

    try:
        yield from recurse(lam, nil, tuple(sorted(start_states)))
    finally:
        for per_vertex in queues:
            for queue in per_vertex.values():
                queue.restart()


class _Frame:
    """One level of the (per-call, local) DFS stack."""

    __slots__ = ("vertex", "states", "cursors", "via_edge", "remaining")

    def __init__(
        self,
        vertex: int,
        states: Tuple[int, ...],
        cursors: Dict[int, Optional[int]],
        via_edge: Optional[int],
        remaining: int,
    ) -> None:
        self.vertex = vertex
        self.states = states
        self.cursors = cursors
        self.via_edge = via_edge
        self.remaining = remaining


def _fresh_cursors(
    index: Index, vertex: int, states: Tuple[int, ...]
) -> Dict[int, Optional[int]]:
    cursors: Dict[int, Optional[int]] = {}
    for p in states:
        cells = index[vertex].get(p)
        cursors[p] = None if cells is None else cells.first()
    return cursors


def next_output(
    graph: Graph,
    index: Index,
    budget: Optional[int],
    target: int,
    start_states: FrozenSet[int],
    previous_edges: Optional[Sequence[int]] = None,
    cost_of: Optional[CostFn] = None,
) -> Optional[Walk]:
    """Compute the output following ``previous_edges`` (or the first).

    ``previous_edges`` is the edge sequence of the previously returned
    walk (source → target order); ``None`` requests the first output.
    Returns ``None`` when the enumeration is finished.  ``index`` (the
    output of :func:`resumable_trim_maps`) is never mutated; every seek
    is one O(1) skip-pointer read, as in the paper.
    """
    if budget is None or not start_states:
        return None
    if budget == 0:
        # Single trivial answer ⟨t⟩; it has no successor.
        return None if previous_edges is not None else Walk(graph, (), start=target)
    if cost_of is None:
        cost_of = _unit_cost

    ti_arr = graph.tgt_idx_array
    src_arr = graph.src_array
    in_arr = graph.in_array

    root_states = tuple(sorted(start_states))
    frames: List[_Frame] = [
        _Frame(target, root_states, {}, None, budget)
    ]

    if previous_edges is None:
        # First call: fresh cursors at the root, then plain DFS below.
        frames[0].cursors = _fresh_cursors(index, target, root_states)
    else:
        # Guided descent along the previous output (read from the
        # target side, since T is a backward-search tree).
        for e in reversed(list(previous_edges)):
            frame = frames[-1]
            u = frame.vertex
            cell = ti_arr[e]
            child_states_set = set()
            cursors: Dict[int, Optional[int]] = {}
            for p in frame.states:
                skip = index[u].get(p)
                if skip is None:
                    cursors[p] = None
                    continue
                payload = skip.payload(cell)
                if payload is not None:
                    child_states_set.update(payload)
                # Invariant: after descending into e, this frame's
                # cursors all sit strictly past TgtIdx(e).
                cursors[p] = skip.after(cell)
            frame.cursors = cursors
            frames.append(
                _Frame(
                    src_arr[e],
                    tuple(sorted(child_states_set)),
                    {},
                    e,
                    frame.remaining - cost_of(e),
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
        u = frame.vertex
        emin_cell = -1
        for p in frame.states:
            cell = frame.cursors.get(p)
            if cell is not None and (emin_cell < 0 or cell < emin_cell):
                emin_cell = cell
        if emin_cell < 0:
            frames.pop()
            continue
        emin = in_arr[u][emin_cell]
        child_states_set = set()
        for p in frame.states:
            if frame.cursors.get(p) == emin_cell:
                skip = index[u][p]
                payload = skip.payload(emin_cell)
                if payload is not None:
                    child_states_set.update(payload)
                frame.cursors[p] = skip.after(emin_cell)
        child_states = tuple(sorted(child_states_set))
        child_vertex = src_arr[emin]
        frames.append(
            _Frame(
                child_vertex,
                child_states,
                _fresh_cursors(index, child_vertex, child_states),
                emin,
                frame.remaining - cost_of(emin),
            )
        )
    return None


def enumerate_memoryless(
    graph: Graph,
    index: Index,
    budget: Optional[int],
    target: int,
    start_states: FrozenSet[int],
) -> Iterator[Walk]:
    """Iterate :func:`next_output` from the first output to the last."""
    walk = next_output(graph, index, budget, target, start_states)
    while walk is not None:
        yield walk
        walk = next_output(
            graph, index, budget, target, start_states, walk.edges
        )


def packed_from_maps(graph: Graph, n_states: int, B: List[BackMap]) -> PackedCells:
    """Store dict-of-dicts ``B`` maps as the production cell store —
    the oracle→production bridge: every node of the maps, cells in
    ``TgtIdx`` order, predecessor lists kept in their recorded order.
    The store pulls nothing more (it has no ``dist``)."""
    in_array = graph.in_array
    store = PackedCells(graph, graph.vertex_count, n_states)
    for u, per_state in enumerate(B[: graph.vertex_count]):
        for p, cells in per_state.items():
            store.publish(
                u * n_states + p,
                [(ti, in_array[u][ti], cells[ti]) for ti in sorted(cells) if cells[ti]],
            )
    return store


def recursive_walks(
    graph: Graph, query, source: Hashable, target: Hashable
) -> Iterator[Walk]:
    """``annotate_reference`` → ``trim_maps`` →
    ``enumerate_walks_recursive`` for one query, with the engine's
    input conventions (regex / AST / NFA; vertex names) — on the
    automaton as written, not on the engine's same-past quotient."""
    nfa = query if isinstance(query, NFA) else regex_to_nfa(query)
    cq = compile_epsilon_free(graph, nfa)
    t = graph.resolve_vertex(target)
    ann = annotate_reference(cq, graph.resolve_vertex(source), t)
    return enumerate_walks_recursive(
        graph, trim_maps(graph, ann), ann.lam, t, ann.target_states
    )
