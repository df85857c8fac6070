"""Distinct Cheapest Walks (paper, Section 5.3).

Edges carry strictly positive integer costs; the problem asks for all
walks from ``s`` to ``t`` matching ``A`` of **minimal total cost**,
each exactly once.  The paper's recipe: replace the BFS of ``Annotate``
with a cheapest-first (Dijkstra) traversal of ``D × A``; ``Trim`` and
``Enumerate`` are unchanged, except that the enumeration tracks a
remaining *cost budget* instead of a remaining length (which
:func:`repro.core.enumerate.enumerate_walks` already supports).

Preprocessing: O(|D|×|A| + |V|×|Q|×(log|V| + log|Q|)) with a binary
heap; delay unchanged at O(λ_e × |A|) where λ_e is the maximal *edge
count* of a cheapest walk (λ_e ≤ λ for integer costs ≥ 1).

Costs must be positive: zero-cost cycles would make the answer set
infinite, and exact budget arithmetic requires integers (float
rounding would corrupt the leaf test ``budget == 0``).

Like the BFS :func:`repro.core.annotate.annotate`, the settle loop is
label-indexed: a popped product node ``(v, q)`` walks the compiled
query's per-state moves (the table the BFS reads) and, per label ``a``,
the out-CSR bucket ``Out_a(v)``, skipping the empty ones — so it
relaxes only the labels in ``labels(Δ(q)) ∩ labels(Out(v))``, with
``L`` carried as the flat per-(vertex, state) cost array of
:mod:`repro.core.annotate`.  As in the BFS, ``B`` is not stored: a
witness of a cost-minimal walk into ``(u, p)`` is an edge ``e`` from a
settled ``(w, q)`` with ``dist[w, q] + cost(e) = dist[u, p]``, so
``Trim`` pulls the asked target's queues from ``dist`` by that test
(:class:`~repro.datastructures.packed.PackedCells` with the edge
costs), and ``Enumerate`` runs on the same store as the BFS pipeline.

It stays a traversal of its own beside the one product BFS
(:class:`repro.core.annotate.AnnotateBFS`): that BFS makes a node final
at the level it is first reached, i.e. in edge-count order, while a
node's cheapest walk may have more edges than its shortest one — a node
is final only when the cost-ordered queue pops it, an order that levels
do not give.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from typing import FrozenSet, Iterator, List, Optional, Tuple

from repro.core.annotate import Annotation
from repro.core.compile import CompiledQuery
from repro.core.engine import PreparedWalks
from repro.core.walks import Walk
from repro.datastructures.packed import PackedCells
from repro.exceptions import CostError


def cheapest_annotate(
    cq: CompiledQuery,
    source: int,
    target: Optional[int] = None,
    saturate: bool = False,
) -> Annotation:
    """Dijkstra-flavoured ``Annotate``: ``L`` maps hold minimal *costs*.

    ``B``, as ``Trim`` pulls it, keeps per ``(u, p, TgtIdx(e))`` the
    predecessor states of *cost-minimal* walks ending with ``e``, so
    Lemma 10's characterization carries over with "length" read as
    "cost".  A run stopped at its target settles every node of cost
    ≤ λ, which is all a pull for it reads.

    The priority queue is a lazy-deletion ``heapq``: an improvement
    pushes a second entry and the stale one is skipped when popped.
    (The decrease-key pairing heap the paper's Fredman–Tarjan citation
    presumes is EXP-ABL-HEAP's other arm, on
    :func:`repro.baselines.paper_pipeline.cheapest_annotate_reference`.)
    """
    cq.require_epsilon_free()
    graph = cq.graph
    cost_arr = graph.cost_array
    if cost_arr and min(cost_arr) <= 0:
        bad = next(e for e, c in enumerate(cost_arr) if c <= 0)
        raise CostError(f"edge {bad} has non-positive cost {cost_arr[bad]}")

    n = graph.vertex_count
    n_states = cq.n_states
    tgt_arr = graph.tgt_array
    indptr, csr_edges = graph.out_csr
    moves = cq.moves
    final = cq.final

    # L, flattened: dist[v * |Q| + p], -1 = unreached.
    dist = array("q", [-1]) * (n * n_states)

    queue: List[Tuple[int, int, int]] = []
    source_base = source * n_states
    for p in sorted(cq.initial_closure):
        dist[source_base + p] = 0
        heappush(queue, (0, source, p))

    lam: Optional[int] = None
    if target is not None and target == source and (cq.initial_closure & final):
        lam = 0  # Trivial walk ⟨s⟩ of cost 0.

    steps = 0
    while queue and lam != 0:
        cost, v, q = heappop(queue)
        if dist[v * n_states + q] != cost:
            # Stale: a push is a strict improvement, so the entry
            # holding the settled cost is the node's only one.
            continue
        if lam is not None and cost > lam and not saturate:
            break  # Everything at distance ≤ λ is settled.
        steps += 1
        if target is not None and v == target and q in final and lam is None:
            lam = cost
            if not saturate:
                # Keep draining entries of cost ≤ λ so that equal-cost
                # witnesses into the target are all recorded.
                continue
        for a, targets in moves[q]:
            b = a * n + v
            start, end = indptr[b], indptr[b + 1]
            if start == end:
                continue
            for j in range(start, end):
                e = csr_edges[j]
                u = tgt_arr[e]
                new_cost = cost + cost_arr[e]
                if lam is not None and new_cost > lam and not saturate:
                    continue
                u_base = u * n_states
                for p in targets:
                    known = dist[u_base + p]
                    if known < 0 or new_cost < known:
                        dist[u_base + p] = new_cost
                        heappush(queue, (new_cost, u, p))

    packed = PackedCells(graph, n, n_states, dist, cq.delta_inv, costed=True)
    if target is not None and not saturate:
        if lam == 0:
            target_states: FrozenSet[int] = frozenset(
                cq.initial_closure & final
            )
        elif lam is not None:
            t_base = target * n_states
            target_states = frozenset(
                f for f in final if dist[t_base + f] == lam
            )
        else:
            target_states = frozenset()
        return Annotation(
            source=source,
            target=target,
            lam=lam,
            target_states=target_states,
            steps=steps,
            final=final,
            initial_closure=cq.initial_closure,
            dist=dist,
            packed=packed,
        )
    return Annotation(
        source=source,
        target=target,
        lam=None,
        target_states=frozenset(),
        saturated=True,
        steps=steps,
        final=final,
        initial_closure=cq.initial_closure,
        dist=dist,
        packed=packed,
    )


class DistinctCheapestWalks(PreparedWalks):
    """User-facing driver for the Distinct Cheapest Walks extension.

    >>> from repro.graph import GraphBuilder
    >>> from repro.automata import regex_to_nfa
    >>> b = GraphBuilder()
    >>> _ = b.add_edge("a", "b", ["x"], cost=3)
    >>> _ = b.add_edge("a", "b", ["x"], cost=2)
    >>> engine = DistinctCheapestWalks(b.build(), regex_to_nfa("x"), "a", "b")
    >>> [w.cost() for w in engine.enumerate()]
    [2]
    """

    cheapest = True

    def _annotate(self, until: Optional[int]) -> Annotation:
        return cheapest_annotate(self._cq, self.source, self.target)

    @property
    def cheapest_cost(self) -> Optional[int]:
        """Minimal matching walk cost (``None`` when no walk matches)."""
        return self.annotation.lam

    def enumerate(self) -> Iterator[Walk]:
        """Enumerate all distinct cheapest matching walks."""
        return self._walks(self.target)

    def __iter__(self) -> Iterator[Walk]:
        return self.enumerate()

    def count(self, method: str = "enumerate") -> int:
        """Number of distinct cheapest walks.

        ``method="dp"`` counts via the backward-tree dynamic program
        (cost-budgeted), without enumerating.
        """
        return self._count(self.target, method)
