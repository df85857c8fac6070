"""Any-walk fast path: one witness per target, no enumeration machinery.

The ``any`` semantics (Cypher/GQL's ``ANY`` path mode; see "Designing
and Comparing RPQ Semantics") asks for a *single* matching walk per
``(source, target)`` pair rather than the full distinct-shortest-walk
answer set.  That needs none of the Annotate → Trim → Enumerate
machinery: a plain BFS over the product ``D × A`` with parent pointers
finds one globally shortest witness and reconstructs it in O(λ).

:func:`any_walk_search` is that BFS.  With a concrete ``targets`` set
it early-exits at the end of the first level that reaches any of them
in a final state (exactly the ``Annotate`` stopping rule, minus all
``B``-entry bookkeeping); with ``targets=None`` it saturates the
reachable product and returns a witness for *every* reachable target.

Determinism: the frontier is processed in insertion order and each
vertex's out-edges in ascending edge-id order, and a ``(vertex,
state)`` pair's parent pointer is fixed at first discovery — so the
witness returned for a target is a pure function of the instance, and
repeated queries (or pagination re-runs) see the same walk.  The
instance includes the *compiled* states: which shortest walk is found
first depends on which product nodes exist and in what order the state
tuples list them, so a compile-time transformation (the same-past
merge of :mod:`repro.core.compile`) may change the witness — never its
length, never its validity — and it was never promised to be the walk
``ALL SHORTEST`` enumerates first.

The witness walk is shortest among *walks* — the any-walk λ equals the
plain-walks λ.  Remark 17's distinct-walk count does not apply here:
the answer is one walk, not an answer set (see
:mod:`repro.api.query`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.compile import CompiledQuery

__all__ = ["any_walk_search"]

#: parent[(v, p)] = (prev_v, prev_q, edge) — or None for a start pair.
_Parent = Optional[Tuple[int, int, int]]


def _reconstruct(
    parent: Dict[Tuple[int, int], _Parent], v: int, p: int
) -> Tuple[int, ...]:
    edges: List[int] = []
    node: Tuple[int, int] = (v, p)
    while True:
        link = parent[node]
        if link is None:
            break
        prev_v, prev_q, e = link
        edges.append(e)
        node = (prev_v, prev_q)
    edges.reverse()
    return tuple(edges)


def any_walk_search(
    cq: CompiledQuery,
    source: int,
    targets: Optional[Iterable[int]] = None,
) -> Dict[int, Tuple[int, Tuple[int, ...]]]:
    """One shortest witness walk per reached target.

    Returns ``{target: (λ_t, edge_ids)}``.  With ``targets`` given,
    the BFS stops at the end of the first level reaching any of them
    (only those targets appear in the result); with ``targets=None``
    it saturates and reports every vertex reachable in a final state.
    """
    cq.require_epsilon_free()
    graph = cq.graph
    out = graph.out_array
    tgt_arr = graph.tgt_array
    labels_arr = graph.label_array
    delta = cq.delta
    final = cq.final
    wanted: Optional[Set[int]] = None if targets is None else set(targets)

    parent: Dict[Tuple[int, int], _Parent] = {}
    #: Per target: (λ_t, final state) of the first (hence minimal-λ,
    #: smallest-state) hit — the witness is reconstructed at the end.
    hits: Dict[int, Tuple[int, int]] = {}

    frontier: List[Tuple[int, int]] = []
    for p in sorted(cq.initial_closure):
        parent[(source, p)] = None
        frontier.append((source, p))

    def record(v: int, p: int, level: int) -> None:
        if p in final and v not in hits and (wanted is None or v in wanted):
            hits[v] = (level, p)

    # λ = 0: the trivial walk ⟨source⟩ matches iff ε ∈ L(A).
    if cq.initial_closure & final:
        f0 = min(cq.initial_closure & final)
        if wanted is None or source in wanted:
            hits[source] = (0, f0)

    level = 0
    while frontier:
        if wanted is not None and hits:
            break  # Early exit: some wanted target was reached.
        level += 1
        current, frontier = frontier, []
        for v, q in current:
            for e in out[v]:
                u = tgt_arr[e]
                for a in labels_arr[e]:
                    succ = delta[q].get(a)
                    if not succ:
                        continue
                    for p in succ:
                        if (u, p) in parent:
                            continue
                        parent[(u, p)] = (v, q, e)
                        frontier.append((u, p))
                        record(u, p, level)

    return {
        t: (lam_t, _reconstruct(parent, t, p) if lam_t else ())
        for t, (lam_t, p) in hits.items()
    }
