"""Trail / simple-path semantics over the product construction.

The paper's machinery enumerates *distinct shortest walks*; Martens &
Trautner (arXiv:1710.02317) study the same enumeration problem under
the classic walk restrictions — **trails** (no repeated edge) and
**simple paths** (no repeated vertex).  This module implements both on
top of the existing pipeline in two regimes:

1. **Filter regime** (the common case).  Every restricted walk is a
   walk, so the shortest restricted length ``rλ`` is at least the
   walk λ.  When at least one of the length-λ distinct shortest walks
   satisfies the restriction, ``rλ = λ`` and the restricted answer set
   is exactly the λ-walk stream filtered by a per-walk edge/vertex-set
   check — an O(λ) predicate per output, preserving the paper's
   enumeration order and delay bounds.

2. **Fallback regime**.  When *no* length-λ walk passes (shortest-walk
   pruning is unsound for the restricted semantics: the shortest trail
   may be strictly longer than the shortest walk), the module falls
   back to a guided product-DFS: iterative deepening from ``λ + 1`` up
   to the restriction's natural bound (``|V| − 1`` edges for simple
   paths, ``|E|`` for trails), exploring restricted walks only (the
   restriction prunes exactly — every extension of a non-trail is a
   non-trail) and carrying the reachable NFA state set for language
   pruning.  Outputs are distinct by construction (distinct edge
   sequences) and enumerated in DFS order with ascending edge ids —
   deterministic, though not the paper's order.  The fallback is
   exponential in the worst case and runs only when the cheap regime
   produced nothing.

   The fallback is a traversal of its own beside the one product BFS
   (:class:`repro.core.annotate.AnnotateBFS`): the BFS keeps, per
   product node, only the walks of its shortest length, and the walks
   the fallback enumerates are longer than λ — a trail may have to
   reach a node late to avoid an edge it already used — so no level
   structure holds them.

Remark 17's entry-count bound (and the memoized counting DP) applies
to the *walks* semantics only; restricted answer sets are produced by
enumeration, never by the DP.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.core.compile import CompiledQuery
from repro.core.walks import Walk
from repro.graph.database import Graph

__all__ = [
    "restriction_predicate",
    "restricted_lam",
    "restricted_filter",
    "fallback_walks",
]

#: The restricted semantics kinds this module implements.
KINDS = ("trails", "simple")


def restriction_predicate(
    kind: str, graph: Graph
) -> Callable[[Tuple[int, ...], int], bool]:
    """``pred(edges, source) -> bool`` for one restriction kind.

    The empty walk ``⟨s⟩`` satisfies both restrictions.
    """
    if kind == "trails":

        def pred(edges: Tuple[int, ...], source: int) -> bool:
            return len(set(edges)) == len(edges)

        return pred
    if kind == "simple":
        tgt = graph.tgt

        def pred(edges: Tuple[int, ...], source: int) -> bool:
            seen = {source}
            for e in edges:
                u = tgt(e)
                if u in seen:
                    return False
                seen.add(u)
            return True

        return pred
    raise ValueError(f"unknown restriction kind {kind!r}")


def _step(
    cq: CompiledQuery, states: FrozenSet[int], e: int
) -> FrozenSet[int]:
    """One edge move of the NFA state set (any label of ``e``)."""
    delta = cq.delta
    successors = set()
    for a in cq.graph.label_array[e]:
        for q in states:
            successors.update(delta[q].get(a, ()))
    return frozenset(successors)


def _depth_bound(kind: str, graph: Graph) -> int:
    """The restriction's natural walk-length ceiling."""
    if kind == "simple":
        return max(graph.vertex_count - 1, 0)
    return graph.edge_count


def _walks_at_depth(
    graph: Graph,
    cq: CompiledQuery,
    source: int,
    target: int,
    kind: str,
    depth: int,
) -> Iterator[Tuple[int, ...]]:
    """All restricted accepted walks of exactly ``depth`` edges.

    DFS over out-edges in ascending edge-id order; prunes on
    restriction violation (exact) and on an empty NFA state set.
    """
    final = cq.final
    if depth == 0:
        if source == target and (cq.initial_closure & final):
            yield ()
        return
    out = graph.out_array
    tgt = graph.tgt
    simple = kind == "simple"
    used: set = {source} if simple else set()
    edges: List[int] = []

    def explore(v: int, states: FrozenSet[int]) -> Iterator[Tuple[int, ...]]:
        if len(edges) == depth:
            if v == target and (states & final):
                yield tuple(edges)
            return
        for e in out[v]:
            u = tgt(e)
            if simple:
                if u in used:
                    continue
            elif e in used:
                continue
            nxt = _step(cq, states, e)
            if not nxt:
                continue
            used.add(u if simple else e)
            edges.append(e)
            yield from explore(u, nxt)
            edges.pop()
            used.discard(u if simple else e)

    yield from explore(source, frozenset(cq.initial_closure))


def restricted_lam(
    graph: Graph,
    cq: CompiledQuery,
    source: int,
    target: int,
    walk_lam: Optional[int],
    kind: str,
    shortest_walks: Callable[[], Iterable[Walk]],
) -> Optional[Tuple[int, str]]:
    """``(rλ, regime)`` for one ``(source, target)`` bucket, or ``None``.

    ``regime`` is ``"filter"`` when ``rλ`` equals the walk λ (the
    restricted answers are the filtered shortest-walk stream) and
    ``"fallback"`` when the guided product-DFS found strictly longer
    restricted answers.  ``None`` means no restricted walk matches at
    all.  ``shortest_walks`` must produce a *fresh* iterator over the
    length-λ distinct shortest walks; it is only consumed until the
    first surviving output.
    """
    cq.require_epsilon_free()
    if walk_lam is None:
        return None
    pred = restriction_predicate(kind, graph)
    for walk in shortest_walks():
        if pred(walk.edges, source):
            return walk_lam, "filter"
    bound = _depth_bound(kind, graph)
    for depth in range(walk_lam + 1, bound + 1):
        for _ in _walks_at_depth(graph, cq, source, target, kind, depth):
            return depth, "fallback"
    return None


def restricted_filter(
    graph: Graph,
    kind: str,
    source: int,
    walks: Iterable[Walk],
) -> Iterator[Walk]:
    """The filter regime's stream: restricted outputs of ``walks``."""
    pred = restriction_predicate(kind, graph)
    return (w for w in walks if pred(w.edges, source))


def fallback_walks(
    graph: Graph,
    cq: CompiledQuery,
    source: int,
    target: int,
    kind: str,
    rlam: int,
) -> Iterator[Walk]:
    """The fallback regime's stream: all restricted answers at ``rλ``."""
    cq.require_epsilon_free()
    return (
        Walk.from_edges_unchecked(graph, edges, source)
        for edges in _walks_at_depth(graph, cq, source, target, kind, rlam)
    )
