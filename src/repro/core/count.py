"""Counting companions to the enumeration (no-enumeration aggregates).

Three counters, all computed without listing a single walk:

* :func:`count_distinct_shortest` — ``|⟦A⟧(D, s, t)|``, the number of
  answers, via a memoized dynamic program over the backward-search
  tree ``T`` (Definition 12).  Query languages with all-shortest-walks
  semantics need this for ``COUNT(*)`` pushdown, and the test suite
  uses it to cross-check the enumeration;
* :func:`count_shortest_product_paths` — the number of shortest paths
  of the product graph ``D × A`` that witness the answers: the exact
  amount of work the naive baseline performs, and hence the size of
  the duplicate blowup (``product_paths / answers`` copies per answer,
  Section 1);
* :func:`count_total_multiplicity` — ``Σ_w multiplicity(w)`` over all
  answers ``w``, where the multiplicity is the number of accepting
  (word, run) pairs of Section 5.3.  Cross-checks
  ``enumerate_with_multiplicity``.

Complexity.  The product-path and multiplicity counters are plain
level-synchronous DPs in O(λ × |D| × |A|).  The distinct-walk DP is
keyed by tree-node *types* ``(vertex, certificate set, remaining)``;
shared suffixes collapse, so the key count is bounded by the number of
distinct certificate sets per vertex — in the worst case exponential in
|Q| (the answer count itself can be exponential), in practice a small
multiple of |V|.  Each key is charged O(its B-cell entries), so the
total is O(Σ keys × |A|).

Integer arithmetic is exact (Python ints), so counts are correct even
when the answer set has astronomically many walks — counting
``2**200`` diamond-chain answers takes microseconds while enumeration
would outlive the universe.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core.annotate import Annotation
from repro.core.compile import CompiledQuery

#: Edge-cost callback; unit costs reproduce the paper's setting.
CostFn = Callable[[int], int]


def _unit_cost(_e: int) -> int:
    return 1


#: DP key: (vertex, certificate states, remaining budget).
_NodeKey = Tuple[int, Tuple[int, ...], int]


def count_distinct_shortest(
    graph,
    annotation: Annotation,
    budget: Optional[int],
    target: int,
    start_states: FrozenSet[int],
    cost_of: Optional[CostFn] = None,
) -> int:
    """Number of distinct shortest (or cheapest) matching walks.

    Parameters mirror :func:`repro.core.enumerate.enumerate_walks`;
    the count equals ``len(list(enumerate_walks(...)))`` but is
    computed by a memoized DP over the backward-search tree: the count
    of a node is the sum of its children's counts, leaves count 1, and
    nodes with equal ``(vertex, certificate, remaining)`` are the roots
    of identical subtrees (Lemma 15 — children depend on nothing else).
    """
    if budget is None or not start_states:
        return 0
    if budget == 0:
        return 1
    if cost_of is None:
        cost_of = _unit_cost

    src_arr = graph.src_array

    # Child edges and certificates are read straight off the shared
    # Trim cell arrays (cached on the annotation).
    cells = annotation.packed_cells(graph)
    n_states = cells.n_states
    key_indptr = cells.key_indptr
    cell_ti = cells.cell_ti
    cell_edge = cells.cell_edge
    cert = cells.cert

    def children(u: int, states: Tuple[int, ...], remaining: int):
        """Child node keys, via the packed cells of ``states``."""
        by_cell: Dict[int, set] = {}
        edge_at: Dict[int, int] = {}
        base = u * n_states
        for p in states:
            k = base + p
            for c in range(key_indptr[k], key_indptr[k + 1]):
                ti = cell_ti[c]
                bucket = by_cell.get(ti)
                if bucket is None:
                    by_cell[ti] = set(cert(c))
                    edge_at[ti] = cell_edge[c]
                else:
                    bucket.update(cert(c))
        return [
            (
                src_arr[edge_at[ti]],
                tuple(sorted(merged)),
                remaining - cost_of(edge_at[ti]),
            )
            for ti, merged in by_cell.items()
        ]

    memo: Dict[_NodeKey, int] = {}
    root: _NodeKey = (target, tuple(sorted(start_states)), budget)
    # Iterative post-order with memoization — recursion depth would be λ.
    stack: List[_NodeKey] = [root]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        u, states, remaining = node
        if remaining == 0:
            memo[node] = 1
            stack.pop()
            continue
        kids = children(u, states, remaining)
        pending = [kid for kid in kids if kid not in memo]
        if pending:
            stack.extend(pending)
        else:
            memo[node] = sum(memo[kid] for kid in kids)
            stack.pop()
    return memo[root]


def count_shortest_product_paths(
    cq: CompiledQuery, source: int, target: int
) -> Tuple[Optional[int], int]:
    """``(λ, number of shortest product paths witnessing the answers)``.

    A product path steps through ``D × A`` pairs ``(vertex, state)``;
    parallel labels firing the *same* transition are collapsed (as in
    the naive baseline), so the second component equals the
    ``product_paths`` counter of
    :func:`repro.baselines.naive.naive_enumerate` — without paying the
    exponential enumeration.  Returns ``(None, 0)`` when no walk
    matches.

    The ratio ``product_paths / count_distinct_shortest`` is the mean
    number of copies per answer that the naive baseline visits.
    """
    cq.require_epsilon_free()
    graph = cq.graph
    out = graph.out_array
    tgt_arr = graph.tgt_array
    labels_arr = graph.label_array
    delta = cq.delta
    final = cq.final

    if source == target and (cq.initial_closure & final):
        return 0, 1

    # Level-synchronous BFS with path counts.  Every witness of a
    # shortest walk is distance-monotone (a detour would yield a
    # shorter matching walk, contradicting λ's minimality), so counting
    # along the BFS DAG is exhaustive.
    dist: Dict[Tuple[int, int], int] = {}
    counts: Dict[Tuple[int, int], int] = {}
    frontier: List[Tuple[int, int]] = []
    for q in cq.initial_closure:
        dist[(source, q)] = 0
        counts[(source, q)] = 1
        frontier.append((source, q))

    level = 0
    found = False
    while frontier and not found:
        level += 1
        new_counts: Dict[Tuple[int, int], int] = {}
        for v, q in frontier:
            c = counts[(v, q)]
            dq = delta[q]
            for e in out[v]:
                u = tgt_arr[e]
                successors: set = set()
                for a in labels_arr[e]:
                    successors.update(dq.get(a, ()))
                for p in successors:
                    node = (u, p)
                    known = dist.get(node)
                    if known is None:
                        dist[node] = level
                        new_counts[node] = c
                        if u == target and p in final:
                            found = True
                    elif known == level:
                        new_counts[node] += c
        counts = new_counts
        frontier = list(new_counts)

    if not found:
        return None, 0
    total = sum(
        counts.get((target, f), 0)
        for f in final
        if dist.get((target, f)) == level
    )
    return level, total


def count_total_multiplicity(
    cq: CompiledQuery, source: int, target: int
) -> Tuple[Optional[int], int]:
    """``(λ, Σ_w multiplicity(w))`` over all answers ``w``.

    The multiplicity of a walk is its number of accepting (word, run)
    pairs (Section 5.3): unlike product paths, two labels of one edge
    firing the same transition count twice.  Requires an ε-free
    compiled query, like
    :func:`repro.core.multiplicity.count_accepting_runs` which it
    aggregates.  Returns ``(None, 0)`` when no walk matches.
    """
    cq.require_epsilon_free()
    lam, _ = count_shortest_product_paths(cq, source, target)
    if lam is None:
        return None, 0
    graph = cq.graph
    if lam == 0:
        return 0, len(set(cq.initial) & set(cq.final))

    out = graph.out_array
    tgt_arr = graph.tgt_array
    labels_arr = graph.label_array
    delta = cq.delta
    final = cq.final

    # Runs start in the *original* initial states (ε-free ⇒ closure = I).
    counts: Dict[Tuple[int, int], int] = {
        (source, q): 1 for q in cq.initial
    }
    for _ in range(lam):
        new_counts: Dict[Tuple[int, int], int] = {}
        for (v, q), c in counts.items():
            dq = delta[q]
            for e in out[v]:
                u = tgt_arr[e]
                for a in labels_arr[e]:
                    for p in dq.get(a, ()):
                        node = (u, p)
                        new_counts[node] = new_counts.get(node, 0) + c
        counts = new_counts
        if not counts:
            return lam, 0
    return lam, sum(
        c for (v, q), c in counts.items() if v == target and q in final
    )
