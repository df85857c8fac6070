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
  (word, run) pairs of Section 5.3: the sum over a full
  ``with_multiplicity()`` page of the run counter
  (:func:`repro.core.multiplicity.run_counter`), which the test suite
  cross-checks it against.

Complexity.  The product-path and multiplicity counters traverse
nothing themselves: each reads one ``Annotate`` BFS run stopped at λ,
has ``Trim`` pull the target's cells, and makes one forward pass over
them, O(|D| × |A|) in all.  The distinct-walk DP is
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

from repro.core.annotate import Annotation, annotate
from repro.core.compile import CompiledQuery
from repro.core.trim import trim

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

    # Child edges and certificates are read straight off the target's
    # Trim cells, built in the annotation's store first.
    cells = annotation.packed
    cells.build(target, start_states)
    n_states = cells.n_states
    spans = cells.spans
    cell_ti = cells.cell_ti
    cell_edge = cells.cell_edge
    certs = cells.certs

    def children(u: int, states: Tuple[int, ...], remaining: int):
        """Child node keys, via the packed cells of ``states``."""
        by_cell: Dict[int, set] = {}
        edge_at: Dict[int, int] = {}
        base = u * n_states
        for p in states:
            for c in range(*spans[base + p]):
                ti = cell_ti[c]
                bucket = by_cell.get(ti)
                if bucket is None:
                    by_cell[ti] = set(certs[c])
                    edge_at[ti] = cell_edge[c]
                else:
                    bucket.update(certs[c])
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


def _count_along_cells(
    cq: CompiledQuery, source: int, target: int
) -> Tuple[Optional[int], int, int]:
    """``(λ, product paths, accepting runs)`` into the target's final
    states at λ ≥ 1 (the callers answer λ = 0); ``(None, 0, 0)`` when
    no walk matches.

    One :func:`~repro.core.annotate.annotate` run, stopped at the
    target's level, and its target's pulled cells (:func:`trim`).
    Every witness of a shortest walk is distance-monotone (a detour
    would yield a shorter matching walk), so the cells of the nodes
    backward-reachable from the target hold every such product path and
    run — each product edge once per firing label.  The nodes are
    collected level by level from λ down, then counted from level 0 up,
    so a node's counts are final before any cell reads them: a run
    steps along every entry, a product path once per distinct
    ``(cell, predecessor)`` (labels of one edge that fire the same
    transition collapse).
    """
    annotation = annotate(cq, source, target)
    lam, states = annotation.lam, annotation.target_states
    if lam is None:
        return None, 0, 0
    cells = trim(cq.graph, annotation)
    n_states = cq.n_states
    src_arr = cq.graph.src_array
    spans, cell_edge = cells.spans, cells.cell_edge
    certs, cell_entries = cells.certs, cells.cell_entries
    base = target * n_states
    levels = [[base + f for f in states]]
    seen = set(levels[0])
    for _ in range(lam):
        below = []
        for k in levels[-1]:
            for c in range(*spans[k]):
                w_base = src_arr[cell_edge[c]] * n_states
                for q in certs[c]:
                    pred = w_base + q
                    if pred not in seen:
                        seen.add(pred)
                        below.append(pred)
        levels.append(below)
    # Level 0 is the source in its start states: one path, one run each.
    paths = dict.fromkeys(levels[-1], 1)
    runs = dict.fromkeys(levels[-1], 1)
    for level in reversed(levels[:-1]):
        for k in level:
            k_paths = k_runs = 0
            for c in range(*spans[k]):
                w_base = src_arr[cell_edge[c]] * n_states
                for q in certs[c]:
                    k_paths += paths[w_base + q]
                for q in cell_entries[c]:
                    k_runs += runs[w_base + q]
            paths[k] = k_paths
            runs[k] = k_runs
    return (
        lam,
        sum(paths[base + f] for f in states),
        sum(runs[base + f] for f in states),
    )


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
    if source == target and (cq.initial_closure & cq.final):
        return 0, 1
    lam, paths, _ = _count_along_cells(cq, source, target)
    return lam, paths


def count_total_multiplicity(
    cq: CompiledQuery, source: int, target: int
) -> Tuple[Optional[int], int]:
    """``(λ, Σ_w multiplicity(w))`` over all answers ``w``.

    The multiplicity of a walk is its number of accepting (word, run)
    pairs (Section 5.3): unlike product paths, two labels of one edge
    firing the same transition count twice.  Requires an ε-free
    compiled query, like :func:`repro.core.multiplicity.run_counter`,
    whose per-walk counts it sums.  Returns ``(None, 0)`` when no walk
    matches.
    """
    cq.require_epsilon_free()
    if source == target and (cq.initial_closure & cq.final):
        return 0, len(set(cq.initial) & set(cq.final))
    lam, _, runs = _count_along_cells(cq, source, target)
    return lam, runs
