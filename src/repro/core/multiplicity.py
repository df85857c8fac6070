"""Shortest walks with multiplicities (paper, Section 5.3).

The multiplicity of a walk ``w`` is the number of distinct accepting
runs of ``A`` over ``Lbl(w)`` — i.e. the number of pairs
``(word, run)`` where the word picks one label per edge and the run
accepts it.  The paper offers two implementations and this module
provides both:

* **recompute** (:func:`count_accepting_runs`) — "one could rerun A
  on w when it is output, and simply count the runs": a DP over the
  finished walk, O(λ × |A|) per output, leaving the delay unchanged;
* **tracked** (:func:`enumerate_with_runs`) — "our algorithm
  essentially runs A over w along the recursive calls to Enumerate;
  hence, it can easily be adapted to keep track of the number of times
  each state has been produced along the walk": every node of the
  backward-search tree carries a map ``M[q]`` = number of accepting
  (word, run) pairs of the *suffix* built so far that start in ``q``;
  extending by an edge costs one sweep over the edge's labels and
  transitions, so the delay bound is again untouched.  The maps ride
  on the output stream of the one DFS
  (:func:`~repro.core.enumerate.enumerate_walks`, which pulls the
  target's cells before its first output): consecutive outputs
  share the path to their lowest common ancestor, so only the edges
  below it are re-rolled.

For ε-NFAs the notion "number of runs" is ambiguous (ε-cycles admit
infinitely many runs), so multiplicities are defined — and computed —
on the ε-eliminated automaton
(:func:`repro.automata.ops.remove_epsilon`).  The engine performs that
elimination automatically.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.core.compile import CompiledQuery
from repro.core.enumerate import enumerate_walks
from repro.core.walks import Walk
from repro.datastructures.packed import PackedCells
from repro.graph.database import Graph


def count_accepting_runs(
    cq: CompiledQuery, edges: Sequence[int]
) -> int:
    """Number of accepting runs of the (ε-free) query over ``edges``.

    DP over walk positions: ``counts[q]`` is the number of runs of the
    prefix ending in state ``q``; each edge multiplies by the number of
    labels that fire each transition.  O(λ × |Δ|).
    """
    cq.require_epsilon_free()
    labels_arr = cq.graph.label_array
    delta = cq.delta

    counts: Dict[int, int] = {q: 1 for q in cq.initial}
    for e in edges:
        new_counts: Dict[int, int] = {}
        edge_labels = labels_arr[e]
        for q, c in counts.items():
            dq = delta[q]
            for a in edge_labels:
                for p in dq.get(a, ()):
                    new_counts[p] = new_counts.get(p, 0) + c
        if not new_counts:
            return 0
        counts = new_counts
    return sum(c for q, c in counts.items() if q in cq.final)


def enumerate_with_runs(
    graph: Graph,
    cells: PackedCells,
    cq: CompiledQuery,
    lam: Optional[int],
    target: int,
    start_states: FrozenSet[int],
) -> Iterator[Tuple[Walk, int]]:
    """Enumerate ``(walk, multiplicity)`` with *tracked* run counts.

    The outputs (and their order) are those of
    :func:`repro.core.enumerate.enumerate_walks`; beside them this keeps
    one map per tree node on the current root-to-leaf path:
    ``runs[i][q]`` is the number of accepting (word, run) pairs of the
    suffix ``edges[i:]`` that start in state ``q``.  At the root,
    ``M[f] = 1`` for every final state of ``cq`` — the count automaton,
    *not* the certificate ``start_states``, which names states of the
    query compile: that one merges same-past states and numbers its
    classes densely (:mod:`repro.core.compile`), so two final states the
    count automaton tells apart are one state there, under an id that
    means another state here.  Nothing crosses the two compiles:
    ``cells`` and ``start_states`` go only to the enumeration they were
    built for, and every run count reads ``cq``'s ids alone.  Prepending
    edge ``e`` rolls the map
    backwards through ``Δ`` restricted to ``Lbl(e)``; at a leaf, the
    multiplicity is the sum of ``M[q]`` over the initial states.

    Two consecutive outputs share their suffix up to the lowest common
    ancestor in the backward-search tree, and the DFS crossed every
    edge below it to get from one to the other — so re-rolling exactly
    the edges that changed costs one Δ-sweep per tree edge traversed,
    within the O(λ × |A|) delay bound.  ``cq`` must be ε-free, like
    :func:`count_accepting_runs`.
    """
    cq.require_epsilon_free()
    if lam is None or not start_states:
        return
    initial = cq.initial
    if lam == 0:
        yield Walk(graph, (), start=target), len(
            set(initial) & set(cq.final)
        )
        return

    labels_arr = graph.label_array
    # Rows that can fire at all (compilation empties the others).
    rows = [(q, dq) for q, dq in enumerate(cq.delta) if dq]
    # runs[i] belongs to the suffix edges[i:]; runs[lam] is the root's.
    runs: List[Dict[int, int]] = [{} for _ in range(lam)]
    runs.append(dict.fromkeys(cq.final, 1))
    previous: Tuple[int, ...] = ()
    for walk in enumerate_walks(graph, cells, lam, target, start_states):
        edges = walk.edges
        changed = lam
        if previous:
            while changed and edges[changed - 1] == previous[changed - 1]:
                changed -= 1
        for i in range(changed - 1, -1, -1):
            # A run of the longer suffix starting in q picks a label a
            # and a transition into some p, then continues from p.
            after = runs[i + 1]
            edge_labels = labels_arr[edges[i]]
            rolled: Dict[int, int] = {}
            for q, dq in rows:
                total = 0
                for a in edge_labels:
                    for p in dq.get(a, ()):
                        total += after.get(p, 0)
                if total:
                    rolled[q] = total
            runs[i] = rolled
        yield walk, sum(runs[0].get(q, 0) for q in initial)
        previous = edges
