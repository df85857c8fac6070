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
  transitions, so the delay bound is again untouched.

For ε-NFAs the notion "number of runs" is ambiguous (ε-cycles admit
infinitely many runs), so multiplicities are defined — and computed —
on the ε-eliminated automaton
(:func:`repro.automata.ops.remove_epsilon`).  The engine performs that
elimination automatically.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.core.compile import CompiledQuery
from repro.core.trim import TrimmedAnnotation
from repro.core.walks import Walk
from repro.exceptions import QueryError
from repro.graph.database import Graph


def count_accepting_runs(
    cq: CompiledQuery, edges: Sequence[int]
) -> int:
    """Number of accepting runs of the (ε-free) query over ``edges``.

    DP over walk positions: ``counts[q]`` is the number of runs of the
    prefix ending in state ``q``; each edge multiplies by the number of
    labels that fire each transition.  O(λ × |Δ|).
    """
    if cq.has_eps:
        raise QueryError(
            "multiplicities are defined on ε-free queries; "
            "eliminate ε-transitions first (the engine does this for you)"
        )
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
    trimmed: TrimmedAnnotation,
    cq: CompiledQuery,
    lam: Optional[int],
    target: int,
    start_states: FrozenSet[int],
) -> Iterator[Tuple[Walk, int]]:
    """Enumerate ``(walk, multiplicity)`` with *tracked* run counts.

    Same DFS and output order as
    :func:`repro.core.enumerate.enumerate_walks`, with one extra
    per-frame map ``M``: ``M[q]`` is the number of accepting (word,
    run) pairs of the suffix walk assembled so far that start in
    state ``q``.  At the root, ``M[f] = 1`` for the reached final
    states; prepending edge ``e`` rolls the map backwards through
    ``Δ`` restricted to ``Lbl(e)``; at a leaf, the multiplicity is the
    sum of ``M[q]`` over the initial states.

    Maintaining ``M`` costs one sweep over the edge's firing
    transitions per tree edge — within the O(λ × |A|) delay bound.
    ``cq`` must be ε-free, like :func:`count_accepting_runs`.
    """
    if cq.has_eps:
        raise QueryError(
            "multiplicities are defined on ε-free queries; "
            "eliminate ε-transitions first (the engine does this for you)"
        )
    if lam is None or not start_states:
        return
    initial = set(cq.initial)
    if lam == 0:
        yield Walk(graph, (), start=target), len(initial & set(cq.final))
        return

    cells = trimmed.cells
    n_states = cells.n_states
    key_indptr = cells.key_indptr
    cell_ti = cells.cell_ti
    cell_edge = cells.cell_edge
    cur = trimmed.cursor
    cert_of = cells.cert
    src_arr = graph.src_array
    labels_arr = graph.label_array
    delta = cq.delta

    trimmed.acquire()
    root_runs: Dict[int, int] = {f: 1 for f in start_states}
    chosen: List[int] = []
    # Frame: (vertex, certificate states, remaining, suffix-run map).
    stack: List[Tuple[int, Tuple[int, ...], int, Dict[int, int]]] = [
        (target, tuple(sorted(start_states)), lam, root_runs)
    ]
    try:
        while stack:
            u, states, remaining, runs = stack[-1]
            if remaining == 0:
                multiplicity = sum(
                    c for q, c in runs.items() if q in initial
                )
                edges = tuple(reversed(chosen))
                yield Walk.from_edges_unchecked(
                    graph, edges, src_arr[edges[0]]
                ), multiplicity
                stack.pop()
                chosen.pop()
                continue

            base = u * n_states
            emin_c = -1
            emin_ti = -1
            for p in states:
                k = base + p
                c = cur[k]
                if c < key_indptr[k + 1]:
                    t = cell_ti[c]
                    if emin_c < 0 or t < emin_ti:
                        emin_c, emin_ti = c, t
            if emin_c < 0:
                for p in states:
                    k = base + p
                    cur[k] = key_indptr[k]
                stack.pop()
                if chosen:
                    chosen.pop()
                continue

            child_states: set = set()
            for p in states:
                k = base + p
                c = cur[k]
                if c < key_indptr[k + 1] and cell_ti[c] == emin_ti:
                    cur[k] = c + 1
                    child_states.update(cert_of(c))
            emin = cell_edge[emin_c]

            # Roll the run map backwards across emin: a run of the new
            # suffix starting in q picks a label a and a transition
            # into some p, then continues as a run from p.
            child_runs: Dict[int, int] = {}
            edge_labels = labels_arr[emin]
            for q in child_states:
                dq = delta[q]
                total = 0
                for a in edge_labels:
                    for p in dq.get(a, ()):
                        total += runs.get(p, 0)
                if total:
                    child_runs[q] = total

            chosen.append(emin)
            stack.append(
                (
                    src_arr[emin],
                    tuple(sorted(child_states)),
                    remaining - 1,
                    child_runs,
                )
            )
    finally:
        trimmed.restart_all()
