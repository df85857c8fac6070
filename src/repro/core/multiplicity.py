"""Shortest walks with multiplicities (paper, Section 5.3).

The multiplicity of a walk ``w`` is the number of distinct accepting
runs of ``A`` over ``Lbl(w)`` — i.e. the number of pairs
``(word, run)`` where the word picks one label per edge and the run
accepts it.  Of the paper's two ways to compute it, production has
one: "our algorithm essentially runs A over w along the recursive
calls to Enumerate; hence, it can easily be adapted to keep track of
the number of times each state has been produced along the walk".
:func:`run_counter` keeps, for the last walk it weighed, one map per
suffix length: ``M[q]`` = the accepting (word, run) pairs of that
suffix that start in ``q``.  Consecutive outputs of the DFS share the
suffix above their lowest common ancestor, so only the new prefix is
rolled — one sweep over its edges' labels and transitions per edge,
within the O(λ × |A|) delay bound — and a walk that shares nothing
costs what rerunning ``A`` over it costs.  The per-walk rerun is the
test suite's reference (:mod:`repro.baselines.runs`).

The shared suffix is found by comparing edge ids from the end
(:func:`~repro.core.walks.shared_suffix_length`), O(shared) per
output, not read off the DFS: so any stream of walks can be weighed —
the engine's, a restricted or any-walk page, a resumed page, and the
cells of one page in turn (the cells of ``from_any(S).to(t)`` all end
at ``t`` and share suffixes across cells too).

For ε-NFAs the notion "number of runs" is ambiguous (ε-cycles admit
infinitely many runs), so multiplicities are defined — and computed —
on the ε-eliminated automaton
(:func:`repro.automata.ops.remove_epsilon`), the count automaton
:func:`~repro.core.compile.compile_epsilon_free` builds.  It is *not*
the query compile the walks were enumerated on: that one merges
same-past states and numbers its classes densely
(:mod:`repro.core.compile`), so two final states the count automaton
tells apart can be one state there.  The counter reads ``cq``'s ids
alone.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.core.compile import CompiledQuery
from repro.core.walks import shared_suffix_length


def run_counter(cq: CompiledQuery) -> Callable[[Sequence[int]], int]:
    """A callable giving each walk (an edge-id sequence) its number of
    accepting runs of the ε-free ``cq``.

    It reads the graph's label column once, here, and keeps the run
    maps of the last walk weighed, by suffix length: ``maps[0]`` maps
    every final state to 1, and ``maps[k]`` extends ``maps[k-1]`` by
    the walk's ``k``-th edge from the end through ``cq.delta_inv``.
    The empty walk weighs ``|I ∩ F|``.  One counter serves one stream.
    """
    cq.require_epsilon_free()
    label_of = cq.graph.label_array
    into = cq.delta_inv
    initial = cq.initial
    maps: List[Dict[int, int]] = [dict.fromkeys(cq.final, 1)]
    last: Sequence[int] = ()

    def weigh(edges: Sequence[int]) -> int:
        nonlocal last
        shared = shared_suffix_length(last, edges)
        del maps[shared + 1:]
        runs = maps[shared]
        for i in range(len(edges) - shared - 1, -1, -1):
            labels = label_of[edges[i]]
            # A run of the longer suffix starting in q reads a label a
            # into some p, then continues from p.
            rolled: Dict[int, int] = {}
            for p, count in runs.items():
                before = into[p]
                for a in labels:
                    for q in before.get(a, ()):
                        rolled[q] = rolled.get(q, 0) + count
            maps.append(rolled)
            runs = rolled
        last = edges
        return sum(runs.get(q, 0) for q in initial)

    return weigh
