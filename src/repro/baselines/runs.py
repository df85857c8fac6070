"""The per-walk run count: Section 5.3's "rerun A on w when it is
output, and simply count the runs".

:func:`count_accepting_runs` is a forward DP over one finished walk,
sharing nothing with the walk before it — the reference the test suite
holds production's suffix-sharing counter
(:func:`repro.core.multiplicity.run_counter`) to.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.compile import CompiledQuery


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
