"""Subset construction.

The paper's introduction contrasts the general algorithm with the
"simpler setting" of deterministic queries on single-labeled data,
where a product-BFS achieves O(λ) delay.  The planner detects that
setting with the linear-time
:func:`~repro.automata.ops.is_deterministic`; :func:`determinize` is
the language toolbox's (:mod:`repro.baselines.closure`,
:mod:`repro.baselines.minimize`) and the ablation benchmark's, which
quantifies the exponential price of determinization.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from repro.automata.nfa import NFA
from repro.exceptions import AutomatonError


def determinize(nfa: NFA, max_states: int = 100_000) -> NFA:
    """Subset construction; the result satisfies
    :func:`~repro.automata.ops.is_deterministic`.

    Wildcard transitions are not supported here (expand them against a
    concrete alphabet first); ε-transitions are handled by closure.
    ``max_states`` guards against the exponential blowup the paper
    warns about — an :class:`AutomatonError` is raised beyond it.
    """
    if nfa.uses_wildcard:
        raise AutomatonError(
            "determinize does not support the ANY wildcard; expand it first"
        )
    alphabet = sorted(nfa.alphabet())
    start = nfa.eps_closure(nfa.initial)
    result = NFA()
    index: Dict[FrozenSet[int], int] = {}

    def state_for(subset: FrozenSet[int]) -> int:
        if subset not in index:
            if len(index) >= max_states:
                raise AutomatonError(
                    f"determinization exceeded {max_states} states"
                )
            index[subset] = result.add_state()
        return index[subset]

    stack: List[FrozenSet[int]] = [start]
    state_for(start)
    explored = {start}
    while stack:
        subset = stack.pop()
        for symbol in alphabet:
            nxt = nfa.step(subset, symbol)
            if not nxt:
                continue
            result.add_transition(state_for(subset), symbol, state_for(nxt))
            if nxt not in explored:
                explored.add(nxt)
                stack.append(nxt)
    result.set_initial(state_for(start))
    finals = frozenset(nfa.final)
    for subset, sid in index.items():
        if subset & finals:
            result.set_final(sid)
    return result
