"""The Martens–Trautner reduction (paper, Theorem 1 and Appendix A).

Distinct Shortest Walks reduces to All Shortest Words: build a product
automaton ``A′`` whose

* alphabet is the database's edge set ``E``,
* states are pairs ``(v, q) ∈ V × Q``,
* transitions ``(v₁, q₁) --e--> (v₂, q₂)`` exist when ``Src(e) = v₁``,
  ``Tgt(e) = v₂`` and some label of ``e`` takes ``q₁`` to ``q₂``,
* initial states are ``{s} × I`` and final states ``{t} × F``.

Words of ``L(A′)`` are edge sequences, and the mapping word ↦ walk is
one-to-one, so enumerating the shortest words of ``A′`` (no duplicates,
radix order) *is* enumerating the distinct shortest walks.  Appendix A
gives the resulting complexity — delay O(λ×|Δ|×|E| + λ×|V|²×|Q|²) in
the worst case — which the benchmarks contrast with Theorem 2's
|D|-independent delay (experiment EXP-T1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

from repro.baselines.all_shortest_words import all_shortest_words
from repro.core.compile import CompiledQuery
from repro.core.walks import Walk


@dataclass
class ProductAutomaton:
    """``A′`` over alphabet E, restricted to its reachable part."""

    #: transitions[state][edge id] -> list of successor states.
    transitions: Dict[int, Dict[int, List[int]]]
    initial: Set[int]
    final: Set[int]
    n_states: int = 0
    n_transitions: int = field(default=0)


def build_product_automaton(
    cq: CompiledQuery, source: int, target: int
) -> ProductAutomaton:
    """Construct the reachable part of ``A′`` by BFS from ``{s} × I``.

    ε-transitions of the query are folded in by closing successor sets.
    Cost O(|E| × |Δ|) time/space — this is exactly the part of the
    baseline that depends on the database size.
    """
    graph = cq.graph
    n_states = cq.n_states
    out = graph.out_array
    tgt_arr = graph.tgt_array
    labels_arr = graph.label_array
    delta = cq.delta
    eps = cq.eps
    has_eps = cq.has_eps

    def eps_close(states: Set[int]) -> Set[int]:
        if not has_eps:
            return states
        closed = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for r in eps[q]:
                if r not in closed:
                    closed.add(r)
                    stack.append(r)
        return closed

    def key(v: int, q: int) -> int:
        return v * n_states + q

    transitions: Dict[int, Dict[int, List[int]]] = {}
    # ``initial_closure``, not ``eps_close(initial)``: an ε-eliminated
    # query has an empty ``eps`` and its closure lives only there.
    start_states = {key(source, q) for q in cq.initial_closure}
    seen: Set[int] = set(start_states)
    stack: List[Tuple[int, int]] = [(source, q) for q in cq.initial_closure]
    n_transitions = 0
    while stack:
        v, q = stack.pop()
        from_key = key(v, q)
        moves: Dict[int, List[int]] = {}
        dq = delta[q]
        for e in out[v]:
            u = tgt_arr[e]
            successors: Set[int] = set()
            for a in labels_arr[e]:
                successors.update(dq.get(a, ()))
            if not successors:
                continue
            successors = eps_close(successors)
            move_targets: List[int] = []
            for p in sorted(successors):
                k = key(u, p)
                move_targets.append(k)
                if k not in seen:
                    seen.add(k)
                    stack.append((u, p))
            moves[e] = move_targets
            n_transitions += len(move_targets)
        if moves:
            transitions[from_key] = moves

    final_states = {
        key(target, f) for f in cq.final if key(target, f) in seen
    }
    # The trivial walk ⟨s⟩ requires the ε-closed initial set to be final.
    if source == target:
        final_states |= {
            key(target, f)
            for f in cq.final
            if key(source, f) in start_states
        }
    return ProductAutomaton(
        transitions=transitions,
        initial=start_states,
        final=final_states,
        n_states=len(seen),
        n_transitions=n_transitions,
    )


def martens_trautner_walks(
    cq: CompiledQuery, source: int, target: int
) -> Iterator[Walk]:
    """Enumerate ⟦A⟧(D, s, t) via the All-Shortest-Words reduction.

    Output order is radix order on edge-id sequences (which generally
    differs from the main algorithm's TgtIdx-based order; both are
    duplicate-free enumerations of the same set).
    """
    graph = cq.graph
    product = build_product_automaton(cq, source, target)
    for word in all_shortest_words(
        product.initial, product.final, product.transitions
    ):
        if word:
            yield Walk(graph, word)
        else:
            yield Walk(graph, (), start=target)
