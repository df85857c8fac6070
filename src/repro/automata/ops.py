"""Automaton operations: ε-elimination, reversal, trimming, product,
determinism and unambiguity testing.

These are the standard constructions the paper leans on:

* Section 5.1 handles ε-transitions on the fly, but multiplicity
  counting (Section 5.3) is defined on ε-free automata, so
  :func:`remove_epsilon` provides the canonical elimination;
* the paper's "simpler setting" (deterministic queries on
  single-labeled data) and related work ([11, 17] in the paper), which
  assumes *unambiguous* automata — :func:`is_deterministic` (a
  linear-time check) and :func:`is_unambiguous` (the classical
  self-product test) let the planner detect both.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.automata.nfa import ANY, EPSILON, NFA


def remove_epsilon(nfa: NFA) -> NFA:
    """Equivalent ε-free NFA (canonical forward-closure elimination).

    New automaton: ``I' = closure(I)``, ``Δ'(q, a) = closure(Δ(q, a))``
    for concrete labels, ``F' = F``.  Language is preserved; state set
    is unchanged (no renumbering), so unreachable states may remain —
    compose with :func:`trim` when a tight automaton is needed.
    """
    result = NFA(nfa.n_states)
    for q in nfa.states():
        for label, targets in nfa.transitions_from(q):
            if label is EPSILON:
                continue
            for p in nfa.eps_closure(targets):
                result.add_transition(q, label, p)
    result.set_initial(*nfa.eps_closure(nfa.initial))
    result.set_final(*nfa.final)
    return result


def reverse(nfa: NFA) -> NFA:
    """Mirror automaton: recognizes the reversal of L(A)."""
    result = NFA(nfa.n_states)
    for q, label, p in nfa.transitions():
        result.add_transition(p, label, q)
    result.set_initial(*nfa.final)
    result.set_final(*nfa.initial)
    return result


def _forward_reachable(nfa: NFA) -> Set[int]:
    seen: Set[int] = set(nfa.initial)
    stack = list(seen)
    while stack:
        q = stack.pop()
        for _, targets in nfa.transitions_from(q):
            for p in targets:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
    return seen


def trim(nfa: NFA) -> Tuple[NFA, Dict[int, int]]:
    """Keep only *useful* states (reachable and co-reachable).

    Returns the trimmed automaton plus the mapping from old state ids
    to new ones.  If the language is empty the result has no states.
    """
    reachable = _forward_reachable(nfa)
    co_reachable = _forward_reachable(reverse(nfa))
    useful = sorted(reachable & co_reachable)
    mapping = {old: new for new, old in enumerate(useful)}
    result = NFA(len(useful))
    for q, label, p in nfa.transitions():
        if q in mapping and p in mapping:
            result.add_transition(mapping[q], label, mapping[p])
    result.set_initial(*(mapping[q] for q in nfa.initial if q in mapping))
    result.set_final(*(mapping[q] for q in nfa.final if q in mapping))
    return result, mapping


def product(left: NFA, right: NFA) -> NFA:
    """Synchronous product recognizing ``L(left) ∩ L(right)``.

    Both inputs must be ε-free (apply :func:`remove_epsilon` first);
    :data:`ANY` wildcards synchronize with any concrete label of the
    other automaton and with each other.
    """
    for nfa in (left, right):
        if nfa.has_epsilon:
            raise ValueError("product requires ε-free automata")
    # Lazily explore reachable pairs only.
    result = NFA()
    index: Dict[Tuple[int, int], int] = {}

    def state_for(pair: Tuple[int, int]) -> int:
        if pair not in index:
            index[pair] = result.add_state()
        return index[pair]

    stack: List[Tuple[int, int]] = []
    for i in left.initial:
        for j in right.initial:
            pair = (i, j)
            state_for(pair)
            stack.append(pair)
    explored: Set[Tuple[int, int]] = set(stack)
    while stack:
        (q1, q2) = stack.pop()
        moves1 = dict(left.transitions_from(q1))
        moves2 = dict(right.transitions_from(q2))
        labels1 = set(moves1) - {ANY}
        labels2 = set(moves2) - {ANY}
        shared = (labels1 & labels2) | ({ANY} if ANY in moves1 and ANY in moves2 else set())
        # Wildcards also pair with the other side's concrete labels.
        if ANY in moves1:
            shared |= labels2
        if ANY in moves2:
            shared |= labels1
        for label in shared:
            targets1 = list(moves1.get(label, ())) + (
                list(moves1.get(ANY, ())) if label is not ANY else []
            )
            targets2 = list(moves2.get(label, ())) + (
                list(moves2.get(ANY, ())) if label is not ANY else []
            )
            for p1 in targets1:
                for p2 in targets2:
                    pair = (p1, p2)
                    result.add_transition(
                        state_for((q1, q2)), label, state_for(pair)
                    )
                    if pair not in explored:
                        explored.add(pair)
                        stack.append(pair)
    for (q1, q2), s in index.items():
        if q1 in left.initial and q2 in right.initial:
            result.set_initial(s)
        if q1 in left.final and q2 in right.final:
            result.set_final(s)
    return result


def is_deterministic(nfa: NFA) -> bool:
    """Linear-time determinism check.

    Deterministic means: at most one initial state, no ε-transitions,
    and for every state at most one successor per label.  A state
    carrying both a wildcard transition and any other transition is
    nondeterministic (the wildcard overlaps every label).
    """
    if len(nfa.initial) > 1:
        return False
    for q in nfa.states():
        moves = dict(nfa.transitions_from(q))
        if EPSILON in moves:
            return False
        if ANY in moves and (len(moves) > 1 or len(moves[ANY]) > 1):
            return False
        for targets in moves.values():
            if len(targets) > 1:
                return False
    return True


def is_unambiguous(nfa: NFA) -> bool:
    """Does every accepted word have exactly one accepting run?

    Classical self-product test: take the ε-free trimmed automaton,
    build the pair graph over runs reading the *same* word, restrict to
    useful pairs (reachable from ``I×I`` and co-reachable to ``F×F``);
    the automaton is unambiguous iff every useful pair is diagonal.

    Note: for automata using :data:`ANY`, distinct wildcard/concrete
    transitions that can fire on the same symbol are treated as
    distinct, which errs on the side of reporting ambiguity — safe for
    the planner (it only uses *unambiguous* as a fast-path license).
    """
    base = remove_epsilon(nfa) if nfa.has_epsilon else nfa
    trimmed, _ = trim(base)
    if trimmed.n_states == 0:
        return True  # Empty language: vacuously unambiguous.

    pairs: Set[Tuple[int, int]] = {
        (i, j) for i in trimmed.initial for j in trimmed.initial
    }
    stack = list(pairs)
    while stack:
        (q1, q2) = stack.pop()
        moves1 = dict(trimmed.transitions_from(q1))
        moves2 = dict(trimmed.transitions_from(q2))
        for label in set(moves1) & set(moves2):
            for p1 in moves1[label]:
                for p2 in moves2[label]:
                    pair = (p1, p2)
                    if pair not in pairs:
                        pairs.add(pair)
                        stack.append(pair)
        # A wildcard can fire together with any concrete label.
        for wild_side, other in ((moves1, moves2), (moves2, moves1)):
            if ANY not in wild_side:
                continue
            for label, targets in other.items():
                if label is ANY:
                    continue
                for p_wild in wild_side[ANY]:
                    for p_other in targets:
                        pair = (
                            (p_wild, p_other)
                            if wild_side is moves1
                            else (p_other, p_wild)
                        )
                        if pair not in pairs:
                            pairs.add(pair)
                            stack.append(pair)

    # Co-reachability of pairs to F×F, via backward closure.
    final_pairs = {
        (q1, q2)
        for (q1, q2) in pairs
        if q1 in trimmed.final and q2 in trimmed.final
    }
    # Build reverse adjacency over the discovered pair graph.
    back: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
    for (q1, q2) in pairs:
        moves1 = dict(trimmed.transitions_from(q1))
        moves2 = dict(trimmed.transitions_from(q2))
        successor_pairs: Set[Tuple[int, int]] = set()
        for label in set(moves1) & set(moves2):
            for p1 in moves1[label]:
                for p2 in moves2[label]:
                    successor_pairs.add((p1, p2))
        for wild_side, other in ((moves1, moves2), (moves2, moves1)):
            if ANY not in wild_side:
                continue
            for label, targets in other.items():
                if label is ANY:
                    continue
                for p_wild in wild_side[ANY]:
                    for p_other in targets:
                        successor_pairs.add(
                            (p_wild, p_other)
                            if wild_side is moves1
                            else (p_other, p_wild)
                        )
        for succ in successor_pairs & pairs:
            back.setdefault(succ, set()).add((q1, q2))

    useful: Set[Tuple[int, int]] = set(final_pairs)
    stack = list(final_pairs)
    while stack:
        pair = stack.pop()
        for pred in back.get(pair, ()):
            if pred not in useful:
                useful.add(pred)
                stack.append(pred)

    return all(q1 == q2 for (q1, q2) in useful)
