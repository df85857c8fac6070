"""DFA minimization (Hopcroft and Brzozowski) and language keys.

The paper's introduction stresses that translating a user query to a
*deterministic* automaton can blow up exponentially — which is why the
main algorithm works on NFAs directly.  Minimization is the flip side
of that coin: the tools here quantify how small the deterministic form
actually is, canonicalize regular languages for testing (two automata
accept the same language iff their minimal DFAs are isomorphic), and
let the benchmark suite report |DFA| next to |NFA| on the regex
catalog.

* :func:`minimize` — Hopcroft partition refinement, O(|Σ|·n·log n)
  over the determinized input;
* :func:`minimize_brzozowski` — reverse → determinize → reverse →
  determinize; elegant, worst-case exponential, used as a cross-check;
* :func:`language_key` — a hashable canonical form of L(A): equal keys
  ⇔ equal languages.  Built on the uniqueness of the minimal DFA.

All functions accept arbitrary NFAs (ε-transitions welcome) and
determinize internally when needed.  The :data:`~repro.automata.nfa.ANY`
wildcard is handled by treating "some label no transition mentions" as
one fresh alphabet symbol — sound because every concrete label beyond
the automaton's own alphabet behaves identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.automata.nfa import ANY, NFA
from repro.automata.ops import is_deterministic, reverse
from repro.baselines.determinize import determinize

#: The stand-in symbol for "any label not otherwise mentioned".
OTHER = " other"


def _expand_wildcard(nfa: NFA) -> NFA:
    """Rewrite ANY transitions over ``alphabet(nfa) ∪ {OTHER}``.

    Over any concrete alphabet extending the automaton's own, all
    labels the automaton never names are interchangeable; one fresh
    symbol represents them all, preserving language (in)equality.
    """
    if not nfa.uses_wildcard:
        return nfa
    alphabet = sorted(nfa.alphabet()) + [OTHER]
    result = NFA(nfa.n_states)
    for q, label, p in nfa.transitions():
        if label is ANY:
            for a in alphabet:
                result.add_transition(q, a, p)
        else:
            result.add_transition(q, label, p)
    result.set_initial(*nfa.initial)
    result.set_final(*nfa.final)
    return result


def _as_dfa(nfa: NFA, max_states: int) -> NFA:
    """Determinize unless already deterministic and ε-free."""
    nfa = _expand_wildcard(nfa)
    if is_deterministic(nfa):
        return nfa
    return determinize(nfa, max_states=max_states)


def minimize(nfa: NFA, max_states: int = 100_000) -> NFA:
    """The minimal (partial) DFA accepting ``L(nfa)`` — Hopcroft.

    The result is deterministic, has no dead states (every state lies
    on a path from the initial state to a final state) and is unique
    up to state renaming.  An empty language yields the one-state
    automaton with no finals.  ``max_states`` bounds the intermediate
    determinization (:class:`~repro.exceptions.AutomatonError` beyond).
    """
    dfa = _as_dfa(nfa, max_states)
    if not dfa.initial:
        return _empty_language_dfa()
    initial = next(iter(dfa.initial))
    n = dfa.n_states
    alphabet = sorted(dfa.alphabet())
    trans: List[Dict[str, int]] = [
        {label: targets[0] for label, targets in dfa.transitions_from(q)
         if isinstance(label, str)}
        for q in range(n)
    ]

    classes = _hopcroft(n, trans, set(dfa.final), alphabet)

    # Identify the dead class: the class of the implicit sink (index n).
    dead_class = classes[n]
    if classes[initial] == dead_class:
        return _empty_language_dfa()

    # Quotient automaton over live classes reachable from the initial's.
    result = NFA()
    class_state: Dict[int, int] = {}

    def state_for(cls: int) -> int:
        if cls not in class_state:
            class_state[cls] = result.add_state()
        return class_state[cls]

    representatives: Dict[int, int] = {}
    for q in range(n):
        representatives.setdefault(classes[q], q)
    stack = [classes[initial]]
    seen = {classes[initial]}
    state_for(classes[initial])
    while stack:
        cls = stack.pop()
        rep = representatives[cls]
        for a in alphabet:
            target = trans[rep].get(a)
            if target is None:
                continue
            tcls = classes[target]
            if tcls == dead_class:
                continue
            result.add_transition(state_for(cls), a, state_for(tcls))
            if tcls not in seen:
                seen.add(tcls)
                stack.append(tcls)
    result.set_initial(state_for(classes[initial]))
    finals = set(dfa.final)
    for cls, sid in class_state.items():
        if representatives[cls] in finals:
            result.set_final(sid)
    return result


def _empty_language_dfa() -> NFA:
    dfa = NFA(1)
    dfa.set_initial(0)
    return dfa


def _hopcroft(
    n: int,
    trans: Sequence[Dict[str, int]],
    finals: Set[int],
    alphabet: Sequence[str],
) -> List[int]:
    """Partition refinement over states ``0..n`` (``n`` = implicit sink).

    Returns ``classes[q]`` — the equivalence-class index of each state,
    with missing transitions routed to the all-rejecting sink ``n``.
    """
    total = n + 1
    inverse: Dict[str, List[List[int]]] = {
        a: [[] for _ in range(total)] for a in alphabet
    }
    for q in range(n):
        tq = trans[q]
        for a in alphabet:
            inverse[a][tq.get(a, n)].append(q)
    for a in alphabet:
        inverse[a][n].append(n)  # The sink loops on every symbol.

    final_block = set(finals)
    other_block = set(range(total)) - final_block
    partition: List[Set[int]] = [b for b in (final_block, other_block) if b]
    worklist: List[Set[int]] = [set(b) for b in partition]

    while worklist:
        splitter = worklist.pop()
        for a in alphabet:
            inv_a = inverse[a]
            x = {q for t in splitter for q in inv_a[t]}
            if not x:
                continue
            next_partition: List[Set[int]] = []
            for block in partition:
                inter = block & x
                if not inter or len(inter) == len(block):
                    next_partition.append(block)
                    continue
                diff = block - x
                next_partition.append(inter)
                next_partition.append(diff)
                # Keep the worklist consistent: replace the split block
                # if queued, otherwise queue the smaller half.
                replaced = False
                for i, queued in enumerate(worklist):
                    if queued == block:
                        worklist[i] = inter
                        worklist.append(diff)
                        replaced = True
                        break
                if not replaced:
                    worklist.append(
                        inter if len(inter) <= len(diff) else diff
                    )
            partition = next_partition

    classes = [0] * total
    for idx, block in enumerate(partition):
        for q in block:
            classes[q] = idx
    return classes


def minimize_brzozowski(nfa: NFA, max_states: int = 100_000) -> NFA:
    """Brzozowski's minimization: d(r(d(r(A)))).

    Determinizing the reversal yields an automaton whose reachable part
    is co-deterministic; determinizing its reversal is the minimal DFA.
    Worst-case exponential (both determinizations can blow up), but a
    beautifully independent implementation used to cross-check
    :func:`minimize` in the test suite.

    The result keeps dead states out by construction (subset states are
    reachable, and co-reachability is inherited from the first pass)
    except for the empty language, which is normalized like
    :func:`minimize`.
    """
    nfa = _expand_wildcard(nfa)
    once = determinize(reverse(nfa), max_states=max_states)
    twice = determinize(reverse(once), max_states=max_states)
    if not twice.final:
        return _empty_language_dfa()
    return twice


def language_key(
    nfa: NFA, max_states: int = 100_000
) -> Tuple[int, Tuple[Tuple[int, str, int], ...], Tuple[int, ...]]:
    """A hashable canonical form of ``L(nfa)``.

    Two automata have equal keys **iff** they accept the same language:
    the key is the minimal DFA's transition table under a breadth-first
    canonical renumbering (unique because the DFA is deterministic and
    minimal).  Useful as a dictionary key for memoizing per-language
    computations, and heavily used by the test suite.

    Wildcards: a concrete symbol whose transition behaviour coincides
    with the generic "any unmentioned label" class (:data:`OTHER`)
    everywhere is folded into that class, so e.g. ``a | .`` and ``.``
    produce the same key even though their syntactic alphabets differ.
    """
    dfa = minimize(nfa, max_states=max_states)
    n = dfa.n_states
    trans: List[Dict[str, int]] = [
        {label: targets[0] for label, targets in dfa.transitions_from(q)
         if isinstance(label, str)}
        for q in range(n)
    ]

    def signature(symbol: str) -> Tuple[Optional[int], ...]:
        return tuple(trans[q].get(symbol) for q in range(n))

    other_sig = signature(OTHER)
    folded = {
        a
        for a in dfa.alphabet()
        if a != OTHER and signature(a) == other_sig
    }

    order: Dict[int, int] = {}
    queue: List[int] = []
    start = next(iter(dfa.initial))
    order[start] = 0
    queue.append(start)
    transitions: List[Tuple[int, str, int]] = []
    head = 0
    while head < len(queue):
        q = queue[head]
        head += 1
        for label in sorted(a for a in trans[q] if a not in folded):
            target = trans[q][label]
            if target not in order:
                order[target] = len(order)
                queue.append(target)
            transitions.append((order[q], label, order[target]))
    finals = tuple(sorted(order[q] for q in dfa.final))
    return len(order), tuple(transitions), finals
