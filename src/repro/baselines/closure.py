"""Closure of NFAs under the regular operations.

Query rewriting over RPQs needs to *combine* automata: union two user
queries, concatenate a prefix pattern with a suffix pattern, subtract
an exclusion list.  These combinators complement the regex→NFA
constructions (which build automata from syntax) by operating directly
on automata — and they compose with the rest of the language toolbox
beside them: the results can be minimized
(:mod:`repro.baselines.minimize`), compared with
:func:`~repro.baselines.equivalence.equivalent`, or handed straight to
the shortest-walk engine.  No production path combines automata, so
the toolbox lives among the oracles; :mod:`repro.automata` keeps what
production compiles and plans with.

Constructions are the standard ones: disjoint union with merged
initial/final sets, ε-gluing for concatenation and star (the engine
handles ε at no extra cost — paper, Section 5.1), subset construction
plus completion for complement.  ``intersect`` re-exports the
synchronous product of :mod:`repro.automata.ops`.

Complement and difference are relative to a concrete alphabet (the
operand's own by default): automata using the :data:`ANY` wildcard are
rejected — "everything except anything" needs a universe.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.automata.nfa import EPSILON, NFA
from repro.automata.ops import product, remove_epsilon
from repro.baselines.determinize import determinize
from repro.exceptions import AutomatonError


def _copy_into(target: NFA, source: NFA, offset: int) -> None:
    """Copy ``source``'s transitions into ``target`` at ``offset``."""
    for q, label, p in source.transitions():
        target.add_transition(q + offset, label, p + offset)


def union_nfa(left: NFA, right: NFA) -> NFA:
    """An NFA for ``L(left) ∪ L(right)`` (disjoint state union).

    No ε-transitions are introduced: |Q| = |Q₁|+|Q₂|, |Δ| = |Δ₁|+|Δ₂|.
    """
    result = NFA(left.n_states + right.n_states)
    _copy_into(result, left, 0)
    _copy_into(result, right, left.n_states)
    result.set_initial(*left.initial)
    result.set_initial(*(q + left.n_states for q in right.initial))
    result.set_final(*left.final)
    result.set_final(*(q + left.n_states for q in right.final))
    return result


def concat_nfa(left: NFA, right: NFA) -> NFA:
    """An NFA for ``L(left) · L(right)`` (ε-glue finals to initials)."""
    result = NFA(left.n_states + right.n_states)
    _copy_into(result, left, 0)
    _copy_into(result, right, left.n_states)
    for f in left.final:
        for i in right.initial:
            result.add_transition(f, EPSILON, i + left.n_states)
    result.set_initial(*left.initial)
    result.set_final(*(q + left.n_states for q in right.final))
    return result


def star_nfa(nfa: NFA) -> NFA:
    """An NFA for ``L(nfa)*`` (fresh ε-hub accepting ε and looping)."""
    result = NFA(nfa.n_states + 1)
    _copy_into(result, nfa, 0)
    hub = nfa.n_states
    for i in nfa.initial:
        result.add_transition(hub, EPSILON, i)
    for f in nfa.final:
        result.add_transition(f, EPSILON, hub)
    result.set_initial(hub)
    result.set_final(hub)
    return result


def plus_nfa(nfa: NFA) -> NFA:
    """An NFA for ``L(nfa)+`` = ``L(nfa) · L(nfa)*``."""
    return concat_nfa(nfa, star_nfa(nfa))


def option_nfa(nfa: NFA) -> NFA:
    """An NFA for ``L(nfa) ∪ {ε}`` (fresh accepting ε-entry)."""
    result = NFA(nfa.n_states + 1)
    _copy_into(result, nfa, 0)
    hub = nfa.n_states
    for i in nfa.initial:
        result.add_transition(hub, EPSILON, i)
    result.set_initial(hub)
    result.set_final(hub, *nfa.final)
    return result


def intersect_nfa(left: NFA, right: NFA) -> NFA:
    """An NFA for ``L(left) ∩ L(right)`` (synchronous product).

    ε-transitions are eliminated first; wildcards synchronize as in
    :func:`repro.automata.ops.product`.
    """
    if left.has_epsilon:
        left = remove_epsilon(left)
    if right.has_epsilon:
        right = remove_epsilon(right)
    return product(left, right)


def complement_nfa(
    nfa: NFA,
    alphabet: Optional[Iterable[str]] = None,
    max_states: int = 100_000,
) -> NFA:
    """A DFA for ``Σ* \\ L(nfa)``, with ``Σ`` = ``alphabet``.

    ``alphabet`` defaults to the automaton's own; it must cover it.
    The result is a *complete* DFA over ``Σ`` with inverted finals.
    Wildcard automata are rejected (complementing "matches any label"
    requires fixing a universe — pass an explicit alphabet after
    expanding the wildcard).
    """
    if nfa.uses_wildcard:
        raise AutomatonError(
            "cannot complement an automaton with the ANY wildcard; "
            "expand it over a concrete alphabet first"
        )
    sigma: Set[str] = set(alphabet) if alphabet is not None else nfa.alphabet()
    missing = nfa.alphabet() - sigma
    if missing:
        raise AutomatonError(
            f"complement alphabet must cover the automaton's; "
            f"missing {sorted(missing)}"
        )
    dfa = determinize(nfa, max_states=max_states)
    if not dfa.initial:  # determinize of an initial-less NFA.
        dfa = NFA(1)
        dfa.set_initial(0)

    # Complete over sigma with an explicit sink, then invert finals.
    result = NFA(dfa.n_states + 1)
    sink = dfa.n_states
    for q, label, p in dfa.transitions():
        result.add_transition(q, label, p)
    for q in range(dfa.n_states):
        for a in sigma:
            if not dfa.delta(q, a):
                result.add_transition(q, a, sink)
    for a in sigma:
        result.add_transition(sink, a, sink)
    result.set_initial(*dfa.initial)
    finals = set(dfa.final)
    result.set_final(
        *(q for q in range(dfa.n_states) if q not in finals), sink
    )
    return result


def difference_nfa(
    left: NFA,
    right: NFA,
    alphabet: Optional[Iterable[str]] = None,
    max_states: int = 100_000,
) -> NFA:
    """An NFA for ``L(left) \\ L(right)``.

    ``alphabet`` defaults to the *joint* alphabet, so that words of
    ``left`` using labels ``right`` never mentions are kept.
    """
    if alphabet is None:
        alphabet = left.alphabet() | right.alphabet()
    return intersect_nfa(
        left, complement_nfa(right, alphabet=alphabet, max_states=max_states)
    )
