"""Thompson construction (Theorem 19): regex → ε-NFA in linear time.

Given an expression of size ``|R|``, the produced automaton has
O(|R|) states and O(|R|) transitions.  Because the paper's algorithm
handles ε-transitions at no additional cost (Section 5.1), Thompson is
the construction that yields Corollary 20's bounds —
O(|R| × |D|) preprocessing and O(λ × |R|) delay.

The construction is the classical one: every sub-expression compiles to
a fragment with a single entry and a single exit state.  Sugar compiles
as :func:`~repro.automata.regex_ast.desugar` writes it, except a
bounded repeat ``X{m,n}`` with ``n − m ≥ 2``: it is ``m`` copies of
``X`` followed by the right-nested chain ``(X(X(…)?)?)?``, whose every
optional copy's entry has one ε edge to the repeat's exit.  So
``a{1,k}`` costs O(k) transitions, where the flat desugar's ``n − m``
optionals ``(ε|X)(ε|X)…`` close to about k²/2, and a counted repeat
matches ``k`` copies of ``X`` in exactly one way.
"""

from __future__ import annotations

from typing import Tuple

from repro.automata.nfa import ANY, EPSILON, NFA
from repro.automata.regex_ast import (
    AnyAtom,
    Concat,
    EpsilonAtom,
    Label,
    Optional,
    Plus,
    RegexNode,
    Repeat,
    Star,
    Union,
    _concat,
)


def _expand(node: RegexNode) -> RegexNode:
    """One level of :func:`~repro.automata.regex_ast.desugar`: the core
    form of a ``+``, ``?`` or flat ``{m,n}`` over its child as written."""
    child = node.child
    if isinstance(node, Plus):
        return Concat((child, Star(child)))
    if isinstance(node, Optional):
        return Union((EpsilonAtom(), child))
    if node.hi is None:
        tail: Tuple[RegexNode, ...] = (Star(child),)
    else:
        tail = (Union((EpsilonAtom(), child)),) * (node.hi - node.lo)
    return _concat((child,) * node.lo + tail)


def thompson_nfa(ast: RegexNode) -> NFA:
    """Compile an AST (sugar allowed) into an ε-NFA.

    The result has exactly one initial and one final state.
    """
    nfa = NFA()

    def build(node: RegexNode) -> Tuple[int, int]:
        """Return the (entry, exit) states of the fragment for ``node``."""
        if isinstance(node, Label):
            entry, exit_ = nfa.add_state(), nfa.add_state()
            nfa.add_transition(entry, node.name, exit_)
            return entry, exit_
        if isinstance(node, AnyAtom):
            entry, exit_ = nfa.add_state(), nfa.add_state()
            nfa.add_transition(entry, ANY, exit_)
            return entry, exit_
        if isinstance(node, EpsilonAtom):
            entry, exit_ = nfa.add_state(), nfa.add_state()
            nfa.add_transition(entry, EPSILON, exit_)
            return entry, exit_
        if isinstance(node, Concat):
            first_entry, previous_exit = build(node.parts[0])
            for part in node.parts[1:]:
                entry, part_exit = build(part)
                nfa.add_transition(previous_exit, EPSILON, entry)
                previous_exit = part_exit
            return first_entry, previous_exit
        if isinstance(node, Union):
            entry, exit_ = nfa.add_state(), nfa.add_state()
            for part in node.parts:
                part_entry, part_exit = build(part)
                nfa.add_transition(entry, EPSILON, part_entry)
                nfa.add_transition(part_exit, EPSILON, exit_)
            return entry, exit_
        if isinstance(node, Star):
            entry, exit_ = nfa.add_state(), nfa.add_state()
            child_entry, child_exit = build(node.child)
            nfa.add_transition(entry, EPSILON, child_entry)
            nfa.add_transition(child_exit, EPSILON, exit_)
            nfa.add_transition(entry, EPSILON, exit_)
            nfa.add_transition(child_exit, EPSILON, child_entry)
            return entry, exit_
        if (
            isinstance(node, Repeat)
            and node.hi is not None
            and node.hi - node.lo >= 2
        ):
            # A fragment's entry has no edge in and its exit none out,
            # so an ε from copy i's entry to the shared exit ends the
            # repeat after i − 1 copies, and only there.
            copies = [build(node.child) for _ in range(node.hi)]
            exit_ = nfa.add_state()
            for (_, previous_exit), (entry, _) in zip(copies, copies[1:]):
                nfa.add_transition(previous_exit, EPSILON, entry)
            for entry, _ in copies[node.lo:]:
                nfa.add_transition(entry, EPSILON, exit_)
            nfa.add_transition(copies[-1][1], EPSILON, exit_)
            return copies[0][0], exit_
        if isinstance(node, (Plus, Optional, Repeat)):
            return build(_expand(node))
        raise TypeError(f"unexpected regex node: {node!r}")

    entry, exit_ = build(ast)
    nfa.set_initial(entry)
    nfa.set_final(exit_)
    return nfa
