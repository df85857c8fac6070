"""Language equivalence and inclusion tests, with counterexamples.

Used throughout the test suite to validate the regex→NFA construction
(production's Thompson must agree with its oracles — the flat
:func:`~repro.automata.regex_ast.desugar` and
:mod:`repro.baselines.glushkov` — on every expression) and available to
library users for query rewriting ("is this cheaper automaton the same
query?").

The tests run a breadth-first product of the two automata's *subset*
simulations — determinization happens lazily, only for the reachable
pairs — and return the **shortest distinguishing word** when the
relation fails, which makes property-test failures actionable.

ε-transitions are handled by closure; the :data:`~repro.automata.nfa.ANY`
wildcard is summarized by one fresh symbol for "any label the automata
never mention" (sound: all such labels act identically).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.automata.nfa import NFA
from repro.baselines.minimize import OTHER
from repro.exceptions import AutomatonError

_PairKey = Tuple[FrozenSet[int], FrozenSet[int]]


def _distinguish(
    a: NFA,
    b: NFA,
    accept_only_left: bool,
    max_pairs: int,
) -> Optional[Tuple[str, ...]]:
    """Shortest word violating the relation, or ``None``.

    With ``accept_only_left=False`` the relation is equivalence (a
    violation is a word accepted by exactly one automaton); with
    ``True`` it is inclusion L(a) ⊆ L(b) (a violation is accepted by
    ``a`` but not ``b``).

    The BFS alphabet is the *joint* concrete alphabet, plus the
    :data:`OTHER` stand-in when either automaton uses the ANY wildcard
    (``step`` fires only wildcard transitions on a symbol no transition
    mentions, which is exactly the behaviour of every unmentioned
    label).
    """
    alphabet: List[str] = sorted(a.alphabet() | b.alphabet())
    if a.uses_wildcard or b.uses_wildcard:
        alphabet.append(OTHER)

    start: _PairKey = (a.eps_closure(a.initial), b.eps_closure(b.initial))
    parents: Dict[_PairKey, Optional[Tuple[_PairKey, str]]] = {start: None}
    queue: deque = deque([start])

    def violates(sa: FrozenSet[int], sb: FrozenSet[int]) -> bool:
        in_a = bool(sa & a.final)
        in_b = bool(sb & b.final)
        if accept_only_left:
            return in_a and not in_b
        return in_a != in_b

    def word_to(pair: _PairKey) -> Tuple[str, ...]:
        word: List[str] = []
        cursor: Optional[Tuple[_PairKey, str]] = parents[pair]
        while cursor is not None:
            previous, symbol = cursor
            word.append(symbol)
            cursor = parents[previous]
        return tuple(reversed(word))

    while queue:
        pair = queue.popleft()
        sa, sb = pair
        if violates(sa, sb):
            return word_to(pair)
        for symbol in alphabet:
            nxt: _PairKey = (a.step(sa, symbol), b.step(sb, symbol))
            if nxt not in parents:
                if len(parents) >= max_pairs:
                    raise AutomatonError(
                        f"equivalence check exceeded {max_pairs} state pairs"
                    )
                parents[nxt] = (pair, symbol)
                queue.append(nxt)
    return None


def counterexample(
    a: NFA, b: NFA, max_pairs: int = 250_000
) -> Optional[Tuple[str, ...]]:
    """The shortest word in ``L(a) Δ L(b)``, or ``None`` when equal.

    A returned word may contain :data:`~repro.baselines.minimize.OTHER`,
    which stands for any concrete label neither automaton mentions.
    """
    return _distinguish(a, b, accept_only_left=False, max_pairs=max_pairs)


def equivalent(a: NFA, b: NFA, max_pairs: int = 250_000) -> bool:
    """``L(a) == L(b)``?"""
    return counterexample(a, b, max_pairs=max_pairs) is None


def subset_counterexample(
    a: NFA, b: NFA, max_pairs: int = 250_000
) -> Optional[Tuple[str, ...]]:
    """The shortest word in ``L(a) \\ L(b)``, or ``None`` if L(a) ⊆ L(b)."""
    return _distinguish(a, b, accept_only_left=True, max_pairs=max_pairs)


def is_subset(a: NFA, b: NFA, max_pairs: int = 250_000) -> bool:
    """``L(a) ⊆ L(b)``?"""
    return subset_counterexample(a, b, max_pairs=max_pairs) is None
