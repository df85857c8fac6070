"""Brute-force validation of the certificate sets (Definition 14,
Lemma 22).

The enumeration's correctness rests on the certificate sets ``S(w)``
attached to the backward-search tree's nodes.  These tests rebuild
``S(w)`` *from the definition* — no shared code with the algorithm —
and check the paper's structural lemmas on random instances:

* ``S(w) ≠ ∅`` for every node ``w`` of ``T`` (remark after Def. 14);
* Lemma 22: if ``w₂`` is a strict descendant of ``w₁`` in ``T`` with
  ``Src(w₁) = Src(w₂)``, then ``S(w₁) ∩ S(w₂) = ∅`` — the property
  that lets ``Enumerate`` share one queue family without concurrent
  access.
"""

from typing import FrozenSet, List, Sequence, Set, Tuple

from hypothesis import given, settings

from repro.automata.nfa import NFA
from repro.automata.ops import remove_epsilon
from repro.core.compile import compile_epsilon_free
from repro.core.engine import DistinctShortestWalks
from repro.graph.database import Graph

from tests.conftest import small_instances


def _forward_states(
    nfa: NFA, graph: Graph, edges: Sequence[int]
) -> FrozenSet[int]:
    """``Δ(I, Lbl(prefix))`` — states reachable over the label sets."""
    current: Set[int] = set(nfa.eps_closure(nfa.initial))
    for e in edges:
        nxt: Set[int] = set()
        for symbol in graph.label_names_of(e):
            for q in current:
                nxt.update(nfa.delta(q, symbol))
        current = set(nfa.eps_closure(nxt))
        if not current:
            break
    return frozenset(current)


def _backward_states(
    nfa: NFA, graph: Graph, edges: Sequence[int]
) -> FrozenSet[int]:
    """``Δ⁻¹(Lbl(suffix), F)`` — states from which the suffix accepts."""
    eps_free = remove_epsilon(nfa) if nfa.has_epsilon else nfa
    current: Set[int] = set(eps_free.final)
    for e in reversed(edges):
        prev: Set[int] = set()
        for symbol in graph.label_names_of(e):
            for q in eps_free.states():
                if set(eps_free.delta(q, symbol)) & current:
                    prev.add(q)
        current = prev
        if not current:
            break
    # Δ⁻¹ is against the ε-closed relation: q counts when some state of
    # closure(q) works.
    return frozenset(
        q
        for q in nfa.states()
        if set(nfa.eps_closure([q])) & current
    )


def _definition14_S(
    nfa: NFA,
    graph: Graph,
    answers: List[Tuple[int, ...]],
    suffix: Tuple[int, ...],
) -> FrozenSet[int]:
    """``S(suffix)`` computed literally from Definition 14."""
    lam = len(answers[0])
    result: Set[int] = set()
    back = _backward_states(nfa, graph, suffix)
    for answer in answers:
        if suffix and answer[lam - len(suffix):] != suffix:
            continue
        prefix = answer[: lam - len(suffix)]
        result |= _forward_states(nfa, graph, prefix) & back
    return frozenset(result)


def _tree_nodes(
    answers: List[Tuple[int, ...]]
) -> Set[Tuple[int, ...]]:
    """All suffixes of answers = the nodes of T (Definition 12)."""
    nodes: Set[Tuple[int, ...]] = {()}
    for answer in answers:
        for depth in range(1, len(answer) + 1):
            nodes.add(answer[len(answer) - depth:])
    return nodes


class TestCertificateStructure:
    @given(small_instances())
    @settings(max_examples=50, deadline=None)
    def test_certificates_nonempty(self, instance):
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        answers = [w.edges for w in engine.enumerate()]
        if not answers or len(answers[0]) == 0:
            return
        for suffix in _tree_nodes(answers):
            assert _definition14_S(nfa, graph, answers, suffix), suffix

    @given(small_instances())
    @settings(max_examples=50, deadline=None)
    def test_lemma22_disjointness(self, instance):
        """Ancestor/descendant nodes at the same vertex have disjoint
        certificates."""
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        answers = [w.edges for w in engine.enumerate()]
        if not answers or len(answers[0]) == 0:
            return
        src_arr = graph.src_array
        nodes = sorted(_tree_nodes(answers), key=len)

        def source_of(suffix: Tuple[int, ...]) -> int:
            return t if not suffix else src_arr[suffix[0]]

        for shorter in nodes:
            for longer in nodes:
                if len(longer) <= len(shorter):
                    continue
                if longer[len(longer) - len(shorter):] != (shorter or ()):
                    continue  # Not a descendant.
                if shorter and longer[-len(shorter):] != shorter:
                    continue
                if source_of(shorter) != source_of(longer):
                    continue
                s1 = _definition14_S(nfa, graph, answers, shorter)
                s2 = _definition14_S(nfa, graph, answers, longer)
                assert not (s1 & s2), (shorter, longer, s1 & s2)

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_root_certificate_matches_engine(self, instance):
        """S(⟨t⟩) from Definition 14 equals the engine's start states —
        over the automaton as written, whose state ids Definition 14
        speaks of (the default compile merges states with the same
        past and numbers the classes densely: two initial final states
        are one class there, under an id of its own)."""
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(
            graph, nfa, s, t, compiled=compile_epsilon_free(graph, nfa)
        )
        answers = [w.edges for w in engine.enumerate()]
        if not answers or len(answers[0]) == 0:
            return
        brute = _definition14_S(nfa, graph, answers, ())
        assert brute == engine.annotation.target_states
