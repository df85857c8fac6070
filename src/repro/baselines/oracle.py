"""Brute-force ground truth for the test suite.

Deliberately implemented with machinery *disjoint* from the core
algorithm: λ is found by a BFS over ``(vertex, automaton state set)``
pairs (deterministic simulation, no B/L maps), and the answer set by
exhaustive DFS over all walks of length λ followed by NFA matching.
Exponential in general — only ever run on the small instances produced
by the property-based tests.

One oracle per semantics mode (the differential matrix pairs each
engine mode with its own ground truth):

* :func:`oracle_lam` / :func:`oracle_answer_set` — plain **walks**
  (the paper's distinct shortest walks);
* :func:`oracle_restricted_set` — **trails** / **simple paths**:
  exhaustive DFS over *restricted* walks only (which the restriction
  itself bounds), reporting the minimal accepted length and every
  answer at it;
* :func:`oracle_walk_matches` — the **any-walk** validity check: a
  specific edge sequence is a matching walk of the instance (the
  any-walk λ is just :func:`oracle_lam` — one witness of the plain
  shortest length).

This module also hosts the shared seeded instance generators
(:func:`random_graph`, :func:`costed_copy`, :func:`random_regex`,
:func:`random_regex_compact`) that every fuzz harness draws from —
previously copy-pasted per test file.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.automata.nfa import NFA
from repro.graph.builder import GraphBuilder
from repro.graph.database import Graph

#: Default label alphabet of the random instance generators.
DEFAULT_ALPHABET = ("a", "b", "c")


def _initial_stateset(nfa: NFA) -> FrozenSet[int]:
    return nfa.eps_closure(nfa.initial)


def _step_stateset(
    nfa: NFA, states: FrozenSet[int], labels: Tuple[str, ...]
) -> FrozenSet[int]:
    """One edge move: any label of the edge may be read."""
    successors: Set[int] = set()
    for symbol in labels:
        for q in states:
            successors.update(nfa.delta(q, symbol))
    from repro.automata.nfa import ANY  # Local import to avoid cycles.

    for q in states:
        successors.update(nfa.delta(q, ANY))
    return nfa.eps_closure(successors)


def oracle_lam(
    graph: Graph, nfa: NFA, source: int, target: int
) -> Optional[int]:
    """λ by BFS over ``(vertex, state set)`` — or ``None``."""
    start = (source, _initial_stateset(nfa))
    if source == target and (start[1] & nfa.final):
        return 0
    dist: Dict[Tuple[int, FrozenSet[int]], int] = {start: 0}
    frontier = [start]
    level = 0
    while frontier:
        level += 1
        current, frontier = frontier, []
        for v, states in current:
            for e in graph.out_edges(v):
                nxt = _step_stateset(nfa, states, graph.label_names_of(e))
                if not nxt:
                    continue
                u = graph.tgt(e)
                node = (u, nxt)
                if node not in dist:
                    dist[node] = level
                    frontier.append(node)
                    if u == target and (nxt & nfa.final):
                        return level
    return None


def oracle_answer_set(
    graph: Graph,
    nfa: NFA,
    source: int,
    target: int,
    max_walks: int = 200_000,
) -> List[Tuple[int, ...]]:
    """All answers as a sorted list of edge-id tuples.

    Enumerates every walk of length λ from the source by DFS, carrying
    the reachable state set for pruning, and keeps those that end at
    the target in a final state.  ``max_walks`` caps the search as a
    safety net for pathological random instances.
    """
    lam = oracle_lam(graph, nfa, source, target)
    if lam is None:
        return []
    if lam == 0:
        return [()]

    answers: List[Tuple[int, ...]] = []
    visited = 0

    def explore(
        v: int, states: FrozenSet[int], depth: int, edges: List[int]
    ) -> None:
        nonlocal visited
        visited += 1
        if visited > max_walks:
            raise RuntimeError("oracle exceeded its walk budget")
        if depth == lam:
            if v == target and (states & nfa.final):
                answers.append(tuple(edges))
            return
        for e in graph.out_edges(v):
            nxt = _step_stateset(nfa, states, graph.label_names_of(e))
            if not nxt:
                continue
            edges.append(e)
            explore(graph.tgt(e), nxt, depth + 1, edges)
            edges.pop()

    explore(source, _initial_stateset(nfa), 0, [])
    return sorted(answers)


def oracle_restricted_set(
    graph: Graph,
    nfa: NFA,
    source: int,
    target: int,
    kind: str,
    max_walks: int = 200_000,
) -> Tuple[Optional[int], List[Tuple[int, ...]]]:
    """``(rλ, sorted answers)`` under a walk restriction.

    ``kind`` is ``"trails"`` (no repeated edge) or ``"simple"`` (no
    repeated vertex).  Enumerates **every** restricted walk from the
    source by DFS — the restriction itself bounds the depth (≤ |E|
    edges for trails, ≤ |V| − 1 for simple paths) — keeps the accepted
    ones, and reports the minimal accepted length with all answers at
    that length.  ``(None, [])`` when no restricted walk matches.
    """
    if kind not in ("trails", "simple"):
        raise ValueError(f"unknown restriction kind {kind!r}")
    simple = kind == "simple"
    best: Optional[int] = None
    answers: List[Tuple[int, ...]] = []
    visited = 0

    start_states = _initial_stateset(nfa)
    if source == target and (start_states & nfa.final):
        # The empty walk satisfies both restrictions.
        return 0, [()]

    used: Set[int] = {source} if simple else set()

    def explore(v: int, states: FrozenSet[int], edges: List[int]) -> None:
        nonlocal best, visited
        visited += 1
        if visited > max_walks:
            raise RuntimeError("restricted oracle exceeded its walk budget")
        if best is not None and len(edges) >= best:
            return  # Deeper walks cannot improve the minimal length.
        for e in graph.out_edges(v):
            u = graph.tgt(e)
            if simple:
                if u in used:
                    continue
            elif e in used:
                continue
            nxt = _step_stateset(nfa, states, graph.label_names_of(e))
            if not nxt:
                continue
            edges.append(e)
            if u == target and (nxt & nfa.final):
                length = len(edges)
                if best is None or length < best:
                    best = length
                    answers.clear()
                if length == best:
                    answers.append(tuple(edges))
            used.add(u if simple else e)
            explore(u, nxt, edges)
            used.discard(u if simple else e)
            edges.pop()

    explore(source, start_states, [])
    return best, sorted(answers)


def oracle_walk_matches(
    graph: Graph,
    nfa: NFA,
    edges: Sequence[int],
    source: int,
    target: int,
) -> bool:
    """Whether ``edges`` is a matching walk from ``source`` to
    ``target`` — the any-walk witness validity check."""
    v = source
    states = _initial_stateset(nfa)
    for e in edges:
        if graph.src(e) != v:
            return False
        states = _step_stateset(nfa, states, graph.label_names_of(e))
        if not states:
            return False
        v = graph.tgt(e)
    return v == target and bool(states & nfa.final)


# -- shared seeded instance generators ---------------------------------------


def random_graph(
    rng: random.Random,
    *,
    max_vertices: int = 6,
    max_edges: int = 12,
    max_labels: Optional[int] = None,
    alphabet: Tuple[str, ...] = DEFAULT_ALPHABET,
) -> Graph:
    """A seeded random multigraph over ``v0..v{n-1}``.

    The PRNG consumption order is part of the contract: the fuzz
    harnesses replay seeds across processes and releases, so the draw
    sequence (``n``, ``m``, then per edge ``src``, ``tgt``, labels)
    must stay stable.
    """
    if max_labels is None:
        max_labels = len(alphabet)
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_edges)
    builder = GraphBuilder()
    builder.add_vertices([f"v{i}" for i in range(n)])
    for _ in range(m):
        src = rng.randrange(n)
        tgt = rng.randrange(n)
        labels = rng.sample(alphabet, rng.randint(1, max_labels))
        builder.add_edge(f"v{src}", f"v{tgt}", sorted(labels))
    return builder.build()


def costed_copy(graph: Graph, rng: random.Random, max_cost: int = 3) -> Graph:
    """``graph`` with a seeded cost in ``1..max_cost`` on every edge —
    same vertices, same edge ids (one draw per edge, in id order), so a
    cheapest-walk failure replays on the unit-cost instance."""
    builder = GraphBuilder()
    builder.add_vertices([graph.vertex_name(v) for v in graph.vertices()])
    for e in graph.edges():
        builder.add_edge(
            graph.vertex_name(graph.src(e)),
            graph.vertex_name(graph.tgt(e)),
            graph.label_names_of(e),
            cost=rng.randint(1, max_cost),
        )
    return builder.build()


def random_regex(
    rng: random.Random,
    depth: int = 3,
    *,
    alphabet: Tuple[str, ...] = DEFAULT_ALPHABET,
) -> str:
    """The rich seeded regex grammar (concat/alt/star/plus/optional)."""
    if depth == 0:
        return rng.choice(alphabet)
    roll = rng.random()
    if roll < 0.25:
        return rng.choice(alphabet)
    if roll < 0.45:
        return (
            f"({random_regex(rng, depth - 1, alphabet=alphabet)} "
            f"{random_regex(rng, depth - 1, alphabet=alphabet)})"
        )
    if roll < 0.65:
        return (
            f"({random_regex(rng, depth - 1, alphabet=alphabet)} | "
            f"{random_regex(rng, depth - 1, alphabet=alphabet)})"
        )
    if roll < 0.80:
        return f"({random_regex(rng, depth - 1, alphabet=alphabet)})*"
    if roll < 0.90:
        return f"({random_regex(rng, depth - 1, alphabet=alphabet)})+"
    return f"({random_regex(rng, depth - 1, alphabet=alphabet)})?"


def random_regex_compact(
    rng: random.Random,
    depth: int = 2,
    *,
    alphabet: Tuple[str, ...] = DEFAULT_ALPHABET,
) -> str:
    """The compact grammar (early literal exit, no ``?``) used by the
    mutation/crash fuzzers, where the regex is not the star of the
    show and small λ keeps oracle rebuilds cheap."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(alphabet)
    roll = rng.random()
    inner = random_regex_compact(rng, depth - 1, alphabet=alphabet)
    if roll < 0.35:
        return f"({inner} {random_regex_compact(rng, depth - 1, alphabet=alphabet)})"
    if roll < 0.6:
        return f"({inner} | {random_regex_compact(rng, depth - 1, alphabet=alphabet)})"
    if roll < 0.8:
        return f"({inner})*"
    return f"({inner})+"
