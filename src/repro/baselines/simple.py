"""The folklore enumerator for the "simpler setting" (paper, Section 1).

When the database is single-labeled and the query automaton is
deterministic, every walk has at most one run in ``D × A``, so distinct
walks correspond one-to-one to distinct product paths.  The textbook
approach then applies: BFS the product graph recording equal-level
parent edges, and enumerate shortest product paths backwards — no
duplicate is possible and the delay drops to O(λ) with no certificate
machinery.

It is kept as a **baseline**: a cross-check for the general engine on
the inputs it accepts, and EXP-SIMPLE's comparison row.  The bound is
better, the measured cost is not — the general pipeline walks flat
``array('q')`` cells where this one chases per-node dict parents — so
nothing in production dispatches to it.  What production keeps is the
linear-time *detection* of the setting,
:func:`repro.query.plan.simple_eligible`.

The product BFS here rides the label-indexed out-CSR
(:attr:`repro.graph.database.Graph.out_csr`): per frontier pair it
touches only the buckets ``Out_a(v)`` for the labels ``a`` the
deterministic state can fire on.  It records parent *edges*, so it
reads the CSR's edge ids, where the general ``Annotate``'s top-down
levels, which need only where edges lead, gather the successor tuples
:attr:`repro.graph.database.Graph.succ` (see that module's
"Label-indexed CSR adjacency").
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from repro.automata.nfa import NFA
from repro.core.compile import CompiledQuery, compile_epsilon_free
from repro.core.walks import Walk
from repro.exceptions import QueryError
from repro.graph.database import Graph
from repro.query.plan import simple_eligible


class SimpleShortestWalks:
    """Product-BFS enumeration for the deterministic single-label case.

    Outputs the same *set* of walks as the general engine (cross-checked
    by the test suite); the order may differ since no ``TgtIdx``
    discipline is needed here.
    """

    def __init__(
        self, graph: Graph, automaton: NFA, source: Hashable, target: Hashable
    ) -> None:
        if not simple_eligible(graph, automaton):
            raise QueryError(
                "SimpleShortestWalks requires a single-labeled database "
                "and a deterministic automaton"
            )
        self.graph = graph
        self.source = graph.resolve_vertex(source)
        self.target = graph.resolve_vertex(target)
        # As written: the query compile's merge may union the rows of
        # two unreachable states, and ``preprocess`` unpacks exactly one
        # successor per (state, label).
        self._cq: CompiledQuery = compile_epsilon_free(graph, automaton)
        self._lam: Optional[int] = None
        self._parents: Dict[int, List[Tuple[int, int]]] = {}
        self._final_keys: List[int] = []
        self._preprocessed = False

    # Product states are packed as v * |Q| + q for dict efficiency.

    def _key(self, v: int, q: int) -> int:
        return v * self._cq.n_states + q

    def preprocess(self) -> "SimpleShortestWalks":
        """Product BFS with equal-level parent recording; idempotent."""
        if self._preprocessed:
            return self
        self._preprocessed = True
        graph, cq = self.graph, self._cq
        n = graph.vertex_count
        tgt_arr = graph.tgt_array
        indptr, csr_edges = graph.out_csr
        moves = cq.moves
        final = cq.final

        (q0,) = cq.initial  # Deterministic: exactly one initial state.
        start_key = self._key(self.source, q0)
        dist: Dict[int, int] = {start_key: 0}
        parents: Dict[int, List[Tuple[int, int]]] = {}
        if self.source == self.target and q0 in final:
            self._lam = 0
            self._parents = parents
            return self

        frontier: List[Tuple[int, int]] = [(self.source, q0)]
        level = 0
        found = False
        while frontier and not found:
            level += 1
            current, frontier = frontier, []
            for v, q in current:
                from_key = self._key(v, q)
                # Single-labeled database + deterministic automaton:
                # every product edge agrees on exactly one label, so
                # iterating the state's firing labels over the CSR
                # buckets covers Out(v) ∩ Δ(q) exactly once.
                for a, (p,) in moves[q]:  # Deterministic automaton.
                    b = a * n + v
                    start, end = indptr[b], indptr[b + 1]
                    if start == end:
                        continue
                    for j in range(start, end):
                        e = csr_edges[j]
                        u = tgt_arr[e]
                        key = self._key(u, p)
                        known = dist.get(key)
                        if known is None:
                            dist[key] = level
                            parents[key] = [(e, from_key)]
                            frontier.append((u, p))
                            if u == self.target and p in final:
                                found = True
                        elif known == level:
                            parents[key].append((e, from_key))
        if found:
            self._lam = level
            self._final_keys = [
                self._key(self.target, f)
                for f in final
                if dist.get(self._key(self.target, f)) == level
            ]
        self._parents = parents
        return self

    @property
    def lam(self) -> Optional[int]:
        """λ, or ``None`` when no matching walk exists."""
        self.preprocess()
        return self._lam

    def enumerate(self) -> Iterator[Walk]:
        """Enumerate all distinct shortest matching walks.

        Backward DFS over the parent DAG from each final product state:
        since runs are unique, paths from different final states are
        automatically distinct walks.  Delay O(λ).
        """
        self.preprocess()
        if self._lam is None:
            return
        if self._lam == 0:
            yield Walk(self.graph, (), start=self.target)
            return
        parents = self._parents
        for final_key in self._final_keys:
            # Stack frames: (key, iterator over its parent list).
            chosen: List[int] = []
            stack: List[Tuple[int, Iterator[Tuple[int, int]]]] = [
                (final_key, iter(parents.get(final_key, ())))
            ]
            depth_left = self._lam
            while stack:
                key, it = stack[-1]
                if depth_left == 0:
                    yield Walk(self.graph, tuple(reversed(chosen)))
                    stack.pop()
                    depth_left += 1
                    if chosen:
                        chosen.pop()
                    continue
                step = next(it, None)
                if step is None:
                    stack.pop()
                    depth_left += 1
                    if chosen:
                        chosen.pop()
                    continue
                e, parent_key = step
                chosen.append(e)
                depth_left -= 1
                stack.append((parent_key, iter(parents.get(parent_key, ()))))
            # depth_left is restored to λ + 1 after the root pops; reset.

    def __iter__(self) -> Iterator[Walk]:
        return self.enumerate()
