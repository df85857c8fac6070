"""Property-based invariants of the answer sets (Definition 8).

Every output of the engine must be:

* **sound** — a real walk from s to t whose label set meets L(A);
* **minimal** — of length exactly λ;
* **distinct** — never repeated;
and the enumeration must be **complete** (checked against the oracle
elsewhere; here we recheck soundness structurally, which also guards
the oracle itself).
"""

from hypothesis import given, settings

from repro.core.engine import DistinctShortestWalks

from tests.conftest import small_instances


class TestOutputInvariants:
    @given(small_instances())
    @settings(max_examples=80, deadline=None)
    def test_soundness(self, instance):
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        for walk in engine.enumerate():
            # A real walk...
            vertices = walk.vertices()
            for e, (u, v) in zip(walk.edges, zip(vertices, vertices[1:])):
                assert graph.src(e) == u
                assert graph.tgt(e) == v
            # ...from s to t...
            assert walk.src == s
            assert walk.tgt == t
            # ...that matches the query.
            assert nfa.matches_label_sets(walk.label_sets())

    @given(small_instances())
    @settings(max_examples=80, deadline=None)
    def test_minimality_and_uniform_length(self, instance):
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        walks = list(engine.enumerate())
        if engine.lam is None:
            assert walks == []
            return
        assert all(w.length == engine.lam for w in walks)

    @given(small_instances())
    @settings(max_examples=80, deadline=None)
    def test_distinctness(self, instance):
        graph, nfa, s, t = instance
        walks = list(DistinctShortestWalks(graph, nfa, s, t).enumerate())
        assert len({w.edges for w in walks}) == len(walks)

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_lambda_is_truly_minimal(self, instance):
        """No matching walk of length < λ exists (via stateset BFS)."""
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        if engine.lam in (None, 0):
            return
        # Breadth-first over (vertex, state set) up to λ-1.
        start = (s, nfa.eps_closure(nfa.initial))
        frontier = [start]
        seen = {start}
        for _ in range(engine.lam - 1):
            nxt = []
            for v, states in frontier:
                for e in graph.out_edges(v):
                    stepped = set()
                    for a in graph.label_names_of(e):
                        for q in states:
                            stepped.update(nfa.delta(q, a))
                    stepped = nfa.eps_closure(stepped)
                    if not stepped:
                        continue
                    node = (graph.tgt(e), frozenset(stepped))
                    assert not (
                        node[0] == t and node[1] & nfa.final
                    ), "found matching walk shorter than λ"
                    if node not in seen:
                        seen.add(node)
                        nxt.append(node)
            frontier = nxt

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_enumeration_is_repeatable(self, instance):
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        first = [w.edges for w in engine.enumerate()]
        second = [w.edges for w in engine.enumerate()]
        assert first == second

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_partial_consumption_is_safe(self, instance):
        """Abandoning an enumeration never corrupts later ones."""
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        full = [w.edges for w in engine.enumerate()]
        for k in range(len(full)):
            _ = engine.first(k)
            assert [w.edges for w in engine.enumerate()] == full
