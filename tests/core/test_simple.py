"""Unit tests for the deterministic single-label setting: its
linear-time detection (production, :mod:`repro.query.plan`) and the
folklore product-BFS enumerator (a baseline)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import NFA, parse_rpq
from repro.core.engine import DistinctShortestWalks
from repro.baselines import SimpleShortestWalks, glushkov_nfa
from repro.query.plan import graph_is_single_labeled, simple_eligible
from repro.exceptions import QueryError
from repro.graph import GraphBuilder
from repro.graph.generators import chain, grid
from repro.workloads.fraud import example9_automaton, example9_graph


class TestEligibility:
    def test_multilabel_graph_rejected(self):
        assert not graph_is_single_labeled(example9_graph())
        assert not simple_eligible(example9_graph(), example9_automaton())

    def test_single_label_dfa_accepted(self):
        g = grid(2, 2)
        dfa = glushkov_nfa(parse_rpq("r d"))
        assert simple_eligible(g, dfa)

    def test_nondeterministic_rejected(self):
        g = grid(2, 2)
        nfa = NFA(2)
        nfa.add_transition(0, "r", 0)
        nfa.add_transition(0, "r", 1)
        nfa.set_initial(0)
        nfa.set_final(1)
        assert not simple_eligible(g, nfa)

    def test_constructor_enforces_eligibility(self):
        with pytest.raises(QueryError):
            SimpleShortestWalks(
                example9_graph(), example9_automaton(), "Alix", "Bob"
            )


class TestCorrectness:
    def test_grid_diagonal(self):
        g = grid(3, 3)
        # Glushkov of (r|d){4} is not deterministic — build by hand:
        nfa = NFA(5)
        for i in range(4):
            nfa.add_transition(i, "r", i + 1)
            nfa.add_transition(i, "d", i + 1)
        nfa.set_initial(0)
        nfa.set_final(4)
        engine = SimpleShortestWalks(g, nfa, "n0_0", "n2_2")
        walks = list(engine.enumerate())
        # C(4,2) = 6 monotone lattice paths.
        assert engine.lam == 4
        assert len(walks) == 6
        assert len(set(w.edges for w in walks)) == 6

    def test_matches_general_engine(self):
        g = grid(3, 4)
        nfa = NFA(6)
        for i in range(5):
            nfa.add_transition(i, "r", i + 1)
            nfa.add_transition(i, "d", i + 1)
        nfa.set_initial(0)
        nfa.set_final(5)
        simple = sorted(
            w.edges
            for w in SimpleShortestWalks(g, nfa, "n0_0", "n2_3").enumerate()
        )
        general = sorted(
            w.edges
            for w in DistinctShortestWalks(g, nfa, "n0_0", "n2_3").enumerate()
        )
        assert simple == general

    def test_no_matching_walk(self):
        g = chain(3, labels=("a",))
        dfa = glushkov_nfa(parse_rpq("b"))
        engine = SimpleShortestWalks(g, dfa, "v0", "v3")
        assert engine.lam is None
        assert list(engine.enumerate()) == []

    def test_lambda_zero(self):
        g = chain(2, labels=("a",))
        dfa = glushkov_nfa(parse_rpq("a*"))
        engine = SimpleShortestWalks(g, dfa, "v1", "v1")
        walks = list(engine.enumerate())
        assert engine.lam == 0
        assert len(walks) == 1 and walks[0].length == 0

    def test_multi_edge_single_label(self):
        g = chain(2, labels=("a",), parallel=3)
        dfa = glushkov_nfa(parse_rpq("a a"))
        engine = SimpleShortestWalks(g, dfa, "v0", "v2")
        assert sum(1 for _ in engine.enumerate()) == 9

    def test_iter_protocol(self):
        g = chain(1)
        dfa = glushkov_nfa(parse_rpq("a"))
        assert len(list(SimpleShortestWalks(g, dfa, "v0", "v1"))) == 1


class TestRandomizedAgainstGeneral:
    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=2, max_value=14),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_single_label_instances(self, seed, n, m):
        import random

        rng = random.Random(seed)
        b = GraphBuilder()
        names = [f"v{i}" for i in range(n)]
        b.add_vertices(names)
        for _ in range(m):
            b.add_edge(
                rng.choice(names),
                rng.choice(names),
                [rng.choice(["a", "b"])],
            )
        graph = b.build()
        # Random DFA with ≤ 3 states.
        k = rng.randint(1, 3)
        nfa = NFA(k)
        for q in range(k):
            for symbol in ("a", "b"):
                if rng.random() < 0.8:
                    nfa.add_transition(q, symbol, rng.randrange(k))
        nfa.set_initial(0)
        nfa.set_final(
            *[q for q in range(k) if rng.random() < 0.5] or [k - 1]
        )
        s, t = rng.randrange(n), rng.randrange(n)
        assert simple_eligible(graph, nfa)
        simple = sorted(
            w.edges for w in SimpleShortestWalks(graph, nfa, s, t).enumerate()
        )
        general = sorted(
            w.edges for w in DistinctShortestWalks(graph, nfa, s, t).enumerate()
        )
        assert simple == general
