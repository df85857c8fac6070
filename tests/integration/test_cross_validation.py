"""Cross-validation: every algorithm in the repository must agree.

On random instances, the following must produce the same answer set:

* the paper's algorithm (the engine, and the paper pipeline's
  recursive ``Enumerate`` and memoryless ``NextOutput``),
* the naive product-path baseline,
* the Martens–Trautner reduction (Theorem 1),
* the brute-force oracle.

(The simple-setting product-BFS baseline is cross-checked where it is
eligible in ``tests/core/test_simple.py`` and the differential matrix.)
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database
from repro.automata import parse_rpq, regex_to_nfa
from repro.baselines import glushkov_nfa
from repro.baselines.martens_trautner import martens_trautner_walks
from repro.baselines.naive import naive_enumerate
from repro.baselines.oracle import oracle_answer_set
from repro.core.compile import compile_epsilon_free
from repro.core.engine import DistinctShortestWalks

from tests.conftest import mode_walks, one_seek_per_output, small_instances


class TestAllAlgorithmsAgree:
    @given(small_instances())
    @settings(max_examples=80, deadline=None)
    def test_engine_vs_all_baselines(self, instance):
        graph, nfa, s, t = instance
        cq = compile_epsilon_free(graph, nfa)

        oracle = oracle_answer_set(graph, nfa, s, t)
        engine = sorted(
            w.edges
            for w in DistinctShortestWalks(graph, nfa, s, t).enumerate()
        )
        naive = sorted(w.edges for w in naive_enumerate(cq, s, t))
        reduction = sorted(
            w.edges for w in martens_trautner_walks(cq, s, t)
        )
        assert engine == oracle
        assert naive == oracle
        assert reduction == oracle

    @given(small_instances(allow_epsilon=True))
    @settings(max_examples=60, deadline=None)
    def test_epsilon_instances_all_agree(self, instance):
        graph, nfa, s, t = instance
        oracle = oracle_answer_set(graph, nfa, s, t)
        for mode in ("iterative", "recursive", "memoryless"):
            got = sorted(
                w.edges for w in mode_walks(graph, nfa, s, t, mode)
            )
            assert got == oracle, mode


class TestRegexPipelines:
    """Thompson- and Glushkov-compiled queries give identical answers."""

    _EXPRESSIONS = [
        "a",
        "a b",
        "a | b",
        "a*",
        "(a | b)* c",
        "a+ b?",
        "a{1,3} b",
        ". b",
        "(a b)* | c+",
    ]

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(_EXPRESSIONS),
    )
    @settings(max_examples=60, deadline=None)
    def test_thompson_equals_glushkov(self, seed, expression):
        rng = random.Random(seed)
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder()
        n = rng.randint(2, 6)
        names = [f"v{i}" for i in range(n)]
        builder.add_vertices(names)
        for _ in range(rng.randint(1, 12)):
            labels = rng.sample(["a", "b", "c"], rng.randint(1, 2))
            builder.add_edge(
                rng.choice(names), rng.choice(names), labels
            )
        graph = builder.build()
        s, t = rng.randrange(n), rng.randrange(n)

        pair = Database(graph).query(expression).from_(s).to(t)
        thompson = sorted(w.edges for w in pair.run().walks())
        engine = DistinctShortestWalks(
            graph, glushkov_nfa(parse_rpq(expression)), s, t
        )
        glushkov = sorted(w.edges for w in engine.enumerate())
        assert thompson == glushkov


class TestScaledScenarios:
    """Deterministic, moderately sized end-to-end scenarios."""

    def test_fraud_network_consistency(self):
        from repro.workloads.fraud import fraud_network

        graph = fraud_network(60, 240, seed=11)
        query = "(h | w | c)* s (h | w | c | s)*"
        engine = DistinctShortestWalks(graph, query, "acct0", "acct59")
        walks = list(engine.enumerate())
        assert walks, "planted chain guarantees an answer"
        assert len({w.edges for w in walks}) == len(walks)
        assert all(w.length == engine.lam for w in walks)
        nfa = regex_to_nfa(query)
        assert all(
            nfa.matches_label_sets(w.label_sets()) for w in walks
        )

    def test_social_network_consistency(self):
        from repro.workloads.social import social_network

        graph = social_network(80, seed=5)
        engine = DistinctShortestWalks(
            graph, "(knows | follows)+", "p0", "p40"
        )
        reference = sorted(w.edges for w in engine.enumerate())
        memoryless = sorted(
            w.edges for w in one_seek_per_output(engine.enumerate)
        )
        assert reference == memoryless

    def test_diamond_chain_counts(self):
        from repro.workloads.worstcase import diamond_chain

        graph, nfa, s, t = diamond_chain(10, parallel=2)
        engine = DistinctShortestWalks(graph, nfa, s, t)
        assert engine.count() == 2 ** 10
