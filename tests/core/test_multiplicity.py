"""Unit tests for run-count multiplicities (Section 5.3).

Production weighs walks with one suffix-sharing counter
(:func:`repro.core.multiplicity.run_counter`); every case holds it to
the per-walk rerun of the automaton, :func:`count_accepting_runs` of
:mod:`repro.baselines.runs`, and the brute-force cases below to a
(word, run) count that uses neither.
"""

import inspect
import sys

import pytest
from hypothesis import given, settings

from repro.api import Database
from repro.baselines.runs import count_accepting_runs
from repro.core.compile import compile_epsilon_free, compile_query
from repro.core.engine import DistinctShortestWalks
from repro.core.multiplicity import run_counter
from repro.workloads.fraud import (
    EXAMPLE9_EDGE_IDS,
    example9_automaton,
    example9_graph,
)

from tests.conftest import small_instances


def _edges(*names):
    return tuple(EXAMPLE9_EDGE_IDS[n] for n in names)


def _runs(cq, edges):
    """The run count of one walk, by the reference and by a fresh
    counter, which must agree."""
    expected = count_accepting_runs(cq, edges)
    assert run_counter(cq)(edges) == expected
    return expected


def _check_against_reference(engine, nfa):
    """The engine's ``(walk, multiplicity)`` stream, each multiplicity
    checked against the reference on the written automaton."""
    cq = compile_epsilon_free(engine.graph, nfa)
    pairs = [(w.edges, m) for w, m in engine.enumerate_with_multiplicity()]
    assert [m for _, m in pairs] == [
        count_accepting_runs(cq, edges) for edges, _ in pairs
    ]
    return pairs


class TestExample9:
    """Example 9 discusses each walk's accepted label words; since the
    automaton is unambiguous, runs == accepted words."""

    def test_w4_has_three_runs(self):
        graph = example9_graph()
        cq = compile_epsilon_free(graph, example9_automaton())
        # w4 = ⟨e2, e4, e8⟩ carries shh, hhs, shs — three runs.
        assert _runs(cq, _edges("e2", "e4", "e8")) == 3

    def test_w1_w2_w3(self):
        graph = example9_graph()
        cq = compile_epsilon_free(graph, example9_automaton())
        assert _runs(cq, _edges("e1", "e5", "e8")) == 1
        assert _runs(cq, _edges("e1", "e6", "e8")) == 2
        assert _runs(cq, _edges("e2", "e3", "e7")) == 2

    def test_non_matching_walk_has_zero(self):
        graph = example9_graph()
        cq = compile_epsilon_free(graph, example9_automaton())
        assert _runs(cq, _edges("e1", "e7")) == 0

    def test_empty_walk(self):
        graph = example9_graph()
        cq = compile_epsilon_free(graph, example9_automaton())
        assert _runs(cq, ()) == 0  # ε ∉ L.

    def test_engine_integration(self):
        graph = example9_graph()
        engine = DistinctShortestWalks(
            graph, example9_automaton(), "Alix", "Bob"
        )
        by_edges = {
            w.edges: m for w, m in engine.enumerate_with_multiplicity()
        }
        assert by_edges == {
            _edges("e2", "e4", "e8"): 3,
            _edges("e1", "e5", "e8"): 1,
            _edges("e1", "e6", "e8"): 2,
            _edges("e2", "e3", "e7"): 2,
        }

    def test_epsilon_query_counts_on_eliminated(self):
        """ε-NFAs are counted on the canonical eliminated automaton."""
        from repro.automata import regex_to_nfa

        graph = example9_graph()
        engine = DistinctShortestWalks(
            graph, regex_to_nfa("h* s (h | s)*"), "Alix", "Bob"
        )
        multiplicities = {
            w.edges: m for w, m in engine.enumerate_with_multiplicity()
        }
        assert all(m >= 1 for m in multiplicities.values())


class TestAmbiguousCounting:
    def test_runs_multiply_across_states(self):
        """A two-way state split doubles the run count."""
        from repro.automata import NFA
        from repro.graph import GraphBuilder

        b = GraphBuilder()
        b.add_edge("x", "y", ["a"])
        b.add_edge("y", "z", ["a"])
        graph = b.build()
        nfa = NFA(4)
        nfa.add_transition(0, "a", 1)
        nfa.add_transition(0, "a", 2)
        nfa.add_transition(1, "a", 3)
        nfa.add_transition(2, "a", 3)
        nfa.set_initial(0)
        nfa.set_final(3)
        cq = compile_epsilon_free(graph, nfa)
        assert _runs(cq, (0, 1)) == 2

    def test_labels_multiply_runs(self):
        """Two labels firing the same transition give two runs."""
        from repro.automata import NFA
        from repro.graph import GraphBuilder

        b = GraphBuilder()
        b.add_edge("x", "y", ["a", "b"])
        graph = b.build()
        nfa = NFA(2)
        nfa.add_transition(0, "a", 1)
        nfa.add_transition(0, "b", 1)
        nfa.set_initial(0)
        nfa.set_final(1)
        cq = compile_epsilon_free(graph, nfa)
        assert _runs(cq, (0,)) == 2


class TestCountedRepeats:
    """A counted repeat matches ``k`` copies of its operand in exactly
    one way: a walk's run count follows the regex, not the flat
    desugar, whose ``n − m`` optionals ``(ε|X)`` weigh ``aa`` under
    ``a{1,3}`` at 2 — one run per choice of optional copy."""

    #: expression → (runs of ``aa``, runs on the flat desugar).
    PINS = {
        "a{1,3}": (1, 2),
        "(a|b){0,4}": (1, 6),
        "a{2,5}": (1, 1),
        # One outer copy matching ``aa``, or two matching ``a``: the
        # inner repeat's one way each.
        "((a|b){1,3}){1,2}": (2, 3),
    }

    @pytest.mark.parametrize("expression", sorted(PINS))
    def test_aa_weighs_as_the_regex(self, expression):
        from repro.automata import parse_rpq, thompson_nfa
        from repro.automata.regex_ast import desugar
        from repro.graph.generators import chain

        graph = chain(2, ("a",))
        runs, flat_runs = self.PINS[expression]
        rows = (
            Database(graph).query(expression).from_("v0").to("v2")
            .with_multiplicity().run().all()
        )
        assert [row.multiplicity for row in rows] == [runs]
        edges = rows[0].walk.edges
        ast = parse_rpq(expression)
        nested = compile_epsilon_free(graph, thompson_nfa(ast))
        flat = compile_epsilon_free(graph, thompson_nfa(desugar(ast)))
        assert _runs(nested, edges) == runs
        assert _runs(flat, edges) == flat_runs


class TestProperties:
    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_every_answer_has_positive_multiplicity(self, instance):
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        for walk, multiplicity in engine.enumerate_with_multiplicity():
            assert multiplicity >= 1

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_multiplicity_bounded_by_words_times_runs(self, instance):
        """Multiplicity ≤ (number of label words) × |Q|^(λ+1) — a loose
        sanity bound that catches sign/overflow style bugs.  A run on
        a word of length λ is a sequence of λ+1 states (the initial
        state is a choice too), hence the +1 in the exponent."""
        graph, nfa, s, t = instance
        engine = DistinctShortestWalks(graph, nfa, s, t)
        for walk, multiplicity in engine.enumerate_with_multiplicity():
            n_words = 1
            for labels in walk.label_sets():
                n_words *= len(labels)
            assert multiplicity <= n_words * (
                nfa.n_states ** (walk.length + 1)
            )


class TestTrackedRuns:
    """The §5.3 'keep track along the recursive calls' counter — the
    engine's only one — against the per-walk rerun."""

    def test_example9_tracked_matches_recompute(self):
        from repro.workloads.fraud import example9_automaton, example9_graph

        engine = DistinctShortestWalks(
            example9_graph(), example9_automaton(), "Alix", "Bob"
        )
        tracked = _check_against_reference(engine, example9_automaton())
        assert [edges for edges, _ in tracked] == [
            w.edges for w in engine.enumerate()
        ]
        # Example 9: w4 carries 3 suitable labels, w2/w3 carry 2, w1
        # carries 1 — runs coincide with labels for this automaton.
        assert sorted(m for _, m in tracked) == [1, 2, 2, 3]

    def test_bad_method_rejected(self):
        """There is one counter, so no method is accepted at all."""
        from repro.workloads.fraud import example9_automaton, example9_graph

        engine = DistinctShortestWalks(
            example9_graph(), example9_automaton(), "Alix", "Bob"
        )
        for method in ("bogus", "tracked", "recompute"):
            with pytest.raises(TypeError):
                engine.enumerate_with_multiplicity(method=method)

    def test_lambda_zero_tracked(self):
        from repro.automata import NFA
        from repro.workloads.fraud import example9_graph

        nfa = NFA(1)
        nfa.add_transition(0, "h", 0)
        nfa.set_initial(0)
        nfa.set_final(0)
        engine = DistinctShortestWalks(
            example9_graph(), nfa, "Alix", "Alix"
        )
        tracked = list(engine.enumerate_with_multiplicity())
        assert len(tracked) == 1
        assert tracked[0][0].length == 0 and tracked[0][1] == 1

    @given(small_instances())
    @settings(max_examples=80, deadline=None)
    def test_tracked_matches_recompute_random(self, instance):
        graph, nfa, s, t = instance
        _check_against_reference(DistinctShortestWalks(graph, nfa, s, t), nfa)

    @given(small_instances(allow_epsilon=True))
    @settings(max_examples=40, deadline=None)
    def test_tracked_with_epsilon_queries(self, instance):
        graph, nfa, s, t = instance
        _check_against_reference(DistinctShortestWalks(graph, nfa, s, t), nfa)


class TestRunCounter:
    """The counter needs only edge ids: any stream order, any lengths."""

    def test_any_stream_order_and_repeats(self):
        graph = example9_graph()
        cq = compile_epsilon_free(graph, example9_automaton())
        walks = [
            _edges("e2", "e4", "e8"), _edges("e1", "e6", "e8"), (),
            _edges("e1", "e6", "e8"), _edges("e6", "e8"),
            _edges("e2", "e3", "e7"), _edges("e1", "e7"),
            _edges("e1", "e5", "e8"), _edges("e8"), (),
        ]
        weigh = run_counter(cq)
        assert [weigh(edges) for edges in walks] == [
            count_accepting_runs(cq, edges) for edges in walks
        ]

    def test_empty_walk_weighs_initial_and_final_states(self):
        """|I ∩ F|: two states both initial and final, one of each."""
        from repro.automata import NFA

        nfa = NFA(4)
        for q in (0, 1, 2):
            nfa.set_initial(q)
        for q in (0, 1, 3):
            nfa.set_final(q)
        nfa.add_transition(2, "h", 3)
        cq = compile_epsilon_free(example9_graph(), nfa)
        assert run_counter(cq)(()) == count_accepting_runs(cq, ()) == 2


def _rolled_edges(run):
    """``(result of run(), edges the counter rolled)``: executions of
    the first line of its per-edge loop — a count that repeats
    exactly."""
    lines, first = inspect.getsourcelines(run_counter)
    (line,) = [
        first + i for i, text in enumerate(lines)
        if text.strip() == "labels = label_of[edges[i]]"
    ]
    (weigh,) = [
        c for c in run_counter.__code__.co_consts
        if inspect.iscode(c) and c.co_name == "weigh"
    ]
    rolled = 0

    def tracer(frame, event, _arg):
        nonlocal rolled
        if frame.f_code is not weigh:
            return None
        if event == "line" and frame.f_lineno == line:
            rolled += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, rolled


class TestSharedSuffixes:
    """``diamond_chain(12)`` under ``a*``: 2¹² walks of 12 edges, the
    leaves of a binary backward-search tree with 2¹³ − 2 edges.  One
    counter over the stream rolls each tree edge once: 8 190 edges,
    where a rerun per walk rolls 4 096 × 12 = 49 152."""

    def test_a_facade_page_rolls_each_tree_edge_once(self):
        from repro.workloads.worstcase import diamond_chain

        graph, _, s, t = diamond_chain(12)
        query = Database(graph).query("a*").from_(s).to(t)
        rows, rolled = _rolled_edges(
            lambda: query.with_multiplicity().run().all()
        )
        assert len(rows) == 4096 and {r.multiplicity for r in rows} == {1}
        assert rolled == 8190

    def test_the_engine_stream_rolls_each_tree_edge_once(self):
        from repro.workloads.worstcase import diamond_chain

        graph, nfa, s, t = diamond_chain(12)
        engine = DistinctShortestWalks(graph, nfa, s, t)
        pairs, rolled = _rolled_edges(
            lambda: list(engine.enumerate_with_multiplicity())
        )
        assert len(pairs) == 4096 and rolled == 8190

    def test_cells_ending_at_one_target_share_suffixes(self):
        """``from_any(S).to(t)``: y's cell starts with the edge into t
        that x's last walk ended with, so its walk rolls one edge."""
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder()
        builder.add_edge("x", "m", ["a"])
        builder.add_edge("x", "m", ["a"])
        builder.add_edge("y", "m", ["a"])
        builder.add_edge("m", "t", ["a"])
        query = Database(builder.build()).query("a a").from_any(
            ["x", "y"]
        ).to("t")
        rows, rolled = _rolled_edges(
            lambda: query.with_multiplicity().run().all()
        )
        assert [r.source for r in rows] == ["x", "x", "y"]
        assert [r.multiplicity for r in rows] == [1, 1, 1]
        # x: 2 + 1 edges; y: 1 — a counter per cell would roll 2 there.
        assert rolled == 4


def _brute_force_runs(graph, nfa, edges):
    """(word, run) pairs accepting the walk, one transition at a time —
    no compile, no DP.  ``nfa`` must be ε-free."""
    transitions = list(nfa.transitions())

    def runs_from(state, i):
        if i == len(edges):
            return int(state in nfa.final)
        labels = graph.label_names_of(edges[i])
        return sum(
            runs_from(p, i + 1)
            for q, label, p in transitions
            if q == state and label in labels
        )

    return sum(runs_from(q, 0) for q in nfa.initial)


class TestAcrossTheMerge:
    """The query compile merges same-past states; run counts belong to
    the automaton as written and must not notice (a tracked count
    seeded from the merged certificate answers 1 on the first case)."""

    CASES = {
        # Two final states entered by the very same transition.
        "same-past finals": ("a | a", 2),
        # Glushkov's complete 3-position loop: wide_nfa(3) as a regex.
        "complete loop": ("(a | a | a)*", 3 ** 4),
    }

    @staticmethod
    def _instance(name):
        from repro.automata import parse_rpq
        from repro.baselines import glushkov_nfa
        from repro.graph.generators import chain
        from repro.workloads.worstcase import diamond_chain

        expression, runs = TestAcrossTheMerge.CASES[name]
        nfa = glushkov_nfa(parse_rpq(expression))
        assert not nfa.has_epsilon
        if name == "same-past finals":
            return chain(1, ("a",)), nfa, "v0", "v1", expression, runs
        graph, _, s, t = diamond_chain(4)
        return graph, nfa, s, t, expression, runs

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_engine_tracked_recompute_and_brute_force_agree(self, name):
        graph, nfa, s, t, _, runs = self._instance(name)
        merged = compile_query(graph, nfa).live_states
        assert merged[1] < merged[0]  # The merge does bite here.
        engine = DistinctShortestWalks(graph, nfa, s, t)
        tracked = _check_against_reference(engine, nfa)
        assert tracked
        for edges, multiplicity in tracked:
            assert multiplicity == runs
            assert multiplicity == _brute_force_runs(graph, nfa, edges)
        assert engine.count("dp") == engine.count("enumerate") == len(tracked)

    def test_wide_nfa_on_the_diamond_chain(self):
        from repro.workloads.worstcase import diamond_chain, wide_nfa

        graph, _, s, t = diamond_chain(4)
        nfa = wide_nfa(3, ("a",))
        engine = DistinctShortestWalks(graph, nfa, s, t)
        tracked = _check_against_reference(engine, nfa)
        assert len(tracked) == engine.count("dp") == 2 ** 4
        for edges, multiplicity in tracked:
            assert multiplicity == 3 ** 4
            assert multiplicity == _brute_force_runs(graph, nfa, edges)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_facade_and_jsonl_request(self, name):
        from repro.api import Database
        from repro.service import QueryRequest, QueryService

        graph, nfa, s, t, expression, runs = self._instance(name)
        query = Database(graph).query(expression).from_(s).to(t)
        rows = query.with_multiplicity().run().all()
        assert rows and all(row.multiplicity == runs for row in rows)
        assert query.count("dp") == query.count("enumerate") == len(rows)
        # Glushkov's plan, which the merge does bite, gives the rows
        # Thompson's does through the façade.
        engine = DistinctShortestWalks(
            graph, nfa, s, t, compiled=compile_query(graph, nfa)
        )
        assert [w.edges for w in engine.enumerate()] == [
            row.walk.edges for row in rows
        ]
        # The JSONL protocol carries no multiplicities: the request
        # must simply not notice the merge.
        service = QueryService()
        service.register_graph("g", graph)
        response = service.execute(QueryRequest.from_dict({
            "query": expression, "source": s, "target": t, "graph": "g",
        }))
        assert response.status == "ok", response.error
        assert [tuple(w["edges"]) for w in response.walks] == [
            row.walk.edges for row in rows
        ]
