"""Unit tests for query compilation."""

import pytest

from repro.api import Database
from repro.automata import ANY, EPSILON, NFA, regex_to_nfa, thompson_nfa
from repro.automata.regex_parser import parse_rpq
from repro.core.annotate import annotate
from repro.core.compile import compile_epsilon_free, compile_query
from repro.core.engine import DistinctShortestWalks
from repro.exceptions import QueryError
from repro.graph.builder import GraphBuilder
from repro.graph.generators import chain, random_multilabel
from repro.live import LiveGraph
from repro.workloads.fraud import example9_automaton, example9_graph


@pytest.fixture
def graph():
    return example9_graph()


class TestBasics:
    def test_relabeling(self, graph):
        cq = compile_query(graph, example9_automaton())
        h, s = graph.label_id("h"), graph.label_id("s")
        assert cq.delta[0][h] == (0,)
        assert cq.delta[0][s] == (1,)
        assert cq.delta[1][h] == (1,)
        assert cq.n_states == 2
        assert cq.initial == (0,)
        assert cq.final == frozenset({1})

    def test_size_accounting(self, graph):
        cq = compile_query(graph, example9_automaton())
        assert cq.delta_size == 4
        assert cq.size() == 2 + 4

    def test_absent_labels_dropped(self, graph):
        nfa = NFA(2)
        nfa.add_transition(0, "h", 1)
        nfa.add_transition(0, "never_in_graph", 1)
        nfa.set_initial(0)
        nfa.set_final(1)
        cq = compile_query(graph, nfa)
        assert cq.delta_size == 1

    def test_no_initial_state_rejected(self, graph):
        nfa = NFA(1)
        nfa.set_final(0)
        with pytest.raises(QueryError):
            compile_query(graph, nfa)
        with pytest.raises(QueryError):
            compile_query(graph, NFA(0))

    def test_repr(self, graph):
        assert "|Q|=2" in repr(compile_query(graph, example9_automaton()))


class TestWildcard:
    def test_any_expands_to_alphabet(self, graph):
        nfa = NFA(2)
        nfa.add_transition(0, ANY, 1)
        nfa.set_initial(0)
        nfa.set_final(1)
        cq = compile_query(graph, nfa)
        # Expanded over {h, s}.
        assert set(cq.delta[0]) == {graph.label_id("h"), graph.label_id("s")}

    def test_any_merges_with_concrete(self, graph):
        nfa = NFA(3)
        nfa.add_transition(0, ANY, 1)
        nfa.add_transition(0, "h", 2)
        nfa.set_initial(0)
        nfa.set_final(1, 2)
        cq = compile_query(graph, nfa)
        h = graph.label_id("h")
        assert set(cq.delta[0][h]) == {1, 2}


class TestEpsilonElimination:
    def test_closure_applied_to_targets(self, graph):
        nfa = NFA(3)
        nfa.add_transition(0, "h", 1)
        nfa.add_transition(1, EPSILON, 2)
        nfa.set_initial(0)
        nfa.set_final(2)
        cq = compile_query(graph, nfa)
        assert not cq.has_eps
        # The closure reaches {1, 2}; state 1 had only its ε-move, so
        # after elimination no final state is reachable from it and the
        # co-accessible trim drops it from the target tuple.  States 0
        # and 2 are left, numbered 0 and 1.
        assert cq.written == (0, 2)
        assert cq.delta[0][graph.label_id("h")] == (1,)
        assert compile_epsilon_free(graph, nfa).delta[0][graph.label_id("h")] == (2,)
        raw = compile_query(graph, nfa, eliminate_epsilon=False)
        assert raw.delta[0][graph.label_id("h")] == (1,)
        assert raw.eps[1] == (2,)

    def test_initial_closure(self, graph):
        nfa = NFA(2)
        nfa.add_transition(0, EPSILON, 1)
        nfa.add_transition(1, "h", 1)
        nfa.set_initial(0)
        nfa.set_final(1)
        cq = compile_query(graph, nfa)
        # closure(I) = {0, 1}; state 0 had only its ε-move, so a run of
        # the ε-eliminated automaton starting there never accepts.  State
        # 1 is all that is left: dense id 0, and the one start state.
        assert cq.written == (1,)
        assert cq.initial_closure == frozenset({0})
        assert cq.initial == (0,)
        as_written = compile_epsilon_free(graph, nfa)
        assert as_written.initial_closure == frozenset({1})
        assert as_written.initial == (0, 1)
        raw = compile_query(graph, nfa, eliminate_epsilon=False)
        assert raw.initial_closure == frozenset({0, 1})
        assert raw.initial == (0,)

    def test_epsilon_cycle(self, graph):
        nfa = NFA(2)
        nfa.add_transition(0, EPSILON, 1)
        nfa.add_transition(1, EPSILON, 0)
        nfa.add_transition(0, "h", 0)
        nfa.set_initial(0)
        nfa.set_final(1)
        h = graph.label_id("h")
        as_written = compile_epsilon_free(graph, nfa)
        assert set(as_written.delta[0][h]) == {0, 1}
        # Both states are initial and entered by ``0 -h->`` only: one
        # class, represented by the final member.
        cq = compile_query(graph, nfa)
        assert cq.written == (1,)
        assert cq.delta == ({h: (0,)},)
        assert cq.initial_closure == cq.final == frozenset({0})

    def test_opt_out(self, graph):
        nfa = thompson_nfa(parse_rpq("h s"))
        cq = compile_query(graph, nfa, eliminate_epsilon=False)
        assert cq.has_eps
        assert sum(len(e) for e in cq.eps) > 0

    def test_thompson_query_compiles_eps_free_by_default(self, graph):
        cq = compile_query(graph, thompson_nfa(parse_rpq("h* s (h | s)*")))
        assert not cq.has_eps


def _co_accessible(cq):
    """States with a path to a final state over the compiled Δ ∪ Δ_ε."""
    live = set(cq.final)
    changed = True
    while changed:
        changed = False
        for q in range(cq.n_states):
            if q in live:
                continue
            successors = {p for ts in cq.delta[q].values() for p in ts}
            successors.update(cq.eps[q])
            if successors & live:
                live.add(q)
                changed = True
    return live


THOMPSON_EPS_QUERIES = [
    "(a|b)*",
    "(a|b)* c (a|b|c)*",
    "a b* c",
    "(a|b|c|d)+",
    "(a b | c)* d?",
    "a* b* c*",
]


def test_gathers_group_labels_with_one_target_tuple():
    """``(a|b|c|d)+`` merges to one state whose four moves share one
    target tuple: one gather of four labels.  ``a b* c`` keeps a move
    per state: one group of one label each."""
    g = random_multilabel(30, 90, alphabet=("a", "b", "c", "d"), seed=3)
    a, b, c = map(g.label_id, "abc")
    cq = compile_query(g, regex_to_nfa("(a|b|c|d)+"))
    assert [len(steps) for steps in cq.moves] == [4, 4]
    assert [groups[0][0] for groups in cq.gathers] == [(0, 1, 2, 3)] * 2
    assert all(len(groups) == 1 for groups in cq.gathers)
    cq = compile_query(g, regex_to_nfa("a b* c"))
    assert [sorted(labels for labels, _ in groups) for groups in cq.gathers] == [
        [(a,)], sorted([(b,), (c,)]), [],
    ]


class TestCoAccessibleTrim:
    @pytest.mark.parametrize("expression", THOMPSON_EPS_QUERIES)
    @pytest.mark.parametrize("eliminate", [True, False])
    def test_every_remaining_state_is_co_accessible(self, expression, eliminate):
        g = random_multilabel(30, 90, alphabet=("a", "b", "c"), seed=3)
        nfa = regex_to_nfa(expression)  # "d" is absent from the graph.
        cq = compile_query(g, nfa, eliminate_epsilon=eliminate)
        live = _co_accessible(cq)
        mentioned = set(cq.initial_closure)
        for q in range(cq.n_states):
            if cq.delta[q] or cq.eps[q]:
                mentioned.add(q)
            mentioned.update(p for ts in cq.delta[q].values() for p in ts)
            mentioned.update(cq.eps[q])
        assert mentioned <= live
        # No row holds an emptied target tuple.
        assert all(ts for d in cq.delta for ts in d.values())
        # The derived layouts describe the trimmed table.
        for q in range(cq.n_states):
            assert cq.moves[q] == tuple(sorted(cq.delta[q].items()))
            # gathers[q] partitions moves[q]: each label once, grouped
            # by equal target tuple, one group per distinct tuple.
            groups = cq.gathers[q]
            labels = [a for group, _ in groups for a in group]
            assert sorted(labels) == [a for a, _ in cq.moves[q]]
            assert len(set(labels)) == len(labels)
            assert all(list(group) == sorted(group) for group, _ in groups)
            assert all(cq.delta[q][a] == ts for group, ts in groups for a in group)
            assert len({ts for _, ts in groups}) == len(groups)
        forward = sorted(
            (q, a, p)
            for q, row in enumerate(cq.delta)
            for a, ts in row.items()
            for p in ts
        )
        backward = sorted(
            (q, a, p)
            for p, row in enumerate(cq.delta_inv)
            for a, qs in row.items()
            for q in qs
        )
        assert forward == backward
        assert cq.automaton is nfa
        if eliminate:
            # Merged: the classes left, numbered densely in written order.
            assert cq.n_states == cq.live_states[1] == len(live)
            assert list(cq.written) == sorted(set(cq.written))
            assert {cq.written[f] for f in cq.final} <= nfa.final
        else:
            # Ids are kept: |Q| and F are untouched.
            assert cq.n_states == nfa.n_states
            assert cq.final == nfa.final
            assert cq.written == tuple(range(nfa.n_states))

    def test_trim_shrinks_the_thompson_automaton(self):
        """20 states as built, 7 co-accessible as written, 2 once the
        states before ``c`` and the states after it are each one — and
        then only 2 ids."""
        g = random_multilabel(30, 90, alphabet=("a", "b", "c"), seed=3)
        nfa = regex_to_nfa("(a|b)* c (a|b|c)*")
        for compiled, ids, size in (
            (compile_epsilon_free(g, nfa), 20, 7),
            (compile_query(g, nfa), 2, 2),
        ):
            used = {
                q for q in range(compiled.n_states) if compiled.delta[q]
            } | compiled.final
            assert compiled.n_states == ids
            assert len(used) == size

    def test_missing_label_empties_the_query(self):
        """Every accepting path needs ``d``, which no edge carries: no
        state is co-accessible except the finals, nothing can start."""
        g = chain(5, ("a", "b"), parallel=2)
        cq = compile_query(g, regex_to_nfa("(a|b)* d (a|b)*"))
        assert cq.initial_closure == frozenset()
        # What is left lies behind the missing ``d``: co-accessible,
        # but no run can get there.
        assert all(g.label_name(a) in "ab" for d in cq.delta for a in d)
        s, t = g.resolve_vertex("v0"), g.resolve_vertex("v5")
        for saturate in (False, True):
            ann = annotate(cq, s, t, saturate=saturate)
            assert ann.lam is None
            assert ann.annotation_entries() == 0
            assert ann.target_info(t) == (None, frozenset())

    @pytest.mark.parametrize("expression", THOMPSON_EPS_QUERIES)
    def test_state_ids_unchanged_tracked_matches_recompute(self, expression):
        """``tracked`` enumerates off the query compile and counts runs
        on the separately compiled ε-free count automaton, whose ids are
        the NFA's while the query compile's are dense: the two agree
        only because no state id crosses from one to the other."""
        g = random_multilabel(
            12, 60, alphabet=("a", "b", "c", "d"), max_labels_per_edge=3, seed=5
        )
        nfa = regex_to_nfa(expression)
        assert nfa.has_epsilon
        checked = 0
        for s in range(4):
            for t in range(g.vertex_count):
                engine = DistinctShortestWalks(g, nfa, s, t)
                if engine.lam is None:
                    continue
                tracked = [
                    (w.edges, c) for w, c in engine.enumerate_with_multiplicity("tracked")
                ]
                recomputed = [
                    (w.edges, c) for w, c in engine.enumerate_with_multiplicity("recompute")
                ]
                assert tracked == recomputed
                assert all(c >= 1 for _, c in tracked)
                checked += 1
        assert checked

    def test_first_edge_of_missing_label_revives_the_query(self):
        """The trim depends on the graph's label *set*; a batch that
        introduces the label evicts the plan (``new_labels``)."""
        db = Database(LiveGraph(chain(4, ("a",))))

        def run():
            return db.query("a* d").from_("v0").to("v4").run()

        assert run().lam is None
        assert run().stats["cached"]["plan"]
        receipt = db.mutate(
            [{"op": "add_edge", "src": "v3", "tgt": "v4", "labels": ["d"]}]
        )
        assert receipt.evicted_plans == 1
        fresh = run()
        assert fresh.stats["cached"]["plan"] is False
        assert fresh.lam == 4
        assert [len(row.walk.edges) for row in fresh] == [4]


class TestDenseIds:
    def test_label_set_change_evicts_plan_and_entry(self):
        """Dense ids number the states that survive, and those depend on
        the label set: while no edge carries ``b``, the state ``a c | b
        c`` starts its ``b`` branch in is dead; after one does, it is
        live and shares a class with the ``a`` branch's start (4
        co-accessible states, 4 classes → 5 and 4).  The batch evicts
        the plan (``b`` is a new label it mentions) and the annotation
        entry (``b`` is touched), every hit reads an entry through the
        compile it was built with, and the answers are a fresh
        database's."""

        def graph(with_b):
            b = GraphBuilder()
            b.add_edge("u", "v", ["a"])
            b.add_edge("v", "w", ["c"])
            if with_b:
                b.add_edge("u", "v", ["b"])
            return b.build()

        db = Database(LiveGraph(graph(False)))

        def run():
            return db.query("a c | b c").from_("u").to("w").run()

        def cached():
            (plan,) = db._plan_cache._data.values()
            (entry,) = db._annotation_cache._data.values()
            assert entry._cq is plan.compiled
            return plan.compiled

        assert [row.walk.edges for row in run()] == [(0, 1)]
        warm = run()
        assert warm.stats["cached"]["plan"] and warm.stats["cached"]["annotation"]
        assert cached().live_states == (4, 4)
        receipt = db.mutate(
            [{"op": "add_edge", "src": "u", "tgt": "v", "labels": ["b"]}]
        )
        assert (receipt.evicted_plans, receipt.evicted_annotations) == (1, 1)
        cold = run()
        assert not cold.stats["cached"]["plan"]
        assert not cold.stats["cached"]["annotation"]
        warm = run()
        assert warm.stats["cached"]["plan"] and warm.stats["cached"]["annotation"]
        assert cached().live_states == (5, 4)
        expected = Database(graph(True)).query("a c | b c").from_("u").to("w")
        for result in (cold, warm):
            assert [row.walk.edges for row in result] == [
                row.walk.edges for row in expected.run()
            ] == [(0, 1), (2, 1)]
