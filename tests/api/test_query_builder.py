"""Unit tests for the fluent :class:`repro.api.Query` builder."""

import pytest

from repro.api import Database
from repro.automata import regex_to_nfa
from repro.core.cheapest import DistinctCheapestWalks
from repro.core.engine import DistinctShortestWalks
from repro.core.multi_target import MultiTargetShortestWalks
from repro.exceptions import QueryError
from repro.graph.builder import GraphBuilder
from repro.workloads.fraud import example9_graph

QUERY = "h* s (h | s)*"


@pytest.fixture
def graph():
    return example9_graph()


@pytest.fixture
def db(graph):
    return Database(graph)


def _engine_edges(graph, expression, source, target):
    engine = DistinctShortestWalks(
        graph, regex_to_nfa(expression), source, target
    )
    return [w.edges for w in engine.enumerate()]


class TestBuilderSemantics:
    def test_copy_on_write_forking(self, db):
        base = db.query(QUERY).from_("Alix")
        pair = base.to("Bob")
        fan = base.to_all()
        assert pair.run().lam == 3
        assert len(fan.run().all()) == 8
        # The fork did not mutate the base.
        with pytest.raises(QueryError, match="needs to"):
            base.run()

    def test_shape_conflicts_rejected(self, db):
        q = db.query(QUERY)
        with pytest.raises(QueryError):
            q.from_("Alix").from_any(["Dan"])
        with pytest.raises(QueryError):
            q.from_any(["Dan"]).from_("Alix")
        with pytest.raises(QueryError):
            q.to("Bob").to_all()
        with pytest.raises(QueryError):
            q.from_("Alix").all_pairs()
        with pytest.raises(QueryError):
            q.from_any([])

    @pytest.mark.parametrize("sources", ["ab", b"ab"], ids=["str", "bytes"])
    def test_from_any_refuses_one_string(self, sources):
        """A string is one vertex name, not a sequence of sources: on
        a graph with vertices a, b and ab it must not answer from a
        and b."""
        b = GraphBuilder()
        for source in ("a", "b", "ab"):
            b.add_edge(source, "c", ["h"])
        q = Database(b.build()).query("h")
        with pytest.raises(QueryError, match="from_"):
            q.from_any(sources)
        rows = q.from_any(["ab"]).to("c").run().all()
        assert [row.source for row in rows] == ["ab"]

    def test_knob_validation(self, db):
        q = db.query(QUERY)
        with pytest.raises(QueryError):
            q.mode("warp")
        # Thompson is the one construction: there is no axis to set.
        assert not hasattr(q, "construction")
        with pytest.raises(QueryError):
            q.limit(0)
        with pytest.raises(QueryError):
            q.offset(-1)
        with pytest.raises(QueryError):
            q.timeout_ms(-5)
        with pytest.raises(QueryError):
            q.cursor("nope")
        with pytest.raises(QueryError):
            q.semantics("fastest")
        # True is a Python int, but no page size, count, budget or edge.
        for knob, value in (
            (q.limit, True),
            (q.offset, True),
            (q.timeout_ms, True),
            (q.timeout_ms, "5"),
            # A NaN deadline never expires; an infinite one is no budget.
            (q.timeout_ms, float("nan")),
            (q.timeout_ms, float("inf")),
            (q.cursor, [True, False]),
        ):
            with pytest.raises(QueryError):
                knob(value)

    def test_repr_mentions_shape(self, db):
        assert "pair" in repr(db.query(QUERY).from_("Alix").to("Bob"))
        assert "unshaped" in repr(db.query(QUERY))


class TestModesAndSemantics:
    def test_every_shortest_mode_agrees(self, db, graph):
        expected = _engine_edges(graph, QUERY, "Alix", "Bob")
        for mode in ("auto", "iterative", "memoryless"):
            rows = db.query(QUERY).from_("Alix").to("Bob").mode(mode).run()
            assert [r.walk.edges for r in rows] == expected, mode

    def test_cheapest_matches_engine(self):
        b = GraphBuilder()
        b.add_edge("s", "m", ["a"], cost=1)
        b.add_edge("m", "t", ["a"], cost=1)
        b.add_edge("s", "t", ["a"], cost=2)
        b.add_edge("s", "t", ["a"], cost=9)
        graph = b.build()
        engine = DistinctCheapestWalks(
            graph, regex_to_nfa("a+"), "s", "t"
        )
        expected = sorted(w.edges for w in engine.enumerate())
        for mode in ("auto", "iterative", "memoryless"):
            rows = (
                Database(graph).query("a+").cheapest()
                .from_("s").to("t").mode(mode).run()
            )
            assert sorted(r.walk.edges for r in rows) == expected, mode
            assert all(r.cost == 2 for r in rows), mode

    def test_recursive_mode_rejected_at_validation(self, db):
        """``recursive`` is the order oracle of ``repro.baselines``, not
        a mode: refused by ``Query.mode`` itself, shortest or cheapest,
        before anything runs."""
        pair = db.query(QUERY).from_("Alix").to("Bob")
        for query in (pair, pair.cheapest()):
            with pytest.raises(QueryError, match="unknown mode 'recursive'"):
                query.mode("recursive")

    def test_multiplicity_rows(self, db):
        rows = (
            db.query(QUERY).from_("Alix").to("Bob")
            .with_multiplicity().run().all()
        )
        assert sorted(r.multiplicity for r in rows) == [1, 2, 2, 3]

    def test_count_ignores_with_multiplicity(self, db):
        """Counting weighs no row: like the page knobs, the flag is
        dropped, so no count automaton is built for it."""
        query = db.query(QUERY).from_("Alix").to("Bob").with_multiplicity()
        assert query.count() == 4
        plan, hit = db._plan(query, db._handle(query._graph_name))
        assert hit and plan.count_compiled is None
        assert [r.multiplicity for r in query.run()] == [3, 1, 2, 2]
        assert plan.count_compiled is not None

    def test_plain_rows_have_no_multiplicity(self, db):
        rows = db.query(QUERY).from_("Alix").to("Bob").run().all()
        assert all(r.multiplicity is None for r in rows)

    def test_count_methods_agree(self, db, graph):
        """The restriction picks the method: ``walks`` counts by the DP,
        which agrees with the rows enumerated on every shape, and no
        ``method`` is accepted."""
        pair = db.query(QUERY).from_("Alix").to("Bob")
        assert pair.count() == len(pair.run().all()) == 4
        fan = db.query(QUERY).from_("Alix").to_all()
        assert fan.count() == len(fan.run().all()) == 8
        everything = db.query("h").all_pairs()
        assert everything.count() == len(everything.run().all()) == 6
        for method in ("guess", "dp", "enumerate"):
            with pytest.raises(TypeError):
                pair.count(method=method)
        engine = MultiTargetShortestWalks(graph, regex_to_nfa(QUERY), "Alix")
        assert engine.count_to("Bob") == 4
        with pytest.raises(TypeError):
            engine.count_to("Bob", method="dp")

    def test_count_ignores_pagination(self, db):
        assert db.query(QUERY).from_("Alix").to("Bob").limit(1).count() == 4


class TestShapes:
    def test_pair_rows_carry_names_and_lam(self, db):
        rows = db.query(QUERY).from_("Alix").to("Bob").run().all()
        assert {(r.source, r.target, r.lam) for r in rows} == {
            ("Alix", "Bob", 3)
        }
        assert all(r.length == 3 for r in rows)

    def test_one_to_all_matches_per_target_engines(self, db, graph):
        rows = db.query(QUERY).from_("Alix").to_all().run().all()
        by_target = {}
        for row in rows:
            by_target.setdefault(row.target, []).append(row.walk.edges)
        assert set(by_target) == {"Bob", "Cassie", "Dan", "Eve"}
        for target, edges in by_target.items():
            assert edges == _engine_edges(graph, QUERY, "Alix", target)

    def test_targets_terminal(self, db):
        fan = db.query(QUERY).from_("Alix").to_all()
        assert dict(fan.targets()) == {
            "Bob": 3, "Cassie": 2, "Dan": 1, "Eve": 2,
        }
        with pytest.raises(QueryError, match="to_all"):
            db.query(QUERY).from_("Alix").to("Bob").targets()

    def test_from_any_super_source_minimum(self, db):
        # Alix→Bob has λ=3 but Dan→Bob has λ=2: only Dan's walks win.
        rows = (
            db.query(QUERY).from_any(["Alix", "Dan"]).to("Bob").run()
        )
        materialized = rows.all()
        assert rows.lam == 2
        assert {r.source for r in materialized} == {"Dan"}
        assert all(r.length == 2 for r in materialized)

    def test_from_any_tie_keeps_caller_order(self, db):
        rows = (
            db.query("(h | s)").from_any(["Cassie", "Dan"]).to("Eve")
            .run().all()
        )
        # Both sources reach Eve in one hop — caller order, then the
        # per-bucket DFS order.
        assert [r.source for r in rows] == [
            "Cassie", "Cassie", "Dan",
        ]

    def test_from_any_duplicates_are_deduped(self, db):
        once = db.query(QUERY).from_any(["Dan"]).to("Bob").run().all()
        twice = (
            db.query(QUERY).from_any(["Dan", "Dan"]).to("Bob").run().all()
        )
        assert [r.walk.edges for r in twice] == [r.walk.edges for r in once]

    def test_all_pairs_covers_every_reachable_pair(self, db, graph):
        rows = db.query("h").all_pairs().run().all()
        got = {(r.source, r.target): r.walk.edges for r in rows}
        assert len(got) == 6  # Six single-h edges in Figure 1.
        for (source, target), edges in got.items():
            assert [edges] == _engine_edges(graph, "h", source, target)

    def test_empty_results(self, db):
        assert db.query("h").from_("Bob").to("Alix").run().all() == []
        assert db.query("h").from_("Bob").to("Alix").run().lam is None
        assert db.query("h").from_("Bob").to_all().run().all() == []
        assert (
            db.query("h").from_any(["Bob"]).to("Alix").run().lam is None
        )

    def test_lambda_zero_pair(self, db):
        rows = db.query("h*").from_("Alix").to("Alix").run()
        materialized = rows.all()
        assert rows.lam == 0
        assert [r.walk.edges for r in materialized] == [()]


class TestExplainAndStats:
    def test_explain_mentions_facade_routing(self, db):
        plan = db.query(QUERY).from_("Alix").to("Bob").explain()
        text = plan.explain()
        assert "façade" in text and "'pair'" in text
        # Explain names the asked mode, and every mode pages the same.
        assert "mode 'auto': one DFS per page (O(λ) seek" in text
        named = db.query(QUERY).from_("Alix").to("Bob").mode("memoryless")
        assert (
            "mode 'memoryless': one DFS per page (O(λ) seek from the cursor)"
            in named.explain().explain()
        )

    def test_explain_says_what_was_compiled(self):
        """``automaton: size 20`` is Thompson's ``(a|b)*`` as built; the
        engine runs one state of it, and the next line says so."""
        b = GraphBuilder()
        b.add_edge("u", "v", ["a", "b"])
        query = Database(b.build()).query("(a|b)*").from_("u").to("v")
        lines = query.explain().explain().splitlines()
        (at,) = [i for i, x in enumerate(lines) if x.startswith("automaton: ")]
        assert lines[at].startswith("automaton: size 20,")
        assert lines[at + 1] == (
            "compiled: 8 states as written, 3 co-accessible, "
            "1 after the same-past merge, |Δ| 2"
        )

    def test_explain_and_compile_span_count_states_as_written(self):
        """The merged compile runs 2 states, numbered 0 and 1; explain
        and the compile span still say what the automaton was written
        with (20 states, 7 co-accessible) beside what the merge left."""
        from repro.obs import Trace
        from repro.obs import trace as obs_trace

        b = GraphBuilder()
        b.add_edge("u", "v", ["a", "b"])
        b.add_edge("v", "w", ["c"])
        b.add_edge("w", "u", ["d"])
        query = Database(b.build()).query("(a|b)* c (a|b|c)*").from_("u").to("w")
        trace = Trace()
        token = obs_trace.activate(trace)
        try:
            plan = query.explain()
        finally:
            obs_trace.deactivate(token)
        assert (
            "compiled: 20 states as written, 7 co-accessible, "
            "2 after the same-past merge, |Δ| "
        ) in plan.explain()

        def spans(nodes):
            for node in nodes:
                yield node
                yield from spans(node.get("children", ()))

        (compile_span,) = [
            s for s in spans(trace.to_dict()["spans"]) if s["name"] == "compile"
        ]
        assert compile_span["tags"] == {
            "states": 20, "co_accessible": 7, "merged": 2,
        }
        assert [len(row.walk.edges) for row in query.run()] == [2]

    def test_explain_cold_names_the_same_mode(self):
        """Capacity 0 selects no other engine and no other build: the
        whole façade line — resolved mode and route — reads as on a
        cached database, for a pair and for a fan-out alike.  Every
        build stops at the asked target's level and deepens on demand."""
        b = GraphBuilder()
        b.add_edge("a", "b", ["x"])
        graph = b.build()

        def facade_line(db, mode, fan=False):
            query = db.query("x").from_("a")
            query = query.to_all() if fan else query.to("b")
            plan = query.mode(mode).explain()
            (line,) = [r for r in plan.reasons if "mode " in r]
            return line

        cold = Database(graph, annotation_cache_size=0)
        warm = Database(graph)
        for mode in ("auto", "iterative", "memoryless"):
            for fan in (False, True):
                cold_line = facade_line(cold, mode, fan)
                assert cold_line == facade_line(warm, mode, fan)
                assert "deepened on demand" in cold_line
                assert "stopped at the target" not in cold_line

    def test_stats_terminal(self, db):
        stats = db.query(QUERY).from_("Alix").to("Bob").stats()
        assert stats["rows"] == 4 and stats["lam"] == 3
        assert "annotate" in stats["timings"]
        assert "enumerate" in stats["timings"]
        assert set(stats["cached"]) == {"plan", "annotation"}
