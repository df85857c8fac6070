"""Unit tests for ``Enumerate`` — order, completeness, queue hygiene,
cursor entries, loop turns and memory under costs."""

import inspect
import sys
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings

from repro.api import Database
from repro.baselines.oracle import oracle_answer_set
from repro.baselines.paper_pipeline import enumerate_walks_recursive, trim_maps
from repro.core.annotate import annotate
from repro.core.compile import compile_query
from repro.core.engine import DistinctShortestWalks
from repro.core.enumerate import enumerate_walks
from repro.core.trim import trim
from repro.exceptions import QueryError
from repro.graph import GraphBuilder
from repro.workloads.fraud import (
    EXAMPLE9_EDGE_IDS,
    example9_automaton,
    example9_graph,
)
from repro.workloads.worstcase import diamond_chain

from tests.conftest import one_seek_per_output, small_instances


def _setup_example9():
    graph = example9_graph()
    cq = compile_query(graph, example9_automaton())
    ann = annotate(cq, graph.vertex_id("Alix"), graph.vertex_id("Bob"))
    return graph, ann, trim(graph, ann)


def _run(graph, ann, trimmed, target):
    return list(
        enumerate_walks(graph, trimmed, ann.lam, target, ann.target_states)
    )


class TestExample9:
    def test_four_answers_in_dfs_order(self):
        """Output order is fixed by TgtIdx: w4, w1, w2, w3."""
        graph, ann, trimmed = _setup_example9()
        walks = _run(graph, ann, trimmed, graph.vertex_id("Bob"))
        names = {v: k for k, v in EXAMPLE9_EDGE_IDS.items()}
        got = [[names[e] for e in w.edges] for w in walks]
        assert got == [
            ["e2", "e4", "e8"],  # w4
            ["e1", "e5", "e8"],  # w1
            ["e1", "e6", "e8"],  # w2
            ["e2", "e3", "e7"],  # w3
        ]

    def test_no_duplicates(self):
        graph, ann, trimmed = _setup_example9()
        walks = _run(graph, ann, trimmed, graph.vertex_id("Bob"))
        assert len(set(w.edges for w in walks)) == len(walks)

    def test_recursive_variant_identical(self):
        graph, ann, trimmed = _setup_example9()
        iterative = [
            w.edges for w in _run(graph, ann, trimmed, graph.vertex_id("Bob"))
        ]
        recursive = [
            w.edges
            for w in enumerate_walks_recursive(
                graph,
                trim_maps(graph, ann),
                ann.lam,
                graph.vertex_id("Bob"),
                ann.target_states,
            )
        ]
        assert iterative == recursive

    def test_reusable_after_full_enumeration(self):
        """Queues are restored, so a second run gives the same output."""
        graph, ann, trimmed = _setup_example9()
        bob = graph.vertex_id("Bob")
        first = [w.edges for w in _run(graph, ann, trimmed, bob)]
        second = [w.edges for w in _run(graph, ann, trimmed, bob)]
        assert first == second

    def test_abandoned_generator_restores_queues(self):
        graph, ann, trimmed = _setup_example9()
        bob = graph.vertex_id("Bob")
        gen = enumerate_walks(graph, trimmed, ann.lam, bob, ann.target_states)
        next(gen)
        gen.close()  # Abandon mid-enumeration.
        again = [w.edges for w in _run(graph, ann, trimmed, bob)]
        assert len(again) == 4


class TestEdgeCases:
    def test_lam_none_yields_nothing(self):
        graph, ann, trimmed = _setup_example9()
        assert (
            list(enumerate_walks(graph, trimmed, None, 0, frozenset()))
            == []
        )

    def test_empty_start_states_yields_nothing(self):
        graph, ann, trimmed = _setup_example9()
        assert (
            list(enumerate_walks(graph, trimmed, 3, 0, frozenset())) == []
        )

    def test_lam_zero_yields_trivial_walk(self):
        graph, ann, trimmed = _setup_example9()
        alix = graph.vertex_id("Alix")
        walks = list(
            enumerate_walks(graph, trimmed, 0, alix, frozenset({0}))
        )
        assert len(walks) == 1
        assert walks[0].length == 0
        assert walks[0].src == alix


class TestProperties:
    @given(small_instances())
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, instance):
        """Completeness + soundness + distinctness vs brute force."""
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa)
        ann = annotate(cq, s, t)
        trimmed = trim(graph, ann)
        walks = list(
            enumerate_walks(graph, trimmed, ann.lam, t, ann.target_states)
        )
        got = sorted(w.edges for w in walks)
        assert len(set(got)) == len(got), "duplicate output"
        assert got == oracle_answer_set(graph, nfa, s, t)

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_recursive_matches_iterative_order(self, instance):
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa)
        ann = annotate(cq, s, t)
        trimmed = trim(graph, ann)
        iterative = [
            w.edges
            for w in enumerate_walks(
                graph, trimmed, ann.lam, t, ann.target_states
            )
        ]
        recursive = [
            w.edges
            for w in enumerate_walks_recursive(
                graph, trim_maps(graph, ann), ann.lam, t, ann.target_states
            )
        ]
        assert iterative == recursive

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_order_is_reverse_tgt_idx_lexicographic(self, instance):
        """Children are explored in increasing TgtIdx: the output order
        is lexicographic in the (reversed) TgtIdx key sequence."""
        graph, nfa, s, t = instance
        cq = compile_query(graph, nfa)
        ann = annotate(cq, s, t)
        trimmed = trim(graph, ann)
        walks = list(
            enumerate_walks(graph, trimmed, ann.lam, t, ann.target_states)
        )
        keys = [
            tuple(graph.tgt_idx(e) for e in reversed(w.edges)) for w in walks
        ]
        assert keys == sorted(keys)


def _diamond_args(k):
    """``enumerate_walks``'s positional arguments for ``diamond_chain(k)``."""
    graph, nfa, s, t = diamond_chain(k)
    s, t = graph.vertex_id(s), graph.vertex_id(t)
    ann = annotate(compile_query(graph, nfa), s, t)
    return graph, trim(graph, ann), ann.lam, t, ann.target_states


class TestCursorEntries:
    """Every entry of ``resume_after`` must be an edge id, a plain
    ``int``: ``True == 1`` must not resume after edge 1, and a float or
    a string is the typed cursor error, not a bare ``TypeError``."""

    NOT_EDGE_IDS = [(True, 2, 4), (0.0, 2, 4), ("0", 2, 4), (1, 2, None)]

    def test_a_plain_cursor_resumes(self):
        args = _diamond_args(3)
        walks = [w.edges for w in enumerate_walks(*args)]
        assert walks[1] == (1, 2, 4)
        resumed = enumerate_walks(*args, resume_after=(1, 2, 4))
        assert [w.edges for w in resumed] == walks[2:]

    @pytest.mark.parametrize("cursor", NOT_EDGE_IDS)
    def test_eager_resume_refuses(self, cursor):
        with pytest.raises(QueryError, match="does not match any output"):
            next(enumerate_walks(*_diamond_args(3), resume_after=cursor))

    @pytest.mark.parametrize("cursor", NOT_EDGE_IDS)
    def test_memoryless_refuses(self, cursor):
        """A fresh generator per output refuses the cursor it is handed
        first."""
        walks = one_seek_per_output(
            partial(enumerate_walks, *_diamond_args(3)), resume_after=cursor
        )
        with pytest.raises(QueryError, match="does not match any output"):
            next(walks)

    @pytest.mark.parametrize("mode", ["iterative", "memoryless"])
    @pytest.mark.parametrize("cursor", NOT_EDGE_IDS)
    def test_engine_refuses(self, mode, cursor):
        """The engine's one DFS, read straight through or one fresh
        stream per output."""
        graph, nfa, s, t = diamond_chain(3)
        engine = DistinctShortestWalks(graph, nfa, s, t)
        walks = (
            engine.enumerate(resume_after=cursor) if mode == "iterative"
            else one_seek_per_output(engine.enumerate, resume_after=cursor)
        )
        with pytest.raises(QueryError, match="does not match any output"):
            next(walks)


def _loop_head_count(args):
    """``(outputs, executions of the DFS's ``while`` line)`` for one
    full run — a count of loop turns that repeats exactly."""
    lines, first = inspect.getsourcelines(enumerate_walks)
    (head,) = [
        first + i for i, text in enumerate(lines)
        if text.lstrip().startswith("while ")
    ]
    code = enumerate_walks.__code__
    turns = 0

    def tracer(frame, event, _arg):
        nonlocal turns
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno == head:
            turns += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        outputs = sum(1 for _ in enumerate_walks(*args))
    finally:
        sys.settrace(previous)
    return outputs, turns


class TestLoopTurns:
    def test_one_turn_per_leaf_run_and_per_frame(self):
        """``diamond_chain(12)``: 2¹² outputs in 2¹¹ leaf runs of two
        under 2¹¹ − 1 one-state nodes with two children.  The descent
        takes each node's first child (2 047 turns) and leaves one frame
        for its second, which leaves the stack with it (2 047 turns);
        each leaf run is one turn (2 048); plus the final test of the
        loop head.  A frame per node, popped one turn after its last
        child, took 8 190 turns."""
        assert _loop_head_count(_diamond_args(12)) == (4096, 6143)


def test_cheapest_memory_is_walk_length_not_cost():
    """A cost budget is not a length: a 2-edge cheapest walk of cost
    10⁸ allocates what its two edges need, not columns sized by the
    budget (``tracemalloc`` peak well under 1 MB)."""
    builder = GraphBuilder()
    builder.add_edge("s", "m", ["a"], cost=50_000_000)
    builder.add_edge("m", "t", ["a"], cost=50_000_000)
    db = Database(builder.build())
    query = db.query("a+").from_("s").to("t").cheapest()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = query.run().all()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert [(row.lam, row.walk.length) for row in rows] == [(10 ** 8, 2)]
    assert peak < 1_000_000
