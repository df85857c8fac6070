"""Combinatorial validation of Theorem 2's delay bound.

Wall-clock delay measurements live in ``benchmarks/``; here we verify
the bound *deterministically* by counting data-structure operations.
Between two consecutive outputs, ``Enumerate`` performs at most
O(λ × |A|) queue operations (peek / advance / restart): the DFS crosses
at most 2λ tree edges and each frame touches each of its ≤ |Q| queues a
constant number of times.  :mod:`tests.property.delay_steps` counts
them — on the paper's queue objects and skip arrays (the oracle
pipeline) and on the two cell columns the production loop reads — and
we assert the count against ``C · λ · (|Q| + 1)`` with a fixed
small constant, on adversarial instances designed to maximize queue
traffic.  The exact read counts of the loop's two frame forms are
pinned beside the bounds.
"""

import pytest
from hypothesis import given, settings

from repro.automata import NFA, regex_to_nfa
from repro.core.annotate import annotate
from repro.core.compile import compile_query
from repro.core.enumerate import enumerate_walks
from repro.core.trim import trim
from repro.graph.generators import chain
from repro.workloads.worstcase import diamond_chain, duplicate_bomb, wide_nfa

from tests.conftest import small_instances
from tests.property.delay_steps import (
    CONSTANT,
    MEASURES,
    count_cell_reads,
    measure,
)


@pytest.mark.parametrize("flavor", sorted(MEASURES))
class TestOperationBound:
    def test_diamond_chain(self, flavor):
        graph, nfa, s, t = diamond_chain(10, parallel=2)
        lam, _, max_gap, outputs, bound = measure(
            flavor, graph, nfa, graph.vertex_id(s), graph.vertex_id(t)
        )
        assert outputs == 2 ** 10
        assert max_gap <= bound

    def test_wide_last_level(self, flavor):
        """64 live cells one hop from the source, bound 12·2·2 = 48: a
        last-level run must reach its first output without a pass over
        the run (a copy of it, say) — in-degree is not in the bound."""
        graph, nfa, s, t = diamond_chain(2, parallel=64)
        lam, _, max_gap, outputs, bound = measure(
            flavor, graph, nfa, graph.vertex_id(s), graph.vertex_id(t)
        )
        assert outputs == 64 ** 2
        assert max_gap <= bound

    def test_duplicate_bomb(self, flavor):
        """Nondeterminism blows up certificates, not the delay."""
        graph, nfa, s, t = duplicate_bomb(8, 4)
        lam, _, max_gap, outputs, bound = measure(
            flavor, graph, nfa, graph.vertex_id(s), graph.vertex_id(t)
        )
        assert outputs == 1
        assert max_gap <= bound

    def test_wide_automaton_on_diamond(self, flavor):
        graph, _, s, t = diamond_chain(8, parallel=2)
        nfa = wide_nfa(6, ("a",))
        lam, _, max_gap, outputs, bound = measure(
            flavor, graph, nfa, graph.vertex_id(s), graph.vertex_id(t)
        )
        assert outputs == 2 ** 8
        assert max_gap <= bound

    def test_high_in_degree_does_not_leak_into_delay(self, flavor):
        """The Trim step exists precisely so that vertices of huge
        in-degree cost nothing at enumeration time (Section 3.2)."""
        from repro.graph.builder import GraphBuilder
        from repro.automata.nfa import NFA

        builder = GraphBuilder()
        # Many edges into 'hub' that are NOT on any shortest walk...
        for i in range(500):
            builder.add_edge(f"noise{i}", "hub", ["b"])
        # ...plus a 2-answer diamond through the hub.
        builder.add_edge("s", "hub", ["a"])
        builder.add_edge("s", "hub", ["a"])
        builder.add_edge("hub", "t", ["a"])
        graph = builder.build()
        nfa = NFA(1)
        nfa.add_transition(0, "a", 0)
        nfa.set_initial(0)
        nfa.set_final(0)
        lam, n_states, max_gap, outputs, _ = measure(
            flavor, graph, nfa, graph.vertex_id("s"), graph.vertex_id("t")
        )
        assert outputs == 2
        # In-degree 502 must not appear in the gap: bound is in λ only
        # (no seek allowance either — the two live cells of the hub are
        # found in O(1) probes whatever its in-degree).
        assert max_gap <= CONSTANT * lam * (n_states + 1)

    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_random_instances(self, flavor, instance):
        graph, nfa, s, t = instance
        lam, _, max_gap, outputs, bound = measure(flavor, graph, nfa, s, t)
        if lam in (None, 0) or outputs == 0:
            return
        assert max_gap <= bound


def _column_reads(graph, nfa, s, t):
    """``(outputs, cell_ti reads, cell_edge reads)`` of one full eager
    run — the two columns counted apart."""
    cq = compile_query(graph, nfa)
    s, t = graph.vertex_id(s), graph.vertex_id(t)
    ann = annotate(cq, s, t)
    cells = trim(graph, ann)
    ti, edge = {"steps": 0}, {"steps": 0}
    count_cell_reads(cells, ti, edge)
    outputs = sum(
        1 for _ in enumerate_walks(graph, cells, ann.lam, t, ann.target_states)
    )
    return outputs, ti["steps"], edge["steps"]


class TestExactReadCounts:
    """What each frame form reads, as numbers that repeat exactly."""

    def test_one_state_frames_never_read_tgt_idx(self):
        """``a*`` has one state: every frame walks its cell run, so the
        ``TgtIdx`` column is never read (4 092 reads with a merge per
        frame) and ``cell_edge`` once per tree edge: 2¹¹ − 2."""
        assert _column_reads(*diamond_chain(10)) == (1024, 0, 2046)

    def test_two_state_frames_merge_as_before(self):
        """``(a|b)* a (a|b)*`` written with its two states: the loop
        state and the state after the ``a`` have different pasts (the
        compile merges nothing) and share every vertex, so below the
        root every frame merges a two-state certificate, with the reads
        the merge has always made — 500 with a merging root, less the 4
        of the root frame, whose certificate is the one final state."""
        nfa = NFA(2)
        for label in "ab":
            nfa.add_transition(0, label, 0)
            nfa.add_transition(1, label, 1)
        nfa.add_transition(0, "a", 1)
        nfa.set_initial(0)
        nfa.set_final(1)
        graph = chain(6, ("a", "b"), parallel=2)
        assert _column_reads(graph, nfa, "v0", "v6") == (64, 500 - 4, 126)
        # Thompson's 6 co-accessible states of the same expression merge
        # down to those two (1 224 reads on the automaton as written).
        thompson = regex_to_nfa("(a|b)* a (a|b)*")
        assert compile_query(graph, thompson).live_states == (6, 2)
        assert _column_reads(graph, thompson, "v0", "v6") == (64, 496, 126)

    def test_thompson_star_frames_are_singletons_now(self):
        """Thompson's ``(a|b)*`` used to leave the certificate {4, 6}
        at every hop (496 ``TgtIdx`` reads here); its three live states
        have one past, so every frame is a one-state frame."""
        graph = chain(6, ("a", "b"), parallel=2)
        reads = _column_reads(graph, regex_to_nfa("(a|b)*"), "v0", "v6")
        assert reads == (64, 0, 126)
