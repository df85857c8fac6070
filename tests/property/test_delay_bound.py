"""Combinatorial validation of Theorem 2's delay bound.

Wall-clock delay measurements live in ``benchmarks/``; here we verify
the bound *deterministically* by counting data-structure operations.
Between two consecutive outputs, ``Enumerate`` performs at most
O(λ × |A|) queue operations (peek / advance / restart): the DFS crosses
at most 2λ tree edges and each frame touches each of its ≤ |Q| queues a
constant number of times.  :mod:`tests.property.delay_steps` counts
them — on the paper's queue objects and skip arrays (the oracle
pipeline) and on the cell array the production loop reads — and we
assert the count against ``C · λ · (|Q| + 1)`` with a fixed
small constant, on adversarial instances designed to maximize queue
traffic.
"""

import pytest
from hypothesis import given, settings

from repro.workloads.worstcase import diamond_chain, duplicate_bomb, wide_nfa

from tests.conftest import small_instances
from tests.property.delay_steps import CONSTANT, MEASURES, measure


@pytest.mark.parametrize("flavor", sorted(MEASURES))
class TestOperationBound:
    def test_diamond_chain(self, flavor):
        graph, nfa, s, t = diamond_chain(10, parallel=2)
        lam, _, max_gap, outputs, bound = measure(
            flavor, graph, nfa, graph.vertex_id(s), graph.vertex_id(t)
        )
        assert outputs == 2 ** 10
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
