"""Combinatorial validation of Theorem 2's delay bound.

Wall-clock delay measurements live in ``benchmarks/``; here we verify
the bound *deterministically* by counting data-structure operations.
Between two consecutive outputs, ``Enumerate`` performs at most
O(λ × |A|) queue operations (peek / advance / restart): the DFS crosses
at most 2λ tree edges and each frame touches each of its ≤ |Q| queues a
constant number of times.  We instrument the queues and assert the
count against ``C · λ · (|Q| + 1)`` with a fixed small constant — on
adversarial instances designed to maximize queue traffic.
"""

from hypothesis import given, settings

from repro.core.annotate import annotate
from repro.core.compile import compile_query
from repro.core.enumerate import enumerate_walks
from repro.core.trim import trim
from repro.datastructures.restartable_queue import RestartableQueue
from repro.workloads.worstcase import diamond_chain, duplicate_bomb, wide_nfa

from tests.conftest import small_instances

#: Queue operations allowed between outputs per unit of λ·(|Q|+1).
_CONSTANT = 12


class _CountingQueue(RestartableQueue):
    """RestartableQueue that reports operations into a shared cell."""

    __slots__ = ("_counter",)

    def __init__(self, queue: RestartableQueue, counter: dict) -> None:
        super().__init__(list(queue))
        self._counter = counter

    def peek(self):
        self._counter["ops"] += 1
        return super().peek()

    def advance(self) -> None:
        self._counter["ops"] += 1
        super().advance()

    def restart(self) -> None:
        self._counter["ops"] += 1
        super().restart()


def _instrument(trimmed, counter):
    for per_vertex in trimmed.queues:
        for state in list(per_vertex):
            per_vertex[state] = _CountingQueue(per_vertex[state], counter)


def _max_ops_between_outputs(graph, nfa, s, t):
    cq = compile_query(graph, nfa)
    ann = annotate(cq, s, t)
    trimmed = trim(graph, ann)
    counter = {"ops": 0}
    _instrument(trimmed, counter)
    iterator = enumerate_walks(
        graph, trimmed, ann.lam, t, ann.target_states
    )
    max_gap = 0
    outputs = 0
    last = 0
    for _ in iterator:
        outputs += 1
        max_gap = max(max_gap, counter["ops"] - last)
        last = counter["ops"]
    # Also count the tail work after the final output (termination).
    max_gap = max(max_gap, counter["ops"] - last)
    return ann.lam, cq.n_states, max_gap, outputs


class TestOperationBound:
    def test_diamond_chain(self):
        graph, nfa, s, t = diamond_chain(10, parallel=2)
        lam, n_states, max_gap, outputs = _max_ops_between_outputs(
            graph, nfa, graph.vertex_id(s), graph.vertex_id(t)
        )
        assert outputs == 2 ** 10
        assert max_gap <= _CONSTANT * lam * (n_states + 1)

    def test_duplicate_bomb(self):
        """Nondeterminism blows up certificates, not the delay."""
        graph, nfa, s, t = duplicate_bomb(8, 4)
        lam, n_states, max_gap, outputs = _max_ops_between_outputs(
            graph, nfa, graph.vertex_id(s), graph.vertex_id(t)
        )
        assert outputs == 1
        assert max_gap <= _CONSTANT * lam * (n_states + 1)

    def test_wide_automaton_on_diamond(self):
        graph, _, s, t = diamond_chain(8, parallel=2)
        nfa = wide_nfa(6, ("a",))
        lam, n_states, max_gap, outputs = _max_ops_between_outputs(
            graph, nfa, graph.vertex_id(s), graph.vertex_id(t)
        )
        assert outputs == 2 ** 8
        assert max_gap <= _CONSTANT * lam * (n_states + 1)

    def test_high_in_degree_does_not_leak_into_delay(self):
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
        lam, n_states, max_gap, outputs = _max_ops_between_outputs(
            graph, nfa, graph.vertex_id("s"), graph.vertex_id("t")
        )
        assert outputs == 2
        # In-degree 502 must not appear in the gap: bound is in λ only.
        assert max_gap <= _CONSTANT * lam * (n_states + 1)

    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_random_instances(self, instance):
        graph, nfa, s, t = instance
        lam, n_states, max_gap, outputs = _max_ops_between_outputs(
            graph, nfa, s, t
        )
        if lam in (None, 0) or outputs == 0:
            return
        assert max_gap <= _CONSTANT * max(lam, 1) * (n_states + 1)
