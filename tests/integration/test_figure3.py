"""EXP-F1 / EXP-F3: exact reproduction of the paper's Figures 1 and 3.

Figure 3 prints, for the instance ⟦A⟧(D, Alix, Bob) of Example 9, the
full preprocessing state: the ``L`` maps (lengths), ``B`` maps
(per-TgtIdx predecessor lists) and ``C`` queues.  These tests assert
every single printed cell.
"""

import pytest

from repro.core.annotate import annotate
from repro.core.compile import compile_query
from repro.core.trim import trim
from repro.workloads.fraud import (
    EXAMPLE9_EDGE_IDS,
    example9_automaton,
    example9_graph,
)

E = EXAMPLE9_EDGE_IDS


@pytest.fixture(scope="module")
def preprocessing():
    graph = example9_graph()
    cq = compile_query(graph, example9_automaton())
    ann = annotate(cq, graph.vertex_id("Alix"), graph.vertex_id("Bob"))
    trimmed = trim(graph, ann)
    return graph, ann, trimmed


# Figure 3's tables, transcribed cell by cell.  ⊥ cells are simply
# absent from our (partial) maps.  B lists are compared as multisets
# (the paper's list order depends on unspecified iteration order).
FIGURE3_L = {
    "Alix": {0: 0},
    "Bob": {0: 2, 1: 3},
    "Cassie": {0: 1, 1: 2},
    "Dan": {0: 1, 1: 1},
    "Eve": {0: 2, 1: 2},
}

FIGURE3_B = {
    "Alix": {},
    "Bob": {0: {0: [], 1: [0]}, 1: {0: [1, 0, 1], 1: [1]}},
    "Cassie": {0: {0: [], 1: [0]}, 1: {0: [0, 1], 1: []}},
    "Dan": {0: {0: [0]}, 1: {0: [0]}},
    "Eve": {
        0: {0: [0], 1: [0], 2: []},
        1: {0: [1], 1: [], 2: [0]},
    },
}

# C queues: per state, the (edge-name, predecessor multiset) pairs in
# queue order.  Empty B cells do not appear (that is Trim's job).
FIGURE3_C = {
    "Bob": {0: [("e7", [0])], 1: [("e8", [0, 1, 1]), ("e7", [1])]},
    "Cassie": {0: [("e1", [0])], 1: [("e3", [0, 1])]},
    "Dan": {0: [("e2", [0])], 1: [("e2", [0])]},
    "Eve": {
        0: [("e4", [0]), ("e5", [0])],
        1: [("e4", [1]), ("e6", [0])],
    },
}


class TestFigure3L:
    @pytest.mark.parametrize("vertex", sorted(FIGURE3_L))
    def test_L_table(self, preprocessing, vertex):
        graph, ann, _ = preprocessing
        assert ann.L[graph.vertex_id(vertex)] == FIGURE3_L[vertex]


class TestFigure3B:
    @pytest.mark.parametrize("vertex", sorted(FIGURE3_B))
    def test_B_table(self, preprocessing, vertex):
        graph, ann, _ = preprocessing
        got = ann.B[graph.vertex_id(vertex)]
        expected = FIGURE3_B[vertex]
        # States with only-empty cells may be absent entirely.
        for state, cells in expected.items():
            non_empty = {i: c for i, c in cells.items() if c}
            if not non_empty:
                assert state not in got or all(
                    not preds for preds in got[state].values()
                )
                continue
            for i, preds in cells.items():
                got_preds = got.get(state, {}).get(i, [])
                assert sorted(got_preds) == sorted(preds), (vertex, state, i)
        # No extra non-empty cells beyond the figure.
        for state, cells in got.items():
            for i, preds in cells.items():
                if preds:
                    assert sorted(preds) == sorted(
                        expected.get(state, {}).get(i, [])
                    ), (vertex, state, i)


class TestFigure3C:
    @pytest.mark.parametrize("vertex", sorted(FIGURE3_C))
    def test_C_queues(self, preprocessing, vertex):
        graph, _, trimmed = preprocessing
        v = graph.vertex_id(vertex)
        expected = FIGURE3_C[vertex]
        for state, items in expected.items():
            queue = trimmed.items(v, state)
            assert queue, (vertex, state)
            got = [(e, sorted(x)) for e, x in queue]
            want = [(E[name], sorted(preds)) for name, preds in items]
            assert got == want, (vertex, state)

    def test_alix_has_no_queues(self, preprocessing):
        graph, _, trimmed = preprocessing
        alix = graph.vertex_id("Alix")
        assert all(
            trimmed.items(alix, p) == []
            for p in range(trimmed.n_states)
        )


class TestLambda:
    def test_lam_is_three(self, preprocessing):
        _, ann, _ = preprocessing
        assert ann.lam == 3

    def test_start_certificate(self, preprocessing):
        """Main's S = {q | L_t[q] = λ} ∩ F = {1}."""
        _, ann, _ = preprocessing
        assert ann.target_states == frozenset({1})
