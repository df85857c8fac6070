"""The linear-time pack: order and content of ``PackedBack.from_entries``.

``Annotate`` logs ``B`` entries in traversal order and
:meth:`~repro.datastructures.packed.PackedBack.from_entries` radix-packs
the log.  Whatever passes the pack is made of, its output must be

* grouped by **ascending key** (``nonempty_keys`` strictly ascending,
  ``key_indptr`` a prefix sum over the dense key space);
* **TgtIdx-ascending within a key** (Lemma 11's queue order);
* **stable** — append order kept inside a ``(key, TgtIdx)`` cell;
* **cell-for-cell multiset-equal** (duplicates included) to the packed
  form of the edge-major reference traversal's dict ``B``.

The first three are checked against a two-line model (a stable sort of
the log — fine in a test, banned in the pack), the fourth on random
graph × query × source instances.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import NFA, regex_to_nfa
from repro.baselines.paper_pipeline import annotate_reference, packed_from_maps
from repro.core.annotate import annotate
from repro.core.compile import compile_query
from repro.datastructures.packed import PackedBack
from repro.graph.builder import GraphBuilder
from repro.graph.generators import chain, random_multilabel

from tests.conftest import small_instances


def _check_layout(packed: PackedBack) -> None:
    n_keys = packed.n * packed.n_states
    indptr = packed.key_indptr
    assert len(indptr) == n_keys + 1
    assert indptr[0] == 0 and indptr[n_keys] == len(packed)
    assert len(packed.ent_ti) == len(packed.ent_pred)
    nonempty = packed.nonempty_keys
    assert all(a < b for a, b in zip(nonempty, nonempty[1:]))
    assert nonempty == [
        k for k in range(n_keys) if indptr[k] < indptr[k + 1]
    ]
    assert all(indptr[k] <= indptr[k + 1] for k in range(n_keys))
    for k in nonempty:
        tis = packed.ent_ti[indptr[k]:indptr[k + 1]]
        assert list(tis) == sorted(tis)


def _cells(packed: PackedBack):
    """``{(key, TgtIdx): Counter(predecessors)}``."""
    cells = {}
    indptr = packed.key_indptr
    for k in packed.nonempty_keys:
        for i in range(indptr[k], indptr[k + 1]):
            cells.setdefault((k, packed.ent_ti[i]), Counter())[
                packed.ent_pred[i]
            ] += 1
    return cells


def _model(log):
    """The contract, executably: a stable sort by (key, TgtIdx)."""
    return sorted(log, key=lambda entry: (entry[0], entry[1]))


def _pack(n, n_states, log):
    keys = array("q", (k for k, _, _ in log))
    tis = array("q", (t for _, t, _ in log))
    preds = array("q", (q for _, _, q in log))
    packed = PackedBack.from_entries(n, n_states, keys, tis, preds)
    # The log belongs to the caller and is left alone.
    assert list(zip(keys, tis, preds)) == list(log)
    return packed


def _entries(packed: PackedBack):
    indptr = packed.key_indptr
    return [
        (k, packed.ent_ti[i], packed.ent_pred[i])
        for k in packed.nonempty_keys
        for i in range(indptr[k], indptr[k + 1])
    ]


class TestAgainstTheModel:
    @given(
        st.integers(1, 5),
        st.integers(1, 4),
        st.integers(0, 6),
        st.lists(
            st.tuples(st.integers(0, 19), st.integers(0, 6), st.integers(0, 3)),
            max_size=60,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_logs(self, n, n_states, max_ti, raw):
        log = [
            (k % (n * n_states), t % (max_ti + 1), q % n_states)
            for k, t, q in raw
        ]
        packed = _pack(n, n_states, log)
        _check_layout(packed)
        # Stability makes the comparison exact, not just a multiset.
        assert _entries(packed) == _model(log)

    def test_empty_log(self):
        packed = _pack(3, 2, [])
        _check_layout(packed)
        assert len(packed) == 0
        assert packed.nonempty_keys == []
        assert list(packed.key_indptr) == [0] * 7
        assert packed.to_maps() == [{}, {}, {}]

    def test_all_zero_tgt_idx_shortcut(self):
        """``max_ti == 0`` skips the TgtIdx pass; order must still be
        by key, append order within the (single) cell of each key."""
        log = [(5, 0, 1), (2, 0, 0), (5, 0, 0), (0, 0, 1), (2, 0, 1), (5, 0, 1)]
        packed = _pack(3, 2, log)
        _check_layout(packed)
        assert _entries(packed) == _model(log)
        assert set(packed.ent_ti) == {0}
        assert packed.to_maps()[2][1] == {0: [1, 0, 1]}

    def test_single_entry(self):
        packed = _pack(2, 3, [(4, 2, 1)])
        _check_layout(packed)
        assert _entries(packed) == [(4, 2, 1)]

    def test_shortcut_on_a_real_traversal(self):
        """A simple chain has in-degree 1 everywhere: every TgtIdx is 0."""
        graph = chain(6, ("a", "b"))
        cq = compile_query(graph, regex_to_nfa("(a|b)*"))
        ann = annotate(cq, 0, saturate=True)
        assert len(ann.packed) and set(ann.packed.ent_ti) == {0}
        _check_layout(ann.packed)
        reference = annotate_reference(cq, 0, saturate=True)
        assert _cells(ann.packed) == _cells(
            packed_from_maps(ann.n, ann.n_states, reference.B)
        )


class TestAgainstTheReferenceTraversal:
    def _compare(self, graph, nfa, source):
        cq = compile_query(graph, nfa)
        packed = annotate(cq, source, saturate=True).packed
        _check_layout(packed)
        reference = packed_from_maps(
            packed.n,
            packed.n_states,
            annotate_reference(cq, source, saturate=True).B,
        )
        _check_layout(reference)
        assert _cells(packed) == _cells(reference)
        assert packed.nonempty_keys == reference.nonempty_keys
        assert packed.key_indptr == reference.key_indptr
        assert packed.ent_ti == reference.ent_ti
        return packed

    @given(small_instances())
    @settings(max_examples=80, deadline=None)
    def test_small_instances(self, instance):
        graph, nfa, s, _ = instance
        self._compare(graph, nfa, s)

    @given(small_instances(allow_epsilon=True))
    @settings(max_examples=60, deadline=None)
    def test_small_epsilon_instances(self, instance):
        """ε-NFAs, closed at compile time."""
        graph, nfa, s, _ = instance
        self._compare(graph, nfa, s)

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_regex_workloads(self, seed):
        rng = random.Random(seed)
        graph = random_multilabel(
            rng.randint(5, 40),
            rng.randint(10, 160),
            alphabet=("a", "b", "c", "d"),
            max_labels_per_edge=3,
            seed=seed,
        )
        expression = rng.choice(
            ["(a|b)* c (a|b|c)*", "a b* c", "(a|b|c|d)+", "(a|b)*", "(a b|c)* d?"]
        )
        source = rng.randrange(graph.vertex_count)
        self._compare(graph, regex_to_nfa(expression), source)

    def test_multi_label_duplicate_witnesses(self):
        """An edge carrying two labels that both take ``q`` to ``p``
        fires twice: the cell holds ``q`` twice, and keeps both."""
        builder = GraphBuilder()
        builder.add_edge("s", "m", ["a", "b"])
        builder.add_edge("s", "m", ["a"])
        builder.add_edge("m", "t", ["a", "b", "c"])
        graph = builder.build()
        nfa = NFA(3)  # Thompson would split q per label; this does not.
        for label in "ab":
            nfa.add_transition(0, label, 1)
        for label in "abc":
            nfa.add_transition(1, label, 2)
        nfa.set_initial(0)
        nfa.set_final(2)
        source = graph.resolve_vertex("s")
        packed = self._compare(graph, nfa, source)
        duplicated = [
            cell for cell in _cells(packed).values() if max(cell.values()) > 1
        ]
        assert duplicated  # The scenario really occurs.
        # Two in-edges of m: cells at TgtIdx 0 and 1 under the same key.
        m = graph.resolve_vertex("m")
        n_states = packed.n_states
        tgt_idx_at_m = {
            ti for (k, ti) in _cells(packed) if k // n_states == m
        }
        assert tgt_idx_at_m == {0, 1}
