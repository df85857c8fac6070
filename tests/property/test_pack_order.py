"""The cell order of ``Trim``'s store: layout and content of ``PackedCells``.

``Trim`` pulls a node's cells from ``dist`` (:meth:`PackedCells.build`).
A store it fills must be

* laid out as **one span per built node** — spans disjoint and
  covering every cell, entry offsets a running sum;
* **TgtIdx-ascending within a node** (Lemma 11's queue order), each
  cell's edge the ``In(u)`` slot its ``TgtIdx`` names;
* **stable** — a cell's entries in pull order: its edge's labels in
  order, then ``Δ⁻¹(p, a)`` in order;
* **output-sensitive and append-only** — after any sequence of asked
  targets, the built nodes are exactly those backward-reachable from
  the asked targets' final states at λ, and a later target never
  moves a span an earlier one stored;
* **cell-for-cell multiset-equal** (duplicates included) to the
  edge-major reference traversal's dict ``B`` once every reached node
  is pulled.

The first four are checked on stores filled by the production pull
against an executable model of the pull (``TestAgainstTheModel``), the
fifth against the reference traversal's maps, stored through the oracle
bridge (:func:`~repro.baselines.paper_pipeline.packed_from_maps`), on
random graph × query × source instances.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import NFA, regex_to_nfa
from repro.baselines.paper_pipeline import annotate_reference, packed_from_maps
from repro.core.annotate import annotate
from repro.core.compile import compile_query
from repro.core.trim import trim
from repro.datastructures.packed import PackedCells
from repro.graph.builder import GraphBuilder
from repro.graph.generators import chain, random_multilabel

from tests.conftest import small_instances


def _check_layout(cells: PackedCells, graph) -> None:
    spans = sorted(cells.spans.values())
    covered = 0
    for lo, hi in spans:
        assert lo == covered and lo <= hi
        covered = hi
    assert covered == len(cells) == len(cells.cell_edge)
    assert len(cells.cell_entries) == len(cells.certs) == len(cells)
    assert all(cells.cell_entries)
    assert sum(map(len, cells.cell_entries)) == cells.entries()
    for raw, cert in zip(cells.cell_entries, cells.certs):
        assert cert == tuple(sorted(set(raw)))
    _check_shared(cells)
    for k, (lo, hi) in cells.spans.items():
        tis = list(cells.cell_ti[lo:hi])
        assert tis == sorted(set(tis))
        in_list = graph.in_array[k // cells.n_states]
        assert [in_list[t] for t in tis] == list(cells.cell_edge[lo:hi])


def _check_shared(cells: PackedCells) -> None:
    """Every cell is written whole, and equal entry tuples and equal
    certificates of the store are one object each."""
    assert None not in cells.certs and None not in cells.cell_entries
    shared = {}
    for t in (*cells.cell_entries, *cells.certs):
        assert shared.setdefault(t, t) is t


def _cells(cells: PackedCells):
    """``{(key, TgtIdx): Counter(predecessors)}``."""
    return {
        (k, cells.cell_ti[c]): Counter(cells.cell_entries[c])
        for k, (lo, hi) in cells.spans.items()
        for c in range(lo, hi)
    }


def _stored(cells: PackedCells, k: int):
    """Node ``k``'s stored cells as ``(TgtIdx, edge, entries)``."""
    lo, hi = cells.spans[k]
    return [
        (cells.cell_ti[c], cells.cell_edge[c], list(cells.cell_entries[c]))
        for c in range(lo, hi)
    ]


def _model(graph, cq, dist, k):
    """The pull, executably: node ``k``'s ``(TgtIdx, edge, entries)``
    cells — per ``In(u)`` slot, per label of its edge, every
    ``q ∈ Δ⁻¹(p, a)`` its source holds one level down; empty cells
    dropped, none below level 1."""
    n_states = cq.n_states
    u, p = divmod(k, n_states)
    if dist[k] <= 0:
        return []
    model = []
    for ti, e in enumerate(graph.in_array[u]):
        w = graph.src_array[e]
        preds = [
            q
            for a in graph.label_array[e]
            for q in cq.delta_inv[p].get(a, ())
            if dist[w * n_states + q] == dist[k] - 1
        ]
        if preds:
            model.append((ti, e, preds))
    return model


def _closure(graph, cq, dist, roots):
    """The nodes backward-reachable from ``roots`` through the model's
    cells — what the asked targets' enumerations can read."""
    n_states = cq.n_states
    seen, stack = set(), list(roots)
    while stack:
        k = stack.pop()
        if k not in seen:
            seen.add(k)
            for _, e, preds in _model(graph, cq, dist, k):
                w = graph.src_array[e]
                stack.extend(w * n_states + q for q in preds)
    return seen


class TestAgainstTheModel:
    @given(small_instances(), st.lists(st.integers(0, 60), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_random_logs(self, instance, asks):
        """Targets asked in a random order, one store for all: after
        every ask the layout holds, the built nodes are exactly the
        asked targets' shortest-walk graphs, every cell equals the
        model's (entries in pull order), and no earlier span moved."""
        graph, nfa, s, _ = instance
        cq = compile_query(graph, nfa)
        annotation = annotate(cq, s, saturate=True)
        cells, dist = annotation.packed, annotation.dist
        roots = set()
        for raw in asks:
            t = raw % graph.vertex_count
            before = dict(cells.spans)
            trim(graph, annotation, t)
            lam, states = annotation.target_info(t)
            if lam:
                roots.update(t * cq.n_states + f for f in states)
            _check_layout(cells, graph)
            assert set(cells.spans) == _closure(graph, cq, dist, roots)
            for k in cells.spans:
                assert _stored(cells, k) == _model(graph, cq, dist, k), k
            assert all(cells.spans[k] == span for k, span in before.items())

    def test_empty_log(self):
        # An annotation no target was asked of stores nothing…
        graph = chain(4, ("a",))
        annotation = annotate(compile_query(graph, regex_to_nfa("a*")), 0)
        assert annotation.annotation_entries() == len(annotation.packed) == 0
        assert annotation.packed.spans == {}
        # …nor does a target at λ = 0 (the source) or an unreached one.
        cq = compile_query(graph, regex_to_nfa("b* a?"))
        annotation = annotate(cq, 0, saturate=True)
        for t in (0, 4):
            trim(graph, annotation, t)
        _check_layout(annotation.packed, graph)
        assert len(annotation.packed) == annotation.annotation_entries() == 0
        assert annotation.packed.to_maps() == [{} for _ in graph.vertices()]

    def test_all_zero_tgt_idx_shortcut(self):
        """Every ``TgtIdx`` 0 (a chain has in-degree 1): one cell per
        node past the source; an edge on two labels that both move
        ``0 → 1`` / ``1 → 1`` gives its cell the same state twice, in
        label order."""
        graph = chain(5, ("a", "b"))
        nfa = NFA(2)
        for label in "ab":
            nfa.add_transition(0, label, 1)
            nfa.add_transition(1, label, 1)
        nfa.set_initial(0)
        nfa.set_final(1)
        cq = compile_query(graph, nfa)
        annotation = annotate(cq, 0, 5)
        cells = trim(graph, annotation)
        _check_layout(cells, graph)
        assert set(cells.cell_ti) == {0}
        assert len(cells) == len(cells.spans) - 1 == 5
        maps = cells.to_maps()
        assert maps[1][1] == {0: [0, 0]}
        assert maps[2][1] == {0: [1, 1]}

    def test_single_entry(self):
        builder = GraphBuilder()
        builder.add_edge("s", "t", ["a"])
        graph = builder.build()
        cq = compile_query(graph, regex_to_nfa("a"))
        t = graph.resolve_vertex("t")
        annotation = annotate(cq, graph.resolve_vertex("s"), t)
        cells = trim(graph, annotation)
        _check_layout(cells, graph)
        ((key, ti), entries), = _cells(cells).items()
        assert key // cq.n_states == t and ti == 0
        assert sum(entries.values()) == cells.entries() == 1
        assert set(entries) <= cq.initial_closure

    def test_shortcut_on_a_real_traversal(self):
        """A simple chain has in-degree 1 everywhere: every TgtIdx is 0."""
        graph = chain(6, ("a", "b"))
        cq = compile_query(graph, regex_to_nfa("(a|b)*"))
        ann = annotate(cq, 0, saturate=True)
        ann.B
        assert len(ann.packed) and set(ann.packed.cell_ti) == {0}
        _check_layout(ann.packed, graph)
        reference = annotate_reference(cq, 0, saturate=True)
        assert _cells(ann.packed) == _cells(
            packed_from_maps(graph, ann.n_states, reference.B)
        )


class TestAgainstTheReferenceTraversal:
    def _compare(self, graph, nfa, source):
        cq = compile_query(graph, nfa)
        annotation = annotate(cq, source, saturate=True)
        annotation.B
        cells = annotation.packed
        _check_layout(cells, graph)
        reference = packed_from_maps(
            graph,
            cells.n_states,
            annotate_reference(cq, source, saturate=True).B,
        )
        _check_layout(reference, graph)
        assert _cells(cells) == _cells(reference)
        assert cells.entries() == reference.entries()
        return cells

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
        cells = self._compare(graph, nfa, source)
        duplicated = [
            cell for cell in _cells(cells).values() if max(cell.values()) > 1
        ]
        assert duplicated  # The scenario really occurs.
        # Two in-edges of m: cells at TgtIdx 0 and 1 under the same key.
        m = graph.resolve_vertex("m")
        n_states = cells.n_states
        tgt_idx_at_m = {
            ti for (k, ti) in _cells(cells) if k // n_states == m
        }
        assert tgt_idx_at_m == {0, 1}
