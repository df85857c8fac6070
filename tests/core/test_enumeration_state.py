"""Interleaving tests for the one enumerator.

The ``Trim`` product is read-only and every
:func:`~repro.core.enumerate.enumerate_walks` generator owns its queue
cursors, so what used to need a guard (two enumerations interleaved
over shared cursors would have skipped or repeated answers) now holds
by construction: any number of generators over one
:class:`~repro.datastructures.packed.PackedCells` — interleaved,
abandoned mid-way, plain beside tracked, on several threads — each
yield the full sequence; and so do the readers of one cached entry
while other threads deepen it, each enumeration keeping the snapshot it
opened on.
"""

import sys
import threading
from itertools import islice, zip_longest

import pytest

from repro.api import Database
from repro.core.annotate import AnnotateBFS, annotate
from repro.core.compile import compile_query
from repro.core.engine import DistinctShortestWalks
from repro.core.enumerate import enumerate_walks
from repro.graph.builder import GraphBuilder
from repro.graph.generators import random_multilabel
from repro.service import QueryRequest, QueryService
from repro.automata import regex_to_nfa
from repro.workloads.fraud import example9_automaton, example9_graph
from repro.workloads.worstcase import diamond_chain


def _engine(mode: str = "iterative") -> DistinctShortestWalks:
    return DistinctShortestWalks(
        example9_graph(), example9_automaton(), "Alix", "Bob", mode=mode
    )


def _diamond_engine(k: int = 6) -> DistinctShortestWalks:
    graph, nfa, s, t = diamond_chain(k, parallel=2)
    return DistinctShortestWalks(graph, nfa, s, t)


class TestInterleavingGuard:
    def test_interleaved_enumerations_each_yield_the_full_sequence(self):
        engine = _engine()
        first = engine.enumerate()
        a1 = next(first)  # First enumeration is now mid-flight.
        second = engine.enumerate()
        b1 = next(second)
        assert a1.edges == b1.edges
        got_first = [a1.edges] + [w.edges for w in first]
        got_second = [b1.edges] + [w.edges for w in second]
        assert got_first == got_second and len(got_first) == 4

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_n_generators_over_one_packed_cells(self, n):
        """Round-robin over ``n`` generators sharing one ``PackedCells``
        object, each at a different position: none disturbs another's
        cursors."""
        engine = _diamond_engine()
        ann, cells = engine.annotation, engine.trimmed
        expected = [w.edges for w in engine.enumerate()]
        assert len(expected) == 2 ** 6

        def run():
            return enumerate_walks(
                engine.graph, cells, ann.lam, engine.target,
                ann.target_states,
            )

        generators = [run() for _ in range(n)]
        # Stagger them — generator i starts 5·i outputs ahead — then
        # advance all of them in lock-step.
        got = [
            [w.edges for w in islice(gen, 5 * i)]
            for i, gen in enumerate(generators)
        ]
        for walks in zip_longest(*generators):
            for seen, walk in zip(got, walks):
                if walk is not None:
                    seen.append(walk.edges)
        assert all(seen == expected for seen in got)

    def test_sequential_enumerations_fine(self):
        engine = _engine()
        a = [w.edges for w in engine.enumerate()]
        b = [w.edges for w in engine.enumerate()]
        assert a == b and len(a) == 4

    def test_closing_releases_the_structure(self):
        """Abandon mid-way, then restart: the abandoned generator left
        nothing behind, closed or not."""
        engine = _diamond_engine()
        expected = [w.edges for w in engine.enumerate()]
        closed = engine.enumerate()
        for _ in range(10):
            next(closed)
        closed.close()
        dangling = engine.enumerate()  # Never closed, never finished.
        for _ in range(23):
            next(dangling)
        assert [w.edges for w in engine.enumerate()] == expected
        # …and the dangling one carries on from where it stood.
        assert [w.edges for w in dangling] == expected[23:]

    def test_exhaustion_releases_the_structure(self):
        engine = _engine()
        assert len(list(engine.enumerate())) == 4
        assert len(list(engine.enumerate())) == 4

    def test_first_k_releases_the_structure(self):
        engine = _engine()
        assert len(engine.first(2)) == 2
        assert len(engine.first(3)) == 3

    def test_plain_and_tracked_interleave(self):
        """The tracked-multiplicity stream rides on the same generator:
        interleaved with a plain enumeration and with a second tracked
        one, all three see every answer, with equal multiplicities."""
        engine = _engine()
        expected = [w.edges for w in engine.enumerate()]
        plain = engine.enumerate()
        tracked = engine.enumerate_with_multiplicity(method="tracked")
        other = engine.enumerate_with_multiplicity(method="tracked")
        got_plain, got_tracked, got_other = [], [], []
        for _ in expected:
            got_tracked.append(next(tracked))
            got_plain.append(next(plain).edges)
            got_other.append(next(other))
        assert next(plain, None) is None and next(tracked, None) is None
        assert got_plain == expected
        assert [w.edges for w, _ in got_tracked] == expected
        assert [m for _, m in got_tracked] == [m for _, m in got_other]
        assert [m for _, m in got_tracked] == [
            m for _, m in engine.enumerate_with_multiplicity()
        ]

    def test_memoryless_mode_interleaves_freely(self):
        """ResumableTrim is read-only: Theorem 18's whole point."""
        engine = _engine(mode="memoryless")
        first = engine.enumerate()
        second = engine.enumerate()
        a1 = next(first)
        b1 = next(second)
        a2 = next(first)
        assert a1.edges == b1.edges
        assert a2.edges != a1.edges
        rest_first = [w.edges for w in first]
        rest_second = [w.edges for w in second]
        assert rest_second == [a2.edges] + rest_first


def test_four_threads_share_one_cached_annotation():
    """``QueryService(max_workers=4)`` in ``mode="iterative"``: four
    threads page the same (query, source) — one cached annotation, one
    ``PackedCells`` — at once, and every one of them reads the full
    sequence in order."""
    graph, _, s, t = diamond_chain(9, parallel=2)
    service = QueryService(max_workers=4)
    service.register_graph("default", graph)
    request = QueryRequest("a*", s, t, mode="iterative")
    expected = [tuple(w["edges"]) for w in service.execute(request).walks]
    assert len(expected) == 2 ** 9

    n_threads = 4
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def page_through(i: int) -> None:
        got, cursor = [], None
        barrier.wait(timeout=30)
        while True:
            response = service.execute(
                QueryRequest(
                    "a*", s, t, mode="iterative", limit=37 + i,
                    cursor=cursor,
                )
            )
            assert response.status in ("ok", "empty"), response.error
            got.extend(tuple(w["edges"]) for w in response.walks)
            cursor = response.next_cursor
            if cursor is None:
                break
        results[i] = got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=page_through, args=(i,))
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert all(got == expected for got in results)
    stats = service.stats()["annotation_cache"]
    assert stats["misses"] == 1 and stats["hits"] >= n_threads

    # The batch executor's own pool, one full read per worker.
    batch = service.execute_batch([request] * n_threads)
    assert all(
        [tuple(w["edges"]) for w in response.walks] == expected
        for response in batch
    )


def test_four_threads_deepen_one_cached_annotation(monkeypatch):
    """One cached ``(query, source)`` entry, built for a near target,
    then read by four threads toward four farther ones at once: each
    thread's read deepens the entry's BFS if it has to, and gets the
    one-shot λ and walk sequence.  Deepens are single flight — no two
    BFS runs overlap, and each one is counted — and an enumeration
    opened before them finishes, right, on the snapshot it started on.
    Dead-end teeth on every chain vertex make each BFS level long
    enough for the threads' deepens to meet.  Then four threads read
    four more targets the entry already settles, at once: each pulls
    its target's cells into the entry's one store while the others
    extend it, gets the one-shot answers, and no node is built twice."""
    builder = GraphBuilder()
    for i in range(14):
        for _ in range(2):
            builder.add_edge(f"v{i}", f"v{i + 1}", ["a"])
        for j in range(1000):
            builder.add_edge(f"v{i}", f"tooth{i}_{j}", ["a"])
    graph = builder.build()
    query = "a*"
    targets = ["v8", "v10", "v12", "v14"]
    settled = ["v7", "v9", "v13", "tooth13_0"]
    expected = {}
    for t in ["v6", *targets, *settled]:
        engine = DistinctShortestWalks(graph, query, "v0", t)
        expected[t] = engine.lam, [w.edges for w in engine.enumerate()]

    db = Database(graph)
    early = iter(db.query(query).from_("v0").to("v6").run())
    head = [next(early).walk.edges]

    active, peaks = [0], []
    count_lock = threading.Lock()
    run = AnnotateBFS.run

    def counting_run(bfs, target=None):
        with count_lock:
            active[0] += 1
            peaks.append(active[0])
        try:
            return run(bfs, target)
        finally:
            with count_lock:
                active[0] -= 1

    monkeypatch.setattr(AnnotateBFS, "run", counting_run)
    def read_at_once(asked):
        barrier = threading.Barrier(len(asked))
        results = [None] * len(asked)

        def read(i: int) -> None:
            barrier.wait(timeout=30)
            result = db.query(query).from_("v0").to(asked[i]).run()
            results[i] = result.lam, [row.walk.edges for row in result]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=read, args=(i,))
                for i in range(len(asked))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected[t] for t in asked]

    read_at_once(targets)
    stats = db.cache_stats()["annotation_cache"]
    assert stats["misses"] == 1 and stats["hits"] == len(targets)
    assert peaks and max(peaks) == 1
    assert len(peaks) == stats["deepens"] <= len(targets)
    assert head + [row.walk.edges for row in early] == expected["v6"][1]

    read_at_once(settled)
    stats = db.cache_stats()["annotation_cache"]
    assert stats["hits"] == len(targets) + len(settled)
    assert len(peaks) == stats["deepens"]
    (entry,) = db._annotation_cache._data.values()
    cells = entry.annotation.packed
    spans = sorted(cells.spans.values())
    assert spans[0][0] == 0 and spans[-1][1] == len(cells)
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


class _ClosedIn:
    """A cell store's captured ``In`` column that asserts, at each read,
    that every node the store has published has its predecessors
    published — what a reader's lock-free check (roots published ⇒
    their closure published) relies on."""

    def __init__(self, cells) -> None:
        self.cells = cells
        self.in_array, self.src = cells.columns[:2]
        self.reads = 0
        cells.columns = (self, *cells.columns[1:])

    def __getitem__(self, u):
        cells = self.cells
        spans, indptr = cells.spans, cells.cell_pred_indptr
        for k, (lo, hi) in list(spans.items()):
            for c in range(lo, hi):
                base = self.src[cells.cell_edge[c]] * cells.n_states
                for q in cells.ent_pred[indptr[c]:indptr[c + 1]]:
                    assert base + q in spans, (k, c, q)
        self.reads += 1
        return self.in_array[u]


def test_a_pulled_closure_is_published_whole():
    """While ``Trim`` pulls a target's closure, no node of it is visible
    before the nodes its cells name: every read of ``In`` during the
    pull finds each published node's predecessors published.  Three
    targets pull into one store, the later ones over nodes the earlier
    ones stored, and each enumerates its one-shot walks after."""
    graph, nfa, source, _ = diamond_chain(6, parallel=2)
    annotation = annotate(
        compile_query(graph, nfa), graph.resolve_vertex(source), saturate=True
    )
    cells = annotation.packed
    guard = _ClosedIn(cells)
    for name in ("v3", "v6", "v4"):
        t = graph.resolve_vertex(name)
        lam, states = annotation.target_info(t)
        cells.build(t, states)
        got = [w.edges for w in enumerate_walks(graph, cells, lam, t, states)]
        want = DistinctShortestWalks(graph, nfa, source, name)
        assert (lam, got) == (want.lam, [w.edges for w in want.enumerate()])
    assert guard.reads == 6  # v1 … v6, each pulled once; v0 is level 0.


@pytest.mark.parametrize("expression", ["(a|b)* c (a|b|c)*", "a b* c"])
def test_a_pulled_closure_is_published_whole_on_a_random_graph(expression):
    """The same guard on a multi-state product whose cells name several
    predecessor states, the closure pulled for every reached target."""
    graph = random_multilabel(
        60, 300, alphabet=("a", "b", "c"), max_labels_per_edge=2, seed=7
    )
    cq = compile_query(graph, regex_to_nfa(expression))
    annotation = annotate(cq, graph.resolve_vertex("v1"), saturate=True)
    guard = _ClosedIn(annotation.packed)
    for t in graph.vertices():
        lam, states = annotation.target_info(t)
        if lam:
            annotation.packed.build(t, states)
    assert guard.reads > len(graph.vertices())
