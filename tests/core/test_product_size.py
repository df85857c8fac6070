"""Timing-free guard on the size of the product ``Annotate`` walks.

Both compiles keep only co-accessible states, so the BFS never creates
a product node no accepting run passes through; ``compile_query`` also
merges the states with the same past, so it creates one node where the
automaton as written spells a class out several times, and numbers the
classes densely, so the arrays keyed by (vertex, state) have a slot
per class and none per state written.  And a cached
multi-target entry walks only the BFS levels its requests have needed.
A level whose frontier would mostly re-probe settled nodes goes
bottom-up, so the ``dist`` reads a traversal makes are pinned too.
These counts are exact and machine-independent; they move only when the
compiled automaton, what ``Annotate`` logs per product edge, where the
traversal stops or which way a level goes changes.
"""

from repro.api import Database
from repro.automata import regex_to_nfa
from repro.core.annotate import AnnotateBFS, annotate
from repro.core.compile import compile_epsilon_free, compile_query
from repro.core.enumerate import enumerate_walks
from repro.core.trim import trim
from repro.graph.generators import chain, random_multilabel
from repro.workloads.transport import TRANSPORT_QUERIES, transport_network
from repro.workloads.worstcase import diamond_chain

from tests.property.delay_steps import _counting_array


def test_chain_product_has_no_dead_nodes():
    """``(a|b)*`` (Thompson, 8 states) keeps 3 live states as written:
    the ``a`` and ``b`` sources and the final state.  Per hop: 2
    parallel edges × 2 firing (state, label) pairs × 3 live targets =
    12 entries, and 3 states × 2 in-edges = 6 Trim cells.  Untrimmed:
    24 and 14.  The three have one past, so the query compile runs one
    state: 2 edges × 2 labels × 1 target = 4 entries, 2 cells."""
    hops = 50
    graph = chain(hops, ("a", "b"), parallel=2)
    nfa = regex_to_nfa("(a|b)*")
    source = graph.resolve_vertex("v0")
    target = graph.resolve_vertex(f"v{hops}")
    for cq, entries, cells in (
        (compile_epsilon_free(graph, nfa), 12, 6),
        (compile_query(graph, nfa), 4, 2),
    ):
        for saturate in (False, True):
            annotation = annotate(cq, source, target, saturate=saturate)
            assert annotation.annotation_entries() == entries * hops
            assert trim(graph, annotation).total_items() == cells * hops
            assert annotation.target_info(target)[0] == hops


def test_key_space_is_the_states_the_traversal_runs():
    """``big_cold``'s three queries on its smoke-sized graph, saturated
    from a vertex every query can leave: ``dist`` and the pack's key
    offsets hold one slot per (vertex, merged state) — 2 / 3 / 2 per
    vertex, not the 20 / 8 / 22 states the Thompson automata are
    written with — and the entries and cells in them are what they
    were before the ids were renumbered.  ``nbytes`` is the arrays'
    length × 8, plus the cells' once ``Trim`` builds them."""
    graph = random_multilabel(
        600, 3000, alphabet=("a", "b", "c", "d"), max_labels_per_edge=2, seed=1
    )
    source = graph.resolve_vertex("v1")
    assert len(graph.out_labels(source)) == 4
    n = graph.vertex_count
    for expression, written, states, entries, items in (
        ("(a|b)* c (a|b|c)*", 20, 2, 2223, 1739),
        ("a b* c", 8, 3, 1017, 1017),
        ("(a|b|c|d)+", 22, 2, 1522, 1006),
    ):
        nfa = regex_to_nfa(expression)
        cq = compile_query(graph, nfa)
        assert nfa.n_states == written
        assert cq.n_states == cq.live_states[1] == states, expression
        annotation = annotate(cq, source, saturate=True)
        keys = n * states
        assert len(annotation.dist) == keys, expression
        assert len(annotation.packed.key_indptr) == keys + 1, expression
        assert annotation.annotation_entries() == entries, expression
        assert annotation.nbytes == 8 * (2 * keys + 1 + 2 * entries)
        assert trim(graph, annotation).total_items() == items, expression
        assert annotation.nbytes == 8 * (3 * keys + 3 + 2 * entries + 3 * items)


def _dist_accesses(graph, expression, source, target=None):
    """``(dist reads and writes, entries, cells)`` of one
    :class:`AnnotateBFS` run — to ``target``'s level, or saturating —
    counted by the step-counting array of the delay suites swapped in
    for ``dist`` before the run."""
    cq = compile_query(graph, regex_to_nfa(expression))
    bfs = AnnotateBFS(cq, graph.resolve_vertex(source))
    counter = {"steps": 0}
    bfs.dist = _counting_array(bfs.dist, counter)
    stop = None if target is None else graph.resolve_vertex(target)
    bfs.run(stop)
    annotation = bfs.annotation(stop, saturated=stop is None)
    return counter["steps"], len(bfs), trim(graph, annotation).total_items()


def test_levels_probe_dist_only_where_they_must():
    """``dist`` reads and writes of a run, beside its entries and cells.

    Top-down only, every level read ``dist`` once per product edge
    leaving its frontier; the counts that did are in the comment of
    each row.  From the transport hub ``city63`` the second level of
    ``no_bus`` / ``fly_then_ground`` reaches the few nodes left by
    their in-edges instead of re-probing the ~70 out-edges of every
    first-level node, and so do the middle levels of two of
    ``big_cold``'s queries (smoke-sized graph, saturated from ``v1``).
    ``ground_only``, ``a b* c`` and ``(a|b)*`` on a chain never have
    a frontier that costly: they read what the top-down traversal did.
    The entries and cells are the same either way."""
    transport = transport_network(96, hub_fraction=0.7, seed=1)
    big = random_multilabel(
        600, 3000, alphabet=("a", "b", "c", "d"), max_labels_per_edge=2, seed=1
    )
    line = chain(50, ("a", "b"), parallel=2)
    for graph, expression, source, target, counts in (
        (transport, TRANSPORT_QUERIES["no_bus"], "city63", "city69",
         (449, 184, 184)),  # 4 655 top-down
        (transport, TRANSPORT_QUERIES["fly_then_ground"], "city63", "city69",
         (474, 232, 232)),  # 9 276
        (transport, TRANSPORT_QUERIES["ground_only"], "city63", "city69",
         (68, 28, 28)),  # 68
        (big, "(a|b)* c (a|b|c)*", "v1", None, (5481, 2223, 1739)),  # 7 806
        (big, "(a|b|c|d)+", "v1", None, (3687, 1522, 1006)),  # 5 087
        (big, "a b* c", "v1", None, (2762, 1017, 1017)),  # 2 762
        (line, "(a|b)*", "v0", None, (250, 200, 100)),  # 250
        (line, "(a|b)*", "v0", "v50", (301, 200, 100)),  # 301
    ):
        assert _dist_accesses(graph, expression, source, target) == counts, (
            expression, source, target,
        )


def test_cached_entry_stops_at_the_asked_level():
    """A cached ``(query, source)`` entry walks only the levels its
    requests need: ``(train | bus)+`` from ``city5`` reaches ``city8``
    in 3 hops (16 entries, as the one-shot build stopped there) of a
    49-level product (196 entries).  A farther target deepens it — the
    count never drops — and ``to_all()`` saturates it."""
    graph = transport_network(96, hub_fraction=0.7, seed=1)
    expression = TRANSPORT_QUERIES["ground_only"]
    db = Database(graph)
    query = db.query(expression).from_("city5")

    def cached_entries() -> int:
        (entry,) = db._annotation_cache._data.values()
        return entry.annotation.annotation_entries()

    cq = compile_query(graph, regex_to_nfa(expression))
    source, near = graph.resolve_vertex("city5"), graph.resolve_vertex("city8")
    assert query.to("city8").run().lam == 3
    assert cached_entries() == annotate(cq, source, near).annotation_entries()
    assert cached_entries() == 16
    assert query.to("city40").run().lam == 35
    assert cached_entries() >= 16
    query.to_all().targets()
    assert cached_entries() == annotate(cq, source, saturate=True).annotation_entries()
    assert cached_entries() == 196


def test_diamond_walks_and_order_unchanged():
    """2^10 walks, in the order the untrimmable one-state automaton of
    :func:`diamond_chain` produces them — which is the order Lemma 11
    fixes: lexicographic in ``TgtIdx``, read from the target back."""
    k = 10
    graph, one_state, source_name, target_name = diamond_chain(k)
    source = graph.resolve_vertex(source_name)
    target = graph.resolve_vertex(target_name)

    def walks(nfa):
        cq = compile_query(graph, nfa)
        annotation = annotate(cq, source, target)
        assert annotation.lam == k
        return [
            walk.edges
            for walk in enumerate_walks(
                graph,
                trim(graph, annotation),
                annotation.lam,
                target,
                annotation.target_states,
            )
        ]

    thompson = regex_to_nfa("a*")
    assert thompson.has_epsilon
    got = walks(thompson)
    assert len(got) == len(set(got)) == 2 ** k
    assert got == walks(one_state)
    backward_tgt_idx = [
        tuple(graph.tgt_idx(e) for e in reversed(edges)) for edges in got
    ]
    assert backward_tgt_idx == sorted(backward_tgt_idx)
