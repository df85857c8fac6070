"""Timing-free guard on the size of the product ``Annotate`` walks.

Both compiles keep only co-accessible states, so the BFS never creates
a product node no accepting run passes through; ``compile_query`` also
merges the states with the same past, so it creates one node where the
automaton as written spells a class out several times, and numbers the
classes densely, so ``dist`` has a slot per class and none per state
written.  ``Trim`` stores the cells of the nodes on an asked target's
shortest walks only, so what a stopped pair keeps does not grow with
the graph; and a cached multi-target entry walks only the BFS levels
its requests have needed.  A level whose frontier would mostly re-probe
settled nodes goes bottom-up, so the ``dist`` reads a traversal makes
are pinned too.  These counts are exact and machine-independent; they
move only when the compiled automaton, what ``Trim`` pulls per product
edge, where the traversal stops, which way a level goes or how a
top-down level gathers its successors changes.
"""

from repro.api import Database
from repro.automata import regex_to_nfa
from repro.baselines.paper_pipeline import annotate_reference, trim_maps
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
    12 entries, and 3 states × 2 in-edges = 6 Trim cells, which the
    ``B`` view pulls.  Untrimmed: 24 and 14.  The target's own walks
    pass through the two sources only, and through the final state at
    the target alone: ``Trim`` stores 8 entries and 4 cells per hop,
    less half a hop's at the target.  The three states have one past,
    so the query compile runs one state: 2 edges × 2 labels × 1 target
    = 4 entries, 2 cells, all on the target's walks.  ``Annotate``
    itself stores none."""
    hops = 50
    graph = chain(hops, ("a", "b"), parallel=2)
    nfa = regex_to_nfa("(a|b)*")
    source = graph.resolve_vertex("v0")
    target = graph.resolve_vertex(f"v{hops}")
    for cq, pulled, reached in (
        (
            compile_epsilon_free(graph, nfa),
            (8 * hops - 4, 4 * hops - 2),
            (12 * hops, 6 * hops),
        ),
        (compile_query(graph, nfa), (4 * hops, 2 * hops), (4 * hops, 2 * hops)),
    ):
        for saturate in (False, True):
            annotation = annotate(cq, source, target, saturate=saturate)
            assert annotation.annotation_entries() == 0
            cells = trim(graph, annotation)
            assert (annotation.annotation_entries(), len(cells)) == pulled
            annotation.B
            assert (annotation.annotation_entries(), len(cells)) == reached
            assert annotation.target_info(target)[0] == hops


def test_key_space_is_the_states_the_traversal_runs():
    """``big_cold``'s three queries on its smoke-sized graph, saturated
    from a vertex every query can leave: ``dist`` holds one slot per
    (vertex, merged state) — 2 / 3 / 2 per vertex, not the 20 / 8 / 22
    states the Thompson automata are written with — and the entries and
    cells of every reached node are what they were before the ids were
    renumbered.  ``nbytes`` is ``dist`` plus the cell store: four words
    per cell (two array slots, two tuple pointers) and three words per
    built node — one per reached node once the ``B`` view has pulled
    them all."""
    graph = random_multilabel(
        600, 3000, alphabet=("a", "b", "c", "d"), max_labels_per_edge=2, seed=1
    )
    source = graph.resolve_vertex("v1")
    assert len(graph.out_labels(source)) == 4
    n = graph.vertex_count
    for expression, written, states, entries, items, nodes in (
        ("(a|b)* c (a|b|c)*", 20, 2, 2223, 1739, 1173),
        ("a b* c", 8, 3, 1017, 1017, 956),
        ("(a|b|c|d)+", 22, 2, 1522, 1006, 597),
    ):
        nfa = regex_to_nfa(expression)
        cq = compile_query(graph, nfa)
        assert nfa.n_states == written
        assert cq.n_states == cq.live_states[1] == states, expression
        annotation = annotate(cq, source, saturate=True)
        keys = n * states
        assert len(annotation.dist) == keys, expression
        assert annotation.nbytes == 8 * keys
        annotation.B
        assert annotation.annotation_entries() == entries, expression
        assert trim(graph, annotation).total_items() == items, expression
        assert nodes == sum(1 for level in annotation.dist if level >= 0)
        assert annotation.nbytes == 8 * (
            keys + 4 * items + 3 * nodes
        ), expression


def test_a_stopped_pair_keeps_what_its_walks_need():
    """A cold 5-hop pair on a chain stores the same cells, entries and
    store bytes whether the chain has 10 000 or 100 000 vertices: the
    BFS stops at level 5 and ``Trim`` pulls the target's walks only
    (``(a|b)* a``: one walk, one node per vertex on it, one cell per
    hop, two entries per hop — both labels fire — but one on the last;
    the ``dist`` slots are all the graph size adds)."""
    kept = set()
    for n in (10_000, 100_000):
        graph = chain(n, ("a", "b"))
        cq = compile_query(graph, regex_to_nfa("(a|b)* a"))
        target = graph.resolve_vertex("v5")
        annotation = annotate(cq, graph.resolve_vertex("v0"), target)
        cells = trim(graph, annotation)
        assert annotation.lam == 5
        kept.add((
            annotation.annotation_entries(), len(cells),
            annotation.nbytes - 8 * len(annotation.dist),
        ))
    assert kept == {(9, 5, 304)}


def test_a_pull_reads_dist_once_per_in_edge_and_state():
    """``Trim``'s ``dist`` reads, counted by the step-counting array
    swapped in for the store's ``dist``: a saturated double-labelled
    chain (two parallel edges per hop, both on ``a`` and ``b``) trimmed
    for its far end under ``(a|b)*`` — one merged state — reads each
    node's level once and, per in-edge, its one candidate state once:
    3k + 1 reads.  Reading per firing label took 5k + 1.  Each cell
    keeps both firing labels' entries."""
    for k in (10, 40):
        graph = chain(k, ("a", "b"), parallel=2)
        cq = compile_query(graph, regex_to_nfa("(a|b)*"))
        annotation = annotate(cq, graph.resolve_vertex("v0"), saturate=True)
        cells = annotation.packed
        counter = {"steps": 0}
        cells.dist = _counting_array(cells.dist, counter)
        trim(graph, annotation, graph.resolve_vertex(f"v{k}"))
        assert counter["steps"] == 3 * k + 1, k
        assert (len(cells), cells.entries()) == (2 * k, 4 * k)


def test_cells_are_written_whole_and_shared():
    """After any build every cell holds its entries and certificate,
    and equal entry tuples (and equal certificates) of one store are
    one object: the pull shares them as it writes them."""
    graph = random_multilabel(
        200, 900, alphabet=("a", "b", "c"), max_labels_per_edge=2, seed=3
    )
    for expression in ("(a|b)* c (a|b|c)*", "(a|b|c)+", "a b* c"):
        cq = compile_epsilon_free(graph, regex_to_nfa(expression))
        annotation = annotate(cq, graph.resolve_vertex("v1"), saturate=True)
        cells = annotation.packed
        for t in (*graph.vertices()[:20], None):
            if t is None:
                annotation.B
            else:
                trim(graph, annotation, t)
            assert None not in cells.certs
            assert len(cells.certs) == len(cells.cell_entries) == len(cells)
            first = {}
            for x in (*cells.cell_entries, *cells.certs):
                assert first.setdefault(x, x) is x
        assert len(set(map(id, cells.certs))) < len(cells)


def test_one_target_keeps_its_shortest_walk_graph():
    """A saturated build trimmed for one target stores exactly the
    reference ``Trim``'s queues of the nodes from which ``(t, S_t)`` is
    reached through them — the target's shortest-walk graph — cell for
    cell, and no other node."""
    graph = random_multilabel(
        200, 900, alphabet=("a", "b", "c"), max_labels_per_edge=2, seed=3
    )
    cq = compile_query(graph, regex_to_nfa("(a|b)* c (a|b|c)*"))
    n_states = cq.n_states
    source = graph.resolve_vertex("v1")
    queues = trim_maps(graph, annotate_reference(cq, source, saturate=True))
    checked = 0
    for t in graph.vertices():
        annotation = annotate(cq, source, saturate=True)
        lam, states = annotation.target_info(t)
        if not lam:
            continue
        cells = trim(graph, annotation, t)
        want, pending = {}, [(t, f) for f in states]
        while pending:
            u, p = pending.pop()
            if u * n_states + p in want:
                continue
            items = list(queues[u].get(p, ()))
            want[u * n_states + p] = [(e, sorted(x)) for e, x in items]
            pending += [
                (graph.src(e), q) for e, x in items for q in x
            ]
        got = {
            k: [(e, sorted(x)) for e, x in cells.items(*divmod(k, n_states))]
            for k in cells.spans
        }
        assert got == want, t
        checked += 1
    assert checked > 100


def _dist_accesses(graph, expression, source, target=None):
    """``(dist reads and writes, entries, cells)`` of one
    :class:`AnnotateBFS` run — to ``target``'s level, or saturating —
    counted by the step-counting array of the delay suites swapped in
    for ``dist`` before the run; the entries and cells are those of
    every reached node, pulled by the ``B`` view after the count."""
    cq = compile_query(graph, regex_to_nfa(expression))
    bfs = AnnotateBFS(cq, graph.resolve_vertex(source))
    counter = {"steps": 0}
    bfs.dist = _counting_array(bfs.dist, counter)
    stop = None if target is None else graph.resolve_vertex(target)
    bfs.run(stop)
    steps = counter["steps"]
    annotation = bfs.annotation(stop, saturated=stop is None)
    annotation.B
    return steps, annotation.annotation_entries(), len(annotation.packed)


def test_levels_probe_dist_only_where_they_must():
    """``dist`` reads and writes of a run, beside its entries and cells.

    A traversal that went top-down edge by edge read ``dist`` once per
    product edge leaving each level's frontier; the counts it made are
    in the comment of each row.  A top-down level now gathers the
    successors of each frontier state's vertices on each move group's
    labels into one set and reads ``dist`` once per distinct successor
    and target state, so an edge whose two labels fire one move, or two
    frontier vertices sharing a successor, cost one read: the rows
    whose levels go top-down read less — ``ground_only``, ``a b* c``
    and the two ``big_cold`` queries that gather several labels into
    one set.  A one-vertex group reads its tuples as they are, so
    ``(a|b)*`` on the double-labelled chain reads what it did.  From
    the transport hub ``city63`` the second level of ``no_bus`` /
    ``fly_then_ground`` reaches the few nodes left by their in-edges
    instead of re-probing the ~70 out-edges of every first-level node,
    and so do the middle levels of two of ``big_cold``'s queries
    (smoke-sized graph, saturated from ``v1``); a bottom-up candidate
    stops probing at its first predecessor, since ``Annotate`` stores
    no ``B`` entry.  The entries and cells ``Trim`` pulls for every
    reached node are the same either way."""
    transport = transport_network(96, hub_fraction=0.7, seed=1)
    big = random_multilabel(
        600, 3000, alphabet=("a", "b", "c", "d"), max_labels_per_edge=2, seed=1
    )
    line = chain(50, ("a", "b"), parallel=2)
    for graph, expression, source, target, counts in (
        (transport, TRANSPORT_QUERIES["no_bus"], "city63", "city69",
         (267, 184, 184)),  # 4 655 top-down
        (transport, TRANSPORT_QUERIES["fly_then_ground"], "city63", "city69",
         (392, 232, 232)),  # 9 276
        (transport, TRANSPORT_QUERIES["ground_only"], "city63", "city69",
         (43, 28, 28)),  # 68
        (big, "(a|b)* c (a|b|c)*", "v1", None, (3762, 2223, 1739)),  # 7 806
        (big, "(a|b|c|d)+", "v1", None, (1784, 1522, 1006)),  # 5 087
        (big, "a b* c", "v1", None, (2648, 1017, 1017)),  # 2 762
        (line, "(a|b)*", "v0", None, (250, 200, 100)),  # 250
        (line, "(a|b)*", "v0", "v50", (301, 200, 100)),  # 301
    ):
        assert _dist_accesses(graph, expression, source, target) == counts, (
            expression, source, target,
        )


def test_cached_entry_stops_at_the_asked_level():
    """A cached ``(query, source)`` entry walks only the levels its
    requests need: ``(train | bus)+`` from ``city5`` reaches ``city8``
    in 3 of a 49-level product's levels, and holds city8's cells — 6
    entries, as the one-shot build trimmed for it.  A farther target
    deepens it, ``to_all()`` saturates it, and neither pulls a cell:
    reading λ needs none."""
    graph = transport_network(96, hub_fraction=0.7, seed=1)
    expression = TRANSPORT_QUERIES["ground_only"]
    db = Database(graph)
    query = db.query(expression).from_("city5")

    def cached():
        (entry,) = db._annotation_cache._data.values()
        annotation = entry.annotation
        return annotation.steps, annotation.saturated, annotation.annotation_entries()

    cq = compile_query(graph, regex_to_nfa(expression))
    source, near = graph.resolve_vertex("city5"), graph.resolve_vertex("city8")
    assert query.to("city8").run().lam == 3
    one_shot = annotate(cq, source, near)
    assert cached() == (3, False, trim(graph, one_shot).entries()) == (3, False, 6)
    assert query.to("city40").run().lam == 35
    assert cached() == (35, False, 6)
    query.to_all().targets()
    assert cached() == (49, True, 6)
    assert annotate(cq, source, saturate=True).steps == 49


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
