"""The ``ANY`` witness: one shortest matching walk read back from an
``AnnotateBFS`` run's ``dist`` (:meth:`AnnotateBFS.witness`).

Every witness must match the query (checked by the oracle), have the
walks λ, repeat exactly across runs, and be the walk the
ascending-edge-id rule picks — re-derived here from a plain dict BFS of
the compiled product, independently of the packed traversal.
"""

import pytest

from repro.api import Database
from repro.automata import regex_to_nfa
from repro.baselines.oracle import oracle_lam, oracle_walk_matches
from repro.core.annotate import AnnotateBFS
from repro.core.compile import compile_query
from repro.datastructures.packed import PackedCells
from repro.graph import GraphBuilder
from repro.graph.generators import random_multilabel
from repro.service import QueryRequest, QueryService
from repro.workloads.fraud import example9_graph
from repro.workloads.transport import TRANSPORT_QUERIES, transport_network
from repro.workloads.worstcase import diamond_chain


def _product_levels(cq, source):
    """``{(vertex, state): BFS level}`` of the whole reachable product."""
    graph = cq.graph
    frontier = [(source, q) for q in sorted(cq.initial_closure)]
    dist = dict.fromkeys(frontier, 0)
    level = 0
    while frontier:
        level += 1
        current, frontier = frontier, []
        for v, q in current:
            for e in graph.out_edges(v):
                for a in graph.labels(e):
                    for p in cq.delta[q].get(a, ()):
                        node = (graph.tgt(e), p)
                        if node not in dist:
                            dist[node] = level
                            frontier.append(node)
    return dist


def _rule_witness(cq, source, target):
    """The ascending-edge-id rule: from the least final state at λ, the
    first in-edge (by id), then label, then predecessor state one level
    down, to level 0."""
    graph = cq.graph
    dist = _product_levels(cq, source)
    reached = [
        (dist[(target, f)], f) for f in cq.final if (target, f) in dist
    ]
    if not reached:
        return None
    lam, p = min(reached)
    v, edges = target, []
    for level in range(lam - 1, -1, -1):
        e, q = next(
            (e, q)
            for e in sorted(graph.in_edges(v))
            for a in graph.labels(e)
            for q in range(cq.n_states)
            if p in cq.delta[q].get(a, ())
            and dist.get((graph.src(e), q)) == level
        )
        edges.append(e)
        v, p = graph.src(e), q
    return lam, tuple(reversed(edges))


def _check_pairs(graph, expression, pairs):
    """Every witness over ``pairs``: valid, of the walks λ, repeatable,
    and the rule's; returns how many pairs matched."""
    nfa = regex_to_nfa(expression)
    cq = compile_query(graph, nfa)
    matched = 0
    for s, t in pairs:
        bfs = AnnotateBFS(cq, s)
        bfs.run(t)
        found = bfs.witness(t)
        assert found == _rule_witness(cq, s, t), (expression, s, t)
        again = AnnotateBFS(cq, s)
        again.run(t)
        assert again.witness(t) == found
        lam = oracle_lam(graph, nfa, s, t)
        if found is None:
            assert lam is None
            continue
        matched += 1
        assert found[0] == lam == len(found[1])
        assert oracle_walk_matches(graph, nfa, found[1], s, t)
    return matched


def test_multi_label_graph():
    graph = example9_graph()
    pairs = [(s, t) for s in graph.vertices() for t in graph.vertices()]
    assert _check_pairs(graph, "h* s (h | s)*", pairs) > 0


@pytest.mark.parametrize("expression", ["(a|b)* c", "a (b|c)* a?", "(a b)+"])
def test_random_multi_label_graphs(expression):
    graph = random_multilabel(30, 90, alphabet=("a", "b", "c"), seed=3)
    pairs = [(s, t) for s in range(0, 30, 7) for t in graph.vertices()]
    assert _check_pairs(graph, expression, pairs) > 0


def test_diamond_chain_takes_the_first_parallel_edge_of_every_hop():
    graph, _, s, t = diamond_chain(8, parallel=2)
    si, ti = graph.vertex_id(s), graph.vertex_id(t)
    assert _check_pairs(graph, "a*", [(si, ti)]) == 1
    bfs = AnnotateBFS(compile_query(graph, regex_to_nfa("a*")), si)
    bfs.run(ti)
    _, edges = bfs.witness(ti)
    assert edges == tuple(
        min(graph.in_edges(graph.vertex_id(f"v{i}"))) for i in range(1, 9)
    )


def test_lambda_zero_is_the_empty_walk():
    graph = example9_graph()
    alix = graph.vertex_id("Alix")
    assert _check_pairs(graph, "h*", [(alix, alix)]) == 1
    bfs = AnnotateBFS(compile_query(graph, regex_to_nfa("h*")), alix)
    bfs.run(alix)
    assert bfs.witness(alix) == (0, ())
    assert bfs.level == 0  # Settled before the first level.


def test_unreachable_pair_has_no_witness():
    graph = example9_graph()
    bob, alix = graph.vertex_id("Bob"), graph.vertex_id("Alix")
    assert _check_pairs(graph, "h* s (h | s)*", [(bob, alix)]) == 0
    db = Database(graph)
    rows = (
        db.query("h* s (h | s)*").from_("Bob").to("Alix").any_walk()
        .run().all()
    )
    assert rows == []


@pytest.mark.parametrize("name", sorted(TRANSPORT_QUERIES))
def test_transport_one_to_all(name):
    """``to_all().any_walk()`` over ``transport_network(96)``: one row
    per target the walks semantics reaches, at its λ, the rule's walk,
    the same on a second run."""
    expression = TRANSPORT_QUERIES[name]
    graph = transport_network(96, seed=7)
    db = Database(graph)
    query = db.query(expression).from_("city0").to_all()
    lams = dict(query.targets())
    rows = query.any_walk().run().all()
    assert [(r.target, r.walk.edges) for r in rows] == [
        (r.target, r.walk.edges) for r in query.any_walk().run().all()
    ]
    assert {row.target: row.lam for row in rows} == lams
    cq = compile_query(graph, regex_to_nfa(expression))
    nfa = cq.automaton
    s = graph.vertex_id("city0")
    for row in rows:
        t = graph.vertex_id(row.target)
        edges = row.walk.edges
        assert len(edges) == row.lam
        assert oracle_walk_matches(graph, nfa, edges, s, t)
        assert (row.lam, edges) == _rule_witness(cq, s, t)


def test_a_tombstoned_edge_is_never_picked():
    """A removed edge keeps its ``In`` slot on a live graph, where it
    would qualify first; the witness takes only an edge its source's
    ``Out`` list still holds."""
    builder = GraphBuilder()
    builder.add_edge("x", "m", ["a"])  # e0, removed below.
    builder.add_edge("x", "m", ["a"])  # e1
    builder.add_edge("m", "y", ["a"])  # e2
    db = Database(builder.build())
    pair = db.query("a a").from_("x").to("y").any_walk()
    (row,) = pair.run().all()
    assert row.walk.edges == (0, 2)
    db.mutate([{"op": "remove_edge", "edge": 0}], compact=False)
    (row,) = pair.run().all()
    assert row.walk.edges == (1, 2)


@pytest.fixture
def trim_cells(monkeypatch):
    """The number of Trim cells held by every cell store built while
    the test runs, read when called."""
    stores = []
    init = PackedCells.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stores.append(self)

    monkeypatch.setattr(PackedCells, "__init__", recording)
    return lambda: sum(map(len, stores))


def _through_database(semantics):
    db = Database(example9_graph())
    query = db.query("h* s (h | s)*").from_("Alix").to("Bob")
    rows = query.semantics(semantics).run().all()
    entries = db.stats()["annotation_cache"]["entries"]
    return rows[0].lam, [row.walk.edges for row in rows], entries


def _through_service(semantics):
    service = QueryService()
    service.register_graph("fraud", example9_graph())
    response = service.execute(
        QueryRequest("h* s (h | s)*", "Alix", "Bob", semantics=semantics)
    )
    assert response.status == "ok"
    walks = [tuple(w["edges"]) for w in response.walks]
    entries = service.stats()["annotation_cache"]["entries"]
    return response.lam, walks, entries


@pytest.mark.parametrize("run", [_through_database, _through_service])
def test_an_any_query_builds_no_trim_cell(run, trim_cells):
    """``any`` answers off one BFS's ``dist``: at either tier it stores
    no Trim cell and no annotation-cache entry, and its one witness has
    the walks λ.  The walks query after it is the control: the same
    counter sees its Trim."""
    lam, witnesses, entries = run("any")
    assert (trim_cells(), entries) == (0, 0)
    assert len(witnesses) == 1 and len(witnesses[0]) == lam
    walks_lam, walks, entries = run("walks")
    assert trim_cells() > 0 and entries == 1
    assert lam == walks_lam == 3
    assert witnesses[0] in walks
