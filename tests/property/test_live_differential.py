"""Randomized differential testing of live-graph mutations.

Each case draws, from a *seeded* PRNG, a random base graph plus a
random **interleaving** of mutation batches and queries, and plays it
against two worlds at once:

* the **live world** — a :class:`~repro.api.Database` over a
  :class:`~repro.live.LiveGraph`, mutated through
  :meth:`~repro.api.Database.mutate` (fine-grained invalidation,
  epoch-lazy views, occasional auto-compaction);
* the **oracle world** — after every mutation prefix, an immutable
  :class:`Graph` rebuilt from scratch from the live edge list, queried
  through the ordinary (already oracle-verified) engine.

Per query step, the façade's answers on the live graph are checked
under *both* mode names (``iterative``, ``memoryless``; neither selects
anything) for

* **distinctness** — no walk emitted twice;
* **shortestness** — every output has length λ (= the oracle's λ);
* **completeness** — the rendered answer multiset equals the rebuilt
  oracle's;
* **order** — the rendered output *sequence* matches the oracle's DFS
  order (the no-reindexing invariant keeps live ``TgtIdx`` order
  aligned with the rebuild's insertion order), and the two live modes
  agree edge-for-edge;
* **packed column** — the façade's (possibly cached-across-mutations)
  CSR-packed annotations are replayed cold through the retained
  mapping-form pipeline on the same live graph, raw edge id for raw
  edge id: stale-but-kept packed cache entries and packed/dict layout
  divergences both fail here;
* **merged == as-written column** — the façade runs the same-past
  quotient ``compile_query`` emits; the packed pipeline run cold on the
  live graph over ``compile_epsilon_free`` (the automaton as written)
  must give the same λ and the same raw-edge-id sequence, after every
  mutation prefix;
* **semantics column** — the same query under ``trails`` / ``simple``
  (vs :func:`repro.baselines.oracle.oracle_restricted_set` on the
  rebuilt graph) and ``any`` (witness validity + λ): cached
  semantics-restricted artifacts must be invalidated by interleaved
  mutations exactly like the walks entries.

The **deepened == saturated** column (:func:`test_deepen_after_unrelated_batch`):
a multi-target entry built for one target, kept across a batch that
adds vertices and edges on labels its query cannot fire on (so the
façade does not evict it), then deepened to exhaustion, answers every
target as a rebuild on the mutated graph does and holds that rebuild's
``dist`` and the same cells node for node.

Walks are compared by rendering each edge as
``(src name, tgt name, label names)`` because edge *ids* legitimately
differ between the overlay and a rebuild (tombstone slots close up).

Knobs (mirroring ``test_differential.py``): ``LIVE_DIFF_CASES``
(default 200) and ``LIVE_DIFF_SEED_BASE`` (default 0) — the CI
``mutation-fuzz`` job runs disjoint seed ranges, and any failure
replays locally with::

    LIVE_DIFF_SEED_BASE=<base> PYTHONPATH=src python -m pytest \
        "tests/property/test_live_differential.py::test_interleaving[<case>]"
"""

from __future__ import annotations

import os
import random
from typing import List, Tuple

import pytest

from repro.api import Database
from repro.automata import regex_to_nfa
from repro.baselines.oracle import (
    oracle_restricted_set,
    oracle_walk_matches,
    random_graph,
    random_regex_compact,
)
from repro.baselines.paper_pipeline import (
    annotate_reference,
    enumerate_walks_recursive,
    trim_maps,
)
from repro.core.annotate import annotate
from repro.core.compile import compile_epsilon_free, compile_query
from repro.core.engine import DistinctShortestWalks
from repro.core.multi_target import MultiTargetShortestWalks
from repro.graph.database import Graph
from repro.live import (
    AddEdge,
    AddVertex,
    LiveGraph,
    RemoveEdge,
    SetEdgeLabels,
)

from tests.conftest import HUB_QUERIES, hub_graph, node_cells, packed_walks

_ALPHABET = ("a", "b", "c")
_EXTRA_LABELS = ("n0", "n1")  # Drawn occasionally: label-universe growth.

SEED_BASE = int(os.environ.get("LIVE_DIFF_SEED_BASE", "0"))
N_CASES = int(os.environ.get("LIVE_DIFF_CASES", "200"))
_N_STEPS = 12
_RESTRICTED_BUDGET = 60_000


def _random_graph(rng: random.Random) -> Graph:
    # The shared generator (repro.baselines.oracle) at this harness's
    # historical size; the draw sequence is unchanged.
    return random_graph(rng, max_vertices=5, max_edges=10)


def _random_regex(rng: random.Random, depth: int = 2) -> str:
    return random_regex_compact(rng, depth)


def _random_labels(rng: random.Random) -> List[str]:
    labels = rng.sample(_ALPHABET, rng.randint(1, 2))
    if rng.random() < 0.15:
        labels.append(rng.choice(_EXTRA_LABELS))
    return sorted(set(labels))


def _random_batch(rng: random.Random, live: LiveGraph) -> List:
    ops: List = []
    for _ in range(rng.randint(1, 3)):
        live_ids = [e for e in live.live_edges()]
        # Exclude ids already staged for removal/relabel in this batch.
        staged = {
            op.edge for op in ops if isinstance(op, (RemoveEdge,))
        }
        live_ids = [e for e in live_ids if e not in staged]
        roll = rng.random()
        vertex_pool = [
            live.vertex_name(v) for v in live.vertices()
        ] or ["v0"]

        def pick_vertex() -> str:
            if rng.random() < 0.12:
                return f"w{rng.randrange(4)}"  # Possibly-new vertex.
            return rng.choice(vertex_pool)

        if roll < 0.5 or not live_ids:
            ops.append(
                AddEdge(
                    pick_vertex(), pick_vertex(),
                    tuple(_random_labels(rng)),
                )
            )
        elif roll < 0.75:
            ops.append(RemoveEdge(rng.choice(live_ids)))
        elif roll < 0.9:
            ops.append(
                SetEdgeLabels(
                    rng.choice(live_ids), tuple(_random_labels(rng))
                )
            )
        else:
            ops.append(AddVertex(f"u{rng.randrange(3)}"))
    return ops


def _rendered(graph, edges: Tuple[int, ...]) -> Tuple:
    return tuple(
        (
            str(graph.vertex_name(graph.src(e))),
            str(graph.vertex_name(graph.tgt(e))),
            graph.label_names_of(e),
        )
        for e in edges
    )


@pytest.mark.parametrize("case", range(N_CASES))
def test_interleaving(case: int) -> None:
    seed = SEED_BASE + case
    rng = random.Random(seed)
    base = _random_graph(rng)
    live = LiveGraph(base)
    db = Database(live)
    expressions = [_random_regex(rng) for _ in range(3)]
    nfas = {x: regex_to_nfa(x) for x in expressions}

    mutations = 0
    queries = 0
    for step in range(_N_STEPS):
        context = f"seed={seed} step={step}"
        if rng.random() < 0.45:
            ops = _random_batch(rng, live)
            result = db.mutate(ops)
            assert result.batch.ops == tuple(ops), context
            mutations += 1
            continue

        queries += 1
        expression = rng.choice(expressions)
        n = live.vertex_count
        source = live.vertex_name(rng.randrange(n))
        target = live.vertex_name(rng.randrange(n))
        context = f"{context} regex={expression!r} {source}->{target}"

        # Oracle world: rebuild from scratch, run the proven engine.
        frozen = live.to_graph()
        engine = DistinctShortestWalks(
            frozen, nfas[expression], source, target
        )
        oracle_lam = engine.lam
        oracle_walks = [
            _rendered(frozen, w.edges) for w in engine.enumerate()
        ]

        # Live world: the cached façade path, under both mode names.
        per_mode = {}
        for mode in ("iterative", "memoryless"):
            result = (
                db.query(expression)
                .from_(source).to(target)
                .mode(mode)
                .run()
            )
            edges = [row.walk.edges for row in result]
            assert result.lam == oracle_lam, f"{mode} λ ({context})"
            # Distinctness, on raw live edge ids.
            assert len(set(edges)) == len(edges), f"{mode} ({context})"
            # Shortestness.
            assert all(
                len(e) == (oracle_lam or 0) for e in edges
            ), f"{mode} ({context})"
            # Completeness + order vs the rebuilt oracle.
            assert [
                _rendered(live, e) for e in edges
            ] == oracle_walks, f"{mode} vs rebuild ({context})"
            per_mode[mode] = edges
        # The two live modes agree edge-for-edge.
        assert per_mode["iterative"] == per_mode["memoryless"], context

        # The packed column: the façade answers above came from packed
        # annotations (possibly *cached* across earlier mutation
        # batches — exactly the entries fine-grained invalidation chose
        # to keep).  Replay the query cold on the live graph through
        # the paper-structure oracle pipeline and hold raw-edge-id order
        # identical: a stale-but-kept packed annotation or a packed/
        # dict layout divergence both fail here.
        ref_cq = compile_query(live, nfas[expression])
        ref_ann = annotate_reference(
            ref_cq, live.resolve_vertex(source), live.resolve_vertex(target)
        )
        assert ref_ann.lam == oracle_lam, f"reference λ ({context})"
        ref_edges = [
            w.edges
            for w in enumerate_walks_recursive(
                live,
                trim_maps(live, ref_ann),
                ref_ann.lam,
                live.resolve_vertex(target),
                ref_ann.target_states,
            )
        ]
        assert ref_edges == per_mode["iterative"], (
            f"packed cached pipeline differs from mapping replay ({context})"
        )

        # Merged == as-written, on the mutated overlay.
        written = compile_epsilon_free(live, nfas[expression])
        assert packed_walks(
            written, live.resolve_vertex(source), live.resolve_vertex(target)
        ) == (oracle_lam, per_mode["iterative"]), (
            f"merged compile differs from the automaton as written ({context})"
        )

        # The semantics column: restricted and any-walk answers must
        # track the mutated graph too.  Their cache entries (plan and
        # annotation, keyed with the restriction) ride the same
        # label-footprint invalidation as the walks entries — a stale
        # trails/simple/any result after an interleaved batch fails
        # against the rebuilt-from-scratch oracle here.
        for rkind in ("trails", "simple"):
            try:
                rlam, rset = oracle_restricted_set(
                    frozen,
                    nfas[expression],
                    frozen.resolve_vertex(source),
                    frozen.resolve_vertex(target),
                    rkind,
                    max_walks=_RESTRICTED_BUDGET,
                )
            except RuntimeError:  # Pathological step: skip this column.
                continue
            result = (
                db.query(expression)
                .from_(source).to(target)
                .semantics(rkind)
                .run()
            )
            edges = [row.walk.edges for row in result]
            assert result.lam == rlam, f"{rkind} rλ ({context})"
            assert len(set(edges)) == len(edges), f"{rkind} ({context})"
            assert sorted(_rendered(live, e) for e in edges) == sorted(
                _rendered(frozen, e) for e in rset
            ), f"{rkind} vs rebuild ({context})"

        rows = (
            db.query(expression).from_(source).to(target).any_walk()
            .run().all()
        )
        if oracle_lam is None:
            assert rows == [], f"any-walk on empty instance ({context})"
        else:
            assert len(rows) == 1, f"any-walk row count ({context})"
            witness = rows[0].walk.edges
            assert len(witness) == oracle_lam, f"any-walk λ ({context})"
            assert oracle_walk_matches(
                live,
                nfas[expression],
                witness,
                live.resolve_vertex(source),
                live.resolve_vertex(target),
            ), f"any-walk witness invalid on the live graph ({context})"

    # The interleaving draw must exercise both kinds of step over the
    # suite; individual cases may legitimately be query- or
    # mutation-only, so only guard against degenerate *generators*.
    assert mutations + queries == _N_STEPS


@pytest.mark.parametrize("case", range(N_CASES))
def test_deepen_after_unrelated_batch(case: int) -> None:
    seed = SEED_BASE + 90_000 + case
    rng = random.Random(seed)
    base = _random_graph(rng)
    expression = _random_regex(rng)
    n = base.vertex_count
    source, t1 = rng.randrange(n), rng.randrange(n)
    # New vertices, and edges on labels outside the query's alphabet —
    # out of, into and between the base vertices and the new ones.
    names = [f"v{v}" for v in range(n)] + ["w0", "w1"]
    ops = [AddVertex("w0"), AddVertex("w1")] + [
        AddEdge(rng.choice(names), rng.choice(names), (rng.choice(_EXTRA_LABELS),))
        for _ in range(4)
    ]
    _check_deepen_after_batch(base, expression, source, t1, ops, seed)


#: Hub cases of the deepen-after-batch column.
_HUB_CASES = 20


@pytest.mark.parametrize("case", range(_HUB_CASES))
def test_deepen_after_unrelated_batch_on_a_hub(case: int) -> None:
    """The same column over :func:`~tests.conftest.hub_graph` with an
    ``n0`` in-edge first at every vertex: the batch removes those, so
    the deepening runs over tombstones — ``In`` slots that keep the
    ``TgtIdx`` of the clique's edges — and takes its bottom-up levels
    through the epoch's in-CSR, which holds no tombstone."""
    seed = SEED_BASE + 95_000 + case
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    base = hub_graph(
        [set(rng.sample(("b", "c"), rng.randint(1, 2))) for _ in range(n)],
        extra=[(rng.randrange(n), v, ("n0",)) for v in range(n)],
    )
    expression = rng.choice(HUB_QUERIES)
    source, t1 = rng.randrange(n), rng.randrange(n)
    ops = [RemoveEdge(e) for e in range(n)] + [
        AddVertex("w0"),
        AddEdge("w0", f"v{rng.randrange(n)}", ("n1",)),
    ]
    _check_deepen_after_batch(base, expression, source, t1, ops, seed)


def _check_deepen_after_batch(base, expression, source, t1, ops, seed) -> None:
    nfa = regex_to_nfa(expression)
    context = f"seed={seed} regex={expression!r} s={source} t1={t1}"

    live = LiveGraph(base)
    mt = MultiTargetShortestWalks(
        live, nfa, source, compiled=compile_query(live, nfa)
    )
    mt.preprocess(t1)
    live.apply(ops)

    # Answers: every target of the mutated graph, against a rebuild.
    frozen = live.to_graph()
    rebuilt = {}
    for t in live.vertices():
        name = live.vertex_name(t)
        engine = DistinctShortestWalks(frozen, nfa, source, name)
        rebuilt[name] = engine.lam
        assert mt.lam_for(name) == engine.lam, f"λ of {name} ({context})"
        assert [_rendered(live, w.edges) for w in mt.walks_to(name)] == [
            _rendered(frozen, w.edges) for w in engine.enumerate()
        ], f"walks to {name} ({context})"

    # Columns: the rebuild's, over the key space the entry was first
    # built for (the new vertices are unreachable: their slots stay -1).
    mt.settle()
    assert mt.annotation.saturated, context
    cq = compile_query(live, nfa)
    assert cq.n_states == mt.annotation.n_states, context
    saturated = annotate(cq, live.resolve_vertex(source), saturate=True)
    keys = len(mt.annotation.dist)
    assert saturated.dist[:keys] == mt.annotation.dist, context
    assert set(saturated.dist[keys:]) <= {-1}, context
    assert node_cells(mt.annotation) == node_cells(saturated), context

    # The façade: the batch evicts nothing, and the kept entry deepens.
    # (No compaction: it renumbers edge ids and purges by design.)
    db = Database(LiveGraph(base))
    query = db.query(expression).from_(source)
    query.to(t1).run().all()
    assert db.mutate(ops, compact=False).evicted_annotations == 0, context
    assert query.to_all().targets() == [
        (name, lam) for name, lam in rebuilt.items() if lam is not None
    ], context
    stats = db.cache_stats()["annotation_cache"]
    assert (stats["misses"], stats["hits"]) == (1, 1), context


def test_interleaving_draws_mix() -> None:
    """Across the configured seed range, both step kinds occur often."""
    rng_hits = {"mutation": 0, "query": 0}
    for case in range(min(N_CASES, 50)):
        rng = random.Random(SEED_BASE + case)
        _random_graph(rng)
        for _ in range(_N_STEPS):
            if rng.random() < 0.45:
                rng_hits["mutation"] += 1
            else:
                rng_hits["query"] += 1
    assert rng_hits["mutation"] > 0 and rng_hits["query"] > 0
