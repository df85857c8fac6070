"""Randomized differential testing: engine modes + façade vs the oracle.

Each case draws a random (graph, regex, source, target) instance from a
*seeded* PRNG — no hypothesis shrinking, no example database: the same
seed always produces the same instance, which is what lets CI run a
fixed seed matrix (see ``.github/workflows/ci.yml``) and lets a failure
be replayed locally with::

    DIFF_SEED_BASE=<base> PYTHONPATH=src python -m pytest \
        "tests/property/test_differential.py::test_modes_agree[<case>]"

Per case, every engine mode (``iterative``, ``memoryless``, ``auto``)
and — as the matrix's fourth column, ``recursive`` — the paper's own
pipeline (:mod:`repro.baselines.paper_pipeline`: map-building
``annotate_reference`` → dict ``Trim`` → the recursive ``Enumerate``
verbatim) is checked against the brute-force oracle
(:mod:`repro.baselines.oracle` — machinery disjoint from the core
algorithm) for

* **distinctness** — no walk is emitted twice;
* **shortestness** — every output has length λ (= the oracle's λ);
* **completeness** — the output *set* is exactly the oracle's answer
  set;

and the modes are checked against *each other* on output order:
``iterative``, ``recursive`` and ``memoryless`` are guaranteed by the
paper to produce the same DFS order (children by increasing
``TgtIdx``), and ``auto`` *is* ``iterative`` at the engine tier.  Where
the input lies in the simple setting (single-labeled, deterministic),
the folklore product-BFS baseline is compared as a set — it need not
share the order.

The engine modes all execute over the CSR-packed annotation arrays —
the only storage :mod:`repro.core` has — while the ``recursive`` column
shares no structure with them (dicts, queue objects, cons-lists), so
their agreement in λ **and** output order checks the packed layout to
be behaviorally invisible on every random instance.

The **merged == as-written** column: the engines run the same-past
quotient ``compile_query`` emits; the packed pipeline run cold over
``compile_epsilon_free`` — the automaton as written, which is also what
the ``recursive`` column compiles — must give the same λ and the same
walk *sequence* (the cheapest-walk leg repeats it on the costed copy).

The **resumed** column: for every case and each general mode,
``enumerate(resume_after=w_k)`` — k drawn from a PRNG derived from the
case seed, plus the last output — must yield exactly the one-shot tail
``w_{k+1}…``, and a façade cursor produced under one mode must resume
identically under the other (the cheapest-walk leg repeats that over a
randomly costed copy of the case's graph).

On top of the four columns, every case runs once more through
the ``repro.api`` **façade** (``Database(graph).query(...)``) — the
path the service, the serve workers and the CLI all share — and
a second identical façade query must report plan + annotation cache
hits.  Separate (smaller) case sets check the façade's *new* endpoint
shapes against the same brute-force oracle: ``all_pairs()`` per pair,
and ``from_any([...])`` against the min-λ union over the per-source
oracle answer sets (the virtual super-source semantics).

The **deepened == saturated** column: one multi-target entry built for
a drawn target ``t1`` (its BFS stops at ``t1``'s level), then asked
about a drawn ``t2``, then about every target, gives at each step the
one-shot λ and walk sequence; once deepened to exhaustion it holds the
saturating build's ``dist`` exactly, and the same cells node for node —
pulled in whatever order the targets asked.  The façade repeats the sequence on one cache entry.

The number of cases and the seed base are environment knobs
(``DIFF_CASES``, default 200; ``DIFF_FACADE_CASES``, default 40;
``DIFF_SEED_BASE``, default 0) so the CI matrix can cover disjoint
seed ranges without code changes.
"""

from __future__ import annotations

import os
import random
from itertools import islice
from typing import List, Tuple

import pytest

from repro.api import Database
from repro.automata import regex_to_nfa
from repro.baselines.oracle import (
    costed_copy,
    oracle_answer_set,
    oracle_lam,
    oracle_restricted_set,
    oracle_walk_matches,
    random_graph,
    random_regex,
)
from repro.baselines.simple import SimpleShortestWalks
from repro.baselines.paper_pipeline import (
    annotate_reference,
    enumerate_walks_recursive,
    trim_maps,
)
from repro.core.annotate import annotate
from repro.core.compile import compile_epsilon_free, compile_query
from repro.core.engine import DistinctShortestWalks
from repro.core.enumerate import enumerate_walks
from repro.core.multi_target import MultiTargetShortestWalks
from repro.core.restricted import restriction_predicate
from repro.core.trim import trim
from repro.query.plan import simple_eligible

from tests.conftest import HUB_QUERIES, hub_graph, node_cells, packed_walks

_MODES = ("iterative", "memoryless", "auto")

SEED_BASE = int(os.environ.get("DIFF_SEED_BASE", "0"))
N_CASES = int(os.environ.get("DIFF_CASES", "200"))
N_FACADE_CASES = int(os.environ.get("DIFF_FACADE_CASES", "40"))

#: Instances whose λ exceeds this are skipped: the oracle's exhaustive
#: length-λ DFS is exponential in λ.  Random 6-vertex graphs rarely
#: have deep shortest walks, so the skip budget stays tiny (asserted
#: by :func:`test_skip_budget_not_exhausted`).
_MAX_ORACLE_LAM = 10
_ORACLE_WALK_BUDGET = 60_000

_skips: List[int] = []
_runs: List[int] = []


def _draw_case(seed: int):
    # Generators live in repro.baselines.oracle now (previously
    # copy-pasted per harness); the draw sequence is unchanged, so
    # historical seeds replay the same instances.
    rng = random.Random(seed)
    graph = random_graph(rng)
    expression = random_regex(rng)
    source = rng.randrange(graph.vertex_count)
    target = rng.randrange(graph.vertex_count)
    return graph, expression, source, target


_GENERAL_MODES = ("iterative", "memoryless")


def _resume_points(seed: int, n_outputs: int):
    """Positions k to resume after: one drawn, plus the last output."""
    rng = random.Random(seed ^ 0x2E50)
    return sorted({rng.randrange(n_outputs), n_outputs - 1})


def _check_facade_cursor_portability(query, sequence, k, context) -> None:
    """A page cursor cut after output ``k`` under one general mode
    resumes to the one-shot tail under the other (and under itself)."""
    for producer in _GENERAL_MODES:
        page = query.mode(producer).limit(k + 1).run()
        assert [row.walk.edges for row in page] == sequence[: k + 1], context
        token = page.next_cursor
        if k + 1 == len(sequence):
            assert token is None, f"cursor past the last output ({context})"
            continue
        for consumer in _GENERAL_MODES:
            rest = query.mode(consumer).cursor(token).run()
            assert [row.walk.edges for row in rest] == sequence[k + 1:], (
                f"cursor from {producer} resumed under {consumer} at "
                f"k={k} ({context})"
            )


@pytest.mark.parametrize("case", range(N_CASES))
def test_modes_agree(case: int) -> None:
    seed = SEED_BASE + case
    graph, expression, source, target = _draw_case(seed)
    nfa = regex_to_nfa(expression)
    context = (
        f"seed={seed} |V|={graph.vertex_count} |E|={graph.edge_count} "
        f"regex={expression!r} s={source} t={target}"
    )

    lam = oracle_lam(graph, nfa, source, target)
    if lam is not None and lam > _MAX_ORACLE_LAM:
        _skips.append(seed)
        pytest.skip(f"λ={lam} beyond the oracle budget ({context})")
    try:
        expected = oracle_answer_set(
            graph, nfa, source, target, max_walks=_ORACLE_WALK_BUDGET
        )
    except RuntimeError:
        _skips.append(seed)
        pytest.skip(f"oracle walk budget exhausted ({context})")
    _runs.append(seed)

    outputs = {}

    def check(mode: str, mode_lam, walks) -> None:
        edges: List[Tuple[int, ...]] = [w.edges for w in walks]
        # λ agreement with the oracle.
        assert mode_lam == lam, f"{mode} λ mismatch ({context})"
        # Distinctness: each answer exactly once.
        assert len(set(edges)) == len(edges), (
            f"{mode} emitted duplicates ({context})"
        )
        # Shortestness: every output has length λ.
        assert all(len(e) == (lam or 0) for e in edges), (
            f"{mode} emitted a non-shortest walk ({context})"
        )
        # Completeness + soundness: exact answer-set equality.
        assert sorted(edges) == expected, (
            f"{mode} answer set differs from the oracle ({context})"
        )
        # Walk endpoints are the queried pair.
        for walk in walks:
            assert walk.src == source and walk.tgt == target, (
                f"{mode} walk has wrong endpoints ({context})"
            )
        outputs[mode] = edges

    for mode in _MODES:
        engine = DistinctShortestWalks(graph, nfa, source, target, mode=mode)
        check(mode, engine.lam, list(engine.enumerate()))

    # The fourth column: the paper's pipeline on the paper's structures
    # (map-building annotate → dict trim → recursive DFS on queue
    # objects) and on the automaton as written.  The engines above all
    # ran on the packed arrays; this column shares none of that code.
    written = compile_epsilon_free(graph, nfa)
    ref_ann = annotate_reference(written, source, target)
    check(
        "recursive",
        ref_ann.lam,
        list(
            enumerate_walks_recursive(
                graph, trim_maps(graph, ref_ann), ref_ann.lam, target,
                ref_ann.target_states,
            )
        ),
    )

    # Output-order agreement where the paper guarantees it: the general
    # modes and the transcription share the DFS order — the guard that
    # the packed representation is a pure layout change…
    assert outputs["iterative"] == outputs["recursive"], (
        f"packed pipeline order differs from the paper pipeline ({context})"
    )
    assert outputs["iterative"] == outputs["memoryless"], context
    # …and "auto" is the iterative engine, on every case.
    assert outputs["auto"] == outputs["iterative"], context
    # Merged == as-written: the one packed pipeline over both compiles.
    assert (
        packed_walks(written, source, target)
        == packed_walks(compile_query(graph, nfa), source, target)
        == (lam, outputs["iterative"])
    ), f"merged compile differs from the automaton as written ({context})"
    # The folklore product-BFS baseline, where its setting applies:
    # another traversal order, the same set.
    if simple_eligible(graph, nfa):
        baseline = SimpleShortestWalks(graph, nfa, source, target)
        assert baseline.lam == lam, context
        assert sorted(w.edges for w in baseline.enumerate()) == expected, (
            f"simple-setting baseline differs from the oracle ({context})"
        )

    # The resumed column: re-positioning the DFS after output k yields
    # exactly the one-shot tail, whichever general mode does it.
    sequence = outputs["iterative"]
    resume_points = _resume_points(seed, len(sequence)) if sequence else []
    for k in resume_points:
        for mode in _GENERAL_MODES:
            engine = DistinctShortestWalks(
                graph, nfa, source, target, mode=mode
            )
            tail = [w.edges for w in engine.enumerate(resume_after=sequence[k])]
            assert tail == sequence[k + 1:], (
                f"{mode} resumed after output {k} differs from the "
                f"one-shot tail ({context})"
            )

    # The façade column: the cached Database path (what the service,
    # the serve workers and the CLI route through) must agree with the engines
    # on λ, the answer set, *and* the general-mode DFS order.
    db = Database(graph)
    query = db.query(expression).from_(source).to(target)
    for k in resume_points:
        _check_facade_cursor_portability(query, sequence, k, context)
    result = query.run()
    facade = [row.walk.edges for row in result]
    assert result.lam == lam, f"façade λ mismatch ({context})"
    assert facade == outputs["iterative"], (
        f"façade output differs from the engines ({context})"
    )
    # A repeat of the identical query must be served from both caches.
    repeat = query.run()
    assert [row.walk.edges for row in repeat] == facade, context
    assert repeat.stats["cached"] == {"plan": True, "annotation": True}, (
        f"façade repeat missed the caches ({context})"
    )


@pytest.mark.parametrize("case", range(N_FACADE_CASES))
def test_cheapest_resumed_equals_one_shot(case: int) -> None:
    """The resumed column's cheapest leg: cost budgets instead of
    lengths, same seek.  Edge ids of the costed copy equal the case
    graph's, so a failure replays on the same instance."""
    seed = SEED_BASE + 50_000 + case
    graph, expression, source, target = _draw_case(seed)
    costed = costed_copy(graph, random.Random(seed ^ 0xC057))
    context = f"seed={seed} regex={expression!r} s={source} t={target}"

    query = Database(costed).query(expression).cheapest()
    query = query.from_(source).to(target)
    one_shot = {
        mode: [row.walk.edges for row in query.mode(mode).run()]
        for mode in _GENERAL_MODES
    }
    sequence = one_shot["iterative"]
    assert one_shot["memoryless"] == sequence, context
    assert len({sum(costed.cost(e) for e in w) for w in sequence}) <= 1
    # Merged == as-written under Dijkstra budgets.
    nfa = regex_to_nfa(expression)
    merged = packed_walks(compile_query(costed, nfa), source, target, True)
    written = compile_epsilon_free(costed, nfa)
    assert merged[1] == sequence, context
    assert merged == packed_walks(written, source, target, True), (
        f"merged compile differs from the automaton as written ({context})"
    )
    if sequence:
        for k in _resume_points(seed, len(sequence)):
            _check_facade_cursor_portability(query, sequence, k, context)


#: Walks compared per target in the deepened column: answer sets grow
#: exponentially with λ, and the column checks the structures under
#: them, held exactly below.
_DEEPENED_WALKS = 500


@pytest.mark.parametrize("case", range(N_CASES))
def test_deepened_equals_saturated(case: int) -> None:
    seed = SEED_BASE + 60_000 + case
    graph, expression, source, t1 = _draw_case(seed)
    t2 = random.Random(seed ^ 0xDEE9).randrange(graph.vertex_count)
    _check_deepened_equals_saturated(graph, expression, source, t1, t2, seed)


#: Hub cases of the deepened column: few, each a clique of ``a`` edges.
_HUB_CASES = 20


@pytest.mark.parametrize("case", range(_HUB_CASES))
def test_deepened_equals_saturated_on_a_hub(case: int) -> None:
    """The deepened column over :func:`~tests.conftest.hub_graph`,
    whose levels go bottom-up: the entry deepens across them, and the
    saturating build takes them in one run."""
    seed = SEED_BASE + 65_000 + case
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    graph = hub_graph(
        [set(rng.sample(("b", "c"), rng.randint(1, 2))) for _ in range(n)]
    )
    expression = rng.choice(HUB_QUERIES + (random_regex(rng),))
    source, t1, t2 = (rng.randrange(n) for _ in range(3))
    _check_deepened_equals_saturated(graph, expression, source, t1, t2, seed)


def _check_deepened_equals_saturated(
    graph, expression: str, source: int, t1: int, t2: int, seed: int
) -> None:
    nfa = regex_to_nfa(expression)
    cq = compile_query(graph, nfa)
    context = f"seed={seed} regex={expression!r} s={source} t1={t1} t2={t2}"

    def one_shot(t: int):
        ann = annotate(cq, source, t)
        walks = enumerate_walks(
            graph, trim(graph, ann), ann.lam, t, ann.target_states
        )
        return ann.lam, [w.edges for w in islice(walks, _DEEPENED_WALKS)]

    mt = MultiTargetShortestWalks(graph, nfa, source, compiled=cq)
    mt.preprocess(t1)
    assert (
        mt.annotation.dist == annotate(cq, source, t1).dist
    ), f"the first build did not stop at t1's level ({context})"
    for t in (t1, t2, *graph.vertices()):
        got = mt.lam_for(t), [
            w.edges for w in islice(mt.walks_to(t), _DEEPENED_WALKS)
        ]
        assert got == one_shot(t), f"target {t} ({context})"
    reached = mt.reached_targets()
    assert reached == [
        t for t in graph.vertices() if one_shot(t)[0] is not None
    ], context

    # Exhausted: the saturating build's dist, the same cells per node,
    # and no traversal state beside them.
    assert mt.annotation.saturated and mt._bfs is None, context
    saturated = annotate(cq, source, saturate=True)
    assert mt.annotation.dist == saturated.dist, context
    assert node_cells(mt.annotation) == node_cells(saturated), context

    # The façade: one cache entry, built for t1, deepened by the rest.
    db = Database(graph)
    query = db.query(expression).from_(source)
    for t in (t1, t2):
        result = query.to(t).run()
        rows = [row.walk.edges for row in islice(result, _DEEPENED_WALKS)]
        assert (result.lam, rows) == one_shot(t), f"façade {t} ({context})"
    assert query.to_all().targets() == [
        (graph.vertex_name(t), mt.lam_for(t)) for t in reached
    ], context
    stats = db.cache_stats()["annotation_cache"]
    assert (stats["misses"], stats["hits"]) == (1, 2), context
    assert stats["deepens"] <= 2, context


def _oracle_pair(graph, nfa, source: int, target: int):
    """(λ, sorted answer set) per the oracle; skips oversize cases."""
    lam = oracle_lam(graph, nfa, source, target)
    if lam is not None and lam > _MAX_ORACLE_LAM:
        pytest.skip(f"λ={lam} beyond the oracle budget")
    if lam is None:
        return None, []
    try:
        answers = oracle_answer_set(
            graph, nfa, source, target, max_walks=_ORACLE_WALK_BUDGET
        )
    except RuntimeError:
        pytest.skip("oracle walk budget exhausted")
    return lam, answers


@pytest.mark.parametrize("case", range(N_FACADE_CASES))
def test_facade_all_pairs_matches_oracle(case: int) -> None:
    """``all_pairs()`` == the oracle run over every (s, t) pair."""
    seed = SEED_BASE + 10_000 + case
    graph, expression, _, _ = _draw_case(seed)
    nfa = regex_to_nfa(expression)
    context = f"seed={seed} regex={expression!r}"

    expected = {}
    for s in graph.vertices():
        for t in graph.vertices():
            lam, answers = _oracle_pair(graph, nfa, s, t)
            if lam is not None:
                name_s = graph.vertex_name(s)
                name_t = graph.vertex_name(t)
                expected[(name_s, name_t)] = (lam, answers)

    got = {}
    for row in Database(graph).query(expression).all_pairs().run():
        bucket = got.setdefault((row.source, row.target), [])
        bucket.append(row.walk.edges)
        assert row.lam == expected[(row.source, row.target)][0], context
    assert set(got) == set(expected), context
    for pair, edges in got.items():
        assert len(set(edges)) == len(edges), f"{pair} duplicates ({context})"
        assert sorted(edges) == expected[pair][1], f"{pair} ({context})"


@pytest.mark.parametrize("case", range(N_FACADE_CASES))
def test_facade_from_any_matches_oracle(case: int) -> None:
    """``from_any([...])`` == min-λ union of per-source oracle sets.

    The virtual super-source semantics: a walk is an answer iff it
    starts at one of the given sources and its length equals the
    minimum λ over all of them.
    """
    seed = SEED_BASE + 20_000 + case
    graph, expression, _, target = _draw_case(seed)
    nfa = regex_to_nfa(expression)
    rng = random.Random(seed ^ 0x5EED)
    n = graph.vertex_count
    sources = rng.sample(range(n), rng.randint(1, n))
    context = f"seed={seed} regex={expression!r} S={sources} t={target}"

    per_source = {s: _oracle_pair(graph, nfa, s, target) for s in sources}
    lams = [lam for lam, _ in per_source.values() if lam is not None]
    global_lam = min(lams) if lams else None
    expected = sorted(
        (str(graph.vertex_name(s)), e)
        for s, (lam, answers) in per_source.items()
        if lam == global_lam and lam is not None
        for e in answers
    )

    result = (
        Database(graph)
        .query(expression)
        .from_any([graph.vertex_name(s) for s in sources])
        .to(target)
        .run()
    )
    rows = result.all()
    assert result.lam == global_lam, context
    got = sorted((str(row.source), row.walk.edges) for row in rows)
    assert len(set(got)) == len(got), f"duplicates ({context})"
    assert got == expected, context


@pytest.mark.parametrize("case", range(N_FACADE_CASES))
def test_facade_from_any_to_all_matches_oracle(case: int) -> None:
    """``from_any([...]).to_all()``: per target, the min-λ union."""
    seed = SEED_BASE + 30_000 + case
    graph, expression, _, _ = _draw_case(seed)
    nfa = regex_to_nfa(expression)
    rng = random.Random(seed ^ 0x0DDB)
    n = graph.vertex_count
    sources = rng.sample(range(n), rng.randint(1, min(n, 3)))
    context = f"seed={seed} regex={expression!r} S={sources}"

    expected = {}
    for t in graph.vertices():
        per_source = {s: _oracle_pair(graph, nfa, s, t) for s in sources}
        lams = [lam for lam, _ in per_source.values() if lam is not None]
        if not lams:
            continue
        global_lam = min(lams)
        expected[str(graph.vertex_name(t))] = sorted(
            (str(graph.vertex_name(s)), e)
            for s, (lam, answers) in per_source.items()
            if lam == global_lam
            for e in answers
        )

    got = {}
    for row in (
        Database(graph)
        .query(expression)
        .from_any([graph.vertex_name(s) for s in sources])
        .to_all()
        .run()
    ):
        got.setdefault(str(row.target), []).append(
            (str(row.source), row.walk.edges)
        )
    assert set(got) == set(expected), context
    for t, pairs in got.items():
        assert sorted(pairs) == expected[t], f"target {t} ({context})"


@pytest.mark.parametrize("case", range(N_CASES))
def test_semantics_matrix(case: int) -> None:
    """Every semantics mode × engine mode vs its own oracle.

    The semantics column of the differential matrix: per case, the
    façade runs ``walks`` / ``trails`` / ``simple`` / ``any`` under
    each engine mode and is checked against the matching ground truth
    (:mod:`repro.baselines.oracle`) for distinctness,
    restriction-validity, completeness, and — where defined — output
    order (the restricted filter preserves the paper's DFS order; the
    fallback DFS and the any-walk witness are deterministic).
    """
    seed = SEED_BASE + 40_000 + case
    graph, expression, source, target = _draw_case(seed)
    nfa = regex_to_nfa(expression)
    context = (
        f"seed={seed} |V|={graph.vertex_count} |E|={graph.edge_count} "
        f"regex={expression!r} s={source} t={target}"
    )

    walk_lam = oracle_lam(graph, nfa, source, target)
    if walk_lam is not None and walk_lam > _MAX_ORACLE_LAM:
        _skips.append(seed)
        pytest.skip(f"λ={walk_lam} beyond the oracle budget ({context})")
    try:
        walk_set = oracle_answer_set(
            graph, nfa, source, target, max_walks=_ORACLE_WALK_BUDGET
        )
        restricted = {
            kind: oracle_restricted_set(
                graph, nfa, source, target, kind,
                max_walks=_ORACLE_WALK_BUDGET,
            )
            for kind in ("trails", "simple")
        }
    except RuntimeError:
        _skips.append(seed)
        pytest.skip(f"oracle walk budget exhausted ({context})")
    _runs.append(seed)

    db = Database(graph)
    base = db.query(expression).from_(source).to(target)
    order: dict = {}
    for mode in _MODES:
        # walks — the unrestricted baseline column.
        result = base.mode(mode).run()
        edges = [row.walk.edges for row in result]
        assert result.lam == walk_lam, f"walks λ ({mode}, {context})"
        assert sorted(edges) == walk_set, f"walks set ({mode}, {context})"

        # trails / simple — rλ + exact restricted answer sets.
        for kind, (rlam, rset) in restricted.items():
            result = base.semantics(kind).mode(mode).run()
            edges = [row.walk.edges for row in result]
            assert result.lam == rlam, f"{kind} rλ ({mode}, {context})"
            assert len(set(edges)) == len(edges), (
                f"{kind} duplicates ({mode}, {context})"
            )
            pred = restriction_predicate(kind, graph)
            assert all(pred(e, source) for e in edges), (
                f"{kind} emitted a restriction-violating walk "
                f"({mode}, {context})"
            )
            assert sorted(edges) == rset, (
                f"{kind} answer set differs from the oracle "
                f"({mode}, {context})"
            )
            order.setdefault(kind, {})[mode] = edges

        # any — at most one output: a valid witness of walk length λ.
        result = base.any_walk().mode(mode).run()
        rows = result.all()
        if walk_lam is None:
            assert rows == [] and result.lam is None, (
                f"any-walk on an empty instance ({mode}, {context})"
            )
        else:
            assert len(rows) == 1, f"any-walk row count ({mode}, {context})"
            witness = rows[0].walk.edges
            assert result.lam == walk_lam == len(witness), (
                f"any-walk witness length ({mode}, {context})"
            )
            assert oracle_walk_matches(
                graph, nfa, witness, source, target
            ), f"any-walk witness invalid ({mode}, {context})"
            order.setdefault("any", {})[mode] = [witness]

    # Order where defined: the general modes share the DFS order, the
    # restricted streams inherit it (filter) or use the deterministic
    # fallback DFS, and the any-walk witness is a pure function of the
    # instance — so every engine mode must produce identical output.
    for kind, per_mode in order.items():
        assert per_mode["iterative"] == per_mode["auto"], (
            f"{kind} order ({context})"
        )
        assert per_mode["iterative"] == per_mode["memoryless"], (
            f"{kind} order ({context})"
        )


def test_oracle_non_degeneracy() -> None:
    """Each restricted oracle disagrees with plain walks somewhere.

    Guards the matrix against silent degeneration: if random instances
    never exercised a semantics difference, the trails/simple/any
    columns would be vacuous re-checks of the walks column.  The probe
    uses a fixed seed range (independent of ``DIFF_SEED_BASE``) so the
    guarantee holds in every CI matrix entry.
    """
    need = {"trails", "simple", "any"}
    for probe in range(2_000):
        if not need:
            break
        rng = random.Random(1_000_000 + probe)
        graph = random_graph(rng)
        expression = random_regex(rng)
        source = rng.randrange(graph.vertex_count)
        target = rng.randrange(graph.vertex_count)
        nfa = regex_to_nfa(expression)
        lam = oracle_lam(graph, nfa, source, target)
        if lam is None or lam > _MAX_ORACLE_LAM:
            continue
        try:
            walk_set = oracle_answer_set(
                graph, nfa, source, target, max_walks=_ORACLE_WALK_BUDGET
            )
            if "any" in need and len(walk_set) > 1:
                need.discard("any")  # One witness ≠ the full answer set.
            for kind in ("trails", "simple"):
                if kind in need:
                    rlam, rset = oracle_restricted_set(
                        graph, nfa, source, target, kind,
                        max_walks=_ORACLE_WALK_BUDGET,
                    )
                    if (rlam, rset) != (lam, walk_set):
                        need.discard(kind)
        except RuntimeError:
            continue
    assert not need, (
        f"oracles degenerate on the probe range: {sorted(need)} never "
        "disagreed with plain walks"
    )


def test_skip_budget_not_exhausted() -> None:
    """The harness must actually exercise (almost) all of its cases.

    Runs after the parametrized cases (pytest keeps file order); if
    some future change to the generators made most instances skip, the
    differential coverage would silently evaporate — fail instead.
    """
    total = len(_runs) + len(_skips)
    if total == 0:
        pytest.skip("differential cases did not run (filtered out?)")
    assert len(_runs) >= 0.9 * total, (
        f"only {len(_runs)}/{total} differential cases ran; "
        f"skipped seeds: {_skips[:10]}"
    )
