"""EXP-EXT — the Section 5.3 extensions.

* **one-to-many**: one saturating preprocessing + per-target
  enumerations vs an independent engine per target;
* **cheapest walks**: Dijkstra annotation on costed graphs — answers
  verified against the BFS engine on unit costs, timings reported on
  random costs;
* **multiplicities**: run counting — one suffix-sharing counter per
  stream, in the engine and in a façade page — must not change the
  delay's order of magnitude.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.api import Database
from repro.automata.nfa import NFA
from repro.bench import measure_delays
from repro.core.cheapest import DistinctCheapestWalks
from repro.core.engine import DistinctShortestWalks
from repro.core.multi_target import MultiTargetShortestWalks
from repro.graph.builder import GraphBuilder
from repro.workloads.fraud import fraud_network
from repro.workloads.worstcase import diamond_chain


def _fraud_query():
    return "(h | w | c)* s (h | w | c | s)*"


def test_multi_target_amortizes_preprocessing(benchmark, print_table):
    graph = fraud_network(400, 2_400, seed=3)
    query = _fraud_query()

    started = time.perf_counter()
    mt = MultiTargetShortestWalks(graph, query, "acct0")
    mt.preprocess()
    shared_preprocessing = time.perf_counter() - started
    targets = mt.reached_targets()[:40]

    started = time.perf_counter()
    multi_counts = {t: sum(1 for _ in mt.walks_to(t)) for t in targets}
    multi_total = time.perf_counter() - started + shared_preprocessing

    started = time.perf_counter()
    single_counts = {}
    for t in targets:
        engine = DistinctShortestWalks(graph, query, "acct0", t)
        single_counts[t] = engine.count()
    single_total = time.perf_counter() - started

    assert multi_counts == single_counts
    print_table(
        "EXP-EXT-MT: 40 targets, shared vs per-target preprocessing",
        ["strategy", "total time", "answers"],
        [
            [
                "multi-target (one Annotate)",
                f"{multi_total * 1e3:.1f} ms",
                sum(multi_counts.values()),
            ],
            [
                "independent engines",
                f"{single_total * 1e3:.1f} ms",
                sum(single_counts.values()),
            ],
        ],
    )
    benchmark.pedantic(
        lambda: sum(1 for _ in mt.walks_to(targets[0])),
        rounds=2,
        iterations=1,
    )
    assert multi_total < single_total, "shared preprocessing must win"


def test_cheapest_walks_random_costs(benchmark, print_table):
    rng = random.Random(17)
    builder = GraphBuilder()
    n = 300
    names = [f"v{i}" for i in range(n)]
    builder.add_vertices(names)
    for _ in range(1_800):
        builder.add_edge(
            rng.choice(names),
            rng.choice(names),
            [rng.choice(["a", "b"])],
            cost=rng.randint(1, 9),
        )
    # Ensure a costed route exists.
    previous = "v0"
    for i in range(4):
        builder.add_edge(previous, f"w{i}", ["a"], cost=2)
        previous = f"w{i}"
    builder.add_edge(previous, names[-1], ["a"], cost=2)
    graph = builder.build()

    nfa = NFA(1)
    nfa.add_transition(0, "a", 0)
    nfa.add_transition(0, "b", 0)
    nfa.set_initial(0)
    nfa.set_final(0)

    started = time.perf_counter()
    engine = DistinctCheapestWalks(graph, nfa, "v0", names[-1])
    walks = list(engine.enumerate())
    elapsed = time.perf_counter() - started

    assert walks
    assert all(w.cost() == engine.cheapest_cost for w in walks)
    benchmark.pedantic(
        lambda: list(
            DistinctCheapestWalks(graph, nfa, "v0", names[-1]).enumerate()
        ),
        rounds=2,
        iterations=1,
    )
    print_table(
        "EXP-EXT-CHEAP: distinct cheapest walks (Dijkstra annotation)",
        ["metric", "value"],
        [
            ["cheapest cost", engine.cheapest_cost],
            ["answers", len(walks)],
            ["edges of answers", walks[0].length],
            ["end-to-end time", f"{elapsed * 1e3:.1f} ms"],
        ],
    )


def test_multiplicity_overhead(benchmark, print_table):
    graph, nfa, s, t = diamond_chain(9, parallel=2, labels=("a", "b"))
    from repro.core.compile import compile_epsilon_free
    from repro.workloads.worstcase import wide_nfa

    # Both engine rows on the automaton as written: run counts are defined on
    # it, and the engine's own compile would run the "walks only" row
    # on two merged states against three counted ones.
    query = wide_nfa(3, ("a", "b"))
    engine = DistinctShortestWalks(
        graph, query, s, t, compiled=compile_epsilon_free(graph, query)
    )
    engine.preprocess()

    plain = measure_delays(engine.enumerate)
    with_counts = measure_delays(engine.enumerate_with_multiplicity)
    assert plain.outputs == with_counts.outputs == 2 ** 9

    benchmark.pedantic(
        lambda: sum(1 for _ in engine.enumerate_with_multiplicity()),
        rounds=2,
        iterations=1,
    )
    ratio = with_counts.mean_delay_s / max(plain.mean_delay_s, 1e-9)
    # The façade weighs a page's rows with the same one counter; its
    # rows run the query as text, compiled the façade's way.
    page = Database(graph).query("(a | b)*").from_(s).to(t)
    page.run().all()  # Warm the plan and annotation caches.
    facade_plain = measure_delays(page.run)
    facade_counts = measure_delays(page.with_multiplicity().run)
    assert facade_plain.outputs == facade_counts.outputs == 2 ** 9
    print_table(
        "EXP-EXT-MULT: multiplicity counting overhead (512 answers, as written)",
        ["mode", "mean delay", "max delay"],
        [
            [
                "walks only",
                f"{plain.mean_delay_s * 1e6:.1f} µs",
                f"{plain.max_delay_s * 1e6:.1f} µs",
            ],
            [
                "with multiplicities",
                f"{with_counts.mean_delay_s * 1e6:.1f} µs",
                f"{with_counts.max_delay_s * 1e6:.1f} µs",
            ],
            ["ratio", f"{ratio:.2f}x", ""],
            [
                "façade page, (a | b)*",
                f"{facade_plain.mean_delay_s * 1e6:.1f} µs",
                f"{facade_plain.max_delay_s * 1e6:.1f} µs",
            ],
            [
                "façade page with multiplicities",
                f"{facade_counts.mean_delay_s * 1e6:.1f} µs",
                f"{facade_counts.max_delay_s * 1e6:.1f} µs",
            ],
        ],
    )
    assert ratio < 25, "multiplicity counting changed the delay's order"


@pytest.mark.parametrize("extension", ["multi_target", "cheapest"])
def test_extensions_benchmark(benchmark, extension):
    if extension == "multi_target":
        graph = fraud_network(150, 900, seed=9)

        def run():
            mt = MultiTargetShortestWalks(graph, _fraud_query(), "acct0")
            return len(mt.reached_targets())

        benchmark(run)
    else:
        rng = random.Random(31)
        builder = GraphBuilder()
        names = [f"v{i}" for i in range(150)]
        builder.add_vertices(names)
        for _ in range(900):
            builder.add_edge(
                rng.choice(names),
                rng.choice(names),
                ["a"],
                cost=rng.randint(1, 5),
            )
        builder.add_edge("v0", "v149", ["a"], cost=50)
        graph = builder.build()
        nfa = NFA(1)
        nfa.add_transition(0, "a", 0)
        nfa.set_initial(0)
        nfa.set_final(0)

        def run():
            return DistinctCheapestWalks(graph, nfa, "v0", "v149").cheapest_cost

        benchmark(run)
