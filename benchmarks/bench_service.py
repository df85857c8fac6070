"""EXP-SERVICE — batched QueryService throughput: cached vs cold.

The serving claim behind the ``repro.service`` subsystem: on a
repeated-query workload, the two-level cache (plan + saturated
annotation, see :mod:`repro.service`) amortizes the compile/Annotate/
Trim pipeline across requests, so batch throughput beats cold
per-request execution by ≥2× (the ISSUE acceptance bar) while serving
the identical answer pages.

Workload: the transport network (hub-heavy, 3 labels), Q distinct
query texts × S sources × T targets, visited R times — a plan-cache
hit rate of (1 - 1/R) and an annotation hit rate of (1 - 1/(R·T)),
mimicking a production mix where a dashboard repeats a small set of
parameterized queries against a slowly changing graph.

Both sides run through the *same* ``QueryService.execute_batch`` code
path, requests in order; the cold side merely has both caches disabled
(capacity 0): the same engine, re-compiling and re-annotating per
request (a pair's Annotate stopping at its target, since nothing is
retained) — i.e. exactly what a non-caching server would do.

When ``BENCH_SERVICE_JSON`` names a file, the measured rows are dumped
there as JSON — that is how ``BENCH_service.json`` at the repo root is
produced.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Dict, List

from repro.service import QueryRequest, QueryService
from repro.workloads.transport import TRANSPORT_QUERIES, transport_network

#: The ISSUE's acceptance bar for the repeated-query batch.
SPEEDUP_TARGET = 2.0
#: Minimum plan-cache hit rate the workload must reach (ISSUE bar).
HIT_RATE_TARGET = 0.5

#: Wall-clock ratios are hardware-sensitive; CI sets
#: BENCH_SERVICE_STRICT=0 to keep the suite report-only on shared
#: runners (the measured margin is far above 2×, but a noisy neighbor
#: could squeeze one timed half).
STRICT = os.environ.get("BENCH_SERVICE_STRICT", "1") != "0"

_QUERIES = [
    TRANSPORT_QUERIES["ground_only"],
    TRANSPORT_QUERIES["fly_then_ground"],
    TRANSPORT_QUERIES["no_bus"],
    TRANSPORT_QUERIES["one_flight_max"],
]


def _workload(graph, repeats: int) -> List[QueryRequest]:
    """Q queries × S sources × T targets, the whole block R times."""
    sources = ["city0", "city1", "city2"]
    targets = [f"city{10 * i}" for i in range(1, 7)]
    block = [
        QueryRequest(query, source, target, limit=20)
        for query in _QUERIES
        for source in sources
        for target in targets
    ]
    return block * repeats


def _run_batch(service: QueryService, requests) -> List:
    responses = service.execute_batch(requests)
    bad = [r for r in responses if r.status == "error"]
    assert not bad, f"benchmark requests failed: {bad[0].error}"
    return responses


def _median_batch_seconds(make_service, requests, repeat: int = 3):
    """Median wall-clock of the batch on a *fresh* service per run."""
    times = []
    service = None
    for _ in range(repeat):
        service = make_service()
        t0 = time.perf_counter()
        responses = _run_batch(service, requests)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), service, responses


def test_service_throughput_cached_vs_cold(benchmark, print_table):
    graph = transport_network(n_cities=96, hub_fraction=0.7, seed=7)
    graph.warm_indexes()  # Both sides share the prebuilt CSR indexes.
    repeats = 4
    requests = _workload(graph, repeats)

    def cold_service() -> QueryService:
        service = QueryService(plan_cache_size=0, annotation_cache_size=0)
        service.register_graph("transport", graph, warm=False)
        return service

    def warm_service() -> QueryService:
        service = QueryService()
        service.register_graph("transport", graph, warm=False)
        return service

    cold_s, _, cold_responses = _median_batch_seconds(cold_service, requests)
    warm_s, warm, warm_responses = _median_batch_seconds(
        warm_service, requests
    )

    # Same answers on both sides, page for page.
    for cold_r, warm_r in zip(cold_responses, warm_responses):
        assert cold_r.lam == warm_r.lam
        assert [w["edges"] for w in cold_r.walks] == [
            w["edges"] for w in warm_r.walks
        ]

    stats = warm.stats()
    plan_hit_rate = stats["plan_cache"]["hit_rate"]
    ann_hit_rate = stats["annotation_cache"]["hit_rate"]
    speedup = cold_s / warm_s if warm_s else float("inf")
    n = len(requests)

    rows: List[Dict] = [
        {
            "workload": f"transport {len(_QUERIES)}q x {n // repeats}"
            f" pairs x{repeats}",
            "requests": n,
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "cold_rps": round(n / cold_s, 1),
            "warm_rps": round(n / warm_s, 1),
            "speedup": round(speedup, 2),
            "plan_hit_rate": round(plan_hit_rate, 4),
            "annotation_hit_rate": round(ann_hit_rate, 4),
        }
    ]
    print_table(
        "EXP-SERVICE: batched QueryService, two-level cache vs cold "
        "per-request execution (median of 3 batches)",
        ["workload", "requests", "cold", "warm", "cold req/s",
         "warm req/s", "speedup", "plan hits", "annot hits"],
        [
            [
                r["workload"],
                r["requests"],
                f"{r['cold_s'] * 1e3:.0f} ms",
                f"{r['warm_s'] * 1e3:.0f} ms",
                r["cold_rps"],
                r["warm_rps"],
                f"{r['speedup']:.1f}x",
                f"{r['plan_hit_rate']:.0%}",
                f"{r['annotation_hit_rate']:.0%}",
            ]
            for r in rows
        ],
    )

    out = os.environ.get("BENCH_SERVICE_JSON")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "experiment": "EXP-SERVICE",
                    "speedup_target": SPEEDUP_TARGET,
                    "hit_rate_target": HIT_RATE_TARGET,
                    "rows": rows,
                },
                fh,
                indent=2,
            )
            fh.write("\n")

    # One representative pytest-benchmark record (the warm batch).
    benchmark.pedantic(
        lambda: _run_batch(warm_service(), requests), rounds=3, iterations=1
    )

    # The hit rates are deterministic properties of the workload shape,
    # not of the hardware — always asserted.
    assert plan_hit_rate >= HIT_RATE_TARGET, plan_hit_rate
    assert ann_hit_rate >= HIT_RATE_TARGET, ann_hit_rate
    if STRICT:
        assert speedup >= SPEEDUP_TARGET, (
            f"cached service speedup {speedup:.2f}x below the "
            f"{SPEEDUP_TARGET}x target"
        )


def test_pagination_is_cheaper_than_recomputation(benchmark, print_table):
    """Paged access via next_cursor beats re-running full queries —
    the memoryless seek makes page k cost O(page), not O(k·page)."""
    from repro.workloads.worstcase import diamond_chain

    graph, _, source, target = diamond_chain(12, parallel=2)
    service = QueryService()
    service.register_graph("diamond", graph)
    query = "a*"  # 2**12 = 4096 distinct shortest walks.

    # Warm the caches once.
    service.execute(QueryRequest(query, source, target, limit=1))

    t0 = time.perf_counter()
    pages = 0
    cursor = None
    while pages < 40:
        response = service.execute(
            QueryRequest(query, source, target, limit=5, cursor=cursor)
        )
        assert response.status == "ok"
        pages += 1
        cursor = response.next_cursor
        if cursor is None:
            break
    paged_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    full = service.execute(
        QueryRequest(query, source, target, limit=5 * pages)
    )
    full_s = time.perf_counter() - t0
    assert full.status == "ok"
    assert pages == 40 and len(full.walks) == 200

    print_table(
        "EXP-SERVICE (b): cursor pagination vs one-shot enumeration",
        ["access pattern", "outputs", "time"],
        [
            [f"{pages} pages of 5 (cursor seek)", 5 * pages,
             f"{paged_s * 1e3:.2f} ms"],
            [f"one shot limit={5 * pages}", 5 * pages,
             f"{full_s * 1e3:.2f} ms"],
        ],
    )
    # Sanity only (no hard ratio): paging must not be catastrophically
    # worse than one shot — it would be with O(k) restart per page.
    assert paged_s < 50 * max(full_s, 1e-4)

    benchmark.pedantic(
        lambda: service.execute(QueryRequest(query, source, target, limit=5)),
        rounds=3,
        iterations=1,
    )
