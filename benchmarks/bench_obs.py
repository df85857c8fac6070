"""EXP-OBS — observability overhead: instrumented vs disabled.

The tentpole claim behind :mod:`repro.obs`: full instrumentation —
counters, latency histograms, per-request span trees recorded to the
slow-query log (the serving default, ``slow_ms=0``) — costs at most
**5%** end-to-end on the EXP-PIPE service workload (first-64 pages of
the transport query mix), and a *disabled* bundle (shared null
instruments, no trace activation) costs at most **1%** against the
bare façade.  In floor terms (higher is better, 1.0 = free):
``speedup = t_reference / t_instrumented ≥ 0.95`` — the
``speedup_target`` tracked by ``check_floors.py``.

Methodology: the two sides run *interleaved, alternating-order*
passes of the identical request sequence and the reported speedup is
the **median of per-pair ratios** — scheduler drift on a shared
machine hits adjacent passes equally and cancels in the ratio, where
a measure-one-side-then-the-other design would see phantom ±10%
"overheads" from CPU frequency wander alone.

Deterministic assertions (always on):

* both service sides return identical answers (λ per request);
* the enabled side's registry counted every request and its latency
  histogram holds every observation;
* a cold request decomposes into the complete five-phase span tree
  (parse → compile → annotate → trim → enumerate) in the slow log;
* the disabled side's registry snapshot is empty — nothing leaked.

The ≥0.95× bars are asserted under ``BENCH_OBS_STRICT=1`` (the
default; CI sets 0 on shared runners).  ``BENCH_OBS_JSON`` dumps the
measured rows — that is how ``BENCH_obs.json`` at the repo root is
produced.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Callable, List, Tuple

from repro.api import Database
from repro.obs import Observability
from repro.service import QueryService
from repro.service.requests import QueryRequest
from repro.workloads.transport import TRANSPORT_QUERIES, transport_network

SPEEDUP_TARGET = 0.95  # Enabled within 5% of disabled (1.0 = free).
STRICT = os.environ.get("BENCH_OBS_STRICT", "1") != "0"

PASSES = 40


def _workload():
    graph = transport_network(n_cities=96, hub_fraction=0.2, seed=7)
    payloads = [
        {
            "query": expression,
            "source": f"city{s}",
            "target": f"city{10 * t}",
            "limit": 64,
        }
        for expression in (
            TRANSPORT_QUERIES["ground_only"],
            TRANSPORT_QUERIES["fly_then_ground"],
            TRANSPORT_QUERIES["no_bus"],
        )
        for s in range(3)
        for t in (1, 3)
    ]
    return graph, payloads


def _interleaved_ratio(
    pass_a: Callable[[], float], pass_b: Callable[[], float]
) -> Tuple[float, float, float]:
    """Median per-pair ``t_a / t_b`` over PASSES alternating passes.

    Returns ``(ratio, median_a, median_b)``.  Order alternates within
    each pair so neither side systematically runs first.
    """
    a_times: List[float] = []
    b_times: List[float] = []
    for i in range(PASSES):
        if i % 2:
            b_times.append(pass_b())
            a_times.append(pass_a())
        else:
            a_times.append(pass_a())
            b_times.append(pass_b())
    ratios = sorted(a / b for a, b in zip(a_times, b_times))
    return (
        statistics.median(ratios),
        statistics.median(a_times),
        statistics.median(b_times),
    )


def _service(graph, obs) -> QueryService:
    service = QueryService(obs=obs)
    service.register_graph("default", graph)
    return service


def _service_pass(service, requests) -> Callable[[], float]:
    def one_pass() -> float:
        t0 = time.perf_counter()
        for request in requests:
            service.execute(request)
        return time.perf_counter() - t0

    return one_pass


def _facade_pass(graph, payloads, obs) -> Tuple[Callable[[], float], List]:
    db = Database(graph, obs=obs)
    queries = [
        db.query(p["query"]).from_(p["source"]).to(p["target"]).limit(64)
        for p in payloads
    ]
    answers = [(q.run().lam, len(q.run().all())) for q in queries]  # Warm.

    def one_pass() -> float:
        t0 = time.perf_counter()
        for q in queries:
            q.run().all()  # Materialize the page — run() is lazy.
        return time.perf_counter() - t0

    return one_pass, answers


def test_obs_overhead(benchmark, print_table):
    graph, payloads = _workload()
    requests = [QueryRequest.from_dict(p) for p in payloads]
    n_requests = len(payloads) * PASSES

    # -- service tier: disabled bundle vs fully enabled ----------------
    disabled = _service(graph, Observability.disabled())
    enabled = _service(graph, None)  # Default: enabled, slow_ms=0.
    disabled_answers = [disabled.execute(r).lam for r in requests]  # Warm.
    enabled_answers = [enabled.execute(r).lam for r in requests]
    # Instrumentation must not change a single answer.
    assert enabled_answers == disabled_answers

    service_speedup, disabled_s, enabled_s = _interleaved_ratio(
        _service_pass(disabled, requests), _service_pass(enabled, requests)
    )

    assert disabled.stats()["requests"] == 0  # Nothing counted.
    assert disabled.obs.registry.snapshot()["counters"] == {}
    total = len(payloads) * (PASSES + 1)  # Warm pass + timed passes.
    registry = enabled.obs.registry
    assert registry.counter_value("service.requests") == total
    snap = registry.snapshot()["histograms"]["service.request_seconds"]
    assert snap["count"] == total
    # A cold request (fresh expression, nothing cached) decomposes
    # into the full five-phase span tree in the slow log.
    cold = QueryRequest.from_dict(
        {
            # Same language as ground_only but a fresh expression
            # string, so nothing is cached for it.
            "query": f"({TRANSPORT_QUERIES['ground_only']})",
            "source": "city0",
            "target": "city10",
            "limit": 4,
        }
    )
    assert enabled.execute(cold).status == "ok"
    assert [s["name"] for s in enabled.obs.slowlog.entries()[-1]["spans"]] \
        == ["parse", "compile", "annotate", "trim", "enumerate"]
    disabled.close()
    enabled.close()

    # -- façade: no bundle at all vs a disabled bundle -----------------
    none_pass, none_answers = _facade_pass(graph, payloads, None)
    fd_pass, fd_answers = _facade_pass(
        graph, payloads, Observability.disabled()
    )
    assert none_answers == fd_answers
    facade_speedup, none_s, facade_disabled_s = _interleaved_ratio(
        none_pass, fd_pass
    )

    rows = [
        {
            "workload": "service/obs-disabled-vs-enabled",
            "requests": n_requests,
            "reference_s": round(disabled_s * PASSES, 4),
            "instrumented_s": round(enabled_s * PASSES, 4),
            "speedup": round(service_speedup, 3),
        },
        {
            "workload": "facade/none-vs-disabled",
            "requests": n_requests,
            "reference_s": round(none_s * PASSES, 4),
            "instrumented_s": round(facade_disabled_s * PASSES, 4),
            "speedup": round(facade_speedup, 3),
        },
    ]

    print_table(
        "EXP-OBS: instrumented vs disabled on the EXP-PIPE service "
        "workload (speedup = median per-pair reference/instrumented "
        "over interleaved passes; 1.0 = free, floor 0.95 = within 5%)",
        list(rows[0].keys()),
        [list(r.values()) for r in rows],
    )

    out = os.environ.get("BENCH_OBS_JSON")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "experiment": "EXP-OBS",
                    "speedup_target": SPEEDUP_TARGET,
                    "passes": PASSES,
                    "requests": n_requests,
                    "rows": rows,
                },
                fh,
                indent=2,
            )
            fh.write("\n")

    # The pedantic timer re-times one fully-instrumented warm pass.
    service = _service(graph, None)
    for request in requests:
        service.execute(request)
    try:
        benchmark.pedantic(
            lambda: [service.execute(r) for r in requests],
            iterations=1,
            rounds=3,
        )
    finally:
        service.close()

    if STRICT:
        for row in rows:
            if row["speedup"] < SPEEDUP_TARGET:
                raise AssertionError(
                    f"observability overhead above the EXP-OBS bar on "
                    f"{row['workload']!r}: {row['speedup']}x < "
                    f"{SPEEDUP_TARGET}x (reference {row['reference_s']}s, "
                    f"instrumented {row['instrumented_s']}s)"
                )
