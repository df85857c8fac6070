"""EXP-CONC — multi-process serving tier vs single-process service.

The serving claim behind :mod:`repro.serve`: a pool of worker
processes mapping one shared-memory packed graph sustains ≥2× the
request throughput of a single-process :class:`QueryService` at 4+
workers on a CPU-bound repeated-query mix (the floor tracked by
``check_floors.py``), while answering byte-identically.

Where the 2× comes from — and what this bench holds fixed
---------------------------------------------------------
Every process (the single-process baseline *and* each worker) gets the
same per-process annotation-LRU budget.  The workload's working set —
W distinct (query, source) pairs visited cyclically — is chosen larger
than one process's budget, the production shape where a dashboard's
parameter space outgrows one cache: an LRU under a cyclic scan of
W > capacity evicts every entry before its next use, so the
single-process side rebuilds the saturated annotation on *every*
request.  The serving tier routes with ``affinity``
(``crc32((query, source)) % workers``), so each pair always lands on
the same worker and the pool's **aggregate** capacity
(workers × budget ≥ W) keeps the whole working set warm.  The bench
asserts the shard-fit deterministically (no worker is assigned more
pairs than its LRU holds) — given that, the speedup is annotation
build time vs cache lookup + IPC, not scheduler luck.  On multi-core
hosts GIL escape adds on top; this floor does not depend on it.

Protocol overhead is *included*: the serve side pays real TCP + JSONL
framing per request through :class:`repro.serve.ServeClient`, the
baseline calls ``QueryService.execute`` in-process — the comparison is
end-to-end as deployed, not rigged against the baseline.

Deterministic assertions (always on):

* every serve-tier response equals the single-process response for
  the same request id — status, λ, and every walk's edge list;
* the affinity shard map fits: max pairs per worker ≤ the per-process
  annotation budget (this is what makes the speedup reproducible).

The ≥2× bar is asserted at 4 workers / 16 clients under
``BENCH_SERVE_STRICT=1`` (the default; CI sets 0 on shared runners).
``BENCH_SERVE_JSON`` dumps the measured rows — that is how
``BENCH_serve.json`` at the repo root is produced.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
import zlib
from typing import Dict, List, Tuple

from repro.serve.client import ServeClient
from repro.serve.server import ServeServer
from repro.service import QueryRequest, QueryService
from repro.workloads.transport import TRANSPORT_QUERIES, transport_network

SPEEDUP_TARGET = 2.0
STRICT = os.environ.get("BENCH_SERVE_STRICT", "1") != "0"

WORKERS = 4
#: Per-process annotation-LRU budget (identical on both sides).
ANNOTATION_BUDGET = 24
PLAN_BUDGET = 64
#: (query, source) working set: must exceed ANNOTATION_BUDGET and fit
#: WORKERS × ANNOTATION_BUDGET.
N_SOURCES = 16
REPEATS = 4
CLIENT_COUNTS = (1, 4, 16)
RUNS = 3

_QUERIES = [
    TRANSPORT_QUERIES["ground_only"],
    TRANSPORT_QUERIES["fly_then_ground"],
    TRANSPORT_QUERIES["no_bus"],
    TRANSPORT_QUERIES["one_flight_max"],
]


def _workload() -> Tuple[object, List[Dict]]:
    """The graph plus one pass of the cyclic working-set request list."""
    graph = transport_network(n_cities=96, hub_fraction=0.7, seed=7)
    graph.warm_indexes()
    block = [
        {
            "query": query,
            "source": f"city{s}",
            "target": f"city{90 - s}",
            "limit": 10,
        }
        for query in _QUERIES
        for s in range(N_SOURCES)
    ]
    requests = [
        {**payload, "id": i}
        for i, payload in enumerate(block * REPEATS)
    ]
    return graph, requests


def _shard_fit(requests: List[Dict]) -> int:
    """Max working-set pairs any affinity shard receives."""
    pairs = {(r["query"], r["source"]) for r in requests}
    per_worker = [0] * WORKERS
    for pair in pairs:
        per_worker[zlib.crc32(repr(pair).encode()) % WORKERS] += 1
    return max(per_worker)


def _percentiles(latencies: List[float]) -> Tuple[float, float]:
    ordered = sorted(latencies)
    p50 = ordered[len(ordered) // 2]
    p99 = ordered[min(len(ordered) - 1, (len(ordered) * 99) // 100)]
    return p50, p99


def _run_clients(n_clients: int, requests: List[Dict], roundtrip):
    """Fan the request list over n threads; returns (elapsed, lats, answers).

    Requests are interleaved round-robin so every client's stream
    cycles the full working set — the cache-hostile access pattern.
    ``roundtrip(client_index, payload) -> response dict`` supplies the
    side-specific transport.
    """
    shares = [requests[i::n_clients] for i in range(n_clients)]
    latencies: List[List[float]] = [[] for _ in range(n_clients)]
    answers: Dict[int, Tuple] = {}
    lock = threading.Lock()
    errors: List[str] = []

    def client(index: int) -> None:
        local = {}
        try:
            for payload in shares[index]:
                t0 = time.perf_counter()
                response = roundtrip(index, payload)
                latencies[index].append(time.perf_counter() - t0)
                if response["status"] not in ("ok", "empty"):
                    raise AssertionError(
                        f"request {payload['id']} failed: "
                        f"{response.get('error')}"
                    )
                local[payload["id"]] = (
                    response["status"],
                    response["lam"],
                    tuple(tuple(w["edges"]) for w in response["walks"]),
                )
        except Exception as exc:  # noqa: BLE001 — surface in main thread
            with lock:
                errors.append(str(exc))
            return
        with lock:
            answers.update(local)

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(n_clients)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t0
    assert not errors, errors[0]
    return elapsed, [lat for per in latencies for lat in per], answers


# -- the serving-tier side ---------------------------------------------------


class _ServeHarness:
    """A ServeServer on a background event loop + per-client sockets."""

    def __init__(self, graph) -> None:
        self._booted = threading.Event()
        self._stopped: asyncio.Event
        self._loop: asyncio.AbstractEventLoop
        self.port: int
        self._thread = threading.Thread(
            target=self._run, args=(graph,), daemon=True
        )
        self._thread.start()
        if not self._booted.wait(timeout=60):
            raise RuntimeError("serve harness failed to boot")

    def _run(self, graph) -> None:
        async def main() -> None:
            server = ServeServer(
                graph,
                workers=WORKERS,
                routing="affinity",
                max_inflight=32,
                plan_cache_size=PLAN_BUDGET,
                annotation_cache_size=ANNOTATION_BUDGET,
            )
            await server.start()
            self.port = await server.start_tcp()
            self._loop = asyncio.get_running_loop()
            self._stopped = asyncio.Event()
            self._booted.set()
            await self._stopped.wait()
            await server.shutdown()

        asyncio.run(main())

    def close(self) -> None:
        self._loop.call_soon_threadsafe(self._stopped.set)
        self._thread.join(timeout=30)


def _serve_side(harness: _ServeHarness, n_clients: int, requests):
    clients = [
        ServeClient("127.0.0.1", harness.port) for _ in range(n_clients)
    ]
    try:
        # Warm every worker's shard once (affinity: one pass suffices).
        for payload in requests:
            clients[0].request(payload)
        return _run_clients(
            n_clients,
            requests,
            lambda index, payload: clients[index].request(payload),
        )
    finally:
        for client in clients:
            client.close()


# -- the single-process baseline --------------------------------------------


def _single_side(graph, n_clients: int, requests):
    service = QueryService(
        plan_cache_size=PLAN_BUDGET,
        annotation_cache_size=ANNOTATION_BUDGET,
    )
    service.register_graph("default", graph, warm=False)

    def roundtrip(index: int, payload: Dict) -> Dict:
        fields = {k: v for k, v in payload.items() if k != "id"}
        response = service.execute(QueryRequest(**fields))
        out = response.to_dict()
        out["id"] = payload["id"]
        return out

    for payload in requests:  # same warm pass as the serve side
        roundtrip(0, payload)
    return _run_clients(n_clients, requests, roundtrip)


def test_serve_throughput_vs_single_process(benchmark, print_table):
    graph, requests = _workload()
    working_set = len({(r["query"], r["source"]) for r in requests})
    assert working_set > ANNOTATION_BUDGET  # single process must thrash
    assert working_set <= WORKERS * ANNOTATION_BUDGET
    # Deterministic shard fit: every worker's share of the working set
    # fits its LRU, so the serve side's hits are guaranteed, not luck.
    assert _shard_fit(requests) <= ANNOTATION_BUDGET

    harness = _ServeHarness(graph)
    rows: List[Dict] = []
    try:
        for n_clients in CLIENT_COUNTS:
            single_runs, serve_runs = [], []
            for _ in range(RUNS):
                single_runs.append(_single_side(graph, n_clients, requests))
                serve_runs.append(_serve_side(harness, n_clients, requests))
            by_elapsed = lambda run: run[0]  # noqa: E731
            single_s, single_lats, single_answers = sorted(
                single_runs, key=by_elapsed
            )[RUNS // 2]
            serve_s, serve_lats, serve_answers = sorted(
                serve_runs, key=by_elapsed
            )[RUNS // 2]

            # Same answers on both sides, walk for walk.
            assert serve_answers == single_answers

            single_p50, single_p99 = _percentiles(single_lats)
            serve_p50, serve_p99 = _percentiles(serve_lats)
            n = len(requests)
            rows.append(
                {
                    "workload": f"serve/affinity-{WORKERS}w-{n_clients}c",
                    "requests": n,
                    "single_rps": round(n / single_s, 1),
                    "serve_rps": round(n / serve_s, 1),
                    "single_p50_ms": round(single_p50 * 1e3, 3),
                    "single_p99_ms": round(single_p99 * 1e3, 3),
                    "serve_p50_ms": round(serve_p50 * 1e3, 3),
                    "serve_p99_ms": round(serve_p99 * 1e3, 3),
                    "speedup": round((n / serve_s) / (n / single_s), 2),
                }
            )
    finally:
        harness.close()

    print_table(
        "EXP-CONC: serving-tier RPS vs single-process QueryService "
        f"({WORKERS} workers, affinity routing, working set "
        f"{working_set} pairs > {ANNOTATION_BUDGET}/process LRU; "
        "median of 3)",
        ["workload", "req", "1-proc rps", "serve rps", "1-proc p50/p99",
         "serve p50/p99", "speedup"],
        [
            [
                r["workload"],
                r["requests"],
                r["single_rps"],
                r["serve_rps"],
                f"{r['single_p50_ms']:.2f}/{r['single_p99_ms']:.2f} ms",
                f"{r['serve_p50_ms']:.2f}/{r['serve_p99_ms']:.2f} ms",
                f"{r['speedup']:.1f}x",
            ]
            for r in rows
        ],
    )

    out = os.environ.get("BENCH_SERVE_JSON")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "experiment": "EXP-CONC",
                    "speedup_target": SPEEDUP_TARGET,
                    "workers": WORKERS,
                    "routing": "affinity",
                    "annotation_budget_per_process": ANNOTATION_BUDGET,
                    "working_set_pairs": working_set,
                    "rows": rows,
                },
                fh,
                indent=2,
            )
            fh.write("\n")

    # One representative pytest-benchmark record: a 4-client serve pass.
    harness = _ServeHarness(graph)
    try:
        benchmark.pedantic(
            lambda: _serve_side(harness, 4, requests),
            rounds=3,
            iterations=1,
        )
    finally:
        harness.close()

    if STRICT:
        floor_row = rows[-1]  # 16 clients, the EXP-CONC acceptance row
        assert floor_row["speedup"] >= SPEEDUP_TARGET, (
            f"serving tier at {WORKERS} workers / 16 clients is "
            f"{floor_row['speedup']:.2f}x the single-process baseline, "
            f"below the {SPEEDUP_TARGET}x EXP-CONC floor"
        )
