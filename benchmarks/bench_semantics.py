"""EXP-SEM — the any-walk cheap mode vs full shortest enumeration.

The PR-7 claim: ``any_walk()`` (one witness per pair, Cypher/GQL
``ANY``) is one ``Annotate`` BFS run stopped at the target, its witness
read back from the run's distances — no pack, no Trim, no Enumerate —
and therefore beats the full
distinct-shortest-walks pipeline on latency whenever the caller only
needs reachability-with-witness.  Three per-query workloads probe the
two ways the full pipeline spends its time:

* ``transport/pairs`` — the EXP-SERVICE pair mix on the transport
  ring, first page of 20 per pair (the answer sets are exponential in
  the ring distance — parallel train/bus hops — so full drains are
  off the table for *any* engine): annotation cost dominated by the
  product BFS, which both sides stop at the target;
* ``diamond/enumeration`` — ``diamond_chain(12, parallel=2)``:
  2^12 = 4096 distinct shortest walks, drained completely; the full
  pipeline must emit every one, any-walk exactly one;
* ``soup/annotation`` — ``label_soup(k=144)``, first answer only:
  the product is deep and label-noisy; any-walk still pays a BFS but
  skips Trim, the packed materialization and the enumerator setup.

Both sides run **cold per query** (annotation cache disabled for the
shortest side; any-walk never touches it by construction) so the ratio
compares per-query engine work, not cache luck.  Deterministic
assertions (always on): per pair, any-walk yields exactly one row iff
the pair matches, and the witness length equals the shortest side's λ.

The wall-clock bar (``speedup_target`` in the committed JSON,
tracked by ``check_floors.py``) is asserted under
``BENCH_SEM_STRICT=1`` (the default; CI sets 0 on shared runners).
``BENCH_SEM_JSON`` dumps the measured rows — that is how
``BENCH_semantics.json`` at the repo root is produced.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Dict, List, Tuple

from repro.api import Database
from repro.workloads.transport import TRANSPORT_QUERIES, transport_network
from repro.workloads.worstcase import diamond_chain, label_soup

SPEEDUP_TARGET = 1.5
STRICT = os.environ.get("BENCH_SEM_STRICT", "1") != "0"

Job = Tuple[str, str, str, int]  # (expression, source, target, limit)


def _workloads() -> List[Tuple[str, object, List[Job]]]:
    transport = transport_network(n_cities=96, hub_fraction=0.2, seed=7)
    transport.warm_indexes()
    transport_jobs = [
        (expression, f"city{s}", f"city{10 * t}", 20)
        for expression in (
            TRANSPORT_QUERIES["ground_only"],
            TRANSPORT_QUERIES["fly_then_ground"],
            TRANSPORT_QUERIES["no_bus"],
        )
        for s in range(3)
        for t in (1, 3)
    ]

    diamond, _, d_source, d_target = diamond_chain(12, parallel=2)
    diamond.warm_indexes()

    soup, _, s_source, s_target = label_soup(
        144, parallel=2, extra_labels=8, noise_out=4
    )
    soup.warm_indexes()

    return [
        ("transport/pairs", transport, transport_jobs),
        (
            "diamond/enumeration",
            diamond,
            [("a*", d_source, d_target, None)],
        ),
        ("soup/annotation", soup, [("a*", s_source, s_target, 1)]),
    ]


def _shortest_side(graph, jobs: List[Job]) -> List[Tuple]:
    # Annotation cache off: every query pays its full Annotate → Trim
    # → Enumerate cost, like a first-contact request.
    db = Database(graph, annotation_cache_size=0, warm=False)
    out = []
    for expression, source, target, limit in jobs:
        rs = (
            db.query(expression).from_(source).to(target).limit(limit)
            .run()
        )
        out.append((rs.lam, sum(1 for _ in rs)))
    return out


def _any_side(graph, jobs: List[Job]) -> List[Tuple]:
    db = Database(graph, warm=False)  # any-walk never caches annotations.
    out = []
    for expression, source, target, _limit in jobs:
        rs = (
            db.query(expression).from_(source).to(target).any_walk().run()
        )
        rows = rs.all()
        out.append((rs.lam, [len(r.walk.edges) for r in rows]))
    return out


def _median_seconds(run, runs: int = 3):
    times, result = [], None
    for _ in range(runs):
        t0 = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def test_any_walk_beats_full_enumeration(benchmark, print_table):
    workloads = _workloads()

    rows: List[Dict] = []
    for name, graph, jobs in workloads:
        shortest_s, shortest_out = _median_seconds(
            lambda g=graph, j=jobs: _shortest_side(g, j)
        )
        any_s, any_out = _median_seconds(
            lambda g=graph, j=jobs: _any_side(g, j)
        )

        # One witness per matching pair, of exactly the shortest λ.
        for (lam, n_answers), (any_lam, witness_lens) in zip(
            shortest_out, any_out
        ):
            if lam is None:
                assert witness_lens == [], name
            else:
                assert n_answers >= 1, name
                assert any_lam == lam, name
                assert witness_lens == [lam], name

        speedup = shortest_s / any_s if any_s else float("inf")
        rows.append(
            {
                "workload": name,
                "pairs": len(jobs),
                "answers": sum(n for _, n in shortest_out),
                "shortest_s": round(shortest_s, 4),
                "any_s": round(any_s, 4),
                "speedup": round(speedup, 2),
            }
        )

    print_table(
        "EXP-SEM: any-walk witness vs full shortest enumeration, "
        "cold per query (median of 3)",
        list(rows[0].keys()),
        [list(r.values()) for r in rows],
    )

    out = os.environ.get("BENCH_SEM_JSON")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "experiment": "EXP-SEM",
                    "speedup_target": SPEEDUP_TARGET,
                    "rows": rows,
                },
                fh,
                indent=2,
            )
            fh.write("\n")

    # The pedantic timer re-times one any-walk pass over the pair mix.
    name, graph, jobs = workloads[0]
    benchmark.pedantic(
        lambda: _any_side(graph, jobs), iterations=1, rounds=3
    )

    if STRICT:
        for row in rows:
            assert row["speedup"] >= SPEEDUP_TARGET, (
                f"any-walk speedup on {row['workload']} "
                f"{row['speedup']}x below {SPEEDUP_TARGET}x"
            )
