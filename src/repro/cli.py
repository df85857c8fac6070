"""Command-line interface: run RPQ shortest-walk queries on graph files.

Usage (also available as ``python -m repro``)::

    python -m repro query   GRAPH "h* s (h | s)*" Alix Bob
    python -m repro query   GRAPH "s{1,3}" acct0 --all-targets
    python -m repro query   GRAPH "train* bus*" Paris Genoa --cheapest
    python -m repro pattern GRAPH "ALL SHORTEST (Alix)-[:h|:s]->+(Bob)"
    python -m repro count   GRAPH "h* s (h | s)*" Alix Bob
    python -m repro plan    GRAPH "(a | b)* c"
    python -m repro stats   GRAPH
    python -m repro stats   --port 7687
    python -m repro batch   GRAPH requests.jsonl --stats
    python -m repro mutate  GRAPH ops.jsonl --save updated.json
    python -m repro mutate  GRAPH ops.jsonl --wal-dir wal/
    python -m repro recover wal/ --save recovered.json
    python -m repro follow  wal/ --once --query "h+" --source Alix --target Bob
    python -m repro serve   GRAPH --port 7687 --workers 4 --metrics 9090

``GRAPH`` is a path to either a JSON database (``save_json``) or the
line-based edge-list format::

    Alix -> Dan : h, s
    Dan  -> Eve : h @ 3      # optional cost after '@'

``batch`` runs a JSONL file of requests (one JSON object per line, see
:mod:`repro.service.requests`) through a cached
:class:`~repro.service.QueryService` and prints one JSON response per
line, running the requests in order; per-request problems become
``"status": "error"`` response lines rather than aborting the batch.
A batch line with a ``"mutate"`` key is a write barrier applied to the
(live) graph between the surrounding queries.

``mutate`` applies a JSONL file of mutation ops (one op object per
line, see :mod:`repro.live.delta`) to the graph as a single batch
on a :class:`~repro.live.LiveGraph`, prints the batch
receipt as JSON, and with ``--save`` writes the compacted result back
to a graph JSON file.

Durability (:mod:`repro.wal`): ``--wal-dir`` on ``batch``/``mutate``
logs every applied batch to a write-ahead log *before* applying it —
and when the directory already holds durable state, that state wins
over the ``GRAPH`` file (the restart flow: pass the same bootstrap
graph every time).  ``recover`` rebuilds the state of a WAL directory
(latest valid snapshot + tail replay) and reports the log geometry;
``follow`` tails a WAL directory as a read-only replica and can
answer queries from it.

Serving (:mod:`repro.serve`): ``serve`` publishes the packed graph
into a shared-memory segment and answers the same JSONL protocol over
TCP from a pool of worker processes (``--stdio`` serves a single
connection over stdin/stdout instead).  The bound address is printed
as ``listening on HOST:PORT`` once the workers are ready; stop with
SIGTERM/Ctrl-C for a graceful drain.

Exit codes: 0 = answers found / info printed, 1 = no matching walk
(for ``batch``: at least one request errored), 2 = input error (bad
file, vertex, query syntax, or malformed JSONL).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.api import Database
from repro.api.query import MODES, RESTRICTIONS
from repro.automata import regex_to_nfa
from repro.core.compile import compile_epsilon_free
from repro.exceptions import ReproError
from repro.graph.database import Graph
from repro.graph.io import load_edge_list, load_json
from repro.query import analyze, parse_pattern


def _load_graph(path: str) -> Graph:
    file_path = Path(path)
    if not file_path.exists():
        raise ReproError(f"graph file not found: {path}")
    if file_path.suffix.lower() == ".json":
        return load_json(file_path)
    return load_edge_list(file_path)


def _base_query(args: argparse.Namespace, db: Database):
    """The façade query shared by every ``query`` subcommand path,
    paged by ``--limit`` (``count`` ignores the page)."""
    query = (
        db.query(args.expression)
        .semantics(args.semantics)
        .limit(args.limit)
    )
    if args.cheapest:
        query = query.cheapest()
    return query


def _print_page(result, limit: Optional[int], runs: bool = False) -> None:
    """One line per row of a page (``runs``: with its multiplicity),
    and a note when the page stopped at its ``limit`` with answers
    left."""
    for row in result:
        prefix = f"[{row.multiplicity} runs] " if runs else ""
        print(f"  {prefix}{row.describe()}")
    if result.next_cursor is not None:
        print(f"  ... (stopped after {limit})")


def _cmd_query(args: argparse.Namespace) -> int:
    db = Database(_load_graph(args.graph))
    base = _base_query(args, db)

    if args.json:
        return _query_json(args, db, base)

    if args.all_targets:
        # One preprocessing for every target: targets() runs the cached
        # annotation to exhaustion and the pair queries below share it.
        reached = base.from_(args.source).to_all().targets()
        if not reached:
            print("no matching walk to any target")
            return 1
        for name, lam in reached:
            print(f"=== {name} (λ = {lam}) ===")
            _print_page(base.from_(args.source).to(name).run(), args.limit)
        return 0

    if args.target is None:
        print("error: TARGET is required unless --all-targets is given",
              file=sys.stderr)
        return 2

    pair = base.from_(args.source).to(args.target)
    if args.cheapest:
        result = pair.run()
        if result.lam is None:
            print("no matching walk")
            return 1
        print(f"cheapest matching cost: {result.lam}")
        _print_page(result, args.limit)
        return 0

    result = pair.with_multiplicity(args.multiplicity).run()
    if result.lam is None:
        print("no matching walk")
        return 1
    print(f"λ = {result.lam}")
    _print_page(result, args.limit, args.multiplicity)
    if args.count:
        print(f"total answers: {pair.count()}")
    return 0


def _query_json(args: argparse.Namespace, db: Database, base) -> int:
    """Machine-readable variant of the query command."""
    import json

    if args.all_targets:
        fan = base.from_(args.source).to_all()
        payload = {
            "query": args.expression,
            "source": args.source,
            "targets": {
                str(name): {
                    "lam": lam,
                    "walks": [
                        row.walk.to_dict()
                        for row in base.from_(args.source).to(name).run()
                    ],
                }
                for name, lam in fan.targets()
            },
        }
        print(json.dumps(payload, indent=2))
        return 0 if payload["targets"] else 1

    if args.target is None:
        print("error: TARGET is required unless --all-targets is given",
              file=sys.stderr)
        return 2

    result = base.from_(args.source).to(args.target).run()
    payload = {
        "query": args.expression,
        "source": args.source,
        "target": args.target,
        "lam": result.lam,
        "walks": [row.walk.to_dict() for row in result],
    }
    print(json.dumps(payload, indent=2))
    return 0 if result.lam is not None else 1


def _cmd_pattern(args: argparse.Namespace) -> int:
    # A one-shot process cannot reuse an annotation: with the cache
    # off, the pair's Annotate stops at its target.
    db = Database(_load_graph(args.graph), annotation_cache_size=0)
    pattern = parse_pattern(args.pattern)
    print(f"compiled RPQ: {pattern.regex}")
    result = pattern.query(db).limit(args.limit).run()
    if result.lam is None:
        print("no matching walk")
        return 1
    print(f"λ = {result.lam}")
    _print_page(result, args.limit)
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    """Answer counts and duplicate-blowup measures, without enumeration."""
    from repro.core.count import (
        count_shortest_product_paths,
        count_total_multiplicity,
    )

    graph = _load_graph(args.graph)
    nfa = regex_to_nfa(args.expression)
    answers = (
        Database(graph, annotation_cache_size=0)  # One-shot, as above.
        .query(args.expression)
        .from_(args.source).to(args.target).count("dp")
    )
    if not answers:
        print("no matching walk")
        return 1
    cq = compile_epsilon_free(graph, nfa)
    source = graph.resolve_vertex(args.source)
    target = graph.resolve_vertex(args.target)
    lam, paths = count_shortest_product_paths(cq, source, target)
    _, mult = count_total_multiplicity(cq, source, target)
    print(f"λ = {lam}")
    print(f"distinct shortest walks: {answers}")
    print(f"shortest product paths:  {paths}"
          f"  ({paths / answers:.2f} copies/answer for a naive engine)")
    print(f"total accepting runs:    {mult}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Run a JSONL batch of requests through a cached QueryService."""
    import json

    from repro.service import QueryService, read_requests_jsonl

    graph = _load_graph(args.graph)
    requests_path = Path(args.requests)
    if not requests_path.exists():
        raise ReproError(f"requests file not found: {args.requests}")
    with requests_path.open("r", encoding="utf-8") as fh:
        requests = list(read_requests_jsonl(fh))

    service = QueryService(
        plan_cache_size=args.plan_cache,
        annotation_cache_size=args.annotation_cache,
        wal_dir=args.wal_dir,
    )
    try:
        service.register_graph("default", graph)
        responses = service.execute_batch(requests)
    finally:
        service.close()
    for response in responses:
        print(response.to_json())
    if args.stats:
        print(json.dumps(service.stats(), indent=2), file=sys.stderr)
    return 1 if any(r.status == "error" for r in responses) else 0


def _cmd_mutate(args: argparse.Namespace) -> int:
    """Apply a JSONL file of mutation ops as one live-graph batch."""
    import json

    from repro.graph.io import save_json
    from repro.live import LiveGraph, op_from_dict
    from repro.service.requests import iter_jsonl

    graph = _load_graph(args.graph)
    ops_path = Path(args.ops)
    if not ops_path.exists():
        raise ReproError(f"ops file not found: {args.ops}")
    ops = []
    with ops_path.open("r", encoding="utf-8") as fh:
        for lineno, payload in iter_jsonl(fh):
            try:
                ops.append(op_from_dict(payload))
            except ReproError as exc:
                raise ReproError(f"line {lineno}: {exc}") from None
    if not ops:
        raise ReproError(f"no mutation ops found in {args.ops}")

    if args.wal_dir:
        # Durable path: recover-or-bootstrap the WAL directory, apply
        # the batch through the logging hook, leave the log fsync'd.
        db = Database.open(args.wal_dir, graph=graph, sync="always")
        try:
            result = db.mutate(ops)
            live = db.live()
            payload = {
                **result.batch.summary(),
                **live.stats(),
                "wal_dir": args.wal_dir,
                "wal_lsn": db.wal_writer().last_lsn,
            }
            if args.save:
                save_json(live.to_graph(), args.save)
                payload["saved"] = args.save
        finally:
            db.close()
        print(json.dumps(payload, indent=2))
        return 0

    live = LiveGraph(graph)
    batch = live.apply(ops)
    payload = {**batch.summary(), **live.stats()}
    if args.save:
        save_json(live.compact(), args.save)
        payload["saved"] = args.save
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Recover a WAL directory and report (or save) the result."""
    import json

    from repro.graph.io import save_json
    from repro.wal import recover

    state = recover(args.wal_dir)
    live = state.graph
    payload = {
        "wal_dir": args.wal_dir,
        "last_lsn": state.last_lsn,
        "snapshot_lsn": state.snapshot_lsn,
        "replayed_batches": state.replayed_batches,
        "replayed_compactions": state.replayed_compactions,
        "valid_offset": state.valid_offset,
        "torn_tail": state.torn_tail,
        **live.stats(),
    }
    if args.save:
        save_json(live.to_graph(), args.save)
        payload["saved"] = args.save
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_follow(args: argparse.Namespace) -> int:
    """Tail a WAL directory as a read replica; optionally query it."""
    import json

    from repro.wal import FollowerDatabase

    if (args.query is None) != (args.source is None) or (
        (args.query is None) != (args.target is None)
    ):
        raise ReproError(
            "--query, --source and --target must be given together"
        )
    follower = FollowerDatabase(
        args.wal_dir, poll_interval=args.interval
    )
    if args.once:
        applied = follower.catch_up()
    else:
        applied = follower.run(
            duration=args.duration, max_records=args.max_records
        )
    payload = {
        "wal_dir": args.wal_dir,
        "applied": applied,
        "last_lsn": follower.last_lsn,
        **follower.graph.stats(),
    }
    if args.query is not None:
        query = follower.query(args.query).from_(args.source).to(args.target)
        if args.limit is not None:
            query = query.limit(args.limit)
        result = query.run()
        payload["lam"] = result.lam
        payload["walks"] = [row.walk.to_dict() for row in result]
    print(json.dumps(payload, indent=2))
    if args.query is not None and payload["lam"] is None:
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the multi-process serving tier on a graph file."""
    import asyncio
    import json

    from repro.serve import serve

    graph = _load_graph(args.graph)

    def on_ready(server, port) -> None:
        if port is not None:
            # The scripts/tests boot protocol: one parseable line on
            # stdout announcing the endpoint, flushed immediately.
            print(f"listening on {args.host}:{port}", flush=True)
            print(
                f"workers={server.workers} routing={server.routing} "
                f"segment={server.segment_name}",
                file=sys.stderr,
                flush=True,
            )
            if server.metrics_port is not None:
                print(
                    f"metrics on {args.host}:{server.metrics_port}",
                    file=sys.stderr,
                    flush=True,
                )

    def on_final_stats(stats) -> None:
        # The drain-path snapshot: short-lived (smoke) runs still get
        # their counters, on stderr so stdout stays pure protocol.
        merged = stats.get("merged", {})
        summary = {
            "final_stats": {
                "server": stats.get("server", {}),
                "partial": stats.get("partial", False),
                "service": merged.get("service", {}),
            }
        }
        print(json.dumps(summary, sort_keys=True), file=sys.stderr, flush=True)

    try:
        asyncio.run(
            serve(
                graph,
                host=args.host,
                port=args.port,
                stdio=args.stdio,
                metrics_port=args.metrics,
                on_ready=on_ready,
                on_final_stats=on_final_stats,
                workers=args.workers,
                max_inflight=args.max_inflight,
                routing=args.routing,
                plan_cache_size=args.plan_cache,
                annotation_cache_size=args.annotation_cache,
                slow_ms=args.slow_ms,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive ^C
        pass
    _stop_resource_tracker()
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the ``multiprocessing`` resource tracker.

    Shared memory starts a tracker child that would otherwise outlive
    the server (re-parented, never reaped) once ``serve`` returns.  By
    now every worker is joined and every segment unlinked, so the
    tracker has nothing left to clean up.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is None:  # pragma: no cover - tracker internals vary
        return
    try:
        stop()
    except OSError:  # already gone: nothing left to reap
        pass


def _cmd_plan(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    nfa = regex_to_nfa(args.expression)
    print(analyze(graph, nfa).explain())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.port is not None:
        # Remote mode: ask a running `repro serve` pool for its
        # cross-worker aggregation over the JSONL protocol.
        import json

        from repro.serve import ServeClient

        with ServeClient(args.host, args.port) as client:
            response = client.stats()
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0 if response.get("status") == "ok" else 1
    if args.graph is None:
        print(
            "error: either GRAPH or --port is required",
            file=sys.stderr,
        )
        return 2
    graph = _load_graph(args.graph)
    for key, value in graph.stats().items():
        print(f"{key}: {value}")
    print(f"alphabet: {', '.join(graph.alphabet)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distinct shortest walk enumeration for RPQs "
        "(PODS 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="enumerate matching walks")
    query.add_argument("graph", help="graph file (.json or edge list)")
    query.add_argument("expression", help="RPQ regular expression")
    query.add_argument("source", help="source vertex name")
    query.add_argument("target", nargs="?", help="target vertex name")
    query.add_argument(
        "--semantics",
        choices=RESTRICTIONS,
        default="walks",
        help="walk semantics: distinct shortest walks (default), "
        "trails (no repeated edge), simple paths (no repeated "
        "vertex), or any (one witness walk)",
    )
    query.add_argument(
        "--limit", type=int, default=None, help="print at most N walks"
    )
    query.add_argument(
        "--cheapest",
        action="store_true",
        help="minimize total edge cost instead of length",
    )
    query.add_argument(
        "--all-targets",
        action="store_true",
        help="enumerate to every reachable target (one preprocessing)",
    )
    query.add_argument(
        "--multiplicity",
        action="store_true",
        help="print the number of accepting runs per walk",
    )
    query.add_argument(
        "--count", action="store_true", help="print the total answer count"
    )
    query.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of text",
    )
    query.set_defaults(func=_cmd_query)

    pattern = sub.add_parser(
        "pattern", help="run a GQL-style path pattern"
    )
    pattern.add_argument("graph", help="graph file (.json or edge list)")
    pattern.add_argument(
        "pattern",
        help="path pattern, e.g. \"ALL SHORTEST (a)-[:h|:s]->+(b)\"",
    )
    pattern.add_argument(
        "--limit", type=int, default=None, help="print at most N walks"
    )
    pattern.set_defaults(func=_cmd_pattern)

    count = sub.add_parser(
        "count", help="count answers and duplicate blowup (no enumeration)"
    )
    count.add_argument("graph")
    count.add_argument("expression")
    count.add_argument("source")
    count.add_argument("target")
    count.set_defaults(func=_cmd_count)

    batch = sub.add_parser(
        "batch",
        help="run a JSONL file of requests through the caching service",
    )
    batch.add_argument("graph", help="graph file (.json or edge list)")
    batch.add_argument(
        "requests", help="JSONL file, one request object per line"
    )
    batch.add_argument(
        "--plan-cache",
        type=int,
        default=256,
        help="plan cache capacity; 0 disables plan caching",
    )
    batch.add_argument(
        "--annotation-cache",
        type=int,
        default=128,
        help="annotation cache capacity; 0 = cold per-request execution",
    )
    batch.add_argument(
        "--stats",
        action="store_true",
        help="print service statistics (cache hit rates, timings) to stderr",
    )
    batch.add_argument(
        "--wal-dir",
        default=None,
        metavar="DIR",
        help="log mutations to a write-ahead log under DIR/default/ "
        "before applying (existing durable state wins over GRAPH)",
    )
    batch.set_defaults(func=_cmd_batch)

    mutate = sub.add_parser(
        "mutate",
        help="apply a JSONL file of mutation ops as one live batch",
    )
    mutate.add_argument("graph", help="graph file (.json or edge list)")
    mutate.add_argument(
        "ops",
        help='JSONL file of ops, e.g. {"op": "add_edge", "src": "A", '
        '"tgt": "B", "labels": ["h"]}',
    )
    mutate.add_argument(
        "--save",
        default=None,
        metavar="OUT.json",
        help="compact the mutated graph and write it as graph JSON",
    )
    mutate.add_argument(
        "--wal-dir",
        default=None,
        metavar="DIR",
        help="apply durably: recover-or-bootstrap DIR, log the batch "
        "to the WAL (fsync) before applying (existing durable state "
        "wins over GRAPH)",
    )
    mutate.set_defaults(func=_cmd_mutate)

    recover_p = sub.add_parser(
        "recover",
        help="rebuild the state of a WAL directory (snapshot + replay)",
    )
    recover_p.add_argument(
        "wal_dir", help="WAL directory (wal.log + snapshots)"
    )
    recover_p.add_argument(
        "--save",
        default=None,
        metavar="OUT.json",
        help="write the recovered graph as JSON",
    )
    recover_p.set_defaults(func=_cmd_recover)

    follow = sub.add_parser(
        "follow",
        help="tail a WAL directory as a read-only replica",
    )
    follow.add_argument(
        "wal_dir", help="WAL directory to tail"
    )
    follow.add_argument(
        "--once",
        action="store_true",
        help="catch up to the current head and exit (no polling)",
    )
    follow.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="tail for this long, then report (default: forever)",
    )
    follow.add_argument(
        "--max-records",
        type=int,
        default=None,
        metavar="N",
        help="stop after applying N records",
    )
    follow.add_argument(
        "--interval",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="initial poll interval; doubles while idle (default: 0.05)",
    )
    follow.add_argument(
        "--query",
        default=None,
        help="after catching up, run this RPQ on the replica",
    )
    follow.add_argument("--source", default=None, help="query source vertex")
    follow.add_argument("--target", default=None, help="query target vertex")
    follow.add_argument(
        "--limit", type=int, default=None, help="emit at most N walks"
    )
    follow.set_defaults(func=_cmd_follow)

    serve_p = sub.add_parser(
        "serve",
        help="serve the graph over TCP from a pool of worker processes",
    )
    serve_p.add_argument("graph", help="graph file (.json or edge list)")
    serve_p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: local)"
    )
    serve_p.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default: 0 = pick a free port, printed on stdout)",
    )
    serve_p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes mapping the shared graph (default: 2)",
    )
    serve_p.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="bounded in-flight requests per worker (default: 8)",
    )
    serve_p.add_argument(
        "--routing",
        choices=["round_robin", "affinity"],
        default="round_robin",
        help="dispatch policy: round_robin, or affinity — pin each "
        "(query, source) pair to one worker so the pool's aggregate "
        "annotation-cache capacity scales with the worker count",
    )
    serve_p.add_argument(
        "--mode",
        choices=MODES,
        default="auto",
        help="accepted and validated, but selects nothing: every mode "
        "pages through one DFS",
    )
    serve_p.add_argument(
        "--plan-cache",
        type=int,
        default=256,
        help="per-worker plan cache capacity",
    )
    serve_p.add_argument(
        "--annotation-cache",
        type=int,
        default=128,
        help="per-worker annotation cache capacity",
    )
    serve_p.add_argument(
        "--stdio",
        action="store_true",
        help="serve one JSONL connection over stdin/stdout instead of TCP",
    )
    serve_p.add_argument(
        "--metrics",
        type=int,
        default=None,
        metavar="PORT",
        help="also expose Prometheus-style text metrics on this port "
        "(0 = pick a free port, printed on stderr)",
    )
    serve_p.add_argument(
        "--slow-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="worker slow-query log threshold in milliseconds "
        "(default: 0 = record every request's span tree)",
    )
    serve_p.set_defaults(func=_cmd_serve)

    plan = sub.add_parser("plan", help="explain the chosen algorithm")
    plan.add_argument("graph")
    plan.add_argument("expression")
    plan.set_defaults(func=_cmd_plan)

    stats = sub.add_parser(
        "stats",
        help="print database statistics, or query a running server's "
        "observability aggregation with --port",
    )
    stats.add_argument(
        "graph", nargs="?", default=None, help="graph file (local mode)"
    )
    stats.add_argument(
        "--host", default="127.0.0.1", help="serve-pool host (remote mode)"
    )
    stats.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve-pool port: fetch the cross-worker stats aggregation "
        "from a running `repro serve` instead of reading a graph file",
    )
    stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
