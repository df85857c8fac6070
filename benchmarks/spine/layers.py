"""The traced run: every tier a workload names, and the per-layer metrics.

Each tier is walked by alternating an untraced and a traced pass over
the same request list.  Per-layer numbers come from the traced passes'
spans (spans.py) and from what the program itself reports
(``cache_stats()``, ``ServeClient.stats()``); the untraced twins give
the tracing overhead.  A layer the workload leaves idle reports 0.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.live import LiveGraph
from repro.wal.writer import LOG_NAME

import hygiene
from measure import (
    CONNECTIONS,
    Context,
    EngineCaller,
    Metrics,
    MutationLog,
    Samples,
    cache_delta,
    check_hit_rate,
    check_recovery,
    concurrent_reps,
    mutate_pass,
    open_log,
    p99,
    read_pass,
    reference_answers,
    warm_engine,
    worker_service_stats,
)
from spans import Recorder
from speed import SpeedScale, pin_to_one_cpu
from tiers import Answer, db_request, serve_request, service_request
from workloads import ROUNDS_PER_PASS, MutationStream, Spec, WrongAnswer

_US, _MS = 1e6, 1e3


class Traced:
    """What the per-tier tracers share: the span log, the op logs of the
    traced passes and of their untraced twins, and the metrics so far."""

    def __init__(self, ctx: Context, seed: int, budget_s: float, cpus: set) -> None:
        self.ctx = ctx
        self.seed = seed
        self.budget_s = budget_s
        #: CPUs the run was allowed before it pinned itself to one.
        self.cpus = cpus
        self.scale = SpeedScale()
        self.rec = Recorder(self.scale)
        self.sink = open_log(self.scale)
        self.plain = open_log(self.scale)
        self.m: Dict[str, float] = defaultdict(float)
        #: Traced median request seconds per tier walked so far.
        self.p50: Dict[str, float] = defaultdict(float)
        self.expected: List[Optional[Answer]] = [None] * len(ctx.requests)

    def paired(self, budget_s: float, plain: Callable[[], Any], traced: Callable[[], Any]) -> None:
        """Alternate untraced and traced passes over the same requests
        until the budget is spent."""
        started = time.perf_counter()
        while True:
            plain()
            traced()
            if time.perf_counter() - started >= budget_s:
                self.scale.close_chunk()
                return

    def paired_reads(self, kind: str, budget_s: float, fn: Callable, traced_fn=None) -> None:
        requests = self.ctx.requests
        self.paired(
            budget_s,
            lambda: read_pass(requests, kind, self.plain, self.expected, fn),
            lambda: read_pass(
                requests, kind, self.sink, self.expected, traced_fn or fn, self.rec
            ),
        )

    def span_p50(self, tier: str, span: str) -> float:
        self.p50[tier] = statistics.median(self.rec.durations(span))
        return self.p50[tier] * _MS


def trace_engine(t: Traced) -> None:
    ctx, rec, m = t.ctx, t.rec, t.m
    untraced, engine = EngineCaller(ctx), EngineCaller(ctx, t.scale)
    answers = warm_engine(ctx, untraced, t.sink)
    if ctx.spec.tier == "engine":
        t.expected = answers
    elif answers != t.expected:
        raise WrongAnswer("engine and Database tiers disagree")
    t.paired_reads("engine", t.budget_s, untraced, engine)
    requests = len(rec.durations("engine"))
    total = sum(rec.durations("engine"))
    self_s = defaultdict(float, rec.self_times())
    m["automata.parse_us"] = statistics.median(rec.durations("automata")) * _US
    m["compile.compile_us"] = statistics.median(rec.durations("compile")) * _US
    for layer in ("annotate", "trim", "enumerate"):
        m[f"{layer}.busy_ms"] = self_s[layer] / requests * _MS
    m["annotate.entries"] = rec.count_total("annotate", "entries") / requests
    m["trim.items"] = rec.count_total("trim", "items") / requests
    m["enumerate.outputs"] = rec.count_total("enumerate", "outputs") / requests
    m["annotate.ns_per_da"] = self_s["annotate"] / engine.da * 1e9
    if engine.lam_a_outputs:
        m["enumerate.ns_per_lam_a"] = self_s["enumerate"] / engine.lam_a_outputs * 1e9
    m["enumerate.first_output_us"] = statistics.median(engine.first_output) * _US
    if engine.delays:
        m["enumerate.delay_us_p50"] = statistics.median(engine.delays) * _US
        m["enumerate.delay_us_p99"] = p99(engine.delays) * _US
    m["engine.req_ms_p50"] = t.span_p50("engine", "engine")
    m["engine.annotate_trim_share"] = (self_s["annotate"] + self_s["trim"]) / total
    m["engine.enumerate_share"] = self_s["enumerate"] / total
    # Σ self times of the engine-tier spans ÷ the untraced request time
    # of the same number of passes: 1 + what tracing added.
    m["engine.self_sum_frac"] = total / sum(t.plain.everything({"engine"}))


def trace_db(t: Traced) -> None:
    ctx, m = t.ctx, t.m
    db = ctx.database()
    fn = partial(db_request, db)
    read_pass(ctx.requests, "api", open_log(), t.expected, fn)
    before = db.cache_stats()
    t.paired_reads("api", t.budget_s, fn)
    after = db.cache_stats()
    m["api.req_ms_p50"] = t.span_p50("db", "api")
    m["api.req_ms_p99"] = p99(t.rec.durations("api")) * _MS
    annotation = cache_delta(before["annotation_cache"], after["annotation_cache"])
    m["api.plan_hit_rate"] = cache_delta(before["plan_cache"], after["plan_cache"])["hit_rate"]
    m["api.annotation_hit_rate"] = annotation["hit_rate"]
    m["api.annotation_evictions"] = annotation["evictions"]
    # What the façade adds over the compute it had to do: a miss costs
    # one engine-tier request, a hit none.
    compute = (1.0 - annotation["hit_rate"]) * t.p50["engine"]
    m["api.tax_us"] = (t.p50["db"] - compute) * _US
    check_hit_rate(ctx.spec, annotation["hit_rate"])


def trace_service(t: Traced) -> None:
    ctx, rec, m = t.ctx, t.rec, t.m
    fn = partial(service_request, ctx.service())
    read_pass(ctx.requests, "service", open_log(), t.expected, fn)
    t.paired_reads("service", t.budget_s, fn)
    m["service.req_ms_p50"] = t.span_p50("service", "service")
    m["service.parse_us"] = statistics.median(rec.durations("service.parse")) * _US
    m["service.render_us"] = statistics.median(rec.durations("service.render")) * _US
    m["service.tax_us"] = (t.p50["service"] - t.p50["db"]) * _US


def trace_serve(t: Traced) -> None:
    ctx, m = t.ctx, t.m
    fn = partial(serve_request, ctx.clients[0])
    read_pass(ctx.requests, "serve", open_log(), t.expected, fn)
    before = worker_service_stats(ctx.server_stats())
    first_chunk = len(t.scale.factors)
    t.paired_reads("serve", 0.6 * t.budget_s, fn)
    after = worker_service_stats(ctx.server_stats())
    # The worker's own clocks ran at the speed these chunks measured.
    speed = statistics.mean(t.scale.factors[first_chunk:])
    m["serve.req_ms_p50"] = t.span_p50("serve", "serve")
    m["serve.req_ms_p99"] = p99(t.rec.durations("serve")) * _MS
    m["serve.tax_us"] = (t.p50["serve"] - t.p50["service"]) * _US
    served = after["requests"] - before["requests"]
    for key, name in (
        ("total_s", "serve.worker_total_us"),
        ("annotation_build_s", "serve.worker_annotate_us"),
        ("enumerate_s", "serve.worker_enumerate_us"),
    ):
        m[name] = (after[key] - before[key]) / served * speed * _US
    check_hit_rate(
        ctx.spec,
        cache_delta(before["annotation_cache"], after["annotation_cache"])["hit_rate"],
    )
    # Latencies above were taken on one core, like the end-to-end run;
    # throughput wants every core the box has.
    for pid in [0, *hygiene.session_members(ctx.server.sid)]:
        os.sched_setaffinity(pid, t.cpus)
    rps = {}
    for connections in sorted({1, CONNECTIONS}):
        load = Samples()
        concurrent_reps(
            ctx, 0.2 * t.budget_s, 3, load, t.expected, ctx.clients[:connections]
        )
        t.sink.absorb(load)
        rps[connections] = statistics.median(load.req_per_s())
    m["serve.rps"] = rps[CONNECTIONS]
    m["serve.scaling"] = rps[CONNECTIONS] / rps[1]
    m["serve.boot_s"] = ctx.boot_s


def trace_durable(t: Traced) -> None:
    """The write path: durable batches, their non-durable twins, recovery."""
    ctx, m = t.ctx, t.m
    db = ctx.durable
    stream = MutationStream(t.seed, ctx.graph.vertex_count)
    log = MutationLog()
    mutate_pass(ctx, db, stream, open_log(), t.expected, log)
    t.paired(
        0.7 * t.budget_s,
        lambda: mutate_pass(ctx, db, stream, t.plain, t.expected, log),
        lambda: mutate_pass(ctx, db, stream, t.sink, t.expected, log, t.rec),
    )
    # The same op stream against an overlay with no log behind it.
    bare = ctx.database(LiveGraph(ctx.graph))
    bare_stream = MutationStream(t.seed, ctx.graph.vertex_count)
    bare_log = open_log(t.scale)
    for _ in range(log.batches // ROUNDS_PER_PASS):
        mutate_pass(ctx, bare, bare_stream, bare_log, t.expected, MutationLog())
    t.sink.absorb(bare_log)
    durable_p50 = statistics.median(
        t.plain.everything({"mutate"}) + t.sink.everything({"mutate"})
    )
    bare_p50 = statistics.median(bare_log.everything({"mutate"}))
    m["wal.mutate_ms_p50"] = durable_p50 * _MS
    m["live.apply_us"] = bare_p50 * _US
    m["wal.tax_us"] = (durable_p50 - bare_p50) * _US
    m["live.read_after_write_ms_p50"] = (
        statistics.median(t.sink.everything({"read_after_write"})) * _MS
    )
    m["live.evicted_annotations"] = log.evicted_annotations / log.batches
    m["live.compactions"] = log.compactions
    m["wal.bytes_per_op"] = os.path.getsize(os.path.join(ctx.wal_dir, LOG_NAME)) / log.ops
    t.scale.close_chunk()
    recover = [check_recovery(ctx, db, t.expected)]
    t.scale.note(recover, 0)
    t.scale.close_chunk()
    m["wal.recover_ms"] = recover[0] * _MS


_TRACERS = {
    "engine": trace_engine,
    "db": trace_db,
    "service": trace_service,
    "serve": trace_serve,
    "durable": trace_durable,
}


def run_traced(
    spec: Spec, seed: int, seconds: float, smoke: bool, workdir: str
) -> Tuple[Samples, List[str], Metrics, Recorder]:
    """Every tier the workload names, untraced and traced in turn.

    Per-layer numbers come from the traced passes; the untraced passes
    over the same request list give the tracing overhead.  A layer the
    workload leaves idle reports 0.
    """
    cpus = pin_to_one_cpu(smoke)
    ctx = Context(spec, seed, smoke, os.path.join(workdir, "traced"))
    t = Traced(ctx, seed, 0.8 * seconds / len(spec.trace_tiers), cpus)
    try:
        t.m["graph.build_s"] = ctx.build_s
        t.m["graph.warm_indexes_s"] = ctx.warm_indexes_s
        t.m["graph.size"] = ctx.graph.size()
        if spec.tier != "engine":
            t.expected = reference_answers(ctx)
        for tier in spec.trace_tiers:
            _TRACERS[tier](t)
        t.m["obs.trace_overhead_frac"] = (
            sum(t.sink.everything()) / sum(t.plain.everything()) - 1.0
        )
    finally:
        ctx.close()
    t.m["serve.drain_s"] = ctx.drain_s
    t.sink.absorb(t.plain)
    return t.sink, ctx.shm_prefixes, {k: [v] for k, v in t.m.items()}, t.rec
