"""Set-up, the timed loops and the end-to-end metrics of one workload run.

Load is closed-loop from one caller; only ``serve.rps`` (layers.py)
uses ``min(2, nproc)`` connections against a one-worker server.  GC
stays enabled.  An op that raises, times out or answers wrongly is a
failed op and contributes no latency sample.  Every sample is scaled
to the reference CPU speed (speed.py).
"""

from __future__ import annotations

import gc
import importlib.util
import os
import resource
import shutil
import statistics
import threading
import time
from collections import defaultdict
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import Database
from repro.graph.io import save_json
from repro.service import QueryService

import hygiene
from spans import Recorder, call
from speed import SpeedScale, pin_to_one_cpu
from tiers import (
    DELAY_BATCH,
    Answer,
    EngineProbe,
    db_request,
    engine_request,
    serve_request,
    to_answer,
)
from workloads import (
    ROUNDS_PER_PASS,
    MutationStream,
    Spec,
    WrongAnswer,
    check_against_baselines,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

CONNECTIONS = min(2, os.cpu_count() or 1)

#: Metric name → its per-repetition values; run.py reports their median.
Metrics = Dict[str, List[float]]


def _load_serve_client():
    # ``import repro.serve.client`` would run the package __init__, which
    # imports the server and multiprocessing.shared_memory (see hygiene).
    spec = importlib.util.spec_from_file_location(
        "spine_serve_client", os.path.join(SRC, "repro", "serve", "client.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ServeClient


ServeClient = _load_serve_client()


# -- statistics --------------------------------------------------------------


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; the maximum when the sample is small."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def p90(values: Sequence[float]) -> float:
    return percentile(values, 0.90)


def p99(values: Sequence[float]) -> float:
    return percentile(values, 0.99)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median with the quartiles beside it and the sample count."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# -- one run's op log --------------------------------------------------------


class Samples:
    """Latencies by op kind, grouped into repetitions, plus failures."""

    def __init__(self, scale: Optional[SpeedScale] = None) -> None:
        self.scale = scale
        self.reps: List[Dict[str, List[float]]] = []
        #: Wall seconds per repetition, set only by the concurrent
        #: phase; a single caller's busy time is the sum of its ops.
        self.rep_wall: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def new_rep(self) -> None:
        self.reps.append(defaultdict(list))

    def absorb(self, other: "Samples") -> None:
        """Count another log's attempts and failures, not its samples."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: 5 - len(self.errors)])

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def timed(self, fn: Callable, *args) -> Tuple[Any, float]:
        """``(result, seconds)``; ``(None, -1.0)`` when the op raised."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 — a failed op is a data point
            self.fail(f"{type(exc).__name__}: {exc}")
            return None, -1.0
        return result, time.perf_counter() - started

    def ok(self, kind: str, seconds: float) -> None:
        samples = self.reps[-1][kind]
        samples.append(seconds)
        if self.scale is not None:
            self.scale.note(samples, len(samples) - 1)
            self.scale.tick()

    def query(self, kind: str, expect: Optional[Answer], fn: Callable, *args):
        """Time one query op and check its answer; returns the Answer."""
        raw, seconds = self.timed(fn, *args)
        if raw is None:
            return None
        try:
            answer = to_answer(raw)
        except (RuntimeError, KeyError, ValueError) as exc:
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        if expect is not None and answer != expect:
            self.fail(f"{kind}: answer differs from the reference tier")
            return None
        self.ok(kind, seconds)
        return answer

    def pooled(self, rep: Dict[str, List[float]], kinds=None) -> List[float]:
        return [x for k, xs in rep.items() if kinds is None or k in kinds for x in xs]

    def per_rep(self, stat: Callable[[List[float]], float], kinds=None) -> List[float]:
        pools = (self.pooled(rep, kinds) for rep in self.reps)
        return [stat(pool) for pool in pools if pool]

    def everything(self, kinds=None) -> List[float]:
        return [x for rep in self.reps for x in self.pooled(rep, kinds)]

    def req_per_s(self) -> List[float]:
        """Per-repetition requests ÷ busy seconds."""
        busy = self.rep_wall or [sum(self.pooled(rep)) for rep in self.reps]
        return [len(self.pooled(rep)) / b for rep, b in zip(self.reps, busy) if b > 0]


def open_log(scale: Optional[SpeedScale] = None) -> Samples:
    """A log with its first repetition open."""
    log = Samples(scale)
    log.new_rep()
    return log


# -- set-up ------------------------------------------------------------------


class Context:
    """One set-up of a workload: inputs plus its serving tier, booted."""

    def __init__(self, spec: Spec, seed: int, smoke: bool, workdir: str) -> None:
        started = time.perf_counter()
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.graph, self.requests = spec.generate(seed, smoke)
        built = time.perf_counter()
        self.graph.warm_indexes()
        self.build_s = built - started
        self.warm_indexes_s = time.perf_counter() - built
        self.server: Optional[hygiene.ServeProcess] = None
        self.boot_s = self.drain_s = 0.0
        self.clients: List[Any] = []
        self.shm_prefixes: List[str] = []
        self.durable: Optional[Database] = None
        self.wal_dir = os.path.join(workdir, "wal")
        try:
            if spec.tier == "serve":
                self.boot_server()
            elif spec.tier == "durable":
                self.durable = Database.open(
                    self.wal_dir, graph=self.graph, sync="group", **self.caches()
                )
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def caches(self) -> Dict[str, int]:
        return {
            "plan_cache_size": self.spec.plan_cache,
            "annotation_cache_size": self.spec.annotation_cache,
        }

    def boot_server(self) -> None:
        path = os.path.join(self.workdir, "graph.json")
        save_json(self.graph, path)
        self.server = hygiene.ServeProcess(
            SRC,
            path,
            ["--workers", "1", "--mode", "memoryless",
             "--plan-cache", str(self.spec.plan_cache),
             "--annotation-cache", str(self.spec.annotation_cache)],
            os.path.join(self.workdir, "serve.log"),
        )
        self.boot_s = self.server.boot_s
        for _ in range(CONNECTIONS):
            self.clients.append(ServeClient("127.0.0.1", self.server.port))
        segment = self.server_stats()["server"]["segment"]
        self.server.shm_prefix = segment.rsplit("-e", 1)[0]
        self.shm_prefixes.append(self.server.shm_prefix)

    def server_stats(self) -> Dict[str, Any]:
        return self.clients[0].stats()["stats"]

    def database(self, graph=None) -> Database:
        return Database(graph if graph is not None else self.graph, **self.caches())

    def service(self) -> QueryService:
        service = QueryService(max_workers=1, **self.caches())
        service.register_graph("default", self.graph, warm=False)
        return service

    def close(self) -> None:
        """Release everything; raises HygieneError after the clean-up."""
        for client in self.clients:
            client.close()
        self.clients = []
        if self.durable is not None:
            self.durable.close()
            self.durable = None
        server, self.server = self.server, None
        try:
            if server is not None:
                server.stop()
        finally:
            if server is not None:
                self.drain_s = server.drain_s
            shutil.rmtree(self.workdir, ignore_errors=True)


def repeated_setup(
    spec: Spec, seed: int, smoke: bool, workdir: str, budget_s: float, scale: SpeedScale
) -> Tuple[Context, List[float]]:
    """Set up at least three times; the last context is kept."""
    times: List[float] = []
    started = time.perf_counter()
    ctx: Optional[Context] = None
    while len(times) < 3 or (
        len(times) < 30 and time.perf_counter() - started < budget_s
    ):
        if ctx is not None:
            ctx.close()
            ctx = None
            gc.collect()
        scale.close_chunk()
        ctx = Context(spec, seed, smoke, os.path.join(workdir, f"s{len(times)}"))
        times.append(ctx.setup_s)
        scale.note(times, len(times) - 1)
        scale.close_chunk()
    assert ctx is not None
    return ctx, times


# -- passes ------------------------------------------------------------------


class EngineCaller:
    """Engine-tier requests with their first-output and batch stamps."""

    def __init__(self, ctx: Context, scale: Optional[SpeedScale] = None) -> None:
        self.graph = ctx.graph
        self.keep = ctx.spec.keep
        self.scale = scale
        self.probe = EngineProbe()
        self.reset()

    def reset(self) -> None:
        self.ttf: List[float] = []
        self.first_output: List[float] = []
        #: Seconds per output, one sample per batch of DELAY_BATCH.
        self.delays: List[float] = []
        self.da = 0
        self.lam_a_outputs = 0

    def __call__(self, request, rec: Optional[Recorder] = None) -> Answer:
        probe = self.probe
        answer = engine_request(self.graph, request, rec, probe, self.keep)
        self._keep(self.ttf, probe.first_at - probe.started)
        self.da += probe.da
        self.lam_a_outputs += probe.lam_a * answer.outputs
        if rec is not None:
            # Only the traced run reads these, and a 2^18-answer request
            # has 4096 batches: keep them out of the untraced timings.
            self._keep(self.first_output, probe.first_at - probe.enumerating_at)
            stamps = probe.stamps
            for a, b in zip(stamps, stamps[1:]):
                self._keep(self.delays, (b - a) / DELAY_BATCH)
        return answer

    def _keep(self, samples: List[float], seconds: float) -> None:
        samples.append(seconds)
        if self.scale is not None:
            # Scaled with the op it belongs to, when that op's chunk closes.
            self.scale.note(samples, len(samples) - 1)


def read_pass(
    requests: Sequence[Dict[str, Any]],
    kind: str,
    sink: Samples,
    expected: Sequence[Optional[Answer]],
    fn: Callable,
    rec: Optional[Recorder] = None,
) -> List[Optional[Answer]]:
    """Every request once through ``fn(request, rec)``."""
    answers = []
    for request, expect in zip(requests, expected):
        if rec is not None:
            rec.request += 1
        answers.append(sink.query(kind, expect, fn, request, rec))
    return answers


class MutationLog:
    """What the write path reported, summed over a run."""

    def __init__(self) -> None:
        self.batches = 0
        self.ops = 0
        self.evicted_annotations = 0
        self.compactions = 0


def mutate_pass(
    ctx: Context,
    db: Database,
    stream: MutationStream,
    sink: Samples,
    expected: Sequence[Answer],
    log: MutationLog,
    rec: Optional[Recorder] = None,
) -> None:
    """Four rounds of {one 4-op batch; every read}."""
    for _ in range(ROUNDS_PER_PASS):
        ops, queried = stream.next_batch(db.live())
        if rec is not None:
            rec.request += 1
        result, seconds = sink.timed(call, rec, "live.mutate", db.mutate, ops)
        if result is not None:
            sink.ok("mutate", seconds)
            log.batches += 1
            log.ops += len(ops)
            log.evicted_annotations += result.evicted_annotations
            log.compactions += result.compacted
        kind = "read_after_write" if queried else "read"
        read_pass(ctx.requests, kind, sink, expected, partial(db_request, db), rec)


def timed_reps(seconds: float, reps: int, sink: Samples, one_pass: Callable[[], Any]) -> None:
    """``reps`` repetitions, each as many whole passes as fit its time
    share (always one)."""
    share = seconds / reps
    for _ in range(reps):
        sink.new_rep()
        started = last = time.perf_counter()
        while True:
            one_pass()
            now = time.perf_counter()
            if (now - started) + (now - last) > share:
                break
            last = now


def concurrent_reps(
    ctx: Context, seconds: float, reps: int, sink: Samples,
    expected: Sequence[Answer], clients: Sequence[Any],
) -> None:
    """Closed loop from one thread per connection.

    Connection ``i`` of ``n`` scans requests ``i::n`` cyclically: the
    shares are disjoint, so a cyclic scan stays one (a key's reuse
    distance only grows) however the threads drift.
    """
    share = seconds / reps
    n = len(clients)
    for _ in range(reps):
        sink.new_rep()
        barrier = threading.Barrier(n + 1)
        logs = [open_log() for _ in clients]

        def loop(index: int) -> None:
            log, fn = logs[index], partial(serve_request, clients[index])
            barrier.wait()
            started = time.perf_counter()
            while time.perf_counter() - started < share:
                read_pass(ctx.requests[index::n], "serve", log, expected[index::n], fn)

        threads = [threading.Thread(target=loop, args=(i,)) for i in range(n)]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        sink.rep_wall.append(time.perf_counter() - started)
        for log in logs:
            sink.absorb(log)
            sink.reps[-1]["serve"].extend(log.reps[-1]["serve"])


def reference_answers(ctx: Context) -> List[Answer]:
    """The request list answered in-process by ``Database``: the tier
    the TCP and durable workloads are compared against, itself checked
    against the baselines."""
    db = ctx.database()
    answers = [db_request(db, request) for request in ctx.requests]
    ctx.spec.check(ctx.graph, ctx.requests, answers, ctx.seed)
    return answers


def warm_engine(ctx: Context, engine: EngineCaller, sink: Samples) -> List[Answer]:
    """The engine tier's warm pass is also its reference: nothing else
    answers these requests, so the workload's own assertions check it."""
    warm = open_log()
    answers = read_pass(ctx.requests, "engine", warm, [None] * len(ctx.requests), engine)
    sink.absorb(warm)
    if warm.failed:
        raise WrongAnswer(f"engine warm pass failed: {warm.errors}")
    ctx.spec.check(ctx.graph, ctx.requests, answers, ctx.seed)
    engine.reset()
    return answers


def cache_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    delta = {k: after[k] - before[k] for k in ("hits", "misses", "evictions")}
    delta["hit_rate"] = delta["hits"] / max(1, delta["hits"] + delta["misses"])
    return delta


def check_hit_rate(spec: Spec, hit_rate: float) -> None:
    """``transport_hot`` must not annotate, ``transport_thrash`` must always."""
    if spec.hit_rate is not None:
        low, high = spec.hit_rate
        if not low <= hit_rate <= high:
            raise WrongAnswer(
                f"annotation hit rate {hit_rate:.3f} outside [{low}, {high}]"
            )


def worker_service_stats(stats: Dict[str, Any]) -> Dict[str, Any]:
    return stats["workers"][0]["service"]


def check_recovery(ctx: Context, db: Database, expected: Sequence[Answer]) -> float:
    """Close, recover, require recovered == live; returns recover seconds."""
    live = [db_request(db, request) for request in ctx.requests]
    db.close()
    started = time.perf_counter()
    recovered = Database.recover(ctx.wal_dir)
    recover_s = time.perf_counter() - started
    again = [db_request(recovered, request) for request in ctx.requests]
    if again != live or live != list(expected):
        raise WrongAnswer("recovered answers differ from the live ones")
    check_against_baselines(db.live().to_graph(), ctx.requests[0], live[0])
    return recover_s


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the untraced run: end-to-end metrics ------------------------------------


def time_to_first(
    ctx: Context, budget_s: float, engine: Optional[EngineCaller], sink: Samples
) -> List[float]:
    """Cold engine-tier seconds from request text to the first walk,
    per pass over the request list.

    A workload served at the engine tier already has one sample per
    timed request; ``limit=1`` passes add to them for ``budget_s`` (at
    least one pass where there is no sample yet).
    """
    samples = engine.ttf if engine is not None else []
    probes = [dict(request, limit=1) for request in ctx.requests]
    unchecked: List[Optional[Answer]] = [None] * len(probes)
    extra = EngineCaller(ctx, sink.scale)
    log = open_log(sink.scale)
    if samples:
        passes = int(budget_s / (statistics.mean(samples) * len(probes)))
    else:
        read_pass(probes, "ttf", log, unchecked, extra)  # first-call costs
        extra.reset()
        passes = -1
    started = time.perf_counter()
    while passes:
        read_pass(probes, "ttf", log, unchecked, extra)
        passes -= 1
        if passes < 0 and time.perf_counter() - started >= budget_s:
            break
    sink.absorb(log)
    if sink.scale is not None:
        sink.scale.close_chunk()
    # One value per pass, the mean over its requests: the request mix is
    # several clusters of cost, and a median over it would sit in the gap
    # between two of them, wherever the seed put that.
    everything = samples + extra.ttf
    n = len(probes)
    return [statistics.mean(everything[i : i + n]) for i in range(0, len(everything), n)]


def run_untraced(
    spec: Spec, seed: int, seconds: float, smoke: bool, workdir: str
) -> Tuple[Samples, List[str], Metrics]:
    pin_to_one_cpu(smoke)
    scale = SpeedScale()
    ctx, setup_times = repeated_setup(spec, seed, smoke, workdir, 0.15 * seconds, scale)
    sink = Samples(scale)
    warm = open_log()
    engine = None
    try:
        if spec.tier == "engine":
            engine = EngineCaller(ctx, scale)
            started = time.perf_counter()
            expected = warm_engine(ctx, engine, sink)
            # A long pass gets three repetitions, a short one five.
            reps = 5 if 5 * (time.perf_counter() - started) <= 0.9 * seconds else 3

            def one_pass() -> None:
                read_pass(ctx.requests, "engine", sink, expected, engine)

        elif spec.tier == "serve":
            expected = reference_answers(ctx)
            reps = 5
            serve = partial(serve_request, ctx.clients[0])
            read_pass(ctx.requests, "serve", warm, expected, serve)
            before = worker_service_stats(ctx.server_stats())

            def one_pass() -> None:
                read_pass(ctx.requests, "serve", sink, expected, serve)

        else:
            expected = reference_answers(ctx)
            reps = 5
            db = ctx.durable
            stream = MutationStream(seed, ctx.graph.vertex_count)
            log = MutationLog()
            mutate_pass(ctx, db, stream, warm, expected, log)

            def one_pass() -> None:
                mutate_pass(ctx, db, stream, sink, expected, log)

        scale.close_chunk()
        timed_reps(0.9 * seconds, reps, sink, one_pass)
        scale.close_chunk()
        sink.absorb(warm)
        if spec.tier == "serve":
            after = worker_service_stats(ctx.server_stats())
            check_hit_rate(
                spec,
                cache_delta(before["annotation_cache"], after["annotation_cache"])[
                    "hit_rate"
                ],
            )
        elif spec.tier == "durable":
            check_recovery(ctx, db, expected)
        ttf = time_to_first(ctx, 0.1 * seconds, engine, sink)
    finally:
        ctx.close()
    ms = 1e3
    metrics: Metrics = {
        "setup_s": setup_times,
        "time_to_first_ms": [x * ms for x in ttf],
        "req_ms_p50": [x * ms for x in sink.per_rep(statistics.median)],
        "req_ms_p90": [x * ms for x in sink.per_rep(p90)],
        "req_per_s": sink.req_per_s(),
        "peak_rss_mb": [peak_rss_mb()],
        # Not declared in BENCHMARK.json: how far the box ran from the
        # reference speed the times above are scaled to.
        "speed_factor": scale.factors,
    }
    return sink, ctx.shm_prefixes, metrics
