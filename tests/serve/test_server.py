"""End-to-end tests of the asyncio serving tier (real worker processes).

Each test boots a real :class:`~repro.serve.ServeServer` — forked
workers mapping a real shared-memory segment — inside ``asyncio.run``,
and always drains it, so a passing run leaves ``/dev/shm`` clean.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal

import pytest

from repro.graph.builder import GraphBuilder
from repro.serve.server import ServeServer


def _demo_graph():
    builder = GraphBuilder()
    builder.add_edge("Alix", "Dan", ["h", "s"])
    builder.add_edge("Dan", "Eve", ["h"])
    builder.add_edge("Eve", "Bob", ["s"])
    builder.add_edge("Alix", "Bob", ["t"])
    return builder.build()


def _shm_entries(base: str):
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-Linux
        return []
    return [f for f in os.listdir(root) if f.startswith(base)]


async def _booted(**kwargs) -> ServeServer:
    server = ServeServer(_demo_graph(), **kwargs)
    await server.start()
    return server


async def _tcp_exchange(port: int, lines):
    """Send every request line, then read that many responses in order."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for line in lines:
            writer.write(json.dumps(line).encode() + b"\n")
        await writer.drain()
        out = []
        for _ in range(len(lines)):
            raw = await asyncio.wait_for(reader.readline(), timeout=30)
            assert raw, "server closed mid-batch"
            out.append(json.loads(raw))
        return out
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def test_tcp_mixed_batch_in_order_with_read_your_writes() -> None:
    async def scenario():
        server = await _booted(workers=2)
        base = server._segment_base
        try:
            port = await server.start_tcp()
            responses = await _tcp_exchange(
                port,
                [
                    {"query": "h* s (h | s)*", "source": "Alix",
                     "target": "Bob", "id": 1},
                    {"query": "h", "source": "Bob", "target": "Alix",
                     "id": 2},  # edge does not exist yet
                    {"mutate": [{"op": "add_edge", "src": "Bob",
                                 "tgt": "Alix", "labels": ["h"]}], "id": 3},
                    {"query": "h", "source": "Bob", "target": "Alix",
                     "id": 4},  # barrier: must see the new edge
                    {"query": "h", "source": "missing", "target": "Bob",
                     "id": 5},
                ],
            )
            assert [r.get("id") for r in responses] == [1, 2, 3, 4, 5]
            assert responses[0]["status"] == "ok"
            assert responses[0]["lam"] == 3
            assert responses[1]["status"] == "empty"  # pre-mutation
            assert responses[2]["status"] == "ok"
            assert responses[2]["result"]["serve_epoch"] == 1
            assert responses[3]["status"] == "ok"  # read-your-writes
            assert responses[3]["lam"] == 1
            assert responses[4]["status"] == "error"
            assert "missing" in responses[4]["error"]
            assert server.epoch == 1
        finally:
            await server.shutdown()
        assert _shm_entries(base) == []

    asyncio.run(scenario())


def test_bad_json_line_answers_in_order() -> None:
    async def scenario():
        server = await _booted(workers=1)
        try:
            port = await server.start_tcp()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b'{"query": "h", "source": "Alix"')  # truncated
                writer.write(b"\n")
                writer.write(
                    json.dumps(
                        {"query": "h h s", "source": "Alix", "target": "Bob"}
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                first = json.loads(await reader.readline())
                second = json.loads(await reader.readline())
                assert first["status"] == "error"
                assert "bad JSON" in first["error"]
                assert second["status"] == "ok"
            finally:
                writer.close()
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_recursive_mode_is_a_typed_error_over_jsonl() -> None:
    """``recursive`` is no engine mode: the protocol answers with the
    typed unknown-mode error and keeps serving the connection."""
    async def scenario():
        server = await _booted(workers=1)
        try:
            port = await server.start_tcp()
            refused, served = await _tcp_exchange(
                port,
                [
                    {"query": "h h s", "source": "Alix", "target": "Bob",
                     "mode": "recursive", "id": 1},
                    {"query": "h h s", "source": "Alix", "target": "Bob",
                     "mode": "iterative", "id": 2},
                ],
            )
            assert refused["id"] == 1 and refused["status"] == "error"
            assert "unknown mode 'recursive'" in refused["error"]
            assert served["id"] == 2 and served["status"] == "ok"
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_worker_kill_every_inflight_request_answered() -> None:
    """SIGKILL a worker mid-stream: each request is still answered,
    either retried to "ok" on the respawned pool or failed with the
    structured ``code="worker_crashed"`` — never hung, never dropped."""

    async def scenario():
        server = await _booted(workers=2, max_inflight=16)
        try:
            payload = {"query": "h* s (h | s)*", "source": "Alix",
                       "target": "Bob"}
            tasks = [
                asyncio.create_task(server.dispatch_query(dict(payload)))
                for _ in range(12)
            ]
            os.kill(server.worker_pids()[0], signal.SIGKILL)
            responses = await asyncio.wait_for(asyncio.gather(*tasks), 60)
            assert len(responses) == 12
            for response in responses:
                assert response["status"] in ("ok", "error")
                if response["status"] == "error":
                    assert response["code"] == "worker_crashed"
            # The pool healed: the slot was respawned and still serves.
            after = await asyncio.wait_for(
                server.dispatch_query(dict(payload)), 30
            )
            assert after["status"] == "ok"
            assert after["lam"] == 3
            stats = server.stats()
            assert stats["respawns"] >= 1
            assert stats["workers"] == 2
            assert None not in server.worker_pids()
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_unresponsive_worker_hits_hard_watchdog() -> None:
    """A SIGSTOP'd worker past timeout_ms + grace is killed and the
    request answered ``code="worker_timeout"``; the slot respawns."""

    async def scenario():
        server = await _booted(workers=1, timeout_grace_s=0.3)
        try:
            os.kill(server.worker_pids()[0], signal.SIGSTOP)
            response = await asyncio.wait_for(
                server.dispatch_query(
                    {"query": "h", "source": "Alix", "target": "Dan",
                     "timeout_ms": 50}
                ),
                30,
            )
            assert response["status"] == "error"
            assert response["code"] == "worker_timeout"
            # Respawn happens via the reader-EOF path; wait for it,
            # then the pool serves again.
            for _ in range(100):
                if server.stats()["respawns"] >= 1:
                    break
                await asyncio.sleep(0.05)
            after = await asyncio.wait_for(
                server.dispatch_query(
                    {"query": "h", "source": "Alix", "target": "Dan"}
                ),
                30,
            )
            assert after["status"] == "ok"
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_affinity_routing_pins_query_source_pairs() -> None:
    async def scenario():
        server = await _booted(workers=4, routing="affinity")
        try:
            a = {"query": "h", "source": "Alix", "target": "Dan"}
            b = {"query": "h", "source": "Dan", "target": "Eve"}
            picks_a = {server._pick(a).index for _ in range(8)}
            picks_b = {server._pick(b).index for _ in range(8)}
            assert len(picks_a) == 1  # same pair → same worker, always
            assert len(picks_b) == 1
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_affinity_shards_fit_the_per_worker_annotation_budget() -> None:
    """The cache-fit behind affinity routing: 4 transport queries x 16
    sources are 64 (query, source) pairs, more than one process's
    24-entry annotation LRU holds, and 4 workers split them so that
    each pair stays on one worker and no worker holds more than 24."""
    from repro.workloads.transport import TRANSPORT_QUERIES

    queries = [
        TRANSPORT_QUERIES[name]
        for name in ("ground_only", "fly_then_ground", "no_bus",
                     "one_flight_max")
    ]
    budget = 24

    async def scenario():
        server = await _booted(workers=4, routing="affinity")
        try:
            homes = {
                (query, s): {
                    server._pick(
                        {"query": query, "source": f"city{s}",
                         "target": f"city{t}"}
                    ).index
                    for t in (90 - s, 50, 95)
                }
                for query in queries
                for s in range(16)
            }
            assert all(len(home) == 1 for home in homes.values())
            shares = [0] * 4
            for (index,) in homes.values():
                shares[index] += 1
            assert len(homes) == 64 > budget
            assert max(shares) <= budget
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_round_robin_spreads_across_workers() -> None:
    async def scenario():
        server = await _booted(workers=3)
        try:
            payload = {"query": "h", "source": "Alix", "target": "Dan"}
            picks = [server._pick(payload).index for _ in range(6)]
            assert set(picks) == {0, 1, 2}
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_invalid_mutation_is_structured_and_graph_survives() -> None:
    async def scenario():
        server = await _booted(workers=1)
        try:
            port = await server.start_tcp()
            responses = await _tcp_exchange(
                port,
                [
                    {"mutate": [{"op": "add_edge", "src": "Alix"}], "id": 1},
                    {"query": "h", "source": "Alix", "target": "Dan",
                     "id": 2},
                ],
            )
            assert responses[0]["status"] == "error"
            assert responses[0]["code"] == "invalid_delta"
            assert responses[1]["status"] == "ok"  # batch survived
            assert server.epoch == 0  # nothing was published
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_a_mutation_that_asks_never_to_compact_is_refused() -> None:
    """Every batch the server applies is compacted and republished, so
    ``"compact": "never"`` is answered with an error, not ``ok``."""
    async def scenario():
        server = await _booted(workers=1)
        try:
            port = await server.start_tcp()
            edge = {"op": "add_edge", "src": "Bob", "tgt": "Alix",
                    "labels": ["h"]}
            probe = {"query": "h", "source": "Bob", "target": "Alix"}
            responses = await _tcp_exchange(
                port,
                [
                    {"mutate": [edge], "compact": "never", "id": 1},
                    dict(probe, id=2),
                    {"mutate": [edge], "compact": "always", "id": 3},
                    dict(probe, id=4),
                ],
            )
            assert responses[0]["status"] == "error"
            assert "never" in responses[0]["error"]
            assert responses[1]["status"] == "empty"  # nothing applied
            assert responses[2]["status"] == "ok"
            assert responses[3]["status"] == "ok"
            assert server.epoch == 1  # only the second batch published
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_constructor_validation() -> None:
    with pytest.raises(ValueError, match="at least one worker"):
        ServeServer(_demo_graph(), workers=0)
    with pytest.raises(ValueError, match="routing"):
        ServeServer(_demo_graph(), routing="random")
    with pytest.raises(TypeError):
        ServeServer({"not": "a graph"})


def test_shutdown_is_clean_without_tcp() -> None:
    async def scenario():
        server = await _booted(workers=2)
        base = server._segment_base
        pids = server.worker_pids()
        await server.shutdown()
        assert _shm_entries(base) == []
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # every worker actually exited

    asyncio.run(scenario())


def test_stdio_serves_with_file_redirects(tmp_path) -> None:
    """``--stdio`` with BOTH ends redirected to regular files.

    ``connect_read_pipe``/``connect_write_pipe`` reject regular files,
    so this shape (``repro serve --stdio < in.jsonl > out.jsonl``)
    exercises the thread-pool fallback reader/writer.  A pipelined
    query → mutation → read-your-writes batch must come back in order,
    the process must exit 0 on stdin EOF, and no segment may leak.
    """
    import subprocess
    import sys
    import time

    graph_path = tmp_path / "graph.txt"
    graph_path.write_text(
        "Alix -> Dan : h, s\nDan -> Eve : h\nEve -> Bob : s\n"
    )
    in_path = tmp_path / "in.jsonl"
    in_path.write_text(
        "\n".join(
            json.dumps(line)
            for line in [
                {"query": "h h s", "source": "Alix", "target": "Bob",
                 "id": 1},
                {"mutate": [{"op": "add_edge", "src": "Bob",
                             "tgt": "Alix", "labels": ["h"]}], "id": 2},
                {"query": "h", "source": "Bob", "target": "Alix",
                 "id": 3},
            ]
        )
        + "\n"
    )
    out_path = tmp_path / "out.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with open(in_path, "rb") as stdin, open(out_path, "wb") as stdout:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(graph_path),
             "--stdio", "--workers", "2"],
            stdin=stdin, stdout=stdout, stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - failure path
                proc.kill()
                proc.wait(timeout=10)
    responses = [
        json.loads(line)
        for line in out_path.read_text().splitlines() if line
    ]
    assert [r["id"] for r in responses] == [1, 2, 3]
    assert responses[0]["status"] == "ok" and responses[0]["lam"] == 3
    assert responses[1]["result"]["serve_epoch"] == 1
    assert responses[2]["status"] == "ok" and responses[2]["lam"] == 1
    if os.path.isdir("/dev/shm"):
        for _ in range(50):  # unlink races process exit briefly
            litter = [n for n in os.listdir("/dev/shm")
                      if n.startswith(f"repro-{proc.pid:x}-")]
            if not litter:
                break
            time.sleep(0.1)
        assert litter == []


def test_stdio_serves_between_two_pipes(tmp_path) -> None:
    """``--stdio`` with BOTH ends pipes (``echo … | repro serve --stdio
    | cat``): the asyncio pipe transports on both sides.

    Every response line must arrive, in order; on stdin EOF the process
    must exit 0 and say nothing on stderr but its final-stats line —
    closing the write pipe used to end in a ``NotImplementedError``
    traceback (the bare ``FlowControlMixin`` has no close waiter) and
    exit status 1.  The server runs in its own session and the whole
    process group is killed on the way out, pass or fail, so no worker
    or resource tracker is left behind.
    """
    import subprocess
    import sys
    import time

    graph_path = tmp_path / "graph.txt"
    graph_path.write_text(
        "Alix -> Dan : h, s\nDan -> Eve : h\nEve -> Bob : s\n"
    )
    lines = [
        {"query": "h h s", "source": "Alix", "target": "Bob", "id": 1},
        {"mutate": [{"op": "add_edge", "src": "Bob", "tgt": "Alix",
                     "labels": ["h"]}], "id": 2},
        {"query": "h", "source": "Bob", "target": "Alix", "id": 3},
        {"query": "(h | s)*", "source": "Alix", "target": "Bob",
         "limit": 1, "id": 4},
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(graph_path),
         "--stdio", "--workers", "1"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(
            "".join(json.dumps(line) + "\n" for line in lines).encode(),
            timeout=60,
        )
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)
    assert proc.returncode == 0, err.decode()
    responses = [json.loads(line) for line in out.splitlines() if line]
    assert [r["id"] for r in responses] == [1, 2, 3, 4]
    assert responses[0]["status"] == "ok" and responses[0]["lam"] == 3
    assert responses[1]["result"]["serve_epoch"] == 1
    assert responses[2]["status"] == "ok" and responses[2]["lam"] == 1
    assert responses[3]["status"] == "ok" and len(responses[3]["walks"]) == 1
    # stderr carries the drain-path stats document and nothing else —
    # in particular no traceback.
    (final,) = [json.loads(line) for line in err.decode().splitlines()]
    assert set(final) == {"final_stats"}
    assert final["final_stats"]["server"]["requests"] == 3
    if os.path.isdir("/dev/shm"):
        for _ in range(50):  # unlink races process exit briefly
            litter = [n for n in os.listdir("/dev/shm")
                      if n.startswith(f"repro-{proc.pid:x}-")]
            if not litter:
                break
            time.sleep(0.1)
        assert litter == []



def _burst(n: int):
    """``n`` distinct, answer-bearing queries with ids 0..n-1."""
    shapes = [
        ("h* s (h | s)*", "Alix", "Bob", 3),
        ("h", "Alix", "Dan", 1),
        ("h h", "Alix", "Eve", 2),
        ("t", "Alix", "Bob", 1),
    ]
    lines = []
    for i in range(n):
        query, source, target, _lam = shapes[i % len(shapes)]
        lines.append({"query": query, "source": source, "target": target,
                      "id": i})
    return lines, [shape[3] for shape in shapes]


def test_no_reader_thread_per_worker() -> None:
    """Worker pipes are read by an event-loop callback, not a thread."""
    import threading

    async def scenario():
        server = await _booted(workers=3)
        try:
            names = [t.name for t in threading.enumerate()]
            assert not [n for n in names if n.startswith("serve-reader-")]
            assert (await server.dispatch_query(
                {"query": "h", "source": "Alix", "target": "Dan"}
            ))["status"] == "ok"
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_pipelined_burst_past_max_inflight_answers_in_order() -> None:
    """32 pipelined queries against 8 slots: the FIFO holds the rest and
    every line is answered, in request order, with its own answer."""

    async def scenario():
        server = await _booted(workers=1, max_inflight=8)
        try:
            port = await server.start_tcp()
            lines, lams = _burst(32)
            responses = await _tcp_exchange(port, lines)
            assert [r["id"] for r in responses] == list(range(32))
            for i, response in enumerate(responses):
                assert response["status"] == "ok"
                assert response["lam"] == lams[i % len(lams)]
            assert server.stats()["requests"] == 32
            (worker,) = server._pool
            assert worker.inflight == 0 and not worker.waiting
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_burst_with_mutation_in_the_middle_reads_its_writes() -> None:
    async def scenario():
        server = await _booted(workers=2, max_inflight=8)
        try:
            port = await server.start_tcp()
            probe = {"query": "h", "source": "Bob", "target": "Alix"}
            lines = (
                [dict(probe, id=i) for i in range(16)]
                + [{"mutate": [{"op": "add_edge", "src": "Bob",
                                "tgt": "Alix", "labels": ["h"]}],
                    "id": 16}]
                + [dict(probe, id=i) for i in range(17, 33)]
            )
            responses = await _tcp_exchange(port, lines)
            assert [r["id"] for r in responses] == list(range(33))
            assert all(r["status"] == "empty" for r in responses[:16])
            assert responses[16]["result"]["serve_epoch"] == 1
            for response in responses[17:]:
                assert response["status"] == "ok" and response["lam"] == 1
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_worker_kill_mid_tcp_burst_answers_every_line() -> None:
    async def scenario():
        server = await _booted(workers=2, max_inflight=8)
        try:
            port = await server.start_tcp()
            lines, _lams = _burst(32)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                for line in lines:
                    writer.write(json.dumps(line).encode() + b"\n")
                await writer.drain()
                os.kill(server.worker_pids()[0], signal.SIGKILL)
                responses = []
                for _ in lines:
                    raw = await asyncio.wait_for(reader.readline(), 60)
                    assert raw, "server closed mid-burst"
                    responses.append(json.loads(raw))
            finally:
                writer.close()
            assert [r["id"] for r in responses] == list(range(32))
            for response in responses:
                assert response["status"] in ("ok", "error")
                if response["status"] == "error":
                    assert response["code"] == "worker_crashed"
            assert server.stats()["respawns"] >= 1
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_large_answer_then_large_request_does_not_deadlock() -> None:
    """A request bigger than the pipe's buffer, sent while the worker is
    writing an answer bigger than the pipe's buffer, must not wedge the
    loop: neither side may block on the pipe while the other does."""
    import threading

    from repro.graph.generators import chain

    async def scenario():
        server = ServeServer(chain(12, ("a",), parallel=2), workers=1)
        await server.start()
        done, stuck = threading.Event(), threading.Event()

        def unwedge():  # kills only on a deadlock, until the test ends
            while not done.wait(20.0):
                stuck.set()
                for pid in server.worker_pids():
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass

        watchdog = threading.Thread(target=unwedge, daemon=True)
        watchdog.start()
        try:
            port = await server.start_tcp()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=1 << 24
            )
            try:
                big_answer = {"query": "a*", "source": "v0",
                              "target": "v12", "id": 0}
                big_request = {"query": "a", "source": "v0",
                               "target": "v1", "id": "x" * 900_000}
                writer.write(json.dumps(big_answer).encode() + b"\n")
                writer.write(json.dumps(big_request).encode() + b"\n")
                await writer.drain()
                first = await reader.readline()
                second = await reader.readline()
            finally:
                writer.close()
            assert len(first) > 1 << 20
            first, second = json.loads(first), json.loads(second)
            assert first["status"] == "ok" and len(first["walks"]) == 4096
            assert second["status"] == "ok" and second["lam"] == 1
            assert second["id"] == big_request["id"]
            assert not stuck.is_set()
        finally:
            done.set()
            await server.shutdown()

    asyncio.run(scenario())


def test_affinity_answers_a_non_object_line_in_order() -> None:
    """Valid JSON that is not an object is answered with an error in
    its place, with or without a mutation barrier pending."""

    async def scenario():
        server = await _booted(workers=2, routing="affinity")
        try:
            port = await server.start_tcp()
            probe = {"query": "h", "source": "Alix", "target": "Dan"}
            mutation = {"mutate": [{"op": "add_vertex", "name": "Zoe"}],
                        "id": 3}
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                for line in (dict(probe, id=0), [1], dict(probe, id=2),
                             mutation, 42, dict(probe, id=5)):
                    writer.write(json.dumps(line).encode() + b"\n")
                await writer.drain()
                responses = [
                    json.loads(await asyncio.wait_for(reader.readline(), 30))
                    for _ in range(6)
                ]
            finally:
                writer.close()
            for i in (1, 4):
                assert responses[i]["status"] == "error"
                assert "JSON object" in responses[i]["error"]
            assert [responses[i]["id"] for i in (0, 2, 3, 5)] == [0, 2, 3, 5]
            assert responses[3]["status"] == "ok"
            for i in (0, 2, 5):
                assert responses[i]["status"] == "ok"
            assert await server.dispatch_query([1]) == responses[1]
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_tcp_responses_match_query_service() -> None:
    """Wire parity: over TCP every spine transport query answers the
    dict ``QueryService.execute(...).to_dict()`` answers in-process,
    field for field, apart from the per-request ``timings``."""
    import random

    from repro.service import QueryService
    from repro.service.requests import QueryRequest
    from repro.workloads.transport import TRANSPORT_QUERIES, transport_network

    graph = transport_network(96, seed=1)
    rng = random.Random(1)
    requests = [
        {"query": TRANSPORT_QUERIES[name], "source": f"city{s}",
         "target": f"city{(s + rng.randint(3, 6)) % 96}", "limit": 10,
         "mode": mode, "id": f"{name}-{s}-{mode}"}
        for name in ("ground_only", "fly_then_ground", "no_bus",
                     "one_flight_max")
        for s in rng.sample(range(96), 4)
        for mode in ("memoryless", "iterative")
    ]
    service = QueryService()
    service.register_graph("default", graph)
    expected = [
        service.execute(QueryRequest.from_dict(r)).to_dict()
        for r in requests
    ]

    async def scenario():
        server = ServeServer(graph, workers=1)
        await server.start()
        try:
            port = await server.start_tcp()
            return await _tcp_exchange(port, requests)
        finally:
            await server.shutdown()

    served = asyncio.run(scenario())
    assert any(e["status"] == "ok" and e["walks"] for e in expected)
    for got, want in zip(served, expected):
        got.pop("timings", None)
        want.pop("timings", None)
        assert got == want


def _session_members(sid: int):
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                raw = fh.read().decode("ascii", "replace")
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp session.
        fields = raw[raw.rindex(")") + 2:].split()
        if int(fields[3]) == sid:
            members.append(int(entry))
    return members


@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="needs /proc to list a session"
)
def test_sigterm_leaves_no_process_in_the_session(tmp_path) -> None:
    """``repro serve`` exits 0 on SIGTERM and takes its whole process
    tree with it — workers *and* the multiprocessing resource tracker —
    so nothing is left in its session before any ``killpg``."""
    import subprocess
    import sys

    graph_path = tmp_path / "graph.txt"
    graph_path.write_text("Alix -> Dan : h, s\nDan -> Eve : h\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(graph_path),
         "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        start_new_session=True,
    )
    try:
        banner = proc.stdout.readline().decode()
        assert banner.startswith("listening on"), banner
        assert len(_session_members(proc.pid)) >= 3  # server + workers
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        # The server reaped every child before exiting: not even a
        # zombie is left for an init process to collect.
        assert _session_members(proc.pid) == []
    finally:
        proc.stdout.close()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if proc.poll() is None:  # pragma: no cover - failure path
            proc.wait(timeout=10)


# -- the connection protocol: line limit, half-close, flow control ----------

_PROBE = {"query": "h", "source": "Alix", "target": "Dan"}


def _padded(size: int, **fields) -> bytes:
    """A ``size``-byte request line (no newline): a query padded with
    spaces, so any tail cut off it is a blank line."""
    head = json.dumps(dict(_PROBE, **fields)).encode()
    return head + b" " * (size - len(head))


@pytest.mark.parametrize(
    "extra, chunked",
    [(0, False), (1, False), (1 << 16, False), (1 << 16, True)],
    ids=["at-the-limit", "one-past-whole", "past-whole", "past-chunked"],
)
def test_a_line_past_max_line_is_answered_once_then_the_next(extra, chunked):
    """A line longer than ``MAX_LINE`` gets one ``request line too
    long`` answer in its place and the next line is served, whether it
    arrives whole or in 64 KiB chunks; a line of exactly ``MAX_LINE``
    bytes is served."""
    from repro.serve.server import MAX_LINE

    long_line = _padded(MAX_LINE + extra, id=0)
    after = json.dumps(dict(_PROBE, id=1)).encode() + b"\n"

    async def scenario():
        server = await _booted(workers=1)
        try:
            port = await server.start_tcp()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                if chunked:
                    for at in range(0, len(long_line), 1 << 16):
                        writer.write(long_line[at:at + (1 << 16)])
                        await writer.drain()
                    writer.write(b"\n" + after)
                else:
                    writer.write(long_line + b"\n" + after)
                await writer.drain()
                writer.write_eof()
                raw = await asyncio.wait_for(reader.read(), 30)
            finally:
                writer.close()
            return [json.loads(line) for line in raw.splitlines()], server.stats()
        finally:
            await server.shutdown()

    (first, second), stats = asyncio.run(scenario())
    if extra:
        assert first == {"status": "error", "lam": None, "walks": [],
                         "next_cursor": None,
                         "error": "request line too long"}
        assert stats["requests"] == 1
    else:
        assert first["status"] == "ok" and first["id"] == 0
        assert stats["requests"] == 2
    assert second["status"] == "ok" and second["id"] == 1


def test_json_nested_past_the_recursion_limit_is_bad_json() -> None:
    """A line of JSON nested deeper than the decoder recurses is
    answered as bad JSON in its place; the connection keeps serving."""

    async def scenario():
        server = await _booted(workers=1)
        try:
            port = await server.start_tcp()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b"[" * 100_000 + b"\n")
                writer.write(json.dumps(dict(_PROBE, id=1)).encode() + b"\n")
                writer.write_eof()
                raw = await asyncio.wait_for(reader.read(), 30)
            finally:
                writer.close()
            return [json.loads(line) for line in raw.splitlines()]
        finally:
            await server.shutdown()

    refused, served = asyncio.run(scenario())
    assert refused["status"] == "error"
    assert refused["error"].startswith("bad JSON: maximum recursion depth")
    assert served["status"] == "ok" and served["id"] == 1


def test_half_close_after_a_pipelined_burst_gets_every_answer_then_eof():
    """``SHUT_WR`` right behind a pipelined burst: every line is still
    answered, in order, and then the server closes its side."""

    async def scenario():
        server = await _booted(workers=2, max_inflight=4)
        try:
            port = await server.start_tcp()
            lines, lams = _burst(32)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(
                    b"".join(json.dumps(line).encode() + b"\n" for line in lines)
                )
                await writer.drain()
                writer.write_eof()
                raw = await asyncio.wait_for(reader.read(), 60)  # to EOF
            finally:
                writer.close()
            responses = [json.loads(line) for line in raw.splitlines()]
            assert [r["id"] for r in responses] == list(range(32))
            for i, response in enumerate(responses):
                assert response["status"] == "ok"
                assert response["lam"] == lams[i % len(lams)]
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_an_answered_line_keeps_nothing_alive() -> None:
    """Once a line is answered its future and bytes are free, however
    long the connection stays open: no list of every future since the
    last mutation grows with the requests served."""
    import gc

    def answered():
        gc.collect()
        return sum(
            1 for o in gc.get_objects()
            if isinstance(o, asyncio.Future) and o.done()
            and not o.cancelled() and isinstance(o.result(), bytes)
        )

    async def scenario():
        server = await _booted(workers=1)
        try:
            port = await server.start_tcp()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                lines, _lams = _burst(300)
                writer.write(
                    b"".join(json.dumps(line).encode() + b"\n" for line in lines)
                )
                await writer.drain()
                for _ in lines:
                    assert await asyncio.wait_for(reader.readline(), 30)
                return answered()
            finally:
                writer.close()
        finally:
            await server.shutdown()

    assert asyncio.run(scenario()) == 0


def test_an_open_connection_adds_no_task() -> None:
    """A connection is a protocol driven by callbacks: serving one
    starts no handler task and no writer task."""

    async def scenario():
        server = await _booted(workers=1)
        try:
            port = await server.start_tcp()
            before = asyncio.all_tasks()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(json.dumps(_PROBE).encode() + b"\n")
                await writer.drain()
                answer = json.loads(await asyncio.wait_for(reader.readline(), 30))
                assert answer["status"] == "ok"
                assert asyncio.all_tasks() - before == set()
            finally:
                writer.close()
        finally:
            await server.shutdown()

    asyncio.run(scenario())


class _CountingLoop(asyncio.SelectorEventLoop):
    """An event loop that counts the callbacks scheduled by ``call_soon``."""

    soon = 0

    def call_soon(self, callback, *args, **kwargs):
        self.soon += 1
        return super().call_soon(callback, *args, **kwargs)


def test_a_pipelined_burst_is_answered_without_call_soon() -> None:
    """32 pipelined lines on one worker: each answer is written by the
    callback that reads it off the worker's pipe, so the whole burst —
    lines read, routed, sent, answered and written — schedules not one
    ``call_soon`` on the server's loop.  The client is a blocking socket
    in a thread, so the count is the server's alone."""
    import socket
    import threading

    loop = _CountingLoop()
    lines, lams = _burst(32)
    seen = {}

    def client(port, done):
        try:
            with socket.create_connection(("127.0.0.1", port)) as sock:
                stream = sock.makefile("rwb")
                stream.write(json.dumps(_PROBE).encode() + b"\n")
                stream.flush()
                stream.readline()  # warm: the connection is open
                start = loop.soon
                stream.write(
                    b"".join(json.dumps(line).encode() + b"\n" for line in lines)
                )
                stream.flush()
                seen["responses"] = [json.loads(stream.readline()) for _ in lines]
                seen["soon"] = loop.soon - start
        finally:
            loop.call_soon_threadsafe(done.set_result, None)

    async def scenario():
        server = await _booted(workers=1)
        try:
            port = await server.start_tcp()
            done = loop.create_future()
            thread = threading.Thread(target=client, args=(port, done))
            thread.start()
            await asyncio.wait_for(done, 60)
            thread.join()
        finally:
            await server.shutdown()

    try:
        loop.run_until_complete(scenario())
    finally:
        loop.close()
    responses = seen["responses"]
    assert [r["id"] for r in responses] == list(range(32))
    assert [r["lam"] for r in responses] == [lams[i % 4] for i in range(32)]
    assert seen["soon"] == 0


def test_a_client_that_does_not_read_stops_being_read() -> None:
    """With a one-byte write high-water mark, small socket buffers and a
    client that sends a long pipeline without reading, the server stops
    reading the connection before it has read every line; once the
    client reads, it resumes, and every line is answered in order."""
    import socket

    n = 2000

    async def scenario():
        loop = asyncio.get_running_loop()
        server = await _booted(workers=1)
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        try:
            port = await server.start_tcp()
            await loop.sock_connect(sock, ("127.0.0.1", port))
            await loop.sock_sendall(sock, json.dumps(_PROBE).encode() + b"\n")
            assert json.loads(await loop.sock_recv(sock, 4096))["status"] == "ok"
            (conn,) = server._conns
            transport = conn._writer
            transport.set_write_buffer_limits(high=1)
            for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, option, 4096
                )
            burst = b"".join(
                json.dumps(
                    {"query": "h* s (h | s)*", "source": "Alix",
                     "target": "Bob", "id": i}
                ).encode() + b"\n"
                for i in range(n)
            )
            sending = asyncio.ensure_future(loop.sock_sendall(sock, burst))
            for _ in range(3000):
                if not transport.is_reading():
                    break
                await asyncio.sleep(0.01)
            assert not transport.is_reading()
            assert server.stats()["requests"] <= n // 2
            raw = b""
            while raw.count(b"\n") < n:
                raw += await asyncio.wait_for(loop.sock_recv(sock, 1 << 16), 60)
            await asyncio.wait_for(sending, 60)
            assert transport.is_reading()
            return [json.loads(line)["id"] for line in raw.splitlines()]
        finally:
            sock.close()
            await server.shutdown()

    assert asyncio.run(scenario()) == list(range(2000))
