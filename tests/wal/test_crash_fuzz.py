"""Fault-injection property suite for the durability subsystem.

Each seeded case builds a durable database, crashes it by damaging the
WAL directory at a random byte offset (truncation and/or a flipped
byte, sometimes a corrupted snapshot), recovers, and diffs the result
against a **rebuild-from-scratch oracle**: a fresh ``LiveGraph``
seeded with the same base graph replaying exactly the records the
damaged log still holds.  The contract under test:

* recovery never loses a frame the damaged log still carries, and
  never applies a partial one (``last_lsn`` equals the damaged file's
  valid-frame count);
* the recovered graph is state-identical (name-wise — edge ids are
  compared too, via the rendered order) to the oracle;
* recovery, which keeps only the records past the snapshot it starts
  from, equals a full-scan reference — state, log geometry, snapshot
  watermark and replay counts — on every damaged log;
* queries under both mode names (``iterative``, ``memoryless``; they
  select nothing, every page is one DFS) and the DP answer count
  agree with an oracle database over the rebuilt graph;
* the log can be **continued** after recovery: reopening truncates the
  torn tail, further batches append cleanly, the warm façade caches
  stay coherent through the mutation (checked against a fresh rebuild
  per query), and a final re-recovery equals the continued state.

Knobs (mirroring ``tests/property/test_live_differential.py``):
``WAL_FUZZ_CASES`` (default 25) and ``WAL_FUZZ_SEED_BASE`` (default 0)
— the CI ``crash-fuzz`` job runs disjoint seed ranges.  A failure
replays locally with::

    WAL_FUZZ_SEED_BASE=<base> PYTHONPATH=src python -m pytest \
        "tests/wal/test_crash_fuzz.py::test_crash_recovery[<case>]"
"""

from __future__ import annotations

import os
import random
import shutil
from pathlib import Path
from typing import List

import pytest

from repro.api import Database
from repro.automata import regex_to_nfa
from repro.baselines.oracle import random_regex_compact
from repro.core.engine import DistinctShortestWalks
from repro.exceptions import QueryError
from repro.graph.builder import GraphBuilder
from repro.graph.segment import HEADER
from repro.live import (
    AddEdge,
    AddVertex,
    LiveGraph,
    RemoveEdge,
    SetEdgeLabels,
)
from repro.live.delta import ops_from_dicts
from repro.wal.frames import scan_bytes, scan_file
from repro.wal.recovery import _pick_snapshot, recover
from repro.wal.snapshot import list_snapshots
from repro.wal.writer import LOG_NAME

_ALPHABET = ("a", "b", "c")

SEED_BASE = int(os.environ.get("WAL_FUZZ_SEED_BASE", "0"))
N_CASES = int(os.environ.get("WAL_FUZZ_CASES", "25"))
_N_BATCHES = 6


def _random_base(rng: random.Random):
    n = rng.randint(1, 4)
    builder = GraphBuilder()
    builder.add_vertices([f"v{i}" for i in range(n)])
    for _ in range(rng.randint(0, 6)):
        labels = rng.sample(_ALPHABET, rng.randint(1, 2))
        builder.add_edge(
            f"v{rng.randrange(n)}", f"v{rng.randrange(n)}", sorted(labels)
        )
    return builder.build()


def _random_regex(rng: random.Random, depth: int = 2) -> str:
    # The shared compact grammar (repro.baselines.oracle); the local
    # graph generator stays — its draw order predates the shared one.
    return random_regex_compact(rng, depth)


def _random_batch(rng: random.Random, live: LiveGraph) -> List:
    ops: List = []
    for _ in range(rng.randint(1, 3)):
        staged = {op.edge for op in ops if isinstance(op, RemoveEdge)}
        live_ids = [e for e in live.live_edges() if e not in staged]
        vertex_pool = [
            live.vertex_name(v) for v in live.vertices()
        ] or ["v0"]

        def pick_vertex() -> str:
            if rng.random() < 0.15:
                return f"w{rng.randrange(4)}"
            return rng.choice(vertex_pool)

        roll = rng.random()
        labels = tuple(
            sorted(rng.sample(_ALPHABET, rng.randint(1, 2)))
        )
        if roll < 0.55 or not live_ids:
            ops.append(AddEdge(pick_vertex(), pick_vertex(), labels))
        elif roll < 0.75:
            ops.append(RemoveEdge(rng.choice(live_ids)))
        elif roll < 0.9:
            ops.append(SetEdgeLabels(rng.choice(live_ids), labels))
        else:
            ops.append(AddVertex(f"u{rng.randrange(3)}"))
    return ops


def _rendered_state(live: LiveGraph):
    """Name-wise (vertices, ordered edge list) view of a live graph."""
    g = live.to_graph()
    edges = [
        (
            str(g.vertex_name(g.src(e))),
            str(g.vertex_name(g.tgt(e))),
            g.label_names_of(e),
        )
        for e in g.edges()
    ]
    names = sorted(str(g.vertex_name(v)) for v in g.vertices())
    return names, edges


def _rendered_walk(graph, edges):
    return tuple(
        (
            str(graph.vertex_name(graph.src(e))),
            str(graph.vertex_name(graph.tgt(e))),
            graph.label_names_of(e),
        )
        for e in edges
    )


def _damage(rng: random.Random, wal_dir: str) -> None:
    """Inject one crash fault into a copied WAL directory."""
    path = os.path.join(wal_dir, LOG_NAME)
    data = Path(path).read_bytes()
    roll = rng.random()
    if data:
        if roll < 0.45:  # Torn write / lost tail: truncate anywhere.
            cut = rng.randrange(len(data) + 1)
            data = data[:cut]
        elif roll < 0.75:  # Bit rot: flip one byte.
            pos = rng.randrange(len(data))
            mutated = bytearray(data)
            mutated[pos] = (mutated[pos] + 1 + rng.randrange(255)) % 256
            data = bytes(mutated)
        else:  # Both: flip a byte, then lose the tail after it.
            pos = rng.randrange(len(data))
            mutated = bytearray(data)
            mutated[pos] ^= 0xFF
            cut = rng.randrange(pos, len(data) + 1)
            data = bytes(mutated)[:cut]
        with open(path, "wb") as fh:
            fh.write(data)
    snapshots = list_snapshots(wal_dir)
    if len(snapshots) >= 2 and rng.random() < 0.3:
        # Damage the newest snapshot; an older one (at worst the lsn-0
        # bootstrap) still validates, so recovery must fall back.
        _, newest = snapshots[0]
        blob = bytearray(Path(newest).read_bytes())
        if blob:
            blob[rng.randrange(len(blob))] ^= 0x5A
            with open(newest, "wb") as fh:
                fh.write(blob)


def _recover_vs_full_scan(wal_dir: str, ctx: str):
    """:func:`recover`, checked against a full-scan reference: every
    valid record held, the snapshot picked against the whole log and
    the tail filtered out of it — the same state, geometry and replay
    counts as the tail-only scan."""
    state = recover(wal_dir)
    scan = scan_file(os.path.join(wal_dir, LOG_NAME))
    snapshot = _pick_snapshot(list_snapshots(wal_dir), scan.last_lsn)
    watermark = 0 if snapshot is None else snapshot.lsn
    reference = LiveGraph() if snapshot is None else LiveGraph(snapshot.graph)
    kinds = []
    for record in scan.records:
        if record["lsn"] > watermark:
            kinds.append(record["kind"])
            if record["kind"] == "batch":
                reference.apply(ops_from_dicts(record["ops"]))
            else:
                reference.compact()
    assert (
        state.last_lsn, state.snapshot_lsn, state.valid_offset,
        state.torn_tail, state.replayed_batches, state.replayed_compactions,
    ) == (
        scan.last_lsn, watermark, scan.valid_offset, scan.torn,
        kinds.count("batch"), kinds.count("compact"),
    ), ctx
    assert _rendered_state(state.graph) == _rendered_state(reference), ctx
    return state


def _query_modes_vs_oracle(db, live, oracle_graph, expr, source, target, ctx):
    """``db`` under both mode names and the DP count against an oracle
    rebuild; ``recursive`` is refused by the recovered database too."""
    oracle_db = Database(oracle_graph)
    want = oracle_db.query(expr).from_(source).to(target).run()
    want_rows = [_rendered_walk(oracle_graph, r.walk.edges) for r in want]
    for mode in ("iterative", "memoryless"):
        got = db.query(expr).from_(source).to(target).mode(mode).run()
        assert got.lam == want.lam, f"{mode} λ ({ctx})"
        rows = [_rendered_walk(live, r.walk.edges) for r in got]
        assert rows == want_rows, f"{mode} rows ({ctx})"
    with pytest.raises(QueryError, match="unknown mode"):
        db.query(expr).from_(source).to(target).mode("recursive")
    # The engine-level DP answer count on the oracle graph.
    engine = DistinctShortestWalks(
        oracle_graph, regex_to_nfa(expr), source, target
    )
    assert engine.lam == want.lam, f"count λ ({ctx})"
    if want.lam is not None:
        assert engine.count() == len(want_rows), f"count ({ctx})"
    return want.lam


@pytest.mark.parametrize("case", range(N_CASES))
def test_crash_recovery(case: int, tmp_path) -> None:
    seed = SEED_BASE + case
    rng = random.Random(seed)
    ctx = f"seed={seed}"

    base = _random_base(rng)
    pristine = str(tmp_path / "pristine")
    expressions = [_random_regex(rng) for _ in range(2)]

    # -- phase 1: a leader lives, mutates, compacts, "crashes" --------
    db = Database.open(pristine, graph=base, sync="always")
    compact_at = rng.randrange(_N_BATCHES)
    for i in range(_N_BATCHES):
        ops = _random_batch(rng, db.live())
        db.mutate(ops, compact=(True if i == compact_at else False))
    db.close()

    pristine_log = Path(os.path.join(pristine, LOG_NAME)).read_bytes()
    pristine_records = scan_bytes(pristine_log).records

    # -- phase 2: copy + damage + recover -----------------------------
    damaged = str(tmp_path / "damaged")
    shutil.copytree(pristine, damaged)
    _damage(rng, damaged)

    damaged_log = Path(os.path.join(damaged, LOG_NAME)).read_bytes()
    surviving = scan_bytes(damaged_log).records
    # The damaged log's valid prefix is a prefix of the pristine log.
    assert surviving == pristine_records[: len(surviving)], ctx

    state = _recover_vs_full_scan(damaged, ctx)
    # Frame accounting: every surviving frame replayed, none partial.
    assert state.last_lsn == len(surviving), ctx

    # Oracle: rebuild from scratch — same base, replay the survivors.
    oracle = LiveGraph(base)
    for record in surviving:
        if record["kind"] == "batch":
            oracle.apply(ops_from_dicts(record["ops"]))
        else:
            oracle.compact()
    assert _rendered_state(state.graph) == _rendered_state(oracle), ctx

    # -- phase 3: queries agree across all modes ----------------------
    recovered_db = Database(state.graph)
    frozen = oracle.to_graph()
    n = frozen.vertex_count
    for expr in expressions:
        source = frozen.vertex_name(rng.randrange(n))
        target = frozen.vertex_name(rng.randrange(n))
        _query_modes_vs_oracle(
            recovered_db, state.graph, frozen, expr, source, target,
            f"{ctx} expr={expr!r} {source}->{target}",
        )

    # -- phase 4: the log continues after recovery --------------------
    db2 = Database.open(damaged, graph=base, sync="always")
    live2 = db2.live()
    expr = expressions[0]
    m = live2.vertex_count
    source = live2.vertex_name(rng.randrange(m))
    target = live2.vertex_name(rng.randrange(m))
    # Warm the façade caches, then mutate, then query again: cached
    # artifacts must be invalidated (or kept) correctly — compare
    # against a fresh rebuild both times.
    _query_modes_vs_oracle(
        db2, live2, live2.to_graph(), expr, source, target,
        f"{ctx} warm-before",
    )
    db2.mutate(_random_batch(rng, live2), compact=False)
    _query_modes_vs_oracle(
        db2, live2, live2.to_graph(), expr, source, target,
        f"{ctx} warm-after",
    )
    continued = _rendered_state(live2)
    last = db2.wal_writer().last_lsn
    db2.close()

    state2 = _recover_vs_full_scan(damaged, ctx)
    assert not state2.torn_tail, ctx  # Reopen truncated the torn tail.
    assert state2.last_lsn == last, ctx
    assert _rendered_state(state2.graph) == continued, ctx


def test_damage_generator_is_not_degenerate(tmp_path) -> None:
    """Over many seeds, ``_damage`` shrinks logs, flips bytes in place
    and (given two snapshots) hits snapshot files — no fault shape is
    dead code.  A newest snapshot the log could replay from, damaged
    inside its CRC'd bytes (meta blob or data region), is *rejected*:
    recovery starts from an older watermark every time, and at least
    once — so a decoder that skipped its CRCs fails here."""
    shrunk = flipped = snapped = rejected = 0
    for seed in range(40):
        wal_dir = str(tmp_path / f"d{seed}")
        db = Database.open(wal_dir, graph=_random_base(random.Random(seed)))
        db.mutate([AddEdge("p", "q", ("a",))], compact=True)
        db.mutate([AddEdge("q", "p", ("b",))])
        db.close()
        log = os.path.join(wal_dir, LOG_NAME)
        before = Path(log).read_bytes()
        snaps_before = {
            path: Path(path).read_bytes()
            for _, path in list_snapshots(wal_dir)
        }
        _damage(random.Random(1000 + seed), wal_dir)
        after = Path(log).read_bytes()
        if len(after) < len(before):
            shrunk += 1
        elif after != before:
            flipped += 1
        damaged = [
            (path, blob) for path, blob in snaps_before.items()
            if Path(path).read_bytes() != blob
        ]
        if damaged:
            snapped += 1
            [(path, blob)] = damaged
            pos = next(
                i for i, (a, b) in enumerate(zip(blob, Path(path).read_bytes()))
                if a != b
            )
            meta_end = HEADER.size + HEADER.unpack_from(blob, 0)[4]
            padding = range(meta_end, (meta_end + 7) & ~7)
            newest, _ = list_snapshots(wal_dir)[0]
            last_lsn = scan_file(log).last_lsn
            if pos >= HEADER.size and pos not in padding and newest <= last_lsn:
                picked = _pick_snapshot(list_snapshots(wal_dir), last_lsn)
                assert picked is None or picked.lsn < newest, seed
                rejected += 1
    assert shrunk > 0 and flipped > 0 and snapped > 0 and rejected > 0
