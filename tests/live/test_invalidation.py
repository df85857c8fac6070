"""Fine-grained cache invalidation through :meth:`Database.mutate`.

The contract under test: after a mutation batch, a cached artifact is
evicted **iff** its label footprint intersects the batch's labels —
plans only when the batch grows the label universe into the plan's
footprint (or the plan uses a wildcard), annotations whenever the
batch touches any label the query can fire on.  Everything else stays
warm, which is the cache-hit-rate claim of EXP-LIVE.
"""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.exceptions import QueryError
from repro.graph.builder import GraphBuilder
from repro.live import LiveGraph


def _graph():
    b = GraphBuilder()
    b.add_edge("A", "B", ["h"])
    b.add_edge("B", "C", ["h"])
    b.add_edge("A", "C", ["s"])
    b.add_edge("C", "D", ["s"])
    for i in range(6):  # Ballast so tiny batches stay below the
        b.add_edge(f"p{i}", f"p{i+1}", ["pad"])  # auto-compact threshold.
    return b.build()


def _db() -> Database:
    return Database(LiveGraph(_graph()))


def _run(db, expression, source, target):
    return db.query(expression).from_(source).to(target).run()


class _Rerun:
    """A plain change-feed subscriber: it re-runs one pair query after
    every batch, with no footprint test of its own."""

    def __init__(self, db, expression, source, target) -> None:
        self.query = db.query(expression).from_(source).to(target)
        self.refreshes = 0
        self._refresh(None)
        db.live().subscribe(self._refresh)

    def _refresh(self, batch) -> None:
        result = self.query.run()
        self.rows, self.lam = result.all(), result.lam
        self.refreshes += 1


class TestAnnotationInvalidation:
    def test_unrelated_label_keeps_annotations_warm(self) -> None:
        db = _db()
        _run(db, "h+", "A", "C")
        _run(db, "s s", "A", "D")
        result = db.mutate(
            [{"op": "add_edge", "src": "D", "tgt": "A", "labels": ["x"]}]
        )
        assert result.evicted_annotations == 0
        assert result.evicted_plans == 0
        assert _run(db, "h+", "A", "C").stats["cached"] == {
            "plan": True, "annotation": True,
        }
        assert _run(db, "s s", "A", "D").stats["cached"] == {
            "plan": True, "annotation": True,
        }

    def test_touched_label_evicts_only_intersecting(self) -> None:
        db = _db()
        _run(db, "h+", "A", "C")
        _run(db, "s s", "A", "D")
        result = db.mutate(
            [{"op": "add_edge", "src": "A", "tgt": "C", "labels": ["h"]}]
        )
        assert result.evicted_annotations == 1
        assert result.evicted_plans == 0  # Plans survive edge writes.
        fresh = _run(db, "h+", "A", "C")
        assert fresh.stats["cached"] == {"plan": True, "annotation": False}
        assert fresh.lam == 1  # And sees the new edge.
        assert _run(db, "s s", "A", "D").stats["cached"]["annotation"]

    def test_one_entry_per_pair_whatever_the_semantics(self) -> None:
        """walks / trails / simple of one (query, source) share one
        annotation entry, so a batch on a queried label evicts once."""
        db = _db()
        pair = db.query("h+").from_("A").to("C")
        for query in (pair, pair.trails(), pair.simple_paths()):
            assert query.run().lam == 2
        result = db.mutate(
            [{"op": "add_edge", "src": "A", "tgt": "C", "labels": ["h"]}]
        )
        assert result.evicted_annotations == 1
        for query in (pair, pair.trails(), pair.simple_paths()):
            assert query.run().lam == 1  # All three see the new edge.

    def test_remove_edge_evicts_by_its_labels(self) -> None:
        db = _db()
        assert _run(db, "h+", "A", "C").lam == 2
        _run(db, "s s", "A", "D")
        result = db.mutate([{"op": "remove_edge", "edge": 0}])
        assert result.evicted_annotations == 1
        assert _run(db, "h+", "A", "C").lam is None
        assert _run(db, "s s", "A", "D").stats["cached"]["annotation"]

    def test_label_edit_touches_old_and_new_sets(self) -> None:
        db = _db()
        _run(db, "h+", "A", "C")
        _run(db, "s s", "A", "D")
        _run(db, "pad+", "p0", "p3")
        result = db.mutate(
            [{"op": "set_edge_labels", "edge": 0, "labels": ["s"]}]
        )
        # h (old) and s (new) footprints both go; pad survives.
        assert result.evicted_annotations == 2
        assert _run(db, "pad+", "p0", "p3").stats["cached"]["annotation"]

    def test_wildcard_annotation_always_evicted(self) -> None:
        db = _db()
        r = db.query(".+").from_("A").to("C").run()
        assert r.lam == 1
        result = db.mutate(
            [{"op": "add_edge", "src": "A", "tgt": "C", "labels": ["zz"]}]
        )
        assert result.evicted_annotations >= 1
        assert len(db.query(".+").from_("A").to("C").run().all()) == 2


class TestPlanInvalidation:
    def test_new_label_evicts_mentioning_plan(self) -> None:
        db = _db()
        # "ferry" is not in the alphabet yet: the compiled plan drops it.
        assert _run(db, "ferry | h", "A", "B").lam == 1
        result = db.mutate(
            [{"op": "add_edge", "src": "A", "tgt": "B", "labels": ["ferry"]}]
        )
        assert result.evicted_plans == 1
        fresh = _run(db, "ferry | h", "A", "B")
        assert fresh.stats["cached"]["plan"] is False
        assert len(fresh.all()) == 2  # Both h and ferry edges now match.

    def test_new_label_spares_unrelated_plan(self) -> None:
        db = _db()
        _run(db, "h+", "A", "C")
        result = db.mutate(
            [{"op": "add_edge", "src": "A", "tgt": "B", "labels": ["ferry"]}]
        )
        assert result.evicted_plans == 0
        assert _run(db, "h+", "A", "C").stats["cached"]["plan"]

    def test_wildcard_plan_evicted_on_alphabet_growth(self) -> None:
        db = _db()
        _run(db, ".+", "A", "C")
        result = db.mutate(
            [{"op": "add_edge", "src": "C", "tgt": "A", "labels": ["new"]}]
        )
        assert result.evicted_plans == 1

    def test_existing_label_write_keeps_plan(self) -> None:
        db = _db()
        _run(db, "h+", "A", "C")
        result = db.mutate(
            [{"op": "add_edge", "src": "C", "tgt": "A", "labels": ["h"]}]
        )
        assert result.evicted_plans == 0
        assert _run(db, "h+", "A", "C").stats["cached"]["plan"]


class TestPromotionAndCompaction:
    def test_first_mutation_promotes_plain_graph(self) -> None:
        db = Database(_graph())
        _run(db, "h+", "A", "C")
        version = db.version("default")
        result = db.mutate(
            [{"op": "add_edge", "src": "C", "tgt": "A", "labels": ["x"]}]
        )
        assert result.promoted
        assert result.version == version + 1  # Full purge via bump.
        assert isinstance(db.live(), LiveGraph)
        # Even the unrelated-label query rebuilds once after promotion.
        assert _run(db, "h+", "A", "C").stats["cached"] == {
            "plan": False, "annotation": False,
        }

    def test_live_registration_needs_no_promotion(self) -> None:
        db = _db()
        result = db.mutate(
            [{"op": "add_edge", "src": "C", "tgt": "A", "labels": ["x"]}]
        )
        assert not result.promoted

    def test_live_accessor_rejects_plain_graph(self) -> None:
        db = Database(_graph())
        with pytest.raises(QueryError):
            db.live()

    def test_forced_compaction_bumps_version(self) -> None:
        db = _db()
        _run(db, "h+", "A", "C")
        version = db.version("default")
        result = db.mutate(
            [{"op": "add_edge", "src": "C", "tgt": "A", "labels": ["x"]}],
            compact=True,
        )
        assert result.compacted
        assert result.version == version + 1
        assert db.live().compactions == 1
        # Correctness after the renumbering purge.
        assert _run(db, "h+", "A", "C").lam == 2

    def test_auto_compaction_on_threshold(self) -> None:
        db = Database(LiveGraph(_graph(), compact_threshold=0.2))
        ops = [
            {"op": "add_edge", "src": "C", "tgt": "A", "labels": ["x"]}
        ] * 3
        result = db.mutate(ops)
        assert result.compacted
        assert db.live().delta_ratio == 0.0

    def test_compact_never_when_disabled(self) -> None:
        db = Database(LiveGraph(_graph(), compact_threshold=0.01))
        result = db.mutate(
            [{"op": "add_edge", "src": "C", "tgt": "A", "labels": ["x"]}],
            compact=False,
        )
        assert not result.compacted
        assert db.live().delta_ratio > 0

    def test_query_to_vertex_added_after_caching(self) -> None:
        """A cached annotation answers (no walk) for later vertices.

        Regression guard for the ``target_info`` bounds check: the
        cached h+ annotation predates vertex E, and the only edge into
        E carries a label h+ cannot fire on — the entry stays warm and
        must cleanly report "no matching walk" instead of indexing
        out of range.
        """
        db = _db()
        _run(db, "h+", "A", "C")
        db.mutate(
            [{"op": "add_edge", "src": "C", "tgt": "E", "labels": ["x"]}]
        )
        result = db.query("h+").from_("A").to("E").run()
        assert result.lam is None
        assert result.stats["cached"]["annotation"] is True

    def test_mutate_requires_ops_list(self) -> None:
        db = _db()
        with pytest.raises(Exception):
            db.mutate([{"op": "no_such_op"}])

    def test_compact_wire_aliases_and_rejection(self) -> None:
        db = _db()
        result = db.mutate(
            [{"op": "add_vertex", "name": "z"}], compact="always"
        )
        assert result.compacted
        result = db.mutate(
            [{"op": "add_vertex", "name": "z2"}], compact="never"
        )
        assert not result.compacted
        with pytest.raises(QueryError):
            db.mutate([{"op": "add_vertex", "name": "z3"}], compact=1)
        with pytest.raises(QueryError):
            db.mutate(
                [{"op": "add_vertex", "name": "z3"}], compact="later"
            )

    def test_unhashable_vertex_name_aborts_whole_batch(self) -> None:
        """Regression: a bad op mid-batch must not half-commit."""
        db = _db()
        live = db.live()
        before = live.stats()
        with pytest.raises(Exception) as excinfo:
            db.mutate(
                [
                    {"op": "add_edge", "src": "A", "tgt": "B",
                     "labels": ["h"]},
                    {"op": "add_vertex", "name": ["unhashable"]},
                ]
            )
        assert "hashable" in str(excinfo.value)
        assert live.stats() == before
        # Point reads and flat views still agree (no torn commit).
        a = live.vertex_id("A")
        assert live.out_edges(a) == live.out_array[a]

    def test_direct_compact_keeps_caches_coherent(self) -> None:
        """``db.live().compact()`` must purge like ``mutate`` does.

        Regression: a tombstone removed via an *unrelated* label keeps
        the h+ annotation warm (correct), but a later direct
        compaction renumbers edge ids — without the compaction
        receipt routing through the eviction subscriber, the retained
        annotation's TgtIdx cells would index the shrunken In-lists
        out of range.
        """
        db = _db()
        version = db.version("default")
        db.mutate(
            [{"op": "remove_edge", "edge": 3}],  # s-labeled C->D.
            compact=False,
        )
        warm = _run(db, "h+", "A", "C")
        assert warm.lam == 2
        db.live().compact()  # Direct call, not via mutate().
        assert db.version("default") == version + 1
        fresh = _run(db, "h+", "A", "C")
        assert fresh.lam == 2
        assert fresh.stats["cached"] == {"plan": False, "annotation": False}

    def test_standing_query_refreshes_on_direct_compact(self) -> None:
        db = _db()
        sq = _Rerun(db, "h+", "A", "C")
        refreshes = sq.refreshes
        db.live().compact()
        assert sq.refreshes == refreshes + 1  # Rows re-rendered on new ids.
        assert sq.lam == 2


class TestStandingQueries:
    def test_refresh_after_compaction_sees_coherent_cache(self) -> None:
        """Eviction must stay ahead of standing queries post-compact.

        A compaction re-registers the graph, which re-subscribes the
        database's eviction pass; it must re-enter the feed *ahead*
        of previously-registered standing queries (``front=True``),
        else their refresh would read the stale annotation entry.
        """
        db = _db()
        sq = _Rerun(db, "h+", "A", "C")
        assert sq.lam == 2
        db.mutate(
            [{"op": "add_edge", "src": "D", "tgt": "A", "labels": ["x"]}],
            compact=True,  # Re-register → re-subscribe the evictor.
        )
        _run_db_warm = db.query("h+").from_("A").to("C").run()
        assert _run_db_warm.lam == 2  # Cache warm again post-compact.
        db.mutate(
            [{"op": "add_edge", "src": "A", "tgt": "C", "labels": ["h"]}]
        )
        assert sq.lam == 1  # Refresh saw the evicted (fresh) world.
        assert len(sq.rows) == 1


class TestHitRateContrast:
    """The headline numbers: warm vs version-bump invalidation."""

    def test_unrelated_batch_keeps_hit_rate(self) -> None:
        db = _db()
        mix = [("h+", "A", "C"), ("s s", "A", "D"), ("pad+", "p0", "p3")]
        for q in mix:
            _run(db, *q)
        db.mutate(
            [{"op": "add_edge", "src": "D", "tgt": "A", "labels": ["zz"]}]
        )
        before = db.cache_stats()["annotation_cache"]
        for q in mix:
            _run(db, *q)
        after = db.cache_stats()["annotation_cache"]
        window_hits = after["hits"] - before["hits"]
        window = (after["hits"] + after["misses"]) - (
            before["hits"] + before["misses"]
        )
        assert window_hits / window == 1.0  # 3/3 — nothing was evicted.

    def test_version_bump_drops_everything(self) -> None:
        db = _db()
        mix = [("h+", "A", "C"), ("s s", "A", "D"), ("pad+", "p0", "p3")]
        for q in mix:
            _run(db, *q)
        db.register("default", db.live())  # The old-world invalidation.
        before = db.cache_stats()["annotation_cache"]
        for q in mix:
            _run(db, *q)
        after = db.cache_stats()["annotation_cache"]
        window_hits = after["hits"] - before["hits"]
        assert window_hits == 0  # 0% — every entry was purged.
