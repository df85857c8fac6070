"""The cache-hit path of ``Database``, guarded by counts, not times.

A cached pair page costs one plan probe, one annotation probe, two
vertex resolutions and its walks.  These tests pin, for a warm
``chain(6, ("a", "b"), parallel=2)`` under ``(a|b)*`` (64 walks of
λ = 6), the exact number of Python-level function calls
(``sys.setprofile`` "call" events, generator resumptions included) and
of ``time.perf_counter`` reads a page of k rows makes.  Work put back
on the hit path — a builder step, a closure or dict per request, a
constructor per row, a clock read per row — moves them.

Per row a page makes three calls: the result set's generator and the
DFS resume, and the caller's ``walk.edges``; the clock is read twice
per row (the ``enumerate`` timing excludes the caller's time between
rows), twice around the annotation probe and once at each end of the
page.
"""

from __future__ import annotations

import sys
import time
from dataclasses import FrozenInstanceError

import pytest

from repro.api import Database
from repro.api.rows import Row
from repro.graph.generators import chain

QUERY = "(a|b)*"
PAGES = (1, 5, 10, 20)

#: Calls outside the rows: builder (query, from_, to, limit and the
#: copies they make), run(), the two cache probes, the two vertex
#: resolutions, settle and target_info, the result set, the page's
#: one DFS open and the peek past its last row.  Python 3.13 closes
#: the DFS generator left suspended after the peek without resuming
#: it (it has no handler to run), one "call" event fewer.
FIXED_CALLS = 39 if sys.version_info >= (3, 13) else 40
CALLS_PER_ROW = 3
FIXED_CLOCK_READS = 4
CLOCK_READS_PER_ROW = 2


def _page(db, k):
    rows = db.query(QUERY).from_("v0").to("v6").limit(k).run()
    edges = []
    for row in rows:
        edges.append(row.walk.edges)
    return edges


@pytest.fixture
def db():
    return Database(chain(6, ("a", "b"), parallel=2))


def _calls(db, k):
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        edges = _page(db, k)
    finally:
        sys.setprofile(previous)
    return edges, count


@pytest.mark.parametrize("k", PAGES)
def test_a_cached_page_makes_a_fixed_number_of_calls(db, k):
    warm = _page(db, k)
    assert db.cache_stats()["annotation_cache"]["misses"] == 1
    edges, calls = _calls(db, k)
    assert edges == warm and len(edges) == k
    assert calls == FIXED_CALLS + CALLS_PER_ROW * k
    stats = db.cache_stats()
    assert stats["plan_cache"]["hits"] == stats["annotation_cache"]["hits"] == 1


@pytest.mark.parametrize("k", PAGES)
def test_a_cached_page_reads_the_clock_twice_per_row(db, k, monkeypatch):
    _page(db, k)
    reads = 0
    real = time.perf_counter

    def counting():
        nonlocal reads
        reads += 1
        return real()

    monkeypatch.setattr(time, "perf_counter", counting)
    assert len(_page(db, k)) == k
    assert reads == FIXED_CLOCK_READS + CLOCK_READS_PER_ROW * k


def test_the_enumerate_timing_leaves_out_the_callers_time(db):
    """Time the caller spends holding a row is not enumeration time."""
    _page(db, 3)
    rs = db.query(QUERY).from_("v0").to("v6").limit(3).run()
    started = time.perf_counter()
    for _ in rs:
        time.sleep(0.01)
    held = time.perf_counter() - started
    assert rs.stats["timings"]["enumerate"] < held / 3
    assert set(rs.stats["timings"]) == {"annotate", "enumerate"}
    assert rs.stats["cached"] == {"plan": True, "annotation": True}


class TestPageRows:
    """A page's rows are built in one step and are ordinary rows."""

    def test_a_page_row_equals_and_hashes_like_a_built_row(self, db):
        (row,) = db.query(QUERY).from_("v0").to("v6").limit(1).run()
        built = Row(row.source, row.target, row.walk, row.lam)
        assert type(row) is Row and row == built
        assert hash(row) == hash(built)
        assert (row.source, row.target, row.lam) == ("v0", "v6", 6)
        assert row.multiplicity is None and row.edges == row.walk.edges

    def test_a_weighed_row_equals_a_built_row(self, db):
        query = db.query(QUERY).from_("v0").to("v6").limit(2)
        rows = query.with_multiplicity().run().all()
        # Every edge carries both labels: 2⁶ runs per walk.
        assert [r.multiplicity for r in rows] == [64, 64]
        assert rows == [
            Row(r.source, r.target, r.walk, r.lam, 64) for r in rows
        ]

    @pytest.mark.parametrize(
        "field", ["source", "target", "walk", "lam", "multiplicity", "other"]
    )
    def test_a_page_row_is_frozen(self, db, field):
        (row,) = db.query(QUERY).from_("v0").to("v6").limit(1).run()
        with pytest.raises(FrozenInstanceError):
            setattr(row, field, None)
        with pytest.raises(FrozenInstanceError):
            delattr(row, field)
        assert row.lam == 6
