"""Unit tests for restartable queues (paper, Section 2.1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.restartable_queue import RestartableQueue


class TestBasics:
    def test_empty_queue_is_exhausted(self):
        q = RestartableQueue()
        assert q.exhausted
        assert len(q) == 0
        assert q.remaining() == 0

    def test_peek_on_empty_raises(self):
        with pytest.raises(IndexError):
            RestartableQueue().peek()

    def test_enqueue_peek_advance(self):
        q = RestartableQueue()
        q.enqueue("a")
        q.enqueue("b")
        assert q.peek() == "a"
        q.advance()
        assert q.peek() == "b"
        q.advance()
        assert q.exhausted

    def test_constructor_items(self):
        q = RestartableQueue([1, 2, 3])
        assert len(q) == 3
        assert q.peek() == 1

    def test_advance_past_end_is_safe(self):
        q = RestartableQueue([1])
        q.advance()
        q.advance()  # No-op, no exception.
        assert q.exhausted


class TestRestart:
    def test_restart_resets_cursor(self):
        q = RestartableQueue([1, 2, 3])
        q.advance()
        q.advance()
        q.restart()
        assert q.peek() == 1
        assert q.remaining() == 3

    def test_restart_empty_queue(self):
        q = RestartableQueue()
        q.restart()
        assert q.exhausted

    def test_enqueue_after_exhaustion_revives(self):
        q = RestartableQueue([1])
        q.advance()
        assert q.exhausted
        q.enqueue(2)
        assert not q.exhausted
        assert q.peek() == 2

    def test_iter_ignores_cursor(self):
        q = RestartableQueue([1, 2, 3])
        q.advance()
        assert list(q) == [1, 2, 3]

    def test_position_property(self):
        q = RestartableQueue([1, 2])
        assert q.position == 0
        q.advance()
        assert q.position == 1


@given(st.lists(st.integers(), max_size=30))
def test_full_scan_matches_list(items):
    q = RestartableQueue(items)
    seen = []
    while not q.exhausted:
        seen.append(q.peek())
        q.advance()
    assert seen == items
    q.restart()
    seen2 = []
    while not q.exhausted:
        seen2.append(q.peek())
        q.advance()
    assert seen2 == items


@given(st.lists(st.integers(), min_size=1, max_size=20),
       st.integers(min_value=0, max_value=19))
def test_partial_scan_then_restart(items, k):
    q = RestartableQueue(items)
    for _ in range(min(k, len(items))):
        q.advance()
    q.restart()
    assert q.peek() == items[0]
