"""Unit tests for the immutable cons lists (paper, Section 2.1)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.cons_list import ConsList, cons, nil


class TestBasics:
    def test_nil_is_empty(self):
        assert nil.is_empty
        assert len(nil) == 0
        assert list(nil) == []
        assert not nil

    def test_prepend_builds_in_reverse(self):
        xs = nil.prepend(3).prepend(2).prepend(1)
        assert list(xs) == [1, 2, 3]
        assert len(xs) == 3
        assert bool(xs)

    def test_cons_function(self):
        assert list(cons(1, cons(2, nil))) == [1, 2]

    def test_head_and_tail(self):
        xs = cons(1, cons(2, nil))
        assert xs.head == 1
        assert list(xs.tail) == [2]

    def test_from_iterable_preserves_order(self):
        xs = ConsList.from_iterable([1, 2, 3, 4])
        assert list(xs) == [1, 2, 3, 4]

    def test_from_iterable_empty(self):
        assert ConsList.from_iterable([]) is nil


class TestSharing:
    def test_prepend_shares_tail(self):
        base = ConsList.from_iterable([10, 20])
        left = base.prepend(1)
        right = base.prepend(2)
        # O(1) copy: both lists share the same tail object.
        assert left.tail is base
        assert right.tail is base
        assert list(left) == [1, 10, 20]
        assert list(right) == [2, 10, 20]

    def test_prepend_does_not_mutate(self):
        base = ConsList.from_iterable([1])
        _ = base.prepend(0)
        assert list(base) == [1]


class TestValueSemantics:
    def test_equality_by_content(self):
        assert ConsList.from_iterable([1, 2]) == ConsList.from_iterable([1, 2])
        assert ConsList.from_iterable([1, 2]) != ConsList.from_iterable([2, 1])
        assert ConsList.from_iterable([1]) != ConsList.from_iterable([1, 2])

    def test_equality_with_other_types(self):
        assert ConsList.from_iterable([1]) != [1]

    def test_hashable(self):
        xs = ConsList.from_iterable([1, 2])
        ys = ConsList.from_iterable([1, 2])
        assert hash(xs) == hash(ys)
        assert len({xs, ys}) == 1

    def test_repr(self):
        assert "1" in repr(ConsList.from_iterable([1]))


@given(st.lists(st.integers(), max_size=30))
def test_roundtrip_property(values):
    assert list(ConsList.from_iterable(values)) == values


@given(st.lists(st.integers(), max_size=30), st.integers())
def test_prepend_property(values, extra):
    xs = ConsList.from_iterable(values)
    assert list(xs.prepend(extra)) == [extra] + values
    assert len(xs.prepend(extra)) == len(values) + 1
