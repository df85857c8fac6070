"""Unit tests for the skip-pointer array behind ``ResumableTrim``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.resumable_index import ResumableIndex


class TestBasics:
    def test_empty(self):
        idx = ResumableIndex(5, {})
        assert idx.first() is None
        assert idx.seek(0) is None
        assert idx.after(2) is None
        assert len(idx) == 0

    def test_single_cell(self):
        idx = ResumableIndex(5, {2: "x"})
        assert idx.first() == 2
        assert idx.seek(2) == 2
        assert idx.seek(3) is None
        assert idx.after(2) is None
        assert idx.after(1) == 2
        assert idx.payload(2) == "x"
        assert idx.payload(0) is None

    def test_multiple_cells(self):
        idx = ResumableIndex(8, {1: "a", 4: "b", 7: "c"})
        assert idx.first() == 1
        assert idx.seek(2) == 4
        assert idx.after(4) == 7
        assert idx.after(7) is None
        assert idx.non_empty_indices() == [1, 4, 7]

    def test_seek_out_of_range(self):
        idx = ResumableIndex(3, {0: "a"})
        assert idx.seek(3) is None
        assert idx.seek(100) is None
        assert idx.seek(-5) == 0  # Clamped to 0.

    def test_zero_size(self):
        idx = ResumableIndex(0, {})
        assert idx.first() is None

    def test_bad_cell_index_raises(self):
        with pytest.raises(IndexError):
            ResumableIndex(3, {3: "x"})
        with pytest.raises(IndexError):
            ResumableIndex(3, {-1: "x"})

    def test_size_property(self):
        assert ResumableIndex(7, {}).size == 7


@given(
    st.integers(min_value=0, max_value=40).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.dictionaries(
                st.integers(min_value=0, max_value=max(size - 1, 0)),
                st.integers(),
                max_size=size,
            )
            if size > 0
            else st.just({}),
        )
    )
)
def test_seek_matches_linear_scan(size_and_cells):
    size, cells = size_and_cells
    idx = ResumableIndex(size, cells)
    present = sorted(cells)
    for i in range(size + 2):
        expected = next((j for j in present if j >= i), None)
        assert idx.seek(i) == expected
        expected_after = next((j for j in present if j > i), None)
        assert idx.after(i) == expected_after
    for i in present:
        assert idx.payload(i) == cells[i]
