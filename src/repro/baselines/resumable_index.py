"""The skip-pointer array behind ``ResumableTrim`` (paper, Section 4.2).

The memoryless variant of the algorithm (Theorem 18) must position a
read cursor at "the first non-empty cell with index ≥ i" in O(1),
without the mutable cursors of
:class:`~repro.baselines.restartable_queue.RestartableQueue`.

The paper achieves this by storing, with every cell, a pointer to the
next non-empty cell.  :class:`ResumableIndex` packages that idea: it is
built once from a ``size``-cell sparse mapping ``index -> payload`` and
afterwards is strictly read-only.

Operations (all O(1) except construction):

* ``first()`` — index of the first non-empty cell, or ``None``;
* ``seek(i)`` — index of the first non-empty cell ``>= i``, or ``None``;
* ``after(i)`` — index of the first non-empty cell ``> i``, or ``None``;
* ``payload(i)`` — the payload stored at cell ``i`` (``None`` if empty).
"""

from __future__ import annotations

from typing import Dict, Generic, List, Optional, TypeVar

P = TypeVar("P")


class ResumableIndex(Generic[P]):
    """Read-only sparse array with O(1) "next non-empty cell" queries.

    >>> idx = ResumableIndex(6, {1: "a", 4: "b"})
    >>> idx.first()
    1
    >>> idx.seek(2)
    4
    >>> idx.after(4) is None
    True
    """

    __slots__ = ("_size", "_payloads", "_next")

    def __init__(self, size: int, cells: Dict[int, P]) -> None:
        if any(not (0 <= i < size) for i in cells):
            raise IndexError(
                f"cell index out of range for ResumableIndex of size {size}"
            )
        self._size = size
        self._payloads: Dict[int, P] = dict(cells)
        self._next = self._build_next(size, self._payloads)

    @staticmethod
    def _build_next(size: int, present) -> List[int]:
        """The skip-pointer array: ``_next[i]`` = smallest non-empty
        index ``>= i``; sentinel ``size`` means "none".  One extra slot
        so that ``seek(size)`` is well-defined."""
        nxt: List[int] = [size] * (size + 1)
        following = size
        for i in range(size - 1, -1, -1):
            if i in present:
                following = i
            nxt[i] = following
        return nxt

    # -- queries ----------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of cells (the in-degree of the vertex, in practice)."""
        return self._size

    def first(self) -> Optional[int]:
        """Index of the first non-empty cell, or ``None``."""
        return self.seek(0)

    def seek(self, i: int) -> Optional[int]:
        """Index of the first non-empty cell ``>= i``, or ``None``. O(1)."""
        if i >= self._size:
            return None
        if i < 0:
            i = 0
        j = self._next[i]
        return None if j >= self._size else j

    def after(self, i: int) -> Optional[int]:
        """Index of the first non-empty cell ``> i``, or ``None``. O(1)."""
        return self.seek(i + 1)

    def payload(self, i: int) -> Optional[P]:
        """Payload at cell ``i`` (``None`` when the cell is empty)."""
        return self._payloads.get(i)

    def non_empty_indices(self) -> List[int]:
        """All non-empty cell indices in increasing order (for tests)."""
        return sorted(self._payloads)

    def __len__(self) -> int:
        return len(self._payloads)

    def __repr__(self) -> str:
        return f"ResumableIndex(size={self._size}, cells={self._payloads!r})"
