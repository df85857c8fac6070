"""Restartable queues (paper, Section 2.1).

A restartable queue is a sequence with three pointers — start, end and
*current* — supporting all of the following in O(1):

* creation of an empty queue,
* ``enqueue`` at the end,
* ``peek`` the element under the current pointer,
* ``advance`` the current pointer,
* ``restart``: move the current pointer back to the start.

The paper implements them as linked lists; a Python list plus an index
gives the same amortized bounds with far better constants, and —
crucially for the analysis — ``restart`` is O(1) because it only resets
the index, never touches the elements.
"""

from __future__ import annotations

from typing import Generic, Iterator, List, Optional, TypeVar

T = TypeVar("T")


class RestartableQueue(Generic[T]):
    """FIFO queue with an O(1) restartable read cursor.

    >>> q = RestartableQueue([1, 2, 3])
    >>> q.peek()
    1
    >>> q.advance(); q.peek()
    2
    >>> q.restart(); q.peek()
    1
    """

    __slots__ = ("_items", "_pos")

    def __init__(self, items: Optional[List[T]] = None) -> None:
        self._items: List[T] = list(items) if items is not None else []
        self._pos = 0

    # -- writing --------------------------------------------------------

    def enqueue(self, item: T) -> None:
        """Add ``item`` at the end of the queue. Amortized O(1)."""
        self._items.append(item)

    def fork(self) -> "RestartableQueue[T]":
        """A new queue *sharing* this queue's elements, cursor at 0.

        O(1): only the cursor is per-fork; the element list is the same
        object.  Intended for the read phase — once a queue has been
        forked, neither copy may :meth:`enqueue` (an append would leak
        into every fork mid-enumeration).
        """
        forked: "RestartableQueue[T]" = RestartableQueue.__new__(
            RestartableQueue
        )
        forked._items = self._items
        forked._pos = 0
        return forked

    # -- the read cursor -------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True when the cursor has moved past the last element."""
        return self._pos >= len(self._items)

    def peek(self) -> T:
        """Return the element under the cursor without moving it.

        Raises :class:`IndexError` when the queue is exhausted; callers
        are expected to check :attr:`exhausted` first, as the paper's
        pseudocode does ("if C_u[p] is not empty").
        """
        return self._items[self._pos]

    def advance(self) -> None:
        """Move the cursor one element forward. O(1)."""
        if self._pos < len(self._items):
            self._pos += 1

    def restart(self) -> None:
        """Move the cursor back to the first element. O(1)."""
        self._pos = 0

    # -- inspection -------------------------------------------------------

    def __len__(self) -> int:
        """Total number of enqueued elements (independent of cursor)."""
        return len(self._items)

    def remaining(self) -> int:
        """Number of elements from the cursor to the end."""
        return len(self._items) - self._pos

    @property
    def position(self) -> int:
        """Current cursor offset from the start (for tests/debugging)."""
        return self._pos

    def __iter__(self) -> Iterator[T]:
        """Iterate over *all* elements, ignoring the cursor."""
        return iter(self._items)

    def __repr__(self) -> str:
        return f"RestartableQueue({self._items!r}, pos={self._pos})"
