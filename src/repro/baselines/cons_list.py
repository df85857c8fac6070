"""Immutable singly-linked lists ("cons lists").

The paper's Section 2.1 requires lists that support:

* O(1) creation of the empty list,
* O(1) prepend ("append at the head"),
* O(1) copy (copying the head pointer).

Regular Python lists have O(n) copy, which would silently break the
delay analysis of the recursive enumerator: every recursive call copies
the current walk prefix.  A cons list shares structure instead.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


class ConsList:
    """An immutable singly-linked list cell.

    The empty list is the module-level singleton :data:`nil`.  Lists
    are built with :func:`cons` or :meth:`ConsList.prepend`::

        >>> xs = nil.prepend(3).prepend(2).prepend(1)
        >>> list(xs)
        [1, 2, 3]
        >>> len(xs)
        3

    Instances are hashable and compare by content, which makes them
    usable as dictionary keys in tests.
    """

    __slots__ = ("head", "tail", "_length")

    def __init__(self, head: object, tail: Optional["ConsList"]) -> None:
        # ``tail is None`` encodes "this is the nil sentinel"; user code
        # never passes None, it goes through ``cons``/``prepend``.
        self.head = head
        self.tail = tail
        self._length = 0 if tail is None else tail._length + 1

    # -- construction --------------------------------------------------

    def prepend(self, value: object) -> "ConsList":
        """Return a new list with ``value`` in front of this one. O(1)."""
        return ConsList(value, self)

    @classmethod
    def from_iterable(cls, values: Iterable[object]) -> "ConsList":
        """Build a list with the same order as ``values``. O(n)."""
        result = nil
        for value in reversed(list(values)):
            result = result.prepend(value)
        return result

    # -- inspection -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True only for the :data:`nil` sentinel."""
        return self.tail is None

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[object]:
        node = self
        while node.tail is not None:
            yield node.head
            node = node.tail

    def __bool__(self) -> bool:
        return self.tail is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConsList):
            return NotImplemented
        if self is other:
            return True
        if len(self) != len(other):
            return False
        return all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"ConsList({list(self)!r})"


#: The empty cons list.  Shared by every list in the process.
nil = ConsList(None, None)


def cons(head: object, tail: ConsList) -> ConsList:
    """Prepend ``head`` to ``tail`` — the classic ``cons`` operation."""
    return ConsList(head, tail)
