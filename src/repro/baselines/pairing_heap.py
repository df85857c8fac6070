"""A pairing heap with ``decrease_key`` — the Dijkstra priority queue.

The Distinct Cheapest Walks extension (paper, Section 5.3) replaces the
BFS of ``Annotate`` with a cheapest-first traversal and cites
Fredman–Tarjan for the resulting
``O(|D|×|A| + |V|×|Q|×(log|V| + log|Q|))`` preprocessing bound.  That
bound presumes a priority queue with O(1) amortized ``decrease_key``;
a binary heap with lazy deletion matches it only up to duplicate
entries.  This module provides a from-scratch **pairing heap** — the
standard practical stand-in for Fibonacci heaps, with the same
amortized bounds for Dijkstra workloads (O(log n) ``pop``, o(log n)
``decrease_key``).

The heap is a min-heap over ``(key, item)`` pairs.  ``push`` returns an
opaque node handle; pass it to :meth:`PairingHeap.decrease_key` to
lower that entry's key in place.  Keys must be mutually comparable
(``<``); items are never compared.

>>> heap = PairingHeap()
>>> n1 = heap.push(5, "a")
>>> n2 = heap.push(3, "b")
>>> heap.decrease_key(n1, 1)
>>> heap.pop()
(1, 'a')
>>> heap.pop()
(3, 'b')
"""

from __future__ import annotations

from typing import Generic, List, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class HeapNode(Generic[K, V]):
    """A handle to one heap entry; treat all fields as read-only."""

    __slots__ = ("key", "item", "_child", "_next", "_prev", "_in_heap")

    def __init__(self, key: K, item: V) -> None:
        self.key = key
        self.item = item
        self._child: Optional["HeapNode[K, V]"] = None
        self._next: Optional["HeapNode[K, V]"] = None
        # Previous sibling, or the parent when this is a leftmost child.
        self._prev: Optional["HeapNode[K, V]"] = None
        self._in_heap = True

    def __repr__(self) -> str:
        return f"HeapNode({self.key!r}, {self.item!r})"


class PairingHeap(Generic[K, V]):
    """Min-heap with O(1) ``push``/``meld``/``decrease_key`` (amortized
    o(log n)) and O(log n) amortized ``pop`` — two-pass pairing."""

    __slots__ = ("_root", "_size")

    def __init__(self) -> None:
        self._root: Optional[HeapNode[K, V]] = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._root is not None

    def push(self, key: K, item: V) -> HeapNode[K, V]:
        """Insert ``(key, item)``; return the node handle."""
        node: HeapNode[K, V] = HeapNode(key, item)
        self._root = node if self._root is None else _meld(self._root, node)
        self._size += 1
        return node

    def peek(self) -> Tuple[K, V]:
        """The minimal ``(key, item)`` without removing it."""
        if self._root is None:
            raise IndexError("peek on an empty PairingHeap")
        return self._root.key, self._root.item

    def pop(self) -> Tuple[K, V]:
        """Remove and return the minimal ``(key, item)``."""
        root = self._root
        if root is None:
            raise IndexError("pop on an empty PairingHeap")
        root._in_heap = False
        self._root = _merge_pairs(root._child)
        root._child = None
        self._size -= 1
        return root.key, root.item

    def decrease_key(self, node: HeapNode[K, V], new_key: K) -> None:
        """Lower ``node``'s key to ``new_key`` in place.

        Raises ``ValueError`` if ``new_key`` is greater than the
        current key or if the node was already popped.
        """
        if not node._in_heap:
            raise ValueError("decrease_key on a node no longer in the heap")
        if node.key < new_key:
            raise ValueError(
                f"decrease_key would increase the key: "
                f"{node.key!r} -> {new_key!r}"
            )
        node.key = new_key
        if node is self._root:
            return
        _cut(node)
        assert self._root is not None
        self._root = _meld(self._root, node)


def _meld(
    a: HeapNode[K, V], b: HeapNode[K, V]
) -> HeapNode[K, V]:
    """Link two heap roots; the larger becomes the leftmost child."""
    if b.key < a.key:
        a, b = b, a
    # b becomes a's leftmost child.
    b._prev = a
    b._next = a._child
    if a._child is not None:
        a._child._prev = b
    a._child = b
    a._next = None
    a._prev = None
    return a


def _cut(node: HeapNode[K, V]) -> None:
    """Detach ``node`` (and its subtree) from its sibling list."""
    prev = node._prev
    assert prev is not None  # Non-root nodes always have a prev link.
    if prev._child is node:  # node is a leftmost child; prev is parent.
        prev._child = node._next
    else:  # prev is the left sibling.
        prev._next = node._next
    if node._next is not None:
        node._next._prev = prev
    node._next = None
    node._prev = None


def _merge_pairs(
    first: Optional[HeapNode[K, V]]
) -> Optional[HeapNode[K, V]]:
    """Two-pass pairwise meld of a sibling list (iterative)."""
    if first is None:
        return None
    # Pass 1: meld siblings in pairs, left to right.
    pairs: List[HeapNode[K, V]] = []
    node: Optional[HeapNode[K, V]] = first
    while node is not None:
        right = node._next
        node._next = None
        node._prev = None
        if right is None:
            pairs.append(node)
            break
        after = right._next
        right._next = None
        right._prev = None
        pairs.append(_meld(node, right))
        node = after
    # Pass 2: meld the pair roots right to left.
    result = pairs.pop()
    while pairs:
        result = _meld(pairs.pop(), result)
    return result
