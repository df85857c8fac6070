"""Unit and property tests for the pairing heap."""


import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.pairing_heap import PairingHeap


class TestBasics:
    def test_empty(self):
        heap = PairingHeap()
        assert len(heap) == 0
        assert not heap
        with pytest.raises(IndexError):
            heap.peek()
        with pytest.raises(IndexError):
            heap.pop()

    def test_push_pop_single(self):
        heap = PairingHeap()
        heap.push(7, "x")
        assert len(heap) == 1
        assert heap.peek() == (7, "x")
        assert heap.pop() == (7, "x")
        assert not heap

    def test_pops_in_key_order(self):
        heap = PairingHeap()
        for key in (5, 1, 4, 2, 3):
            heap.push(key, f"item{key}")
        got = [heap.pop() for _ in range(5)]
        assert got == [(k, f"item{k}") for k in (1, 2, 3, 4, 5)]

    def test_duplicate_keys_allowed(self):
        heap = PairingHeap()
        heap.push(1, "a")
        heap.push(1, "b")
        keys = [heap.pop()[0], heap.pop()[0]]
        assert keys == [1, 1]

    def test_interleaved_push_pop(self):
        heap = PairingHeap()
        heap.push(10, None)
        heap.push(5, None)
        assert heap.pop()[0] == 5
        heap.push(1, None)
        heap.push(20, None)
        assert heap.pop()[0] == 1
        assert heap.pop()[0] == 10
        assert heap.pop()[0] == 20


class TestDecreaseKey:
    def test_decrease_to_new_minimum(self):
        heap = PairingHeap()
        node = heap.push(50, "late")
        heap.push(10, "early")
        heap.decrease_key(node, 1)
        assert heap.pop() == (1, "late")
        assert heap.pop() == (10, "early")

    def test_decrease_non_root_deep(self):
        heap = PairingHeap()
        nodes = [heap.push(k, k) for k in range(10, 30)]
        # Force structure: pop once so children are melded.
        assert heap.pop()[0] == 10
        heap.decrease_key(nodes[-1], 0)
        assert heap.pop() == (0, 29)

    def test_increase_rejected(self):
        heap = PairingHeap()
        node = heap.push(5, None)
        with pytest.raises(ValueError, match="increase"):
            heap.decrease_key(node, 6)
        # Equal key is a no-op, not an error.
        heap.decrease_key(node, 5)
        assert heap.pop() == (5, None)

    def test_popped_node_rejected(self):
        heap = PairingHeap()
        node = heap.push(5, None)
        heap.pop()
        with pytest.raises(ValueError, match="no longer"):
            heap.decrease_key(node, 1)


class TestProperties:
    @given(st.lists(st.integers(), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_heapsort_matches_sorted(self, keys):
        heap = PairingHeap()
        for k in keys:
            heap.push(k, None)
        got = [heap.pop()[0] for _ in range(len(keys))]
        assert got == sorted(keys)
        assert not heap

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_ops_match_reference(self, seed):
        """Random push/pop/decrease trace vs a brute-force reference."""
        rng = random.Random(seed)
        heap = PairingHeap()
        live = {}  # serial -> (node, current key)
        serial = 0
        for _ in range(300):
            op = rng.random()
            if op < 0.5 or not live:
                key = rng.randint(0, 100)
                node = heap.push(key, serial)
                live[serial] = (node, key)
                serial += 1
            elif op < 0.75:
                pick = rng.choice(list(live))
                node, key = live[pick]
                new_key = rng.randint(0, key)
                heap.decrease_key(node, new_key)
                live[pick] = (node, new_key)
            else:
                got_key, got_serial = heap.pop()
                assert live[got_serial][1] == got_key
                assert got_key == min(k for _, k in live.values())
                del live[got_serial]
            assert len(heap) == len(live)
        # Drain and compare the remains.
        drained = sorted(heap.pop()[0] for _ in range(len(heap)))
        assert drained == sorted(key for _, key in live.values())
