"""Tests for the lazy max-heap underpinning Theorem-1 maintenance."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.heap import LazyMaxHeap


class TestBasics:
    def test_empty_pop(self):
        heap = LazyMaxHeap()
        assert heap.pop_current(lambda obj: 0.0) is None
        assert len(heap) == 0

    def test_pop_order_without_staleness(self):
        heap = LazyMaxHeap()
        priorities = {0: 0.3, 1: 0.9, 2: 0.5}
        for obj, p in priorities.items():
            heap.push(obj, p)
        popped = [heap.pop_current(priorities.__getitem__) for _ in range(3)]
        assert popped == [(1, 0.9), (2, 0.5), (0, 0.3)]

    def test_tie_break_higher_oid_first(self):
        heap = LazyMaxHeap()
        priorities = {3: 0.5, 7: 0.5, 1: 0.5}
        for obj, p in priorities.items():
            heap.push(obj, p)
        order = [heap.pop_current(priorities.__getitem__)[0] for _ in range(3)]
        assert order == [7, 3, 1]

    def test_unseen_sentinel_loses_ties(self):
        heap = LazyMaxHeap()
        priorities = {-1: 0.7, 0: 0.7}
        for obj, p in priorities.items():
            heap.push(obj, p)
        assert heap.pop_current(priorities.__getitem__)[0] == 0


class TestStaleness:
    def test_stale_entry_reinserted_with_fresh_priority(self):
        heap = LazyMaxHeap()
        current = {0: 0.9, 1: 0.8}
        heap.push(0, current[0])
        heap.push(1, current[1])
        current[0] = 0.1  # 0's priority decayed since its push
        obj, priority = heap.pop_current(current.__getitem__)
        assert (obj, priority) == (1, 0.8)
        assert heap.pop_current(current.__getitem__) == (0, 0.1)

    def test_mass_decay_still_yields_true_max(self):
        heap = LazyMaxHeap()
        current = {obj: 1.0 for obj in range(100)}
        for obj in range(100):
            heap.push(obj, 1.0)
        # Everyone decays differently; the heap must find the new max.
        rng = random.Random(0)
        for obj in current:
            current[obj] = rng.random()
        best = max(current.items(), key=lambda kv: (kv[1], kv[0]))
        obj, priority = heap.pop_current(current.__getitem__)
        assert (obj, priority) == (best[0], best[1])


class TestMonotoneDecreaseProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0, max_value=1, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        st.data(),
    )
    def test_pops_match_reference_under_random_decay(self, initial, data):
        """Pop order equals exact sorting despite arbitrary priority decay.

        Priorities only ever decrease between pops (the framework's
        contract); the lazy heap must then agree with a brute-force
        ranking at every pop.
        """
        heap = LazyMaxHeap()
        current = dict(enumerate(initial))
        for obj, p in current.items():
            heap.push(obj, p)
        alive = set(current)
        while alive:
            # Decay a random subset before the next pop.
            for obj in sorted(alive):
                if data.draw(st.booleans()):
                    current[obj] = data.draw(
                        st.floats(min_value=0, max_value=current[obj], allow_nan=False)
                    )
            expected = max(
                ((current[o], o) for o in alive), key=lambda t: (t[0], t[1])
            )
            obj, priority = heap.pop_current(current.__getitem__)
            assert (priority, obj) == expected
            alive.remove(obj)
