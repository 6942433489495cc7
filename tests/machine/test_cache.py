"""Tests for the set-associative LRU cache simulator."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import cache as cache_mod
from repro.machine.cache import (
    Cache,
    MemoryHierarchy,
    addresses_to_lines,
    dedup_consecutive,
)
from repro.machine.params import CacheParams, MemoryParams

from . import address_lines, charge_tuples


def make_cache(size=1024, line=64, assoc=2, penalty=10.0) -> Cache:
    return Cache(CacheParams("t", size, line_bytes=line, assoc=assoc,
                             miss_penalty=penalty))


def test_addresses_to_lines():
    addrs = np.array([0, 63, 64, 127, 128])
    np.testing.assert_array_equal(addresses_to_lines(addrs, 64), [0, 0, 1, 1, 2])
    with pytest.raises(ValueError):
        addresses_to_lines(addrs, 48)


def test_dedup_consecutive():
    lines = np.array([1, 1, 1, 2, 2, 1, 3, 3])
    np.testing.assert_array_equal(dedup_consecutive(lines), [1, 2, 1, 3])
    assert dedup_consecutive(np.array([], dtype=np.int64)).size == 0
    assert dedup_consecutive(np.array([7])).tolist() == [7]


def test_cold_misses_then_hits():
    c = make_cache()
    assert c.access_lines(np.array([0, 1, 2])).tolist() == [True] * 3
    assert not c.access_lines(np.array([0, 1, 2])).any()
    assert c.accesses == 6 and c.misses == 3


def test_lru_eviction_order():
    # 1024 B / 64 B / 2-way -> 8 sets; lines 0, 8, 16 map to set 0.
    c = make_cache()
    c.access_lines(np.array([0, 8]))       # set 0 holds {0, 8}
    c.access_lines(np.array([0]))          # touch 0 -> LRU is 8
    assert c.access_lines(np.array([16])).tolist() == [True]  # evicts 8
    assert c.access_lines(np.array([0])).tolist() == [False]  # 0 resident
    assert c.access_lines(np.array([8])).tolist() == [True]  # 8 evicted


def test_hierarchy_penalties_and_counts():
    params = MemoryParams(
        l1=CacheParams("L1", 512, line_bytes=64, assoc=2, miss_penalty=10.0),
        l2=CacheParams("L2", 4096, line_bytes=64, assoc=4, miss_penalty=100.0),
    )
    h = MemoryHierarchy(params)
    # 4 distinct lines, all cold: 4 L1 misses + 4 L2 misses; then the
    # same lines again: all L1 hits.
    cold, warm = charge_tuples(
        h.access(address_lines(h, [np.arange(4) * 64, np.arange(4) * 64])))
    assert cold == (4 * 10.0 + 4 * 100.0, 4, 4, 4)
    assert warm == (0.0, 0, 0, 4)
    assert h.l1.misses == 4 and h.l2.misses == 4
    assert h.element_accesses == 8


def test_hierarchy_l2_catches_l1_evictions():
    params = MemoryParams(
        l1=CacheParams("L1", 128, line_bytes=64, assoc=1, miss_penalty=10.0),
        l2=CacheParams("L2", 4096, line_bytes=64, assoc=4, miss_penalty=100.0),
    )
    h = MemoryHierarchy(params)
    # L1 is 2 lines direct-mapped; walk 8 lines twice.
    h.access(address_lines(h, [np.arange(8) * 64]))
    [(penalty, l1_misses, l2_misses, _)] = charge_tuples(
        h.access(address_lines(h, [np.arange(8) * 64])))
    # second pass: all L1 misses (capacity) but all L2 hits.
    assert (penalty, l1_misses, l2_misses) == (8 * 10.0, 8, 0)


def test_hierarchy_disabled_costs_nothing():
    params = MemoryParams(l1=CacheParams("L1", 512, assoc=2))
    h = MemoryHierarchy(params, enabled=False)
    assert list(charge_tuples(h.access(address_lines(
        h, [np.arange(100) * 64])))) == [(0.0, 0, 0, 100)]
    assert h.l1.accesses == 0 and h.l1.misses == 0
    assert h.element_accesses == 100


def test_cache_params_validation():
    with pytest.raises(ValueError):
        CacheParams("bad", size_bytes=1000, line_bytes=64, assoc=3)
    with pytest.raises(ValueError, match="set count 3 is not a power of two"):
        CacheParams("bad", size_bytes=3 * 64 * 4, line_bytes=64, assoc=4)
    with pytest.raises(ValueError, match="line size 48 is not a power"):
        CacheParams("bad", size_bytes=48 * 4 * 4, line_bytes=48, assoc=4)
    assert CacheParams("ok", 1024, line_bytes=64, assoc=4).n_sets == 4


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300))
def test_misses_bounded_and_unique_lines_lower_bound(lines):
    """Misses never exceed accesses; distinct lines each miss at least once."""
    c = make_cache(size=512, assoc=2)
    arr = np.asarray(lines, dtype=np.int64)
    c.access_lines(arr)
    assert 0 <= c.misses <= c.accesses == len(lines)
    # every distinct line has at least one compulsory miss
    assert c.misses >= len(set(lines))


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300))
def test_dedup_preserves_miss_count(lines):
    """Removing consecutive duplicates cannot change the misses."""
    a, b = make_cache(), make_cache()
    arr = np.asarray(lines, dtype=np.int64)
    a.access_lines(arr)
    b.access_lines(dedup_consecutive(arr))
    assert a.misses == b.misses


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=200))
def test_fully_associative_behaviour_small_working_set(lines):
    """A working set that fits one set's ways never misses twice."""
    c = make_cache(size=64 * 64, line=64, assoc=64)  # 1 set, 64 ways
    arr = np.asarray(lines, dtype=np.int64)
    if len(set(lines)) <= 64:
        c.access_lines(arr)
        assert c.misses == len(set(lines))


def test_batches_view_each_item_and_let_it_go():
    """Batches of ``BATCH_LINES`` lines, in order: those inside one item
    are views of it, only a batch across two items is a copy, a
    recurring item (one with a key) passes whole once the lines before
    it are batched, and no batch holds an item once the next one is
    built."""
    size = cache_mod.BATCH_LINES
    built = []

    def items():
        for n, key in ((2 * size + 10, None), (3 * size, None),
                       (size + 3, 7), (2, 8), (5, None)):
            # the item before is gone by the time this one is built.
            assert all(ref() is None for ref in built)
            lines = np.arange(n, dtype=np.int64) + 10 * size * len(built)
            built.append(weakref.ref(lines))
            yield cache_mod._Item(lines, None, key)
            del lines

    batches, seen = cache_mod._batches(items()), []
    for batch in batches:
        seen.append((batch.lines.size, batch.lines.base is not None,
                     int(batch.lines[0]), batch.key))
        assert batch.weights is None
        del batch
    assert seen == [(size, True, 0, None), (size, True, size, None),
                    (size, False, 2 * size, None),
                    (size, True, 11 * size - 10, None),
                    (size, True, 12 * size - 10, None),
                    (10, False, 13 * size - 10, None),
                    (size + 3, False, 20 * size, 7), (2, False, 30 * size, 8),
                    (5, False, 40 * size, None)]
