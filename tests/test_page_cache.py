"""Tests for repro.mem.page_cache: the S-COMA page cache."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.page_cache import PageCache


class TestConstruction:
    def test_invalid_args(self):
        with pytest.raises(ValueError):
            PageCache(0, 16)
        with pytest.raises(ValueError):
            PageCache(4, 0)

    def test_infinite_flag(self):
        assert PageCache(None, 16).is_infinite
        assert not PageCache(4, 16).is_infinite


class TestFrameManagement:
    def test_allocate_and_contains(self):
        pc = PageCache(2, 16)
        pc.allocate(10)
        assert pc.contains(10)
        assert pc.occupancy() == 1
        assert pc.stats.allocations == 1

    def test_double_allocate_rejected(self):
        pc = PageCache(2, 16)
        pc.allocate(10)
        with pytest.raises(ValueError):
            pc.allocate(10)

    def test_allocate_when_full_requires_evict(self):
        pc = PageCache(2, 16)
        pc.allocate(1)
        pc.allocate(2)
        assert pc.is_full()
        with pytest.raises(RuntimeError):
            pc.allocate(3)
        victim = pc.choose_victim()
        assert victim == 1  # LRU order: first allocated, never touched
        entry = pc.evict(victim)
        assert entry.page == 1
        pc.allocate(3)
        assert pc.contains(3)

    def test_evict_absent_raises(self):
        pc = PageCache(2, 16)
        with pytest.raises(KeyError):
            pc.evict(99)

    def test_lru_order_updated_by_block_access(self):
        pc = PageCache(2, 16)
        pc.allocate(1)
        pc.allocate(2)
        pc.lookup_block(1, 0, 0)      # touch page 1; page 2 becomes LRU
        assert pc.choose_victim() == 2

    def test_choose_victim_empty(self):
        pc = PageCache(2, 16)
        assert pc.choose_victim() is None

    def test_infinite_cache_never_full(self):
        pc = PageCache(None, 16)
        for p in range(500):
            pc.allocate(p)
        assert not pc.is_full()
        assert pc.occupancy() == 500


class TestBlockOperations:
    def test_relocated_page_starts_empty(self):
        pc = PageCache(4, 16)
        pc.allocate(7)
        assert pc.valid_blocks(7) == 0
        assert not pc.lookup_block(7, 3, 0)
        assert pc.stats.block_misses == 1

    def test_fill_then_hit(self):
        pc = PageCache(4, 16)
        pc.allocate(7)
        pc.fill_block(7, 3, 1)
        assert pc.lookup_block(7, 3, 1)
        assert pc.stats.block_hits == 1
        assert pc.valid_blocks(7) == 1

    def test_fill_out_of_range_offset(self):
        pc = PageCache(4, 16)
        pc.allocate(7)
        with pytest.raises(ValueError):
            pc.fill_block(7, 16, 0)

    def test_block_ops_on_absent_page_raise(self):
        pc = PageCache(4, 16)
        with pytest.raises(KeyError):
            pc.lookup_block(9, 0, 0)
        with pytest.raises(KeyError):
            pc.fill_block(9, 0, 0)
        with pytest.raises(KeyError):
            pc.write_block(9, 0, 0)

    def test_stale_block_invalidated_on_lookup(self):
        pc = PageCache(4, 16)
        pc.allocate(7)
        pc.fill_block(7, 3, 1)
        assert not pc.lookup_block(7, 3, 2)
        assert pc.stats.block_invalidations == 1
        assert pc.valid_blocks(7) == 0

    def test_write_block_marks_dirty(self):
        pc = PageCache(4, 16)
        pc.allocate(7)
        pc.fill_block(7, 3, 1)
        pc.write_block(7, 3, 2)
        assert pc.dirty_blocks(7) == 1

    def test_fill_dirty(self):
        pc = PageCache(4, 16)
        pc.allocate(7)
        pc.fill_block(7, 2, 1, dirty=True)
        assert pc.dirty_blocks(7) == 1

    def test_invalidate_block(self):
        pc = PageCache(4, 16)
        pc.allocate(7)
        pc.fill_block(7, 5, 1, dirty=True)
        assert pc.invalidate_block(7, 5)
        assert not pc.invalidate_block(7, 5)
        assert pc.dirty_blocks(7) == 0
        assert not pc.invalidate_block(99, 0)

    def test_eviction_returns_block_bookkeeping(self):
        pc = PageCache(1, 16)
        pc.allocate(3)
        pc.fill_block(3, 0, 1, dirty=True)
        pc.fill_block(3, 1, 1)
        entry = pc.evict(3)
        assert entry.valid_blocks() == 2
        assert len(entry.dirty) == 1
        assert pc.valid_blocks(3) == 0

    def test_clear(self):
        pc = PageCache(4, 16)
        pc.allocate(1)
        pc.allocate(2)
        pc.fill_block(2, 3, 5, dirty=True)
        pc.clear()
        assert pc.occupancy() == 0
        assert list(pc.resident_pages()) == []
        assert not pc.contains(2)
        pc.allocate(2)
        assert pc.valid_blocks(2) == pc.dirty_blocks(2) == 0

    def test_resident_pages_in_lru_order(self):
        pc = PageCache(4, 16)
        for page in (9, 4, 7):
            pc.allocate(page)
        pc.lookup_block(9, 0, 0)      # touch page 9: it becomes the newest
        assert list(pc.resident_pages()) == [4, 7, 9]


class TestProperties:
    @given(pages=st.lists(st.integers(min_value=0, max_value=60),
                          min_size=1, max_size=120),
           capacity=st.integers(min_value=1, max_value=12))
    @settings(max_examples=40)
    def test_occupancy_never_exceeds_capacity(self, pages, capacity):
        pc = PageCache(capacity, 16)
        for p in pages:
            if pc.contains(p):
                pc.lookup_block(p, 0, 0)
                continue
            if pc.is_full():
                pc.evict(pc.choose_victim())
            pc.allocate(p)
        assert pc.occupancy() <= capacity
        assert pc.stats.allocations >= pc.stats.evictions

    @given(ops=st.lists(st.tuples(st.integers(min_value=0, max_value=15),
                                  st.booleans()),
                        min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_valid_dirty_invariant(self, ops):
        """Dirty blocks are always a subset of valid blocks."""
        pc = PageCache(4, 16)
        pc.allocate(1)
        for offset, write in ops:
            if not pc.lookup_block(1, offset, 0):
                pc.fill_block(1, offset, 0, dirty=write)
            elif write:
                pc.write_block(1, offset, 0)
        assert pc.dirty_blocks(1) <= pc.valid_blocks(1) <= 16
