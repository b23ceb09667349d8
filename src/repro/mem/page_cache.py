"""Per-node S-COMA page cache with fine-grain tags (R-NUMA's "memory cache").

R-NUMA (Figure 4 of the paper) lets a node remap a remote CC-NUMA page into
a frame of its own main memory and keep *coherent cache blocks* of that
page locally.  The hardware required — fine-grain block tags, a reverse
(local-to-global) translation table and reactive counters — limits the
practical size of this page cache to a fraction of main memory (2.4 MB in
the paper's base system, half of that in the Figure 8 study, unbounded in
R-NUMA-Inf).

The model tracks, per cached page:

* which of the page's blocks currently hold valid data (the fine-grain
  tags) and which of those are dirty,
* the block versions at fill time so remote writes invalidate lazily, and
* an LRU stamp used to choose the victim page when the cache is full.

A relocation installs the page with *no* valid blocks: the paper is
explicit that a relocated page's blocks are refetched on demand, which is
exactly why applications with little page reuse (cholesky, radix) pay a
relocation penalty.

State lives in flat ``array``/``bytearray`` buffers indexed by page id
(residency, LRU stamps, per-page block counts) and by global block id
(``page * blocks_per_page + offset`` — fill version, or ``-1`` when the
tag is invalid, plus a dirty flag) so the compiled kernel walk can mutate
a page cache through zero-copy ``np.frombuffer`` views.  LRU order is a
monotonic clock: every allocation or touch stamps the page with
``_clock[0] += 1``, and the victim is the resident page with the smallest
stamp — the same order the previous ``OrderedDict`` implementation
produced, but observable (and advanceable) from flat arrays.  Resident
pages have distinct stamps, so the least-recent page is unique.  The
number of occupied frames is a one-cell counter beside the clock,
``_count[0]``, so the kernel's relocation can allocate a frame in place;
evictions happen only in Python.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

import numpy as np


@dataclass(slots=True)
class PageCacheStats:
    """Operation counters for a node's page cache."""

    allocations: int = 0
    evictions: int = 0
    block_hits: int = 0
    block_misses: int = 0
    block_fills: int = 0
    block_invalidations: int = 0

    @property
    def block_accesses(self) -> int:
        """Total block lookups served by the page cache."""
        return self.block_hits + self.block_misses


@dataclass(slots=True)
class _CachedPage:
    """Snapshot of one page's bookkeeping (returned by :meth:`PageCache.evict`)."""

    page: int
    valid: Dict[int, int] = field(default_factory=dict)   # block offset -> version
    dirty: set[int] = field(default_factory=set)           # block offsets
    fills: int = 0

    def valid_blocks(self) -> int:
        """Number of valid blocks currently held for this page."""
        return len(self.valid)


class PageCache:
    """LRU cache of S-COMA pages for one node.

    Parameters
    ----------
    capacity_pages:
        Number of page frames, or ``None`` for an unbounded cache
        (R-NUMA-Inf).
    blocks_per_page:
        Blocks per page (used for bounds checking and flush accounting).
    """

    __slots__ = ("capacity_pages", "blocks_per_page", "stats",
                 "_resident", "_stamp", "_nvalid", "_ndirty", "_fills",
                 "_version", "_dirty", "_clock", "_count")

    def __init__(self, capacity_pages: Optional[int], blocks_per_page: int) -> None:
        if capacity_pages is not None and capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive or None")
        if blocks_per_page <= 0:
            raise ValueError("blocks_per_page must be positive")
        self.capacity_pages = capacity_pages
        self.blocks_per_page = blocks_per_page
        self.stats = PageCacheStats()
        self._resident = bytearray()          # page -> 0/1
        self._stamp = array("q")              # page -> LRU clock stamp
        self._nvalid = array("q")             # page -> valid-block count
        self._ndirty = array("q")             # page -> dirty-block count
        self._fills = array("q")              # page -> lifetime fills
        self._version = array("q")            # global block -> version, -1 invalid
        self._dirty = bytearray()             # global block -> 0/1
        self._clock = array("q", [0])         # monotonic LRU clock (length 1)
        self._count = array("q", [0])         # occupied frames (length 1)

    # -- storage ------------------------------------------------------------------

    def reserve(self, n_pages: int) -> None:
        """Grow the flat stores (in place) to cover pages ``0..n_pages-1``.

        Growth must happen before the kernel takes ``np.frombuffer`` views:
        while a view is exported the buffers are locked against resizing.
        """
        have = len(self._stamp)
        if n_pages > have:
            grow = max(n_pages, 2 * have, 64) - have
            self._resident.extend(bytes(grow))
            zeros = array("q", bytes(8 * grow))
            self._stamp.extend(zeros)
            self._nvalid.extend(zeros)
            self._ndirty.extend(zeros)
            self._fills.extend(zeros)
        n_blocks = len(self._stamp) * self.blocks_per_page
        have_b = len(self._version)
        if n_blocks > have_b:
            grow = n_blocks - have_b
            self._version.extend(array("q", (-1,)) * grow)
            self._dirty.extend(bytes(grow))

    # -- frame management --------------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        """True when the page cache has unbounded capacity (R-NUMA-Inf)."""
        return self.capacity_pages is None

    def is_full(self) -> bool:
        """True when a new allocation would require evicting a victim page."""
        if self.capacity_pages is None:
            return False
        return self._count[0] >= self.capacity_pages

    def contains(self, page: int) -> bool:
        """True if ``page`` currently occupies a frame."""
        res = self._resident
        return page < len(res) and res[page] != 0

    def occupancy(self) -> int:
        """Number of occupied page frames."""
        return self._count[0]

    def _resident_stamps(self) -> tuple[np.ndarray, np.ndarray]:
        """The resident page ids and their LRU stamps."""
        pages = np.flatnonzero(np.frombuffer(self._resident, dtype=np.uint8))
        return pages, np.frombuffer(self._stamp, dtype=np.int64)[pages]

    def choose_victim(self) -> Optional[int]:
        """Page id of the least-recently-used resident page, or None if empty."""
        if not self._count[0]:
            return None
        pages, stamps = self._resident_stamps()
        return int(pages[np.argmin(stamps)])

    def allocate(self, page: int) -> "_CachedPage":
        """Allocate a frame for ``page`` (which must not already be resident).

        The caller is responsible for first evicting a victim when
        :meth:`is_full` — the simulator needs to charge the flush cost of
        the victim's dirty blocks before the eviction happens, so eviction
        is an explicit separate step (:meth:`evict`).
        """
        if self.contains(page):
            raise ValueError(f"page {page} is already resident in the page cache")
        if self.is_full():
            raise RuntimeError("page cache is full; evict a victim first")
        self.reserve(page + 1)
        self._resident[page] = 1
        self._count[0] += 1
        self._clock[0] += 1
        self._stamp[page] = self._clock[0]
        self.stats.allocations += 1
        return _CachedPage(page=page)

    def evict(self, page: int) -> "_CachedPage":
        """Remove ``page`` and return a snapshot of its bookkeeping."""
        if not self.contains(page):
            raise KeyError(f"page {page} is not resident in the page cache")
        snapshot = _CachedPage(page=page, fills=self._fills[page])
        version, dirty = self._version, self._dirty
        base = page * self.blocks_per_page
        for offset in range(self.blocks_per_page):
            b = base + offset
            if version[b] >= 0:
                snapshot.valid[offset] = version[b]
                if dirty[b]:
                    snapshot.dirty.add(offset)
                version[b] = -1
                dirty[b] = 0
        self._resident[page] = 0
        self._count[0] -= 1
        self._stamp[page] = 0
        self._nvalid[page] = 0
        self._ndirty[page] = 0
        self._fills[page] = 0
        self.stats.evictions += 1
        return snapshot

    def _touch(self, page: int) -> None:
        self._clock[0] += 1
        self._stamp[page] = self._clock[0]

    # -- block-level operations ----------------------------------------------------

    def lookup_block(self, page: int, offset: int, version: int) -> bool:
        """Look up block ``offset`` of resident page ``page``.

        Returns True on a fresh hit.  A stale block (older version than the
        directory's) is invalidated and reported as a miss; a missing block
        on a resident page is a miss that the protocol turns into a remote
        fetch followed by :meth:`fill_block`.
        """
        if not self.contains(page):
            raise KeyError(f"page {page} is not resident in the page cache")
        self._touch(page)
        b = page * self.blocks_per_page + offset
        stored = self._version[b]
        if stored >= 0:
            if stored >= version:
                self.stats.block_hits += 1
                return True
            self._version[b] = -1
            self._nvalid[page] -= 1
            if self._dirty[b]:
                self._dirty[b] = 0
                self._ndirty[page] -= 1
            self.stats.block_invalidations += 1
        self.stats.block_misses += 1
        return False

    def fill_block(self, page: int, offset: int, version: int, dirty: bool = False) -> None:
        """Install block ``offset`` of resident page ``page``."""
        if not 0 <= offset < self.blocks_per_page:
            raise ValueError(f"block offset {offset} out of range")
        if not self.contains(page):
            raise KeyError(f"page {page} is not resident in the page cache")
        b = page * self.blocks_per_page + offset
        if self._version[b] < 0:
            self._nvalid[page] += 1
        self._version[b] = version
        if dirty and not self._dirty[b]:
            self._dirty[b] = 1
            self._ndirty[page] += 1
        self._fills[page] += 1
        self.stats.block_fills += 1

    def write_block(self, page: int, offset: int, version: int) -> None:
        """Record a write to a valid block (marks it dirty, bumps version)."""
        if not self.contains(page):
            raise KeyError(f"page {page} is not resident in the page cache")
        b = page * self.blocks_per_page + offset
        stored = self._version[b]
        if stored >= 0:
            self._version[b] = max(stored, version)
            if not self._dirty[b]:
                self._dirty[b] = 1
                self._ndirty[page] += 1

    def invalidate_block(self, page: int, offset: int) -> bool:
        """Invalidate one block of a resident page (remote write)."""
        if not self.contains(page):
            return False
        b = page * self.blocks_per_page + offset
        if self._version[b] >= 0:
            self._version[b] = -1
            self._nvalid[page] -= 1
            if self._dirty[b]:
                self._dirty[b] = 0
                self._ndirty[page] -= 1
            self.stats.block_invalidations += 1
            return True
        return False

    # -- inspection -----------------------------------------------------------------

    def valid_blocks(self, page: int) -> int:
        """Number of valid blocks held for ``page`` (0 if not resident)."""
        return self._nvalid[page] if self.contains(page) else 0

    def dirty_blocks(self, page: int) -> int:
        """Number of dirty blocks held for ``page`` (0 if not resident)."""
        return self._ndirty[page] if self.contains(page) else 0

    def resident_pages(self) -> Iterator[int]:
        """Iterate over resident page ids in LRU order (oldest first)."""
        pages, stamps = self._resident_stamps()
        return iter(pages[np.argsort(stamps)].tolist())

    def clear(self) -> None:
        """Drop all pages (statistics preserved)."""
        pages, _ = self._resident_stamps()
        bpp = self.blocks_per_page
        version = np.frombuffer(self._version, dtype=np.int64).reshape(-1, bpp)
        dirty = np.frombuffer(self._dirty, dtype=np.uint8).reshape(-1, bpp)
        version[pages] = -1
        dirty[pages] = 0
        for store, dtype in ((self._resident, np.uint8),
                             (self._stamp, np.int64), (self._nvalid, np.int64),
                             (self._ndirty, np.int64), (self._fills, np.int64)):
            np.frombuffer(store, dtype=dtype)[pages] = 0
        self._count[0] = 0
