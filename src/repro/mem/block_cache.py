"""Per-node SRAM block cache (the CC-NUMA "cluster cache" / "remote cache").

In the base CC-NUMA machine (Figure 2 of the paper) every node's cluster
device contains a small, fast SRAM cache of recently referenced *remote*
blocks.  Cache fills that miss in the processor caches but hit here are
served at local-miss latency; misses invoke the DSM protocol and pay the
remote round trip.

The paper sizes this cache at the sum of the node's processor caches
(64 KB for a four-processor node) and uses it only for remote data — local
(home) pages are served from the node's main memory.  ``capacity_blocks``
may be ``None`` to model the *perfect* CC-NUMA used as the normalisation
baseline (an infinite block cache never suffers capacity/conflict misses).

Storage layout
--------------
Both kinds of cache store their frames as flat parallel buffer-backed
arrays — ``_blocks`` (cached block id, -1 when empty) and ``_versions``
as ``array('q')``, ``_dirty`` as a ``bytearray`` — indexed by frame
number ``block % modulus``: the layout the protocol layer's and the
batched engine's inlined lookup/fill paths index directly, and one the
compiled residual kernel views as contiguous numpy arrays without
copying.  A finite cache is direct-mapped: ``modulus`` is its capacity.
An infinite cache has ``modulus`` = :data:`INFINITE_FRAMES`, above every
block id, so a block's frame is the block id itself and a fill never
evicts.  Its frames start empty and grow in place through
:meth:`BlockCache.reserve` — per phase by the engines (whole pages in
the kernel, whose views export-lock the buffers), on demand by
:meth:`fill` and by the protocol's inlined lookup/fill
(``CCNUMAProtocol._block_cache_fetch``); other lookups past the end are
misses.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional, Tuple

from repro.mem.cache import CacheStats

#: Frame-index modulus of an infinite cache: larger than any block id, so
#: ``block % INFINITE_FRAMES == block`` (and it fits the kernel's int64).
INFINITE_FRAMES = 1 << 62


class BlockCache:
    """Direct-mapped (or infinite) cache of remote blocks for one node.

    Parameters
    ----------
    capacity_blocks:
        Number of block frames, or ``None`` for an infinite cache
        (perfect CC-NUMA).
    """

    __slots__ = ("capacity_blocks", "modulus", "_blocks", "_versions",
                 "_dirty", "stats")

    def __init__(self, capacity_blocks: Optional[int]) -> None:
        if capacity_blocks is not None and capacity_blocks <= 0:
            raise ValueError("capacity_blocks must be positive or None")
        self.capacity_blocks = capacity_blocks
        #: frame index of ``block`` is ``block % modulus``
        self.modulus = capacity_blocks or INFINITE_FRAMES
        frames = capacity_blocks or 0
        self._blocks = array("q", b"\xff" * (8 * frames))
        self._versions = array("q", bytes(8 * frames))
        self._dirty = bytearray(frames)
        self.stats = CacheStats()

    def reserve(self, n_blocks: int) -> None:
        """Grow an infinite cache's frames (in place) to cover ids ``< n_blocks``.

        A no-op for a finite cache.  Growth must happen before the kernel
        takes ``np.frombuffer`` views: while a view is exported the
        buffers are locked against resizing.
        """
        grow = n_blocks - len(self._blocks)
        if grow > 0 and self.capacity_blocks is None:
            self._blocks.frombytes(b"\xff" * (8 * grow))
            self._versions.frombytes(bytes(8 * grow))
            self._dirty += bytes(grow)

    # -- core operations --------------------------------------------------------

    def lookup(self, block: int, version: int) -> bool:
        """Return True if ``block`` is present and not stale.

        Stale entries (version older than the directory's current version)
        are invalidated and reported as misses, mirroring the lazy
        invalidation scheme of the processor caches.
        """
        idx = block % self.modulus
        blocks = self._blocks
        if idx < len(blocks) and blocks[idx] == block:
            if self._versions[idx] >= version:
                self.stats.hits += 1
                return True
            blocks[idx] = -1
            self._dirty[idx] = False
            self.stats.invalidations += 1
        self.stats.misses += 1
        return False

    def fill(self, block: int, version: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install ``block``; return the evicted ``(block, dirty)`` if any."""
        idx = block % self.modulus
        if idx >= len(self._blocks):
            self.reserve(idx + 1)
        victim: Optional[Tuple[int, bool]] = None
        old = self._blocks[idx]
        if old >= 0 and old != block:
            victim = (old, bool(self._dirty[idx]))
            self.stats.evictions += 1
        self._blocks[idx] = block
        self._versions[idx] = version
        self._dirty[idx] = dirty
        return victim

    def touch_write(self, block: int, version: int) -> None:
        """Record a write to a resident block (marks it dirty)."""
        idx = block % self.modulus
        if idx < len(self._blocks) and self._blocks[idx] == block:
            if version > self._versions[idx]:
                self._versions[idx] = version
            self._dirty[idx] = True

    def invalidate(self, block: int) -> bool:
        """Drop ``block`` if present; return True if it was present."""
        idx = block % self.modulus
        blocks = self._blocks
        if idx < len(blocks) and blocks[idx] == block:
            blocks[idx] = -1
            self._dirty[idx] = False
            self.stats.invalidations += 1
            return True
        return False

    def invalidate_page(self, blocks: range) -> int:
        """Invalidate every resident block of a page; return how many were dropped."""
        dropped = 0
        for block in blocks:
            if self.invalidate(block):
                dropped += 1
        return dropped

    # -- inspection ---------------------------------------------------------------

    def contains(self, block: int) -> bool:
        """True if ``block`` is resident (any version)."""
        idx = block % self.modulus
        return idx < len(self._blocks) and self._blocks[idx] == block

    def is_dirty(self, block: int) -> bool:
        """True if ``block`` is resident and dirty."""
        return self.contains(block) and bool(self._dirty[block % self.modulus])

    def resident_blocks(self) -> Iterator[int]:
        """Iterate over resident block ids."""
        for block in self._blocks:
            if block >= 0:
                yield block

    def occupancy(self) -> int:
        """Number of resident blocks."""
        return sum(1 for block in self._blocks if block >= 0)

    @property
    def is_infinite(self) -> bool:
        """True for the perfect-CC-NUMA infinite cache."""
        return self.capacity_blocks is None

    def clear(self) -> None:
        """Drop all blocks (statistics preserved)."""
        for i in range(len(self._blocks)):
            self._blocks[i] = -1
            self._versions[i] = 0
            self._dirty[i] = False
