"""Base CC-NUMA protocol with a per-node SRAM block cache.

Section 2 of the paper: every node's cluster device snoops the memory bus
and satisfies cache fills for remote data out of a small SRAM *block
cache*; misses in the block cache allocate a frame (writing back the
victim) and fetch the block from its home node over the network.

Two variants are produced by the factory:

* ``ccnuma`` — the base system with a 64 KB (per node) block cache,
* ``perfect`` — the normalisation baseline with an *infinite* block cache,
  which therefore never suffers capacity/conflict remote misses (only cold
  and coherence ones).  The perfect system is built simply by constructing
  the machine with ``capacity_blocks=None``; the protocol code is shared,
  down to the flat frame arrays both kinds of cache index.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.protocol import _DEPARTED_EVICTED, DSMProtocol
from repro.interconnect.message import MessageType
from repro.mem.page_table import PageMode


class CCNUMAProtocol(DSMProtocol):
    """CC-NUMA with remote data cached in the node's block cache."""

    name = "ccnuma"

    # ------------------------------------------------------------------ helpers

    def _block_cache_fetch(self, node: int, page: int, block: int,
                           is_write: bool, now: int, home: int
                           ) -> Tuple[int, int, bool]:
        """Satisfy a remote-page miss through the node's block cache.

        Returns ``(latency, version, went_remote)``.  A block-cache hit is
        served at local-miss latency (the block cache sits on the memory
        bus); a miss fetches the block from the home node and installs it,
        evicting (and writing back if dirty) the victim frame.

        The :class:`~repro.mem.block_cache.BlockCache` lookup/fill/
        touch-write steps are inlined on the cache's flat frame arrays
        (pre-bound in :class:`DSMProtocol`): this helper runs on every
        remote-page reference of every system, and the method-call version
        of the same logic dominated its profile.
        """
        # inlined Directory.version
        versions = self._dir_version
        version = versions[block] if block < len(versions) else 0
        idx = block % self._bc_caps[node]
        bb = self._bc_blocks[node]
        if idx >= len(bb):
            # only an infinite cache's frames can end below a block id
            self.block_caches[node].reserve(idx + 1)
        bv = self._bc_versions[node]
        bd = self._bc_dirty[node]
        bc_stats = self._bc_stats[node]

        if bb[idx] == block:
            if bv[idx] >= version:
                bc_stats.hits += 1
                self.node_stats[node].block_cache_hits += 1
                if is_write:
                    extra, version = self._directory_write(node, block)
                    # inlined BlockCache.touch_write (the frame holds block)
                    if version > bv[idx]:
                        bv[idx] = version
                    bd[idx] = True
                    return self._local_miss_cost + extra, version, False
                return self._local_miss_cost, version, False
            # stale copy: drop it so the fill below refreshes it
            bb[idx] = -1
            bd[idx] = False
            bc_stats.invalidations += 1
        bc_stats.misses += 1

        latency, version = self._remote_fill(node, block, is_write, now, home)

        # inlined BlockCache.fill (an infinite cache's frame is the block's
        # own, so only a finite cache evicts)
        old = bb[idx]
        old_dirty = bd[idx]
        bb[idx] = block
        bv[idx] = version
        bd[idx] = is_write
        if old >= 0 and old != block:
            bc_stats.evictions += 1
            # inlined mark_evicted + Directory.record_eviction
            self._departed[node][old] = _DEPARTED_EVICTED
            dir_sharers = self._dir_sharers
            if old < len(dir_sharers) and self._dir_tracked[old]:
                dir_sharers[old] &= ~(1 << node)
                if self._dir_owner[old] == node:
                    self._dir_owner[old] = -1
                    self.directory.writebacks += 1
            if old_dirty:  # dirty victim: write it back to its home
                vm_home = self._vm_home
                vpage = old // self._bpp
                vhome = vm_home[vpage] if vpage < len(vm_home) else -1
                if vhome >= 0 and vhome != node:
                    self.network.stats.record(MessageType.WRITEBACK)
        return latency, version, True

    # ------------------------------------------------------------------ overrides

    def _service_remote_page(self, node: int, proc: int, page: int, block: int,
                             is_write: bool, now: int, home: int,
                             mode: PageMode) -> Tuple[int, int, int, bool]:
        latency, version, remote = self._block_cache_fetch(
            node, page, block, is_write, now, home)
        return latency, 0, version, remote

    def describe(self) -> str:
        kind = "infinite" if self.block_caches[0].is_infinite else "finite"
        return f"CC-NUMA ({kind} block cache)"
