"""R-NUMA page relocation mechanics (CC-NUMA page -> local S-COMA page).

Section 3.2 of the paper: when a node's refetch counter for a remote page
exceeds the threshold, the processor interrupts the OS, which remaps the
CC-NUMA page into a local S-COMA page frame.  Unlike migration/replication
this is an entirely *local* operation: it flushes only this node's cached
blocks of the page, invalidates only this node's TLBs, and refetches only
the blocks the node subsequently needs.

Under memory pressure (page cache full) a relocation must first evict a
victim page, flushing its valid blocks back to their home — the source of
R-NUMA's overhead in applications with large page working sets (radix) or
little page reuse (cholesky).

As with :class:`repro.kernel.migration.MigrationEngine`, this module is
mechanism only; the decision of *when* to relocate lives in
:mod:`repro.core.decisions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config import CostModel
from repro.interconnect.message import MessageType
from repro.interconnect.network import Network
from repro.kernel.flush import flush_node_page
from repro.kernel.vm import VirtualMemoryManager
from repro.mem.address import AddressSpace
from repro.mem.block_cache import BlockCache
from repro.mem.directory import Directory
from repro.mem.page_cache import PageCache
from repro.mem.page_table import PageMode, PageTable


@dataclass
class RelocationOutcome:
    """Result of one relocation (and possibly an eviction it forced)."""

    cost: int
    evicted_page: Optional[int] = None
    blocks_flushed: int = 0
    victim_blocks_flushed: int = 0


class RelocationEngine:
    """Executes R-NUMA page relocations and page-cache evictions for one machine."""

    def __init__(self, *, addr: AddressSpace, costs: CostModel,
                 vm: VirtualMemoryManager, directory: Directory,
                 network: Network, page_tables: Sequence[PageTable],
                 block_caches: Sequence[BlockCache],
                 page_caches: Sequence[PageCache],
                 l1_caches: Sequence[Sequence[object]]) -> None:
        self.addr = addr
        self.costs = costs
        self.vm = vm
        self.directory = directory
        self.network = network
        self.page_tables = list(page_tables)
        self.block_caches = list(block_caches)
        self.page_caches = list(page_caches)
        self.l1_caches = [list(procs) for procs in l1_caches]
        self.num_nodes = len(self.page_tables)
        self.relocations_by_node = [0] * self.num_nodes
        self.evictions_by_node = [0] * self.num_nodes

    # ------------------------------------------------------------------ helpers

    def _flush_node_page(self, node: int, page: int) -> int:
        """Drop every block of ``page`` cached on ``node`` (block cache + L1s)."""
        return flush_node_page(self.addr, self.directory,
                               self.block_caches[node], self.l1_caches[node],
                               node, page)

    # ------------------------------------------------------------------ operations

    def evict_victim(self, node: int, now: int) -> RelocationOutcome:
        """Evict the LRU page from ``node``'s page cache (page replacement).

        The victim's dirty blocks are written back to their home, its valid
        blocks dropped, its mapping reverted to CC-NUMA, and the local TLBs
        shot down.  The cost follows Table 3's allocation/replacement row,
        scaled by the number of blocks flushed.
        """
        pc = self.page_caches[node]
        victim = pc.choose_victim()
        if victim is None:
            return RelocationOutcome(cost=0)
        entry = pc.evict(victim)
        bpp = self.addr.blocks_per_page
        dirty = len(entry.dirty)
        valid = entry.valid_blocks()
        home = self.vm.home_of(victim)
        if home is not None and home != node and dirty:
            self.network.stats.record(MessageType.WRITEBACK, dirty)
        # the victim is S-COMA-mapped, so none of its blocks sits in the
        # block cache: the flush drops its L1 copies and sharer bits
        self._flush_node_page(node, victim)
        self.page_tables[node].map_page(victim, PageMode.CCNUMA_REMOTE,
                                        count_fault=False)
        cost = (self.costs.page_alloc_cost(valid, bpp)
                + self.costs.tlb_shootdown)
        self.evictions_by_node[node] += 1
        return RelocationOutcome(cost=cost, evicted_page=victim,
                                 victim_blocks_flushed=valid)

    def relocate(self, node: int, page: int, now: int) -> RelocationOutcome:
        """Relocate ``page`` into ``node``'s S-COMA page cache (Figure 4b).

        Cost components: the relocation soft trap, flushing this node's
        currently cached blocks of the page, the local TLB invalidation,
        and — if the page cache is full — the eviction of a victim page.
        The relocated page starts with *no* valid blocks; they are
        refetched on demand.
        """
        pc = self.page_caches[node]
        if pc.contains(page):
            return RelocationOutcome(cost=0)

        total_cost = self.costs.soft_trap
        evicted: Optional[int] = None
        victim_blocks = 0
        if pc.is_full():
            ev = self.evict_victim(node, now)
            total_cost += ev.cost
            evicted = ev.evicted_page
            victim_blocks = ev.victim_blocks_flushed

        blocks_flushed = self._flush_node_page(node, page)
        bpp = self.addr.blocks_per_page
        total_cost += self.costs.page_alloc_cost(blocks_flushed, bpp)
        total_cost += self.costs.tlb_shootdown

        pc.allocate(page)
        self.page_tables[node].map_page(page, PageMode.SCOMA, count_fault=False)
        self.relocations_by_node[node] += 1
        return RelocationOutcome(cost=total_cost, evicted_page=evicted,
                                 blocks_flushed=blocks_flushed,
                                 victim_blocks_flushed=victim_blocks)

    # ------------------------------------------------------------------ reporting

    def total_relocations(self) -> int:
        """Total relocations performed across the machine."""
        return sum(self.relocations_by_node)

    def total_evictions(self) -> int:
        """Total page-cache evictions across the machine."""
        return sum(self.evictions_by_node)
