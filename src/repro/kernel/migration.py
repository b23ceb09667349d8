"""Page gathering / migration / replication mechanics (CC-NUMA+MigRep).

Section 3.1 of the paper describes the sequence a page operation follows
at the home node: lock the page mapper, request a page flush from every
cacher, set the poison bits for lazy TLB invalidation, move (or copy) the
page, and resume the waiting cachers.  With hardware support the flush and
copy are fast (Table 3); without it, every step traps into the kernel and
is roughly ten times slower (the Figure 6 study).

:class:`MigrationEngine` implements those mechanics against the simulator's
substrate objects (directory, page tables, block caches, page caches and
processor caches).  It deliberately knows nothing about *policy* — the
decision of when to migrate or replicate lives in
:mod:`repro.core.decisions`; this module only executes an operation and
reports its cost so the protocol can charge it to the requesting
processor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.config import CostModel
from repro.interconnect.message import MessageType
from repro.interconnect.network import Network
from repro.kernel.flush import flush_node_page
from repro.kernel.vm import VirtualMemoryManager
from repro.mem.address import AddressSpace
from repro.mem.block_cache import BlockCache
from repro.mem.directory import Directory
from repro.mem.page_table import PageMode, PageTable


@dataclass
class PageOpOutcome:
    """Result of a page operation (migration, replication or collapse).

    Attributes
    ----------
    cost:
        Cycles the *requesting* processor stalls for the operation.
    blocks_flushed:
        Number of cached blocks flushed from cachers during gathering.
    nodes_flushed:
        Number of nodes that had to flush blocks / drop mappings.
    """

    cost: int
    blocks_flushed: int = 0
    nodes_flushed: int = 0


class MigrationEngine:
    """Executes page migration / replication operations for the whole machine.

    Parameters
    ----------
    addr, costs, vm, directory, network:
        Machine-global substrate objects.
    page_tables:
        One :class:`PageTable` per node.
    block_caches:
        One :class:`BlockCache` per node.
    l1_caches:
        ``l1_caches[node]`` is the sequence of per-processor caches on that
        node (anything exposing ``invalidate(block)``).
    """

    def __init__(self, *, addr: AddressSpace, costs: CostModel,
                 vm: VirtualMemoryManager, directory: Directory,
                 network: Network, page_tables: Sequence[PageTable],
                 block_caches: Sequence[BlockCache],
                 l1_caches: Sequence[Sequence[object]]) -> None:
        self.addr = addr
        self.costs = costs
        self.vm = vm
        self.directory = directory
        self.network = network
        self.page_tables = list(page_tables)
        self.block_caches = list(block_caches)
        self.l1_caches = [list(procs) for procs in l1_caches]
        self.num_nodes = len(self.page_tables)
        # operation counters (per node, indexed by the node that benefits)
        self.migrations_by_node = [0] * self.num_nodes
        self.replications_by_node = [0] * self.num_nodes
        self.collapses_by_node = [0] * self.num_nodes

    # ------------------------------------------------------------------ helpers

    def _flush_node_page(self, node: int, page: int) -> int:
        """Flush every cached block of ``page`` from ``node``; return the count."""
        return flush_node_page(self.addr, self.directory,
                               self.block_caches[node], self.l1_caches[node],
                               node, page)

    def _gather(self, page: int, home: int, now: int,
                exclude: Iterable[int] = ()) -> tuple[int, int, int]:
        """Gather ``page``: flush it from every cacher node.

        Returns ``(completion_time, blocks_flushed, nodes_flushed)``.  The
        home node sends a flush request to each cacher and waits for the
        flush-done replies; with hardware support the per-node flush cost
        is folded into the gather cost charged by the caller.
        """
        blocks = self.addr.blocks_of_page(page)
        sharer_mask = self.directory.page_sharer_mask(blocks)
        excluded = set(exclude)
        blocks_flushed = 0
        nodes_flushed = 0
        done_time = now
        for node in range(self.num_nodes):
            if node == home or node in excluded:
                continue
            if not sharer_mask & (1 << node):
                continue
            t = self.network.one_way(home, node, now, MessageType.PAGE_FLUSH_REQUEST)
            flushed = self._flush_node_page(node, page)
            blocks_flushed += flushed
            nodes_flushed += 1
            t = self.network.one_way(node, home, t, MessageType.PAGE_FLUSH_DONE)
            done_time = max(done_time, t)
            # the cacher drops its mapping of the page; it will re-fault later
            self.page_tables[node].unmap(page)
        return done_time, blocks_flushed, nodes_flushed

    # ------------------------------------------------------------------ operations

    def migrate(self, page: int, new_home: int, now: int) -> PageOpOutcome:
        """Migrate ``page`` to ``new_home`` (Figure 3b, "Migrate" path).

        Cost components (Table 3): soft trap at the home, page invalidation
        and data gathering (scaled by the number of blocks flushed), page
        copy to the new home, and a TLB shootdown at the old home.
        """
        rec = self.vm.record(page)
        if rec is None:
            raise KeyError(f"page {page} has never been placed")
        old_home = rec.home
        if old_home == new_home:
            return PageOpOutcome(cost=0)

        bpp = self.addr.blocks_per_page
        done, blocks_flushed, nodes_flushed = self._gather(
            page, old_home, now, exclude=(new_home,))
        # the new home also flushes its own (remote-cached) copies: they are
        # about to become local memory
        blocks_flushed += self._flush_node_page(new_home, page)

        cost = (self.costs.soft_trap
                + self.costs.gather_cost(blocks_flushed, bpp)
                + self.costs.copy_cost(bpp, bpp)
                + self.costs.tlb_shootdown)
        cost += max(0, done - now)

        self.network.one_way(old_home, new_home, now, MessageType.PAGE_DATA)
        self.vm.migrate(page, new_home)
        self.page_tables[old_home].map_page(page, PageMode.CCNUMA_REMOTE,
                                            count_fault=False)
        self.page_tables[new_home].map_page(page, PageMode.LOCAL_HOME,
                                            count_fault=False)
        self.migrations_by_node[new_home] += 1
        return PageOpOutcome(cost=cost, blocks_flushed=blocks_flushed,
                             nodes_flushed=nodes_flushed + 1)

    def replicate(self, page: int, node: int, now: int) -> PageOpOutcome:
        """Replicate ``page`` read-only at ``node`` (Figure 3b, "Replicate" path).

        The first replication of a page switches it to read-only at the
        home (requiring a gather of dirty copies); subsequent replications
        only copy the page to the new sharer.
        """
        rec = self.vm.record(page)
        if rec is None:
            raise KeyError(f"page {page} has never been placed")
        home = rec.home
        if node == home:
            return PageOpOutcome(cost=0)

        bpp = self.addr.blocks_per_page
        cost = self.costs.soft_trap
        blocks_flushed = 0
        nodes_flushed = 0
        if not rec.replicated:
            # first replica: gather the page so the home holds a clean copy
            done, blocks_flushed, nodes_flushed = self._gather(
                page, home, now, exclude=(node,))
            cost += self.costs.gather_cost(blocks_flushed, bpp)
            cost += self.costs.tlb_shootdown
            cost += max(0, done - now)
        cost += self.costs.copy_cost(bpp, bpp)

        self.network.one_way(home, node, now, MessageType.PAGE_DATA)
        self.vm.replicate(page, node)
        self.page_tables[node].map_page(page, PageMode.REPLICA, writable=False,
                                        count_fault=False)
        self.replications_by_node[node] += 1
        return PageOpOutcome(cost=cost, blocks_flushed=blocks_flushed,
                             nodes_flushed=nodes_flushed)

    def collapse_replicas(self, page: int, writer: int, now: int) -> PageOpOutcome:
        """Switch a replicated page back to read-write (write-protection fault).

        Every replica is revoked; the writer pays a soft trap plus a TLB
        shootdown per revoked replica (Figure 3b, "Switch to R/W page").
        """
        rec = self.vm.record(page)
        if rec is None:
            raise KeyError(f"page {page} has never been placed")
        revoked = self.vm.collapse_replicas(page)
        cost = self.costs.soft_trap
        blocks_flushed = 0
        done = now
        for node in revoked:
            t = self.network.one_way(rec.home, node, now,
                                     MessageType.PAGE_FLUSH_REQUEST)
            blocks_flushed += self._flush_node_page(node, page)
            self.page_tables[node].unmap(page)
            t = self.network.one_way(node, rec.home, t,
                                     MessageType.PAGE_FLUSH_DONE)
            done = max(done, t)
            cost += self.costs.tlb_shootdown
        cost += max(0, done - now)
        if revoked:
            self.collapses_by_node[writer] += 1
        return PageOpOutcome(cost=cost, blocks_flushed=blocks_flushed,
                             nodes_flushed=len(revoked))

    # ------------------------------------------------------------------ reporting

    def total_migrations(self) -> int:
        """Total migrations performed across the machine."""
        return sum(self.migrations_by_node)

    def total_replications(self) -> int:
        """Total replica installations performed across the machine."""
        return sum(self.replications_by_node)
