"""R-NUMA: reactive fine-grain memory caching (Section 3.2).

R-NUMA starts every remote page in CC-NUMA mode and counts, per page and
per node, the *refetches* — fetches of blocks the node recently cached but
lost to capacity/conflict replacement.  When a page's refetch counter
exceeds the switching threshold the node takes a relocation interrupt and
remaps the page into its local S-COMA page cache: subsequent fills for
blocks present in the page cache are satisfied locally, while absent
blocks are fetched remotely on demand and then kept locally.

The decision is entirely local (no coordination with other nodes), which
is why R-NUMA's page operations are cheap but frequent — the opposite
trade-off from page migration/replication.

The factory builds three variants that differ only in the page-cache
capacity handed to the machine: ``rnuma`` (2.4 MB), ``rnuma-half``
(1.2 MB, Figure 8) and ``rnuma-inf`` (unbounded).
"""

from __future__ import annotations

from array import array
from typing import Optional, Tuple

from repro.core.ccnuma import CCNUMAProtocol
from repro.core.counters import RefetchCounters
from repro.core.decisions import resolve_policy
from repro.kernel.faults import FaultKind
from repro.kernel.relocation import RelocationEngine
from repro.mem.page_table import PageMode
from repro.stats.counters import MissClass

#: remote_by_cause index of capacity/conflict misses (refetch signal)
_CAPACITY_IDX = MissClass.CAPACITY_CONFLICT.index


class RNUMAProtocol(CCNUMAProtocol):
    """Hybrid CC-NUMA / S-COMA protocol with reactive per-page switching."""

    name = "rnuma"

    def __init__(self, machine, *, relocation_delay: Optional[int] = None,
                 policy=None) -> None:
        super().__init__(machine)
        num_nodes = self.cfg.machine.num_nodes
        self.refetch_counters = [RefetchCounters() for _ in range(num_nodes)]
        # resolved through the open POLICIES registry (explicit policy >
        # system-spec override > thresholds.rnuma_policy; the default
        # builds the paper's static refetch-threshold rule).  The delay
        # is forwarded only when a caller (the hybrid) supplied one.
        delay = ({} if relocation_delay is None
                 else {"relocation_delay": relocation_delay})
        self.policy = resolve_policy(
            "rnuma", self.cfg, spec=getattr(machine, "system", None),
            policy=policy, **delay)
        self.engine = RelocationEngine(
            addr=self.addr,
            costs=self.costs,
            vm=self.vm,
            directory=self.directory,
            network=self.network,
            page_tables=self.page_tables,
            block_caches=self.block_caches,
            page_caches=self.page_caches,
            l1_caches=machine.l1_by_node,
        )
        #: total misses observed per page, stored as a flat in-place-grown
        #: column so the kernel's R-NUMA lane can bump it (missing == 0)
        self._page_miss_totals = array("q")
        self._pmt_cap = 0
        # pre-bound page-cache residency flag buffers for the per-miss
        # fast path (bytearray indexed by page; grows in place)
        self._pc_res = [pc._resident if pc is not None else None
                        for pc in self.page_caches]

    # ------------------------------------------------------------------ helpers

    def _reserve_totals(self, n: int) -> None:
        """Grow the per-page miss-total column (in place) to cover pages ``< n``."""
        cap = self._pmt_cap
        if n <= cap:
            return
        grow = max(n, 2 * cap, 256) - cap
        self._page_miss_totals.frombytes(bytes(8 * grow))
        self._pmt_cap = cap + grow

    def _record_page_miss(self, page: int) -> int:
        if page >= self._pmt_cap:
            self._reserve_totals(page + 1)
        total = self._page_miss_totals[page] + 1
        self._page_miss_totals[page] = total
        return total

    def _page_total(self, page: int) -> int:
        return self._page_miss_totals[page] if page < self._pmt_cap else 0

    def _perform_relocation(self, node: int, page: int, now: int) -> int:
        """Relocate ``page`` into ``node``'s page cache (decision already made)."""
        outcome = self.engine.relocate(node, page, now)
        self.refetch_counters[node].clear(page)
        stats = self.node_stats[node]
        stats.relocations += 1
        if outcome.evicted_page is not None:
            stats.page_cache_evictions += 1
            self.refetch_counters[node].clear(outcome.evicted_page)
            self.fault_logs[node].record(FaultKind.PAGE_CACHE_EVICTION, 0)
        self.fault_logs[node].record(FaultKind.RELOCATION_INTERRUPT, outcome.cost)
        return outcome.cost

    def _maybe_relocate(self, node: int, page: int, now: int) -> int:
        """Relocate ``page`` on ``node`` if its refetch counter warrants it."""
        counters = self.refetch_counters[node]
        if not self.policy.should_relocate(counters, page,
                                           page_total_misses=self._page_total(page),
                                           node=node):
            return 0
        return self._perform_relocation(node, page, now)

    def _scoma_fetch(self, node: int, page: int, block: int, is_write: bool,
                     now: int, home: int) -> Tuple[int, int, bool]:
        """Service a miss on a page held in the node's S-COMA page cache.

        The :class:`~repro.mem.page_cache.PageCache` lookup/write/fill
        steps are inlined on the cache's flat tag arrays (the page's
        block tags live at the *global* block index, since
        ``block == page * blocks_per_page + offset``) — this runs on
        every reference to a relocated page, R-NUMA's hottest service
        path once an application's hot pages have switched.  The
        compiled kernel's page-cache probe lane is a transcription of
        this body; keep them in sync.
        """
        stats = self.node_stats[node]
        pc = self.page_caches[node]
        pc_stats = pc.stats
        # inlined PageCache._touch (LRU stamp; resident: the caller checked)
        pc._clock[0] += 1
        pc._stamp[page] = pc._clock[0]
        # inlined Directory.version
        versions = self._dir_version
        version = versions[block] if block < len(versions) else 0

        # inlined PageCache.lookup_block
        pcv = pc._version
        pcd = pc._dirty
        stored = pcv[block]
        if stored >= 0:
            if stored >= version:
                pc_stats.block_hits += 1
                stats.page_cache_hits += 1
                if is_write:
                    extra, version = self._directory_write(node, block)
                    # inlined PageCache.write_block (the tag is valid)
                    if version > stored:
                        pcv[block] = version
                    if not pcd[block]:
                        pcd[block] = 1
                        pc._ndirty[page] += 1
                    return self._local_miss_cost + extra, version, False
                return self._local_miss_cost, version, False
            # stale block: invalidate and refetch below
            pcv[block] = -1
            pc._nvalid[page] -= 1
            if pcd[block]:
                pcd[block] = 0
                pc._ndirty[page] -= 1
            pc_stats.block_invalidations += 1
        pc_stats.block_misses += 1

        latency, version = self._remote_fill(node, block, is_write, now, home)
        # inlined PageCache.fill_block
        if pcv[block] < 0:
            pc._nvalid[page] += 1
        pcv[block] = version
        if is_write and not pcd[block]:
            pcd[block] = 1
            pc._ndirty[page] += 1
        pc._fills[page] += 1
        pc_stats.block_fills += 1
        return latency, version, True

    # ------------------------------------------------------------------ overrides

    def _service_remote_page(self, node: int, proc: int, page: int, block: int,
                             is_write: bool, now: int, home: int,
                             mode: PageMode) -> Tuple[int, int, int, bool]:
        # inlined PageCache.contains on the pre-bound residency buffer
        pc_res = self._pc_res[node]
        if pc_res is not None and page < len(pc_res) and pc_res[page]:
            latency, version, remote = self._scoma_fetch(
                node, page, block, is_write, now, home)
            if remote:
                self._record_page_miss(page)
            return latency, 0, version, remote

        # CC-NUMA mode: go through the block cache and feed the reactive
        # counters (the capacity/conflict cell of the by-cause array is
        # read directly; the named property would re-resolve the index)
        stats = self.node_stats[node]
        by_cause = stats.remote_by_cause
        remote_before = by_cause[_CAPACITY_IDX]
        latency, version, remote = self._block_cache_fetch(
            node, page, block, is_write, now, home)
        pageop = 0
        if remote:
            self._record_page_miss(page)
            if by_cause[_CAPACITY_IDX] > remote_before:
                # this fetch was a capacity/conflict refetch: count it
                self.refetch_counters[node].record_refetch(page)
                pageop = self._maybe_relocate(node, page, now)
        return latency, pageop, version, remote

    def describe(self) -> str:
        pc = self.page_caches[0]
        if pc is None:
            size = "no page cache"
        elif pc.is_infinite:
            size = "infinite page cache"
        else:
            size = f"{pc.capacity_pages} page frames"
        return f"R-NUMA ({size})"
