"""Common DSM protocol machinery shared by every simulated system.

:class:`DSMProtocol` implements the parts of the cluster device behaviour
that are identical across CC-NUMA, CC-NUMA+MigRep and R-NUMA:

* first-touch page placement and the initial mapping fault,
* the directory-side handling of reads, writes and upgrades (sharer
  tracking, invalidation counting, version bumps),
* the remote block-fetch path (network messages, NIC contention and the
  Table 3 round-trip latency), and
* per-node miss-cause classification (cold vs capacity/conflict vs
  coherence), which both MigRep's and R-NUMA's counters observe.

Concrete protocols override :meth:`_service_remote_page` (how a miss on a
*remote* page is satisfied) and may hook :meth:`_after_remote_fetch` (to
update their counters and trigger page operations).

The protocol objects operate on the substrate owned by a
:class:`repro.cluster.machine.Machine`; the machine is passed in at
construction and accessed by duck typing to avoid an import cycle.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

from repro.interconnect.message import MessageType
from repro.kernel.faults import FaultKind
from repro.mem.page_table import LOCAL_HOME_CODE, MODES_BY_CODE, PageMode
from repro.stats.counters import MissClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.machine import Machine


#: Departure reasons used for miss classification.  The codes are chosen
#: so a departure reason doubles as the ``MissClass.index`` of the miss it
#: causes (0 = never departed = cold).
_DEPARTED_EVICTED = 1
_DEPARTED_INVALIDATED = 2

#: MissClass by departure reason (0 none, 1 evicted, 2 invalidated).
_MISS_CLASS_OF_REASON = (MissClass.COLD, MissClass.CAPACITY_CONFLICT,
                         MissClass.COHERENCE)

_READ_REQUEST = MessageType.READ_REQUEST
_WRITE_REQUEST = MessageType.WRITE_REQUEST
_DATA_REPLY = MessageType.DATA_REPLY
#: counter-array indices of the fetch request/reply messages
_READ_I = MessageType.READ_REQUEST.index
_WRITE_I = MessageType.WRITE_REQUEST.index
_DATA_I = MessageType.DATA_REPLY.index


class AccessResult(NamedTuple):
    """Outcome of servicing one L1 miss (or upgrade).

    This is the *schema* of :meth:`DSMProtocol.handle_miss`'s return value.
    One result is produced per L1 miss on the simulator's hottest path, so
    ``handle_miss`` returns a plain tuple in this field order (the engines
    unpack it positionally); wrap it in :class:`AccessResult` when named
    access is more convenient.

    Attributes
    ----------
    service_cycles:
        Cycles of memory-system latency (local or remote fill).
    pageop_cycles:
        Cycles spent in page operations triggered by this access
        (migration, replication, relocation, replica collapse).
    fault_cycles:
        Cycles spent in the initial mapping fault, if this access mapped
        the page for the first time on the node.
    version:
        Directory version to record in the cache that fills the block.
    remote:
        True when the access required a fetch from a remote home node.
    """

    service_cycles: int
    pageop_cycles: int
    fault_cycles: int
    version: int
    remote: bool


class DSMProtocol:
    """Base class for all simulated DSM systems."""

    #: short machine-readable name, overridden by subclasses
    name = "base"

    def __init__(self, machine: "Machine") -> None:
        # a proxy, not a reference: the machine owns the protocol, and a
        # back reference would make the pair a cycle that only the
        # cyclic GC frees, stores and all
        self.machine = weakref.proxy(machine)
        self.cfg = machine.cfg
        self.costs = machine.cfg.costs
        self.addr = machine.addr
        self.vm = machine.vm
        self.directory = machine.directory
        self.network = machine.network
        self.page_tables = machine.page_tables
        self.block_caches = machine.block_caches
        self.page_caches = machine.page_caches
        self.node_stats = machine.stats.nodes
        self.fault_logs = machine.fault_logs
        num_nodes = machine.cfg.machine.num_nodes
        # per-node, per-block departure reason for miss classification.
        # The bytearrays live on the directory (whose reserve() grows them
        # in lockstep with the block columns); alias them here so the
        # per-miss paths read/clear a flat byte instead of a dict entry.
        self._departed: list[bytearray] = machine.directory._departed
        # Pre-bound substrate internals for the per-miss fast paths below.
        # These alias the owners' live flat arrays (directory columns, page
        # table mode codes, block cache frames); the stores grow their
        # arrays strictly in place, so the aliases stay valid for the
        # machine's lifetime.  They only skip attribute traversal and
        # wrapper calls on the hottest path.
        self._vm_home = machine.vm._home
        self._vm_replicated = machine.vm._replicated
        self._vm_replica_mask = machine.vm._replica_mask
        self._pt_modes = [pt._modes for pt in machine.page_tables]
        directory = machine.directory
        self._dir_sharers = directory._sharers
        self._dir_owner = directory._owner
        self._dir_version = directory._version
        self._dir_tracked = directory._tracked
        self._dir_reserve = directory.reserve
        self._bc_blocks = [bc._blocks for bc in machine.block_caches]
        self._bc_versions = [bc._versions for bc in machine.block_caches]
        self._bc_dirty = [bc._dirty for bc in machine.block_caches]
        self._bc_caps = [bc.modulus for bc in machine.block_caches]
        self._bc_stats = [bc.stats for bc in machine.block_caches]
        self._bpp = machine.addr.blocks_per_page
        self._local_miss_cost = self.costs.local_miss
        self._remote_miss_cost = self.costs.remote_miss
        self._inval_cost = self.costs.invalidation_per_sharer
        # network internals for the inlined remote-fetch contention path
        network = machine.network
        self._nics = network._nics
        self._net_enabled = network.enabled
        self._net_latency = network.latency
        self._nic_occ = network.nic_occupancy
        self._msg_counts = network.stats._counts
        self._msg_sizes = network.stats._sizes
        self._net_stats = network.stats
        sizes = network.stats._sizes
        self._sz_read_pair = sizes[_READ_I] + sizes[_DATA_I]
        self._sz_write_pair = sizes[_WRITE_I] + sizes[_DATA_I]

    # ------------------------------------------------------------------ classification

    def mark_evicted(self, node: int, block: int) -> None:
        """Record that ``node`` lost ``block`` to a capacity/conflict eviction."""
        departed = self._departed[node]
        if block >= len(departed):
            self._dir_reserve(block + 1)
        departed[block] = _DEPARTED_EVICTED

    def mark_invalidated(self, node: int, block: int) -> None:
        """Record that ``node`` lost ``block`` to a coherence invalidation."""
        departed = self._departed[node]
        if block >= len(departed):
            self._dir_reserve(block + 1)
        departed[block] = _DEPARTED_INVALIDATED

    def classify_fetch(self, node: int, block: int) -> MissClass:
        """Classify a fetch of ``block`` by ``node`` and consume the record."""
        departed = self._departed[node]
        if block < len(departed):
            reason = departed[block]
            if reason:
                departed[block] = 0
        else:
            reason = 0
        return _MISS_CLASS_OF_REASON[reason]

    # ------------------------------------------------------------------ mapping

    def ensure_mapped(self, node: int, page: int) -> Tuple[int, int]:
        """Make sure ``page`` is mapped on ``node``; return (home, fault_cycles).

        First touch places the page at the requesting node (first-touch
        migration).  The first time any node maps a page it takes a soft
        mapping fault (Figure 2b); the cost is charged to the faulting
        processor and is identical across all systems.
        """
        rec, first_touch = self.vm.ensure_placed(page, node)
        pt = self.page_tables[node]
        if pt.is_mapped(page):
            return rec.home, 0

        fault_cycles = self.costs.soft_trap
        stats = self.node_stats[node]
        stats.mapping_faults += 1
        self.fault_logs[node].record(FaultKind.MAPPING_FAULT, fault_cycles)
        if rec.home == node:
            pt.map_page(page, PageMode.LOCAL_HOME)
        else:
            self.network.one_way(node, rec.home, 0, MessageType.PAGE_MAP_REQUEST)
            self.network.one_way(rec.home, node, 0, MessageType.PAGE_MAP_REPLY)
            pt.map_page(page, PageMode.CCNUMA_REMOTE)
        return rec.home, fault_cycles

    # ------------------------------------------------------------------ directory helpers

    def _directory_read(self, node: int, block: int) -> int:
        """Record a read fill by ``node``; return the block's version.

        Equivalent to ``directory.record_read`` + ``directory.version``,
        inlined on the directory's flat arrays (this runs once per read
        fill).
        """
        sharers = self._dir_sharers
        if block >= len(sharers):
            self._dir_reserve(block + 1)
        self._dir_tracked[block] = 1
        sharers[block] |= 1 << node
        return self._dir_version[block]

    def _directory_write(self, node: int, block: int) -> Tuple[int, int]:
        """Record a write by ``node``; return (extra_latency, new_version).

        Other sharers are invalidated: each costs
        ``invalidation_per_sharer`` cycles and a pair of protocol messages,
        and the losing nodes' future refetches classify as coherence
        misses.  Equivalent to ``directory.record_write`` (plus the sharer
        walk of ``directory.sharers_of``), inlined on the directory's flat
        arrays — this runs once per write fill/upgrade.
        """
        sharers = self._dir_sharers
        if block >= len(sharers):
            self._dir_reserve(block + 1)
        self._dir_tracked[block] = 1
        bit = 1 << node
        others = sharers[block] & ~bit
        owner = self._dir_owner
        directory = self.directory
        if owner[block] >= 0 and owner[block] != node:
            # previous exclusive owner must write back before we proceed
            directory.writebacks += 1
        sharers[block] = bit
        owner[block] = node
        versions = self._dir_version
        version = versions[block] + 1
        versions[block] = version
        extra = 0
        if others:
            invalidations = others.bit_count()
            directory.invalidations_sent += invalidations
            extra = invalidations * self._inval_cost
            stats = self.network.stats
            stats.record(MessageType.INVALIDATION, invalidations)
            stats.record(MessageType.INVALIDATION_ACK, invalidations)
            departed = self._departed
            while others:
                low = others & -others
                others ^= low
                departed[low.bit_length() - 1][block] = _DEPARTED_INVALIDATED
        return extra, version

    # ------------------------------------------------------------------ remote fetch path

    def _remote_fetch(self, node: int, page: int, block: int, is_write: bool,
                      now: int, home: int) -> Tuple[int, int, MissClass]:
        """Fetch ``block`` from its remote ``home``; return (latency, version, cause).

        Compatibility wrapper around :meth:`_remote_fill` for callers that
        also want the miss cause materialized as a :class:`MissClass`.
        """
        departed = self._departed[node]
        reason = departed[block] if block < len(departed) else 0
        latency, version = self._remote_fill(node, block, is_write, now, home)
        return latency, version, _MISS_CLASS_OF_REASON[reason]

    def _remote_fill(self, node: int, block: int, is_write: bool,
                     now: int, home: int) -> Tuple[int, int]:
        """Fetch ``block`` from its remote ``home``; return (latency, version).

        The per-remote-miss fast path: miss-cause accounting, the
        request/reply traffic and NIC contention (the body of
        :meth:`Network.fetch_contention`, inlined) and the directory side
        of the fill, all on the flat state arrays.
        """
        stats = self.node_stats[node]
        # inlined classify_fetch + NodeStats.record_remote_miss: the
        # departure reason doubles as the miss-cause counter index
        # (bounds-checked: this read precedes the directory reserve below)
        departed = self._departed[node]
        if block < len(departed):
            reason = departed[block]
            if reason:
                departed[block] = 0
        else:
            reason = 0
        stats.remote_misses += 1
        stats.remote_by_cause[reason] += 1

        # inlined Network.fetch_contention (request/reply traffic + the
        # four NIC serialisation points); this runs on every remote miss
        msg_counts = self._msg_counts
        if is_write:
            msg_counts[_WRITE_I] += 1
            msg_counts[_DATA_I] += 1
            self._net_stats.bytes_total += self._sz_write_pair
        else:
            msg_counts[_READ_I] += 1
            msg_counts[_DATA_I] += 1
            self._net_stats.bytes_total += self._sz_read_pair
        if node == home:
            contention = 0
        else:
            occ = self._nic_occ
            occ2 = occ + occ
            nics = self._nics
            req_nic = nics[node]
            home_nic = nics[home]
            if not self._net_enabled:
                req_nic.messages += 2
                home_nic.messages += 2
                req_nic.busy_cycles += occ2
                home_nic.busy_cycles += occ2
                contention = 0
            else:
                latency_net = self._net_latency
                free = req_nic.next_free
                s1 = now if now >= free else free
                w1 = s1 - now
                req_nic.next_free = s1 + occ
                t = s1 + occ + latency_net
                free = home_nic.next_free
                s2 = t if t >= free else free
                w2 = s2 - t
                home_nic.next_free = s2 + occ
                t2 = s2 + occ
                free = home_nic.next_free
                s3 = t2 if t2 >= free else free
                w3 = s3 - t2
                home_nic.next_free = s3 + occ
                t3 = s3 + occ + latency_net
                free = req_nic.next_free
                s4 = t3 if t3 >= free else free
                w4 = s4 - t3
                req_nic.next_free = s4 + occ
                req_nic.messages += 2
                home_nic.messages += 2
                req_nic.busy_cycles += occ2
                home_nic.busy_cycles += occ2
                req_nic.wait_cycles += w1 + w4
                home_nic.wait_cycles += w2 + w3
                contention = w1 + w2 + w3 + w4

        if is_write:
            extra, version = self._directory_write(node, block)
        else:
            # inlined _directory_read
            sharers = self._dir_sharers
            if block >= len(sharers):
                self._dir_reserve(block + 1)
            self._dir_tracked[block] = 1
            sharers[block] |= 1 << node
            version = self._dir_version[block]
            extra = 0
        return self._remote_miss_cost + contention + extra, version

    def _local_fill(self, node: int, block: int, is_write: bool) -> Tuple[int, int]:
        """Service a miss from the node's local memory; return (latency, version)."""
        self.node_stats[node].local_misses += 1
        if is_write:
            extra, version = self._directory_write(node, block)
            return self._local_miss_cost + extra, version
        # inlined _directory_read (the most common single operation)
        sharers = self._dir_sharers
        if block >= len(sharers):
            self._dir_reserve(block + 1)
        self._dir_tracked[block] = 1
        sharers[block] |= 1 << node
        return self._local_miss_cost, self._dir_version[block]

    # ------------------------------------------------------------------ main entry points

    def handle_miss(self, node: int, proc: int, page: int, block: int,
                    is_write: bool, now: int) -> Tuple[int, int, int, int, bool]:
        """Service an L1 miss from processor ``proc`` of ``node``.

        Returns a plain tuple in :class:`AccessResult` field order:
        ``(service_cycles, pageop_cycles, fault_cycles, version, remote)``.
        """
        # Fast path: page already placed and mapped on this node
        # (equivalent to ensure_mapped + mode_of, without the wrapper calls;
        # the home array and mode-code bytearray reads avoid both the
        # record-dict lookup and materializing the PageMode).
        vm_home = self._vm_home
        home = vm_home[page] if page < len(vm_home) else -1
        if home >= 0:
            modes = self._pt_modes[node]
            mode_code = modes[page] if page < len(modes) else 0
        else:
            mode_code = 0
        if mode_code:
            fault_cycles = 0
        else:
            home, fault_cycles = self.ensure_mapped(node, page)
            mode_code = self.page_tables[node].mode_code(page)

        if mode_code == LOCAL_HOME_CODE or home == node:
            latency, version = self._local_fill(node, block, is_write)
            return (latency, 0, fault_cycles, version, False)

        service, pageop, version, remote = self._service_remote_page(
            node, proc, page, block, is_write, now, home,
            MODES_BY_CODE[mode_code])
        return (service, pageop, fault_cycles, version, remote)

    def handle_upgrade(self, node: int, proc: int, page: int, block: int,
                       now: int) -> Tuple[int, int]:
        """Service a write to a block the processor holds in shared state.

        Returns ``(latency, version)``.  The latency is a local directory
        access when the home is local, a control-message round trip when it
        is remote; invalidations of other sharers are charged on top.
        """
        self.node_stats[node].upgrades += 1
        vm_home = self._vm_home
        home = vm_home[page] if page < len(vm_home) else -1
        extra, version = self._directory_write(node, block)
        if home < 0 or home == node:
            return self.costs.local_miss + extra, version
        completion = self.network.round_trip(node, home, now,
                                             MessageType.WRITE_REQUEST,
                                             MessageType.DATA_REPLY)
        nominal = 2 * self.network.latency + 4 * self.network.nic_occupancy
        contention = max(0, completion - now - nominal)
        return self.costs.remote_miss + contention + extra, version

    def note_l1_eviction(self, node: int, block: int, dirty: bool) -> None:
        """Hook: a processor cache on ``node`` evicted ``block``.

        The base protocol only uses this for nodes where the block is not
        also held in a node-level structure (block cache or page cache);
        subclasses refine it.  The default marks the departure as an
        eviction when no node-level copy remains.

        NOTE: the batched engine inlines this body on its two miss paths
        (``repro/engine/batched.py``) when it is not overridden; a change
        here must be mirrored there.
        """
        # inlined BlockCache.contains
        idx = block % self._bc_caps[node]
        bb = self._bc_blocks[node]
        if idx < len(bb) and bb[idx] == block:
            return
        pc = self.page_caches[node]
        page = block // self._bpp
        if pc is None or not pc.contains(page):
            vm_home = self._vm_home
            home = vm_home[page] if page < len(vm_home) else -1
            if home >= 0 and home != node:
                departed = self._departed[node]
                if block >= len(departed):
                    self._dir_reserve(block + 1)
                departed[block] = _DEPARTED_EVICTED

    # ------------------------------------------------------------------ overridable

    def _service_remote_page(self, node: int, proc: int, page: int, block: int,
                             is_write: bool, now: int, home: int,
                             mode: PageMode) -> Tuple[int, int, int, bool]:
        """Service a miss on a page whose home is remote.

        Returns ``(service_cycles, pageop_cycles, version, remote)``.
        The base implementation performs an uncached remote fetch; concrete
        systems override it to add block caches, replicas or page caches.
        """
        latency, version = self._remote_fill(node, block, is_write, now, home)
        return latency, 0, version, True

    # ------------------------------------------------------------------ reporting

    def describe(self) -> str:
        """One-line human-readable description of the protocol."""
        return self.name
