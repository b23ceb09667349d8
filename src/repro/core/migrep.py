"""CC-NUMA+MigRep: kernel page migration and replication (Section 3.1).

The cluster device of CC-NUMA+MigRep adds per-page per-node miss counters
at the home node.  Every cache-fill request arriving at the home bumps the
appropriate counter, and the hardware compares the counters against a
threshold:

* **replication** when the page has seen no write misses and the
  requester's read-miss counter exceeds the threshold — the page is copied
  read-only into the requester's memory;
* **migration** when the requester's miss counter exceeds the home's by at
  least the threshold — the page is gathered from all cachers and moved to
  the requester, which becomes the new home.

A write to a replicated page raises a protection fault at the writer and a
request at the home to collapse the page back to a single read-write copy.

The ``Mig``-only and ``Rep``-only systems of Figure 5 are this protocol
with one of the two mechanisms disabled.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.ccnuma import CCNUMAProtocol
from repro.core.counters import MigRepCounters
from repro.core.decisions import MigRepDecision, MigRepPolicy, resolve_policy
from repro.core.protocol import _DEPARTED_INVALIDATED
from repro.interconnect.message import MessageType
from repro.kernel.faults import FaultKind
from repro.kernel.migration import MigrationEngine
from repro.mem.page_table import PageMode


class MigRepProtocol(CCNUMAProtocol):
    """CC-NUMA plus home-driven page migration/replication."""

    name = "migrep"

    def __init__(self, machine, *, enable_migration: Optional[bool] = None,
                 enable_replication: Optional[bool] = None,
                 policy=None) -> None:
        super().__init__(machine)
        thresholds = self.cfg.thresholds
        self.counters = MigRepCounters(
            num_nodes=self.cfg.machine.num_nodes,
            reset_interval=thresholds.effective_migrep_reset_interval,
        )
        # resolved through the open POLICIES registry: an explicit policy
        # object/name wins, then the system spec's override, then the
        # config's thresholds.migrep_policy (default: the paper's
        # static-threshold rule, bit-identical to the closed version).
        # Only explicitly-given enable flags are forwarded, so the "mig"/
        # "rep" factories stay authoritative while config-level policy
        # args are not clobbered by constructor defaults.
        flags = {k: v for k, v in (("enable_migration", enable_migration),
                                   ("enable_replication", enable_replication))
                 if v is not None}
        self.policy = resolve_policy(
            "migrep", self.cfg, spec=getattr(machine, "system", None),
            policy=policy, **flags)
        self.engine = MigrationEngine(
            addr=self.addr,
            costs=self.costs,
            vm=self.vm,
            directory=self.directory,
            network=self.network,
            page_tables=self.page_tables,
            block_caches=self.block_caches,
            l1_caches=machine.l1_by_node,
        )
        # pre-bound for the per-miss fast path; the inlined decision body
        # in _service_remote_page is only valid for the exact static
        # policy, so any other policy takes the generic evaluate() path
        self._record_miss = self.counters.record_miss
        self._mr_static = type(self.policy) is MigRepPolicy
        if self._mr_static:
            self._mr_threshold = self.policy.threshold
            self._mr_migration = self.policy.enable_migration
            self._mr_replication = self.policy.enable_replication

    # ------------------------------------------------------------------ page-op helpers

    def _perform_replication(self, page: int, node: int, now: int) -> int:
        """Replicate ``page`` at ``node``; return the page-operation cycles."""
        outcome = self.engine.replicate(page, node, now)
        stats = self.node_stats[node]
        stats.replications += 1
        self.fault_logs[node].record(FaultKind.REPLICATION_TRAP, outcome.cost)
        return outcome.cost

    def _perform_migration(self, page: int, node: int, now: int) -> int:
        """Migrate ``page`` to ``node``; return the page-operation cycles."""
        outcome = self.engine.migrate(page, node, now)
        stats = self.node_stats[node]
        stats.migrations += 1
        self.fault_logs[node].record(FaultKind.MIGRATION_TRAP, outcome.cost)
        # after a migration the page's counters no longer describe the new
        # home relationship; reset them so decisions restart cleanly
        self.counters.reset_page(page)
        return outcome.cost

    def _collapse_replicas(self, page: int, writer: int, now: int) -> int:
        """Collapse a replicated page to read-write; return the cycles charged."""
        outcome = self.engine.collapse_replicas(page, writer, now)
        stats = self.node_stats[writer]
        stats.replica_collapses += 1
        self.page_tables[writer].record_protection_fault(page)
        self.fault_logs[writer].record(FaultKind.PROTECTION_FAULT, outcome.cost)
        # a page that needed a collapse is clearly not read-only: reset its
        # counters so replication is not immediately re-triggered
        self.counters.reset_page(page)
        return outcome.cost

    def _evaluate_policy(self, page: int, node: int, home: int, now: int) -> int:
        """Run the MigRep decision policy; return any page-op cycles incurred."""
        # equivalent to `node in self.vm.replicas_of(page)` without the
        # per-miss set that replicas_of() builds (the page is placed)
        is_replica_request = bool(self._vm_replica_mask[page] >> node & 1)
        decision = self.policy.evaluate(self.counters, page, node, home,
                                        is_replica_request=is_replica_request)
        if decision is MigRepDecision.REPLICATE:
            return self._perform_replication(page, node, now)
        if decision is MigRepDecision.MIGRATE:
            return self._perform_migration(page, node, now)
        return 0

    # ------------------------------------------------------------------ overrides

    def _service_remote_page(self, node: int, proc: int, page: int, block: int,
                             is_write: bool, now: int, home: int,
                             mode: PageMode) -> Tuple[int, int, int, bool]:
        pageop = 0

        # Writes to a replicated page fault and collapse the replicas first
        # (inlined vm.is_replicated on the pre-bound flag column; the page
        # is placed).
        if is_write and self._vm_replicated[page]:
            pageop += self._collapse_replicas(page, node, now)
            mode = self.page_tables[node].mode_of(page)
            home = self.vm.home_of(page) or home

        # Reads served by a local replica are local memory accesses.
        if not is_write and mode is PageMode.REPLICA:
            stats = self.node_stats[node]
            stats.local_misses += 1
            version = self._directory_read(node, block)
            return self.costs.local_miss, pageop, version, False

        # Otherwise behave like CC-NUMA, but account the miss at the home.
        latency, version, remote = self._block_cache_fetch(
            node, page, block, is_write, now, home)
        if remote:
            # inlined MigRepCounters.record_miss + _evaluate_policy on the
            # dense counter columns (one copy of the counter body lives in
            # _local_fill and one in the compiled kernel; keep in sync) —
            # this runs on every remote miss reaching the home
            counters = self.counters
            nn = counters.num_nodes
            if page >= counters._cap:
                counters.reserve(page + 1)
            base = page * nn
            if is_write:
                counters._live_w[page] = 1
                counters._write[base + node] += 1
            else:
                counters._live_r[page] = 1
                counters._read[base + node] += 1
            total = counters._since[page] + 1
            if total >= counters.reset_interval:
                counters.reset_page(page)
            else:
                counters._since[page] = total
            # inlined MigRepPolicy.evaluate (node != home on this path;
            # replica holders trigger no further operation).
            # Reset-to-zero rows read the same as never-recorded rows for
            # every comparison here (all strict > on non-negative counts),
            # so the live flags need no consulting.
            if not self._vm_replica_mask[page] >> node & 1:
                if not self._mr_static:
                    # the guard above already established this is not a
                    # replica request; dispatch the decision directly
                    decision = self.policy.evaluate(
                        counters, page, node, home, is_replica_request=False)
                    if decision is MigRepDecision.REPLICATE:
                        pageop += self._perform_replication(page, node, now)
                    elif decision is MigRepDecision.MIGRATE:
                        pageop += self._perform_migration(page, node, now)
                    return latency, pageop, version, remote
                reads = counters._read
                writes = counters._write
                decided = False
                if self._mr_replication:
                    remote_writes = (sum(writes[base:base + nn])
                                     - writes[base + home])
                    if (remote_writes == 0
                            and reads[base + node] > self._mr_threshold):
                        pageop += self._perform_replication(page, node, now)
                        decided = True
                if not decided and self._mr_migration:
                    requester_misses = reads[base + node] + writes[base + node]
                    home_misses = reads[base + home] + writes[base + home]
                    if requester_misses - home_misses > self._mr_threshold:
                        pageop += self._perform_migration(page, node, now)
        return latency, pageop, version, remote

    def _local_fill(self, node: int, block: int, is_write: bool) -> Tuple[int, int]:
        # The home node's own misses also feed its counters so that the
        # migration comparison (requester vs home) sees both sides.  The
        # base _local_fill, _directory_write/_directory_read and
        # MigRepCounters.record_miss bodies are all inlined: this runs on
        # every home-local miss, the hottest MigRep event by far on the
        # paper's workloads.
        self.node_stats[node].local_misses += 1
        sharers = self._dir_sharers
        if block >= len(sharers):
            self._dir_reserve(block + 1)
        self._dir_tracked[block] = 1
        if is_write:
            # inlined _directory_write
            bit = 1 << node
            others = sharers[block] & ~bit
            owner = self._dir_owner
            directory = self.directory
            if owner[block] >= 0 and owner[block] != node:
                directory.writebacks += 1
            sharers[block] = bit
            owner[block] = node
            versions = self._dir_version
            version = versions[block] + 1
            versions[block] = version
            latency = self._local_miss_cost
            if others:
                invalidations = others.bit_count()
                directory.invalidations_sent += invalidations
                latency += invalidations * self._inval_cost
                stats = self.network.stats
                stats.record(MessageType.INVALIDATION, invalidations)
                stats.record(MessageType.INVALIDATION_ACK, invalidations)
                departed = self._departed
                while others:
                    low = others & -others
                    others ^= low
                    departed[low.bit_length() - 1][block] = \
                        _DEPARTED_INVALIDATED
        else:
            # inlined _directory_read
            sharers[block] |= 1 << node
            latency = self._local_miss_cost
            version = self._dir_version[block]
        page = block // self._bpp
        vm_home = self._vm_home
        if page < len(vm_home) and vm_home[page] == node:
            # inlined MigRepCounters.record_miss (node is in range) on the
            # dense counter columns
            counters = self.counters
            if page >= counters._cap:
                counters.reserve(page + 1)
            base = page * counters.num_nodes
            if is_write:
                counters._live_w[page] = 1
                counters._write[base + node] += 1
            else:
                counters._live_r[page] = 1
                counters._read[base + node] += 1
            total = counters._since[page] + 1
            if total >= counters.reset_interval:
                counters.reset_page(page)
            else:
                counters._since[page] = total
        return latency, version

    def describe(self) -> str:
        parts = []
        if getattr(self.policy, "enable_migration", True):
            parts.append("migration")
        if getattr(self.policy, "enable_replication", True):
            parts.append("replication")
        base = "CC-NUMA + " + "/".join(parts) if parts else "CC-NUMA"
        policy_name = getattr(self.policy, "name", "")
        if policy_name and policy_name != "static-threshold":
            base += f" [{policy_name} policy]"
        return base
