"""R-NUMA+MigRep: the integrated system of Section 6.4.

The motivation: R-NUMA's hardware cost (fine-grain tags, reverse
translation table, reactive counters) grows with the page-cache size, so
one would like to shrink the page cache and recover the lost opportunity
with page migration/replication, which needs no per-block hardware.

The integration problem the paper identifies is *counter interference*:
early R-NUMA relocation removes the very misses the home-side MigRep
counters need to observe, so migration/replication stops being invoked.
The paper's mitigation — and the one implemented here — is to give MigRep
first claim on every page by delaying R-NUMA relocation until the page has
absorbed a preset number of misses (the ``hybrid_relocation_delay``
threshold).

This protocol composes the two mechanisms:

* home-side MigRep counters and policy identical to
  :class:`repro.core.migrep.MigRepProtocol`, and
* requester-side refetch counters and relocation identical to
  :class:`repro.core.rnuma.RNUMAProtocol`, gated by the delay.

The Figure 8 systems are built by the factory as ``rnuma-half`` (no
MigRep) and ``rnuma-half-migrep`` (this protocol with a half-size page
cache).
"""

from __future__ import annotations

import warnings
from typing import Optional, Tuple

from repro.core.counters import MigRepCounters
from repro.core.decisions import MigRepDecision, resolve_policy
from repro.core.rnuma import RNUMAProtocol
from repro.kernel.faults import FaultKind
from repro.kernel.migration import MigrationEngine
from repro.mem.page_table import PageMode


class RNUMAMigRepProtocol(RNUMAProtocol):
    """R-NUMA with page migration/replication layered on top."""

    name = "rnuma-migrep"

    def __init__(self, machine, *, enable_migration: Optional[bool] = None,
                 enable_replication: Optional[bool] = None,
                 migrep_policy=None, rnuma_policy=None) -> None:
        thresholds = machine.cfg.thresholds
        # a ready rnuma-policy *instance* is used verbatim (it must bake
        # in its own relocation delay); the hybrid's delayed-relocation
        # budget applies when the policy is resolved by name
        ready_rnuma = (rnuma_policy is not None
                       and not isinstance(rnuma_policy, str))
        if (ready_rnuma
                and not getattr(rnuma_policy, "relocation_delay", 0)
                and thresholds.effective_hybrid_delay):
            warnings.warn(
                "RNUMAMigRepProtocol received a ready rnuma policy with "
                "relocation_delay=0; the hybrid's delayed-relocation "
                "budget (Section 6.4 counter-interference mitigation) is "
                "disabled — bake a delay into the instance (e.g. "
                "thresholds.effective_hybrid_delay) if that is not "
                "intended", stacklevel=2)
        super().__init__(machine,
                         relocation_delay=(None if ready_rnuma else
                                           thresholds.effective_hybrid_delay),
                         policy=rnuma_policy)
        self.migrep_counters = MigRepCounters(
            num_nodes=self.cfg.machine.num_nodes,
            reset_interval=thresholds.effective_migrep_reset_interval,
        )
        # same resolution order as MigRepProtocol (registry-driven, only
        # explicit enable flags forwarded); the hybrid always consults
        # the generic evaluate() hook, so every registered migrep policy
        # composes with delayed relocation
        flags = {k: v for k, v in (("enable_migration", enable_migration),
                                   ("enable_replication", enable_replication))
                 if v is not None}
        self.migrep_policy = resolve_policy(
            "migrep", self.cfg, spec=getattr(machine, "system", None),
            policy=migrep_policy, **flags)
        self.migration_engine = MigrationEngine(
            addr=self.addr,
            costs=self.costs,
            vm=self.vm,
            directory=self.directory,
            network=self.network,
            page_tables=self.page_tables,
            block_caches=self.block_caches,
            l1_caches=machine.l1_by_node,
        )
        # pre-bound for the per-miss fast path
        self._record_migrep_miss = self.migrep_counters.record_miss

    # ------------------------------------------------------------------ MigRep side

    def _perform_replication(self, page: int, node: int, now: int) -> int:
        outcome = self.migration_engine.replicate(page, node, now)
        self.node_stats[node].replications += 1
        self.fault_logs[node].record(FaultKind.REPLICATION_TRAP, outcome.cost)
        return outcome.cost

    def _perform_migration(self, page: int, node: int, now: int) -> int:
        outcome = self.migration_engine.migrate(page, node, now)
        self.node_stats[node].migrations += 1
        self.fault_logs[node].record(FaultKind.MIGRATION_TRAP, outcome.cost)
        self.migrep_counters.reset_page(page)
        return outcome.cost

    def _collapse_replicas(self, page: int, writer: int, now: int) -> int:
        outcome = self.migration_engine.collapse_replicas(page, writer, now)
        self.node_stats[writer].replica_collapses += 1
        self.page_tables[writer].record_protection_fault(page)
        self.fault_logs[writer].record(FaultKind.PROTECTION_FAULT, outcome.cost)
        self.migrep_counters.reset_page(page)
        return outcome.cost

    def _evaluate_migrep(self, page: int, node: int, home: int, now: int) -> int:
        # pages already relocated into this node's page cache are no longer
        # candidates: the node serves them locally
        pc = self.page_caches[node]
        if pc is not None and pc.contains(page):
            return 0
        is_replica_request = bool(self._vm_replica_mask[page] >> node & 1)
        decision = self.migrep_policy.evaluate(
            self.migrep_counters, page, node, home,
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

        if self.vm.is_replicated(page) and is_write:
            pageop += self._collapse_replicas(page, node, now)
            mode = self.page_tables[node].mode_of(page)
            home = self.vm.home_of(page) or home

        if not is_write and mode is PageMode.REPLICA:
            stats = self.node_stats[node]
            stats.local_misses += 1
            version = self._directory_read(node, block)
            return self.costs.local_miss, pageop, version, False

        latency, rnuma_pageop, version, remote = super()._service_remote_page(
            node, proc, page, block, is_write, now, home, mode)
        pageop += rnuma_pageop
        if remote:
            # the home also observes this miss for its MigRep counters
            self._record_migrep_miss(page, node, is_write)
            pageop += self._evaluate_migrep(page, node, home, now)
        return latency, pageop, version, remote

    def _local_fill(self, node: int, block: int, is_write: bool) -> Tuple[int, int]:
        latency, version = super()._local_fill(node, block, is_write)
        page = block // self._bpp
        vm_home = self._vm_home
        if page < len(vm_home) and vm_home[page] == node:
            self._record_migrep_miss(page, node, is_write)
        return latency, version

    def describe(self) -> str:
        return "R-NUMA + migration/replication (delayed relocation)"
