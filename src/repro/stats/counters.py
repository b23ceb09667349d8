"""Per-node and machine-wide event counters.

The quantities the paper reports are all derived from a small set of
counters:

* **misses** broken down by where they were satisfied (local memory,
  block cache / page cache, remote home) and by cause (cold,
  capacity/conflict, coherence) — Figure 5/7 execution times and Table 4's
  miss columns,
* **page operations** (migrations, replications, R-NUMA relocations,
  page-cache evictions, replica collapses) — Table 4's operation columns
  and the Figure 6 sensitivity analysis, and
* **traffic** (messages/bytes on the cluster network), tracked separately
  by :class:`repro.interconnect.message.MessageStats`.

``NodeStats`` holds the per-node view (Table 4 is reported per node);
``MachineStats`` aggregates nodes and adds machine-level results such as
the final execution time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class MissClass(enum.Enum):
    """Cause classification of a miss that required a block fetch."""

    COLD = "cold"
    CAPACITY_CONFLICT = "capacity_conflict"
    COHERENCE = "coherence"


#: MissClass members in counter-array order; ``c.index`` is the position.
MISS_CLASSES = tuple(MissClass)
for _i, _c in enumerate(MISS_CLASSES):
    _c.index = _i  # int index as a member attribute for the hot paths


@dataclass(slots=True)
class NodeStats:
    """Event counters for one SMP node.

    The per-cause remote-miss breakdown is a flat three-element list
    indexed by ``MissClass.index`` (it is bumped on every remote miss, the
    simulator's hottest statistics update); the named ``remote_cold`` /
    ``remote_capacity_conflict`` / ``remote_coherence`` views the reports
    and tables read are properties over that list.
    """

    node: int

    # reference stream
    accesses: int = 0
    l1_hits: int = 0
    upgrades: int = 0

    # misses by service point
    local_misses: int = 0          # satisfied from the node's own memory
    block_cache_hits: int = 0      # satisfied from the node's block cache
    page_cache_hits: int = 0       # satisfied from the node's S-COMA page cache
    remote_misses: int = 0         # required a fetch from a remote home

    # remote misses by cause, indexed by MissClass.index
    remote_by_cause: List[int] = field(default_factory=lambda: [0, 0, 0])

    # page operations
    migrations: int = 0            # pages migrated *to* this node
    replications: int = 0          # replicas installed *on* this node
    relocations: int = 0           # R-NUMA relocations performed by this node
    page_cache_evictions: int = 0
    replica_collapses: int = 0     # write faults that collapsed a replicated page
    mapping_faults: int = 0

    def record_remote_miss(self, cause: MissClass) -> None:
        """Record a remote miss of the given cause."""
        self.remote_misses += 1
        self.remote_by_cause[cause.index] += 1

    @property
    def remote_cold(self) -> int:
        """Remote cold misses."""
        return self.remote_by_cause[MissClass.COLD.index]

    @property
    def remote_capacity_conflict(self) -> int:
        """Remote capacity/conflict misses."""
        return self.remote_by_cause[MissClass.CAPACITY_CONFLICT.index]

    @property
    def remote_coherence(self) -> int:
        """Remote coherence misses."""
        return self.remote_by_cause[MissClass.COHERENCE.index]

    @property
    def l1_misses(self) -> int:
        """Total processor-cache misses observed on this node."""
        return (self.local_misses + self.block_cache_hits
                + self.page_cache_hits + self.remote_misses)

    @property
    def overall_misses(self) -> int:
        """Misses that left the node (Table 4's "overall misses" column)."""
        return self.remote_misses

    @property
    def capacity_conflict_misses(self) -> int:
        """Remote capacity/conflict misses (Table 4's parenthesised column)."""
        return self.remote_capacity_conflict

    @property
    def page_operations(self) -> int:
        """All page operations performed by/for this node."""
        return self.migrations + self.replications + self.relocations

    def sanity_check(self) -> None:
        """Raise AssertionError if the counters violate conservation laws."""
        assert self.accesses >= 0
        assert self.l1_hits + self.l1_misses + self.upgrades == self.accesses, (
            "hits + misses + upgrades must equal accesses"
        )
        assert sum(self.remote_by_cause) == self.remote_misses, (
            "remote miss cause breakdown must sum to remote misses"
        )


@dataclass
class MachineStats:
    """Aggregated statistics for one simulation run."""

    nodes: List[NodeStats]
    execution_time: int = 0
    proc_finish_times: List[int] = field(default_factory=list)
    network_messages: int = 0
    network_bytes: int = 0
    barrier_count: int = 0
    #: per-message-type traffic counters of the run's network (set by the
    #: machine at the end of :meth:`repro.cluster.machine.Machine.run`);
    #: ``None`` only for hand-built statistics objects in unit tests.
    message_stats: Optional[object] = None
    #: machine-wide processor-time breakdown by stall category
    #: (:class:`repro.stats.timing.StallKind` -> cycles), set by the machine
    #: at the end of a run; empty for hand-built statistics objects.
    stall_breakdown: Dict[object, int] = field(default_factory=dict)
    #: per-lane execution profile of the engine that produced this run
    #: (reference counts for the fast/demoted/residual lanes and
    #: wall time) — diagnostic only, never part of the simulated results;
    #: ``None`` for the reference interpreter and hand-built objects.
    engine_profile: Optional[Dict[str, object]] = None

    @classmethod
    def for_nodes(cls, num_nodes: int) -> "MachineStats":
        """Create an empty MachineStats with ``num_nodes`` node entries."""
        return cls(nodes=[NodeStats(node=i) for i in range(num_nodes)])

    # -- aggregation helpers ---------------------------------------------------

    def _sum(self, attr: str) -> int:
        return sum(getattr(n, attr) for n in self.nodes)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def total_accesses(self) -> int:
        """Total references issued by every processor."""
        return self._sum("accesses")

    @property
    def total_remote_misses(self) -> int:
        """Total misses serviced by a remote home node."""
        return self._sum("remote_misses")

    @property
    def total_capacity_conflict_misses(self) -> int:
        """Total remote capacity/conflict misses."""
        return self._sum("remote_capacity_conflict")

    @property
    def total_coherence_misses(self) -> int:
        """Total remote coherence misses."""
        return self._sum("remote_coherence")

    @property
    def total_cold_misses(self) -> int:
        """Total remote cold misses."""
        return self._sum("remote_cold")

    @property
    def total_local_misses(self) -> int:
        """Total misses satisfied in local memory."""
        return self._sum("local_misses")

    @property
    def total_migrations(self) -> int:
        """Total page migrations."""
        return self._sum("migrations")

    @property
    def total_replications(self) -> int:
        """Total replica installations."""
        return self._sum("replications")

    @property
    def total_relocations(self) -> int:
        """Total R-NUMA relocations."""
        return self._sum("relocations")

    @property
    def total_page_cache_evictions(self) -> int:
        """Total S-COMA page cache evictions."""
        return self._sum("page_cache_evictions")

    # -- per-node views (Table 4 is reported per node) ---------------------------

    def per_node_migrations(self) -> float:
        """Average migrations per node."""
        return self.total_migrations / self.num_nodes if self.num_nodes else 0.0

    def per_node_replications(self) -> float:
        """Average replica installations per node."""
        return self.total_replications / self.num_nodes if self.num_nodes else 0.0

    def per_node_relocations(self) -> float:
        """Average relocations per node."""
        return self.total_relocations / self.num_nodes if self.num_nodes else 0.0

    def per_node_remote_misses(self) -> float:
        """Average remote misses per node."""
        return self.total_remote_misses / self.num_nodes if self.num_nodes else 0.0

    def per_node_capacity_conflict(self) -> float:
        """Average remote capacity/conflict misses per node."""
        return (self.total_capacity_conflict_misses / self.num_nodes
                if self.num_nodes else 0.0)

    def sanity_check(self) -> None:
        """Check conservation laws on every node."""
        for n in self.nodes:
            n.sanity_check()
        assert self.execution_time >= 0
