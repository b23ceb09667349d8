"""The DSM cluster machine: substrate assembly and run dispatch.

:class:`Machine` assembles the whole simulated system — nodes, network,
directory, virtual-memory manager, statistics — for one named system
configuration (:class:`repro.core.factory.SystemSpec`), and drives a
workload trace through one of the execution engines in
:mod:`repro.engine`:

* ``kernel`` (the default) — the batched engine's residual walk compiled
  to C; runs it cannot take fall back to ``batched``;
* ``batched`` — the two-tier engine: guaranteed L1 hits are classified
  per phase with vectorised numpy passes and resolved in bulk, and only
  the residual references (possible hits, upgrades, misses) are
  interpreted through the protocol machinery;
* ``legacy`` — the original reference interpreter, one Python-level step
  per reference.

All engines implement the same timing model (see DESIGN.md, "Timing
model") and produce bit-identical statistics and execution times;
normalising two runs of the same trace under different systems against
each other reproduces the paper's "normalized execution time" metric.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import SimulationConfig
from repro.core.factory import SystemSpec
from repro.engine import run_trace
from repro.interconnect.network import Network
from repro.kernel.faults import FaultLog
from repro.kernel.placement import build_placement
from repro.kernel.vm import VirtualMemoryManager
from repro.mem.address import AddressSpace
from repro.mem.directory import Directory
from repro.cluster.node import Node
from repro.stats.counters import MachineStats
from repro.stats.timing import TimingStats


class Machine:
    """A simulated CC-NUMA DSM cluster running one system configuration."""

    def __init__(self, cfg: SimulationConfig, system: SystemSpec) -> None:
        self.cfg = cfg
        self.system = system
        mc = cfg.machine

        self.addr = AddressSpace(page_size=mc.page_size, block_size=mc.block_size)
        placement = (None if cfg.placement == "first-touch"
                     else build_placement(cfg.placement, mc.num_nodes))
        self.vm = VirtualMemoryManager(mc.num_nodes, placement=placement)
        self.directory = Directory(mc.num_nodes)
        self.network = Network(
            num_nodes=mc.num_nodes,
            latency=cfg.costs.network_latency,
            nic_occupancy=cfg.costs.nic_occupancy,
            enabled=cfg.model_contention,
            block_size=mc.block_size,
            page_size=mc.page_size,
        )

        page_cache_frames: Optional[int] = None
        if system.uses_page_cache and not system.infinite_page_cache:
            fraction = system.page_cache_fraction or 1.0
            page_cache_frames = max(1, int(mc.page_cache_frames * fraction))

        block_cache_blocks: Optional[int] = None
        if system.block_cache_scale != 1.0 and not system.infinite_block_cache:
            block_cache_blocks = max(
                1, int(mc.block_cache_blocks * system.block_cache_scale))

        self.nodes: List[Node] = [
            Node.create(
                node_id=i,
                machine_cfg=mc,
                infinite_block_cache=system.infinite_block_cache,
                block_cache_blocks=block_cache_blocks,
                page_cache_frames=page_cache_frames,
                infinite_page_cache=system.infinite_page_cache,
                model_contention=cfg.model_contention,
            )
            for i in range(mc.num_nodes)
        ]

        # flattened views the protocols use
        self.page_tables = [n.page_table for n in self.nodes]
        self.block_caches = [n.block_cache for n in self.nodes]
        self.page_caches = [n.page_cache for n in self.nodes]
        self.l1_by_node = [[p.cache for p in n.processors] for n in self.nodes]
        self.processors = [p for n in self.nodes for p in n.processors]
        self.fault_logs = [FaultLog() for _ in range(mc.num_nodes)]

        self.stats = MachineStats.for_nodes(mc.num_nodes)
        self.timing = TimingStats.for_processors(mc.num_processors)

        # the protocol is constructed last: it captures references to the
        # substrate built above
        self.protocol = system.protocol_factory(self)

    # ------------------------------------------------------------------ properties

    @property
    def num_nodes(self) -> int:
        """Number of SMP nodes."""
        return self.cfg.machine.num_nodes

    @property
    def num_processors(self) -> int:
        """Total processors in the cluster."""
        return self.cfg.machine.num_processors

    def describe(self) -> str:
        """One-line description of the machine and its protocol."""
        mc = self.cfg.machine
        return (f"{self.system.label}: {mc.num_nodes} nodes x "
                f"{mc.procs_per_node} CPUs, {self.protocol.describe()}")

    # ------------------------------------------------------------------ simulation

    def run(self, trace, engine: Optional[str] = None) -> MachineStats:
        """Run ``trace`` to completion and return the machine statistics.

        ``trace`` is a :class:`repro.workloads.trace.Trace` or anything
        honouring the streaming contract: ``num_procs``, a ``name`` and
        a ``phases`` sequence (``len`` + iteration) yielding
        :class:`~repro.workloads.trace.PhaseTrace` objects.  Every
        engine walks ``phases`` exactly once per run, so a lazily
        served sequence — e.g. a file-backed
        :class:`~repro.workloads.tracefile.StreamingTrace` — runs out
        of core without the machine ever holding the full trace.  The
        trace's processor count must not exceed the machine's.

        ``engine`` selects the execution engine (one of
        :data:`repro.engine.ENGINE_NAMES`); the default is the kernel
        engine, overridable globally with the ``REPRO_ENGINE`` environment
        variable.  All engines produce bit-identical statistics.
        """
        if trace.num_procs > self.num_processors:
            raise ValueError(
                f"trace uses {trace.num_procs} processors but the machine has "
                f"only {self.num_processors}")
        return run_trace(self, trace, engine)
