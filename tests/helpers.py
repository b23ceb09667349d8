"""Shared test helpers (importable, unlike conftest fixtures).

Importing helpers from ``conftest`` is fragile: when several test roots
(``tests/``, ``benchmarks/``) are collected in one pytest run, only one
``conftest`` module can own the name and the other root's imports break.
Plain helper functions therefore live here; ``tests/conftest.py`` keeps
only fixtures (and re-exports these helpers for backwards compatibility).
"""

from __future__ import annotations

import pytest

from repro.config import MachineConfig
from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import PageGroup, Phase, SharingPattern, WorkloadSpec


def make_simple_spec(*, pattern: SharingPattern = SharingPattern.READ_WRITE_SHARED,
                     pages: int = 16, accesses: int = 400,
                     write_fraction: float = 0.2,
                     shift: int = 0, phases: int = 2,
                     node_affinity: float = 0.0,
                     touches_per_page: int = 8) -> WorkloadSpec:
    """Build a one-group workload spec for targeted protocol tests."""
    group = PageGroup(name="data", num_pages=pages, pattern=pattern,
                      write_fraction=write_fraction,
                      node_affinity=node_affinity,
                      touches_per_page=touches_per_page)
    phase_list = [Phase(name="init", touch_groups=("data",))]
    for i in range(phases):
        phase_list.append(
            Phase(name=f"work-{i}", accesses_per_proc=accesses,
                  weights={"data": 1.0}, compute_per_access=4,
                  migratory_shift=shift))
    return WorkloadSpec(name=f"simple-{pattern.value}",
                        description="test workload",
                        groups=(group,), phases=tuple(phase_list))


def make_trace(spec: WorkloadSpec, machine: MachineConfig, *, seed: int = 0,
               access_scale: float = 1.0):
    """Generate a trace for ``spec`` on ``machine``."""
    return TraceGenerator(spec, machine, access_scale=access_scale,
                          seed=seed).generate()


def require_c_backend() -> None:
    """Skip the calling test when the kernel's C walk cannot be built."""
    from repro.engine.kernel.cbuild import load_cwalk
    if load_cwalk() is None:
        pytest.skip("no working C toolchain")


def assert_invariants(machine, stats) -> None:
    """Engine-independent consistency checks on a finished run.

    Each check holds on every engine by the model's design, so a
    violation is a simulator bug no equivalence test can see: every engine
    would share it.  Two checks a coherence model usually makes do not
    hold here, on purpose: a block-cache eviction drops the node from the
    sharer mask while its L1s keep their copies, and a read fill adds a
    sharer without clearing the owner.
    """
    from repro.mem.page_table import MODE_CODES, PageMode

    local_home = MODE_CODES[PageMode.LOCAL_HOME]
    replica = MODE_CODES[PageMode.REPLICA]
    scoma = MODE_CODES[PageMode.SCOMA]
    unmapped = MODE_CODES[PageMode.UNMAPPED]
    directory = machine.directory
    sharers = directory._sharers
    dir_versions = directory._version
    vm = machine.vm
    bpp = machine.addr.blocks_per_page

    for node, bc in enumerate(machine.block_caches):
        for i, block in enumerate(bc._blocks):
            if block >= 0 and bc._versions[i] >= dir_versions[block]:
                assert sharers[block] >> node & 1, (
                    f"node {node} holds current block {block} in its block "
                    f"cache but is not in its sharer mask")

    for node, pt in enumerate(machine.page_tables):
        for page, tracked in enumerate(pt._tracked):
            if not tracked:
                continue
            mode = pt._modes[page]
            assert bool(pt._writable[page]) == (mode != replica), (
                f"node {node} page {page}: writable "
                f"{pt._writable[page]} in mode {mode} (only a replica is "
                f"read-only)")
            if mode == local_home:
                assert vm.home_of(page) == node, (
                    f"node {node} maps page {page} LOCAL_HOME but its home "
                    f"is {vm.home_of(page)}")
            elif mode == replica:
                assert node in vm.replicas_of(page), (
                    f"node {node} maps page {page} REPLICA outside its "
                    f"replica mask")
            if vm.home_of(page) == node:
                assert mode in (unmapped, local_home), (
                    f"home {node} maps its own page {page} in mode {mode}")

    for node, pc in enumerate(machine.page_caches):
        if pc is None:
            continue
        bc = machine.block_caches[node]
        pt = machine.page_tables[node]
        resident = [pg for pg, r in enumerate(pc._resident) if r]
        assert pc.occupancy() == len(resident), (
            f"node {node}: occupancy {pc.occupancy()} != "
            f"{len(resident)} resident pages")
        for page in resident:
            blocks = range(page * bpp, (page + 1) * bpp)
            valid = sum(1 for b in blocks if pc._version[b] >= 0)
            dirty = sum(1 for b in blocks if pc._dirty[b])
            assert (pc._nvalid[page], pc._ndirty[page]) == (valid, dirty), (
                f"node {node} page {page}: counts "
                f"{(pc._nvalid[page], pc._ndirty[page])} != tags "
                f"{(valid, dirty)}")
            assert pt._modes[page] == scoma, (
                f"node {node} caches page {page} unmapped from S-COMA")
            assert not any(bc.contains(b) for b in blocks), (
                f"node {node} holds page-cached page {page} in its block "
                f"cache too")

    assert sum(stats.message_stats.counts.values()) == \
        stats.network_messages
    for p, pt in enumerate(machine.timing.processors):
        assert sum(pt.stalls.values()) == pt.clock, (
            f"processor {p}: stalls {sum(pt.stalls.values())} != clock "
            f"{pt.clock}")
