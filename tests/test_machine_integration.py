"""Integration tests: run small traces end-to-end under every system.

These tests assert the *invariants* and the comparative relations the paper
relies on, not absolute numbers:

* conservation laws (hits + misses + upgrades = accesses, miss-cause
  breakdown sums to remote misses),
* the perfect CC-NUMA baseline is never slower than the finite-block-cache
  CC-NUMA on the same trace,
* an infinite page cache removes the R-NUMA capacity limit,
* determinism: the same (trace, system, config) always produces identical
  statistics.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cluster.machine import Machine
from repro.core.factory import SYSTEM_NAMES, build_system
from repro.workloads.spec import SharingPattern

from helpers import make_simple_spec, make_trace


def run(trace, system, config):
    machine = Machine(config, build_system(system))
    stats = machine.run(trace)
    return machine, stats


class TestConservationLaws:
    @pytest.mark.parametrize("system", list(SYSTEM_NAMES))
    def test_counters_consistent_for_every_system(self, system, small_config,
                                                  small_machine):
        spec = make_simple_spec(pages=24, accesses=300, phases=2,
                                write_fraction=0.3)
        trace = make_trace(spec, small_machine)
        machine, stats = run(trace, system, small_config)
        stats.sanity_check()
        assert stats.total_accesses == trace.total_accesses()
        assert stats.execution_time > 0
        assert stats.network_messages >= stats.total_remote_misses
        # every processor participates and ends at the same barrier
        assert len(set(stats.proc_finish_times)) == 1

    def test_timing_accounts_every_cycle(self, small_config, small_machine):
        spec = make_simple_spec(pages=16, accesses=200, phases=1)
        trace = make_trace(spec, small_machine)
        machine, stats = run(trace, "ccnuma", small_config)
        for proc in machine.timing.processors[:trace.num_procs]:
            assert proc.total_accounted() == proc.clock

    def test_trace_with_more_procs_than_machine_rejected(self, tiny_config,
                                                         small_machine):
        spec = make_simple_spec(pages=8, accesses=50, phases=1)
        trace = make_trace(spec, small_machine)   # 8 procs
        with pytest.raises(ValueError):
            run(trace, "ccnuma", tiny_config)      # tiny machine has 4


class TestDeterminism:
    def test_same_run_twice_is_identical(self, small_config, small_machine):
        spec = make_simple_spec(pages=24, accesses=300, phases=2)
        trace = make_trace(spec, small_machine)
        _, s1 = run(trace, "rnuma", small_config)
        _, s2 = run(trace, "rnuma", small_config)
        assert s1.execution_time == s2.execution_time
        assert s1.total_remote_misses == s2.total_remote_misses
        assert s1.total_relocations == s2.total_relocations
        assert s1.network_bytes == s2.network_bytes


class TestComparativeRelations:
    def test_perfect_never_slower_than_ccnuma(self, small_config, small_machine):
        spec = make_simple_spec(pages=48, accesses=600, phases=2)
        trace = make_trace(spec, small_machine)
        _, perfect = run(trace, "perfect", small_config)
        _, ccnuma = run(trace, "ccnuma", small_config)
        assert perfect.execution_time <= ccnuma.execution_time
        assert perfect.total_capacity_conflict_misses == 0
        assert ccnuma.total_capacity_conflict_misses > 0

    def test_rnuma_inf_reduces_capacity_misses(self, small_config, small_machine):
        spec = make_simple_spec(pages=48, accesses=800, phases=3)
        trace = make_trace(spec, small_machine)
        _, ccnuma = run(trace, "ccnuma", small_config)
        _, rnuma_inf = run(trace, "rnuma-inf", small_config)
        assert rnuma_inf.total_capacity_conflict_misses < \
            ccnuma.total_capacity_conflict_misses
        assert rnuma_inf.total_relocations > 0

    def test_rnuma_inf_never_evicts(self, small_config, small_machine):
        spec = make_simple_spec(pages=64, accesses=800, phases=3)
        trace = make_trace(spec, small_machine)
        _, rnuma_inf = run(trace, "rnuma-inf", small_config)
        assert rnuma_inf.total_page_cache_evictions == 0

    def test_finite_rnuma_evicts_under_pressure(self, tiny_config, tiny_machine):
        # tiny machine has an 8-frame page cache; use many more shared pages
        spec = make_simple_spec(pages=64, accesses=1500, phases=3,
                                write_fraction=0.3)
        trace = make_trace(spec, tiny_machine)
        _, rnuma = run(trace, "rnuma", tiny_config)
        _, rnuma_inf = run(trace, "rnuma-inf", tiny_config)
        assert rnuma.total_page_cache_evictions > 0
        assert rnuma_inf.total_relocations >= rnuma.total_relocations - \
            rnuma.total_page_cache_evictions
        # the infinite cache can only help
        assert rnuma_inf.total_capacity_conflict_misses <= \
            rnuma.total_capacity_conflict_misses + 1

    def test_ccnuma_and_migrep_identical_without_page_ops(self, small_config,
                                                          small_machine):
        """With thresholds never crossed, MigRep degenerates to CC-NUMA."""
        spec = make_simple_spec(pages=16, accesses=60, phases=1)
        trace = make_trace(spec, small_machine)
        _, ccnuma = run(trace, "ccnuma", small_config)
        _, migrep = run(trace, "migrep", small_config)
        if migrep.total_migrations == 0 and migrep.total_replications == 0:
            assert migrep.execution_time == ccnuma.execution_time
            assert migrep.total_remote_misses == ccnuma.total_remote_misses

    def test_half_page_cache_is_smaller(self, small_config):
        half = Machine(small_config, build_system("rnuma-half"))
        full = Machine(small_config, build_system("rnuma"))
        assert half.page_caches[0].capacity_pages < full.page_caches[0].capacity_pages

    def test_systems_without_page_cache_have_none(self, small_config):
        m = Machine(small_config, build_system("ccnuma"))
        assert all(pc is None for pc in m.page_caches)
        m2 = Machine(small_config, build_system("migrep"))
        assert all(pc is None for pc in m2.page_caches)

    def test_perfect_block_cache_is_infinite(self, small_config):
        m = Machine(small_config, build_system("perfect"))
        assert all(bc.is_infinite for bc in m.block_caches)

    def test_describe_strings(self, small_config):
        for name in SYSTEM_NAMES:
            machine = Machine(small_config, build_system(name))
            text = machine.describe()
            assert isinstance(text, str) and text


class TestMachineLifetime:
    """A finished run's machine and its protocol, and with them the
    stores, are freed by reference counting alone: nothing holds a
    strong reference back to the machine, so no cycle waits for the
    cyclic collector."""

    @pytest.mark.parametrize("engine", ["legacy", "batched", "kernel"])
    @pytest.mark.parametrize("system", list(SYSTEM_NAMES))
    def test_freed_without_the_cyclic_gc(self, system, engine, small_config,
                                         small_machine):
        spec = make_simple_spec(pages=24, accesses=300, phases=2,
                                write_fraction=0.3)
        trace = make_trace(spec, small_machine)
        enabled = gc.isenabled()
        gc.disable()
        try:
            machine = Machine(small_config, build_system(system))
            stats = machine.run(trace, engine=engine)
            assert stats.total_accesses == trace.total_accesses()
            refs = [weakref.ref(machine), weakref.ref(machine.protocol)]
            del machine
            assert [r() for r in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()


class TestFactory:
    def test_all_names_buildable(self):
        for name in SYSTEM_NAMES:
            spec = build_system(name)
            assert spec.name == name
            assert spec.label

    def test_case_insensitive_and_unknown(self):
        assert build_system("  RNUMA ").name == "rnuma"
        with pytest.raises(KeyError):
            build_system("numa-q")

    def test_page_cache_flags(self):
        assert build_system("perfect").infinite_block_cache
        assert not build_system("ccnuma").uses_page_cache
        assert build_system("rnuma").uses_page_cache
        assert build_system("rnuma-inf").infinite_page_cache
        assert build_system("rnuma-half").page_cache_fraction == 0.5
