"""Engine equivalence regression: every engine == legacy, bit for bit.

The batched engine (:mod:`repro.engine.batched`) and the compiled
residual kernel (:mod:`repro.engine.kernel`) must reproduce the
reference interpreter's statistics and execution times exactly — every
counter, stall category, clock, message count and cache statistic — for
every system the factory can build.  These tests run the same trace
through all engines on freshly built machines and compare deep
fingerprints of the results.  (Ineligible systems make the kernel fall
back to the batched engine for the whole run, so asserting
``kernel == legacy`` is meaningful for every system either way.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.machine import Machine
from repro.config import CostModel, SimulationConfig
from repro.core.factory import SYSTEM_NAMES, build_system
from repro.engine import ENGINE_NAMES, default_engine, resolve_engine
from repro.mem.block_cache import BlockCache
from repro.workloads.spec import SharingPattern
from repro.workloads.trace import PhaseTrace, Trace

import numpy as np

from helpers import make_simple_spec, make_trace, require_c_backend


NODE_FIELDS = (
    "accesses", "l1_hits", "upgrades", "local_misses", "block_cache_hits",
    "page_cache_hits", "remote_misses", "remote_cold",
    "remote_capacity_conflict", "remote_coherence", "migrations",
    "replications", "relocations", "page_cache_evictions",
    "replica_collapses", "mapping_faults",
)


def fingerprint(machine: Machine, stats) -> dict:
    """Deep fingerprint of a run: everything an experiment can observe."""
    return {
        "execution_time": stats.execution_time,
        "proc_finish_times": list(stats.proc_finish_times),
        "network_messages": stats.network_messages,
        "network_bytes": stats.network_bytes,
        "barrier_count": stats.barrier_count,
        "barriers": machine.timing.barriers,
        "stalls": {k.value: v for k, v in stats.stall_breakdown.items()},
        "messages": {k.value: v for k, v in stats.message_stats.counts.items()},
        "nodes": [{f: getattr(n, f) for f in NODE_FIELDS} for n in stats.nodes],
        "l1": [(p.cache.stats.hits, p.cache.stats.misses,
                p.cache.stats.evictions, p.cache.stats.invalidations)
               for p in machine.processors],
        "bc": [(n.block_cache.stats.hits, n.block_cache.stats.misses,
                n.block_cache.stats.evictions,
                n.block_cache.stats.invalidations) for n in machine.nodes],
        "bus": [(n.bus.next_free, n.bus.transactions, n.bus.busy_cycles,
                 n.bus.wait_cycles) for n in machine.nodes],
        "timing": [(pt.clock, {k.value: v for k, v in pt.stalls.items()})
                   for pt in machine.timing.processors],
        "directory": (machine.directory.num_tracked(),
                      machine.directory.invalidations_sent,
                      machine.directory.writebacks),
        **_page_op_state(machine),
    }


def _nonzero(seq) -> list:
    """``(index, value)`` of every non-zero entry of a flat store."""
    return [(i, v) for i, v in enumerate(seq) if v]


def _page_op_state(machine: Machine) -> dict:
    """Everything a page operation writes, compared over tracked pages and
    blocks and non-zero counters only: the kernel reserves whole pages
    ahead of its walk, so raw store lengths differ between engines."""
    protocol = machine.protocol
    directory = machine.directory
    vm = machine.vm
    out = {
        "fault_logs": [
            (sorted((k.value, v) for k, v in log.counts.items()),
             sorted((k.value, v) for k, v in log.cycles.items()))
            for log in machine.fault_logs],
        "page_tables": [
            ([(pg, pt._modes[pg], pt._writable[pg], pt._faults[pg],
               pt._remaps[pg])
              for pg, t in enumerate(pt._tracked) if t],
             pt.soft_faults, pt.protection_faults)
            for pt in machine.page_tables],
        "vm": ([(pg, rec.home, rec.first_toucher, rec.migrations,
                 rec.replicated, sorted(rec.replicas))
                for pg in sorted(vm.pages())
                for rec in (vm.record(pg),)],
               vm.first_touches, vm.migrations, vm.replications,
               vm.replica_collapses),
        "directory_rows": [
            (b, directory._sharers[b], directory._owner[b],
             directory._version[b]) for b in directory.tracked_blocks()],
        "departed": [_nonzero(dep) for dep in directory._departed],
        "block_frames": [
            [(i, b, bc._versions[i], bool(bc._dirty[i]))
             for i, b in enumerate(bc._blocks) if b >= 0]
            for bc in machine.block_caches],
    }
    lines = []
    for proc in machine.processors:
        cache = proc.cache
        if hasattr(cache, "line_state"):
            blocks, versions, dirty = cache.line_state()
            lines.append([(i, b, versions[i], bool(dirty[i]))
                          for i, b in enumerate(blocks) if b >= 0])
        else:
            lines.append(sorted(cache.resident_blocks()))
    out["l1_lines"] = lines
    caches = []
    for pc in machine.page_caches:
        if pc is None:
            caches.append(None)
            continue
        bpp = pc.blocks_per_page
        resident = [pg for pg, r in enumerate(pc._resident) if r]
        caches.append((
            [(pg, pc._stamp[pg], pc._nvalid[pg], pc._ndirty[pg],
              pc._fills[pg],
              [(b, pc._version[b], pc._dirty[b])
               for b in range(pg * bpp, (pg + 1) * bpp)
               if pc._version[b] >= 0])
             for pg in resident],
            pc.occupancy(), pc._clock[0],
            (pc.stats.allocations, pc.stats.evictions, pc.stats.block_hits,
             pc.stats.block_misses, pc.stats.block_fills,
             pc.stats.block_invalidations)))
    out["page_caches"] = caches
    engines = []
    for attr in ("engine", "migration_engine"):
        eng = getattr(protocol, attr, None)
        if eng is not None:
            engines.append({k: list(v) for k, v in vars(eng).items()
                            if k.endswith("_by_node")})
    out["engines"] = engines
    counters = []
    for attr in ("counters", "migrep_counters"):
        c = getattr(protocol, attr, None)
        if c is not None:
            nn = c.num_nodes
            rows = []
            for pg in range(c._cap):
                base = pg * nn
                row = (tuple(c._read[base:base + nn]),
                       tuple(c._write[base:base + nn]), c._since[pg],
                       c._live_r[pg], c._live_w[pg])
                if any(row[2:]) or any(row[0]) or any(row[1]):
                    rows.append((pg, row))
            counters.append((rows, c.resets))
    out["migrep_counters"] = counters
    refetch = getattr(protocol, "refetch_counters", None)
    if refetch is not None:
        out["refetch"] = [(_nonzero(rc._counts), rc.total_recorded)
                          for rc in refetch]
        out["page_miss_totals"] = _nonzero(protocol._page_miss_totals)
    return out


def run_both(cfg: SimulationConfig, system: str, trace: Trace):
    """Run ``trace`` under every engine on fresh machines; return fingerprints."""
    out = {}
    for engine in ENGINE_NAMES:
        machine = Machine(cfg, build_system(system))
        stats = machine.run(trace, engine=engine)
        out[engine] = fingerprint(machine, stats)
    return out


def assert_equivalent(cfg: SimulationConfig, system: str, trace: Trace) -> None:
    fps = run_both(cfg, system, trace)
    for engine in ENGINE_NAMES:
        assert fps[engine] == fps["legacy"], (
            f"engine {engine!r} mismatch for system {system!r}")


class TestEverySystem:
    """Batched == legacy for every buildable system."""

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_read_write_shared(self, system, tiny_config, tiny_machine):
        spec = make_simple_spec(pattern=SharingPattern.READ_WRITE_SHARED,
                                accesses=300, write_fraction=0.3)
        trace = make_trace(spec, tiny_machine, seed=3)
        assert_equivalent(tiny_config, system, trace)

    @pytest.mark.parametrize("system",
                             ["ccnuma", "migrep", "rnuma", "scoma",
                              "rnuma-half-migrep"])
    def test_page_op_churn(self, system, small_config, small_machine):
        """Patterns that trigger migrations/replications/relocations.

        Page operations flush L1 lines from outside the reference stream —
        the one hazard the batched engine's fast path must detect and
        demote around — so this exercises the shootdown watch.
        """
        spec = make_simple_spec(pattern=SharingPattern.MIGRATORY,
                                accesses=400, write_fraction=0.3,
                                shift=1, phases=3)
        trace = make_trace(spec, small_machine, seed=5)
        assert_equivalent(small_config, system, trace)

    @pytest.mark.parametrize("system", ["rep", "migrep", "rnuma"])
    def test_read_shared(self, system, small_config, small_machine):
        spec = make_simple_spec(pattern=SharingPattern.READ_SHARED,
                                accesses=400, write_fraction=0.05)
        trace = make_trace(spec, small_machine, seed=7)
        assert_equivalent(small_config, system, trace)

    def test_streaming_low_reuse(self, small_config, small_machine):
        spec = make_simple_spec(pattern=SharingPattern.STREAMING,
                                pages=32, accesses=400, touches_per_page=4)
        trace = make_trace(spec, small_machine, seed=9)
        for system in ("rnuma", "scoma", "migrep"):
            assert_equivalent(small_config, system, trace)

    def test_no_contention_model(self, tiny_machine, fast_thresholds):
        cfg = SimulationConfig(machine=tiny_machine, costs=CostModel(),
                               thresholds=fast_thresholds,
                               model_contention=False)
        spec = make_simple_spec(accesses=300, write_fraction=0.25)
        trace = make_trace(spec, tiny_machine, seed=11)
        for system in ("ccnuma", "rnuma"):
            assert_equivalent(cfg, system, trace)


def _random_trace_config() -> SimulationConfig:
    from repro.config import MachineConfig, ThresholdConfig
    return SimulationConfig(
        machine=MachineConfig(num_nodes=2, procs_per_node=2, block_size=64,
                              page_size=512, l1_size=1024, l1_assoc=1,
                              block_cache_size=2048, page_cache_size=8 * 512),
        costs=CostModel(),
        thresholds=ThresholdConfig(migrep_threshold=16,
                                   migrep_reset_interval=4000,
                                   rnuma_threshold=16,
                                   hybrid_relocation_delay=0, scale=1.0),
        seed=1)


#: the stream-length shapes a random phase draws on purpose
PHASE_SHAPES = ("random", "empty", "single", "skewed")


def draw_phases(data, num_procs: int, num_blocks: int, max_phases: int,
                max_len: int) -> list:
    """Draw 1..``max_phases`` phases, each of a deliberately drawn shape.

    A phase's streams get random lengths up to ``max_len``, are all
    empty, leave one stream non-empty, or make one stream much longer
    than the rest.  A later phase sometimes draws its blocks from a
    fresh range, page-aligned past every earlier one, so it touches new
    pages.
    """
    phases = []
    base = 0
    for pi in range(data.draw(st.integers(1, max_phases))):
        shape = data.draw(st.sampled_from(PHASE_SHAPES))
        lengths = [0] * num_procs
        if shape == "random":
            lengths = [data.draw(st.integers(0, max_len))
                       for _ in range(num_procs)]
        elif shape == "single":
            lengths[data.draw(st.integers(0, num_procs - 1))] = (
                data.draw(st.integers(1, max_len)))
        elif shape == "skewed":
            lengths = [data.draw(st.integers(0, 2))
                       for _ in range(num_procs)]
            lengths[data.draw(st.integers(0, num_procs - 1))] = (
                data.draw(st.integers(max_len, 2 * max_len)))
        if pi and data.draw(st.booleans()):
            base = 1024 * pi
        blocks, writes = [], []
        for n in lengths:
            blocks.append(np.array(
                data.draw(st.lists(st.integers(base, base + num_blocks - 1),
                                   min_size=n, max_size=n)),
                dtype=np.int64))
            writes.append(np.array(
                data.draw(st.lists(st.integers(0, 1),
                                   min_size=n, max_size=n)),
                dtype=np.int8))
        phases.append(PhaseTrace(name=f"ph{pi}", compute_per_access=2,
                                 blocks=blocks, writes=writes))
    return phases


class TestRandomTraces:
    """Property: equivalence holds on adversarial random traces."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_random_streams(self, data):
        tiny_config = _random_trace_config()
        num_procs = 4
        num_blocks = data.draw(st.integers(8, 96))
        phases = draw_phases(data, num_procs, num_blocks, max_phases=3,
                             max_len=60)
        trace = Trace(name="random", num_procs=num_procs, phases=phases)
        system = data.draw(st.sampled_from(
            ["ccnuma", "perfect", "migrep", "rnuma", "scoma"]))
        assert_equivalent(tiny_config, system, trace)


def _run_streams(num_procs, streams):
    """Build a one-phase trace from per-proc (blocks, writes) tuples."""
    blocks = [np.asarray(b, dtype=np.int64) for b, _ in streams]
    writes = [np.asarray(w, dtype=np.int8) for _, w in streams]
    phase = PhaseTrace(name="adv", compute_per_access=2,
                       blocks=blocks, writes=writes)
    return Trace(name="adversarial", num_procs=num_procs, phases=[phase])


class TestDemotionAdversarial:
    """Equivalence under traces built to stress shootdown demotion.

    Each trace forces a specific hazard sequence — miss fill followed by
    a long same-block read run, a conflicting-set access cutting the
    run, foreign writes landing inside it, owned-write runs, and
    page-operation shootdowns mid-run that demote pre-classified hits —
    and must produce bit-identical results on every engine, for every
    system.
    """

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_runs_with_conflicts_and_writes(self, system, tiny_config):
        # proc0: miss on 3, long read run of 3, conflict (same set: 3+16),
        # return to 3, owned-write run on 5; proc1 writes 3 mid-run;
        # procs 2/3 mine remote pages to trigger page operations
        p0 = ([3, 3, 3, 3, 19, 3, 3, 5, 5, 5, 5, 3, 3],
              [1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0])
        p1 = ([40, 40, 3, 40, 40, 40, 3, 3, 3, 41, 41, 41, 41],
              [0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0])
        p2 = ([64, 64, 64, 64, 65, 65, 65, 65, 64, 64, 64, 64, 65],
              [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0])
        p3 = ([80, 80, 80, 81, 81, 81, 80, 80, 80, 81, 81, 81, 80],
              [0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1])
        trace = _run_streams(4, [p0, p1, p2, p3])
        assert_equivalent(tiny_config, system, trace)

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_shootdown_mid_run(self, system, small_config, small_machine):
        """Page-op churn demotes pre-classified runs without changing a
        single counter (systems without page operations run the same
        trace undemoted)."""
        spec = make_simple_spec(pattern=SharingPattern.MIGRATORY,
                                accesses=400, write_fraction=0.25,
                                shift=1, phases=3)
        trace = make_trace(spec, small_machine, seed=13)
        assert_equivalent(small_config, system, trace)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_run_traces(self, data):
        """Random traces with same-block run structure (long provable
        hit runs for page operations to cut) across the core systems."""
        tiny_config = _random_trace_config()
        num_procs = 4
        num_blocks = data.draw(st.integers(8, 48))
        phases = []
        for pi in range(data.draw(st.integers(1, 2))):
            blocks, writes = [], []
            for p in range(num_procs):
                picks = data.draw(st.integers(0, 12))
                stream = []
                for _ in range(picks):
                    b = data.draw(st.integers(0, num_blocks - 1))
                    stream.extend([b] * data.draw(st.integers(1, 6)))
                n = len(stream)
                blocks.append(np.array(stream, dtype=np.int64))
                writes.append(np.array(
                    data.draw(st.lists(st.integers(0, 1),
                                       min_size=n, max_size=n)),
                    dtype=np.int8))
            phases.append(PhaseTrace(name=f"ph{pi}", compute_per_access=2,
                                     blocks=blocks, writes=writes))
        trace = Trace(name="random-runs", num_procs=num_procs, phases=phases)
        system = data.draw(st.sampled_from(
            ["ccnuma", "perfect", "migrep", "rnuma", "scoma"]))
        assert_equivalent(tiny_config, system, trace)


#: ``engine_profile`` keys per engine (a kernel fallback run is batched's,
#: plus ``requested_engine`` and ``fallback_reason``)
PROFILE_KEYS = {
    "batched": {"engine", "references", "fast", "demoted", "residual",
                "phases", "wall_s"},
    "kernel": {"engine", "backend", "references", "fast", "demoted",
               "residual", "phases", "bails", "bail_kinds", "wall_s",
               "walk_s"},
}


class TestDemotionProfile:
    """The reference counts both engines report in ``engine_profile``.

    ``references``, ``fast``, ``residual`` and ``demoted`` are what the
    per-layer benchmark tracing reads.  On ``batched`` the static
    classification resolves the fast references ahead of the walk, and
    only page operations (which flush L1 lines outside the reference
    stream) demote them.  The kernel walks every reference, so on it
    every reference is residual and none is fast or demoted.
    """

    @pytest.fixture
    def churn_trace(self, small_machine):
        spec = make_simple_spec(pattern=SharingPattern.MIGRATORY,
                                accesses=400, write_fraction=0.25,
                                shift=1, phases=3)
        return make_trace(spec, small_machine, seed=13)

    @pytest.fixture
    def c_backend(self, monkeypatch):
        require_c_backend()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")

    @staticmethod
    def _run(cfg, system, trace, engine):
        machine = Machine(cfg, build_system(system))
        return machine.run(trace, engine=engine)

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_engines_report_the_same_counts(self, system, small_config,
                                            churn_trace, c_backend):
        batched = self._run(small_config, system, churn_trace,
                            "batched").engine_profile
        kernel = self._run(small_config, system, churn_trace,
                           "kernel").engine_profile
        assert kernel["engine"] == "kernel"
        assert kernel["references"] == batched["references"]
        assert batched["references"] == churn_trace.total_accesses()
        assert batched["fast"] + batched["residual"] == batched["references"]
        assert 0 <= batched["demoted"] <= batched["residual"]
        assert kernel["fast"] == kernel["demoted"] == 0
        assert kernel["residual"] == kernel["references"]

    @pytest.mark.parametrize("engine", ["batched"])
    @pytest.mark.parametrize("system", ["mig", "migrep", "rnuma-migrep",
                                        "rnuma-half-migrep"])
    def test_migrations_demote_fast_references(self, system, engine,
                                               small_config, churn_trace,
                                               c_backend):
        stats = self._run(small_config, system, churn_trace, engine)
        assert stats.engine_profile["engine"] == engine
        assert sum(n.migrations for n in stats.nodes) > 0
        assert stats.engine_profile["demoted"] > 0

    @pytest.mark.parametrize("engine", ["batched", "kernel"])
    @pytest.mark.parametrize("system", ["perfect", "ccnuma"])
    def test_no_page_operations_no_demotion(self, system, engine,
                                            small_config, churn_trace,
                                            c_backend):
        stats = self._run(small_config, system, churn_trace, engine)
        assert stats.engine_profile["engine"] == engine
        assert not any(n.migrations or n.replications or n.relocations
                       for n in stats.nodes)
        assert stats.engine_profile["demoted"] == 0

    @pytest.mark.parametrize("engine", ["batched", "kernel"])
    def test_profile_keys(self, engine, small_config, churn_trace,
                          c_backend):
        prof = self._run(small_config, "migrep", churn_trace,
                         engine).engine_profile
        assert set(prof) == PROFILE_KEYS[engine]


class TestResidualSchedule:
    """Unit tests for the pending-schedule mask structure."""

    def _classify(self, streams, num_lines=4):
        from repro.engine.classify import classify_phase
        from repro.mem.cache import DirectMappedCache

        blocks = [np.asarray(b, dtype=np.int64) for b, _ in streams]
        writes = [np.asarray(w, dtype=bool) for _, w in streams]
        caches = [DirectMappedCache(num_lines) for _ in streams]
        return classify_phase(blocks, writes, caches, lambda b: 0)

    def test_entries_in_interleave_order_with_slots(self):
        cls, sched = self._classify([([1, 1, 2], [1, 0, 0]),
                                     ([3, 3, 3], [0, 0, 1])])
        assert len(sched.entries) > 0
        assert sched.keys == sorted(sched.keys)
        for i, p, probe, blk, wrt, slot in sched.entries:
            assert sched.slot_of[p][i] == slot

    def test_first_touch_prepromoted_when_resident_fresh(self):
        from repro.engine.classify import CLS_FAST, classify_phase
        from repro.mem.cache import DirectMappedCache

        cache = DirectMappedCache(4)
        cache.fill(1, version=0)
        cls, sched = classify_phase([np.asarray([1, 1], dtype=np.int64)],
                                    [np.asarray([0, 0], dtype=bool)],
                                    [cache], lambda b: 0)
        # the first touch is a residual slot, marked fast in the mask
        assert cls[0][0] == CLS_FAST
        slot = int(sched.slot_of[0][0])
        assert slot >= 0 and sched.status[0][slot] == 1

    def test_stale_first_touch_stays_residual(self):
        from repro.engine.classify import CLS_PROBE, classify_phase
        from repro.mem.cache import DirectMappedCache

        cache = DirectMappedCache(4)
        cache.fill(1, version=0)
        # the directory has moved on to version 1: the resident copy is
        # stale, so the first touch must take the exact probe
        cls, sched = classify_phase([np.asarray([1, 1], dtype=np.int64)],
                                    [np.asarray([0, 0], dtype=bool)],
                                    [cache], lambda b: 1)
        assert cls[0][0] == CLS_PROBE
        assert sched.status[0][int(sched.slot_of[0][0])] == 0

    def test_first_touch_after_phase_write_stays_residual(self):
        from repro.engine.classify import CLS_PROBE, classify_phase
        from repro.mem.cache import DirectMappedCache

        caches = [DirectMappedCache(4), DirectMappedCache(4)]
        caches[0].fill(1, version=0)
        # interleave: p0 reads 2, p1 writes 1, p0 first-touches 1 —
        # fresh in p0's cache now, but not once p1's write has run
        cls, sched = classify_phase(
            [np.asarray([2, 1], dtype=np.int64),
             np.asarray([1], dtype=np.int64)],
            [np.asarray([0, 0], dtype=bool), np.asarray([1], dtype=bool)],
            caches, lambda b: 0)
        assert cls[0][1] == CLS_PROBE
        assert sched.status[0][int(sched.slot_of[0][1])] == 0

    def test_repeat_reads_are_fast_and_slotless(self):
        from repro.engine.classify import CLS_FAST, CLS_PROBE

        cls, sched = self._classify([([1, 1, 1], [0, 0, 0])])
        assert cls[0].tolist() == [CLS_PROBE, CLS_FAST, CLS_FAST]
        assert sched.slot_of[0].tolist() == [0, -1, -1]
        assert len(sched.entries) == 1

    def test_conflicting_block_is_a_miss(self):
        from repro.engine.classify import CLS_MISS, CLS_PROBE

        # blocks 1 and 5 share line 1 of a 4-line cache: each return
        # provably finds the other block there
        cls, _ = self._classify([([1, 5, 1], [0, 0, 0])])
        assert cls[0].tolist() == [CLS_PROBE, CLS_MISS, CLS_MISS]

    def test_foreign_write_between_reads_makes_a_probe(self):
        from repro.engine.classify import CLS_FAST, CLS_PROBE

        # interleave positions: p0 reads 1 at 0, 2 and 4; p1 writes 1 at 3
        cls, _ = self._classify([([1, 1, 1], [0, 0, 0]),
                                 ([2, 1], [0, 1])])
        assert cls[0].tolist() == [CLS_PROBE, CLS_FAST, CLS_PROBE]

    def test_writes_are_never_fast(self):
        from repro.engine.classify import CLS_FAST

        streams = [([1, 1, 1, 2, 2, 1], [0, 1, 1, 0, 1, 1]),
                   ([3, 3, 3, 3], [1, 1, 0, 1])]
        cls, _ = self._classify(streams)
        for (_, writes), c in zip(streams, cls):
            for w, code in zip(writes, c.tolist()):
                if w:
                    assert code != CLS_FAST

    def test_slots_number_each_procs_residual_references(self):
        from repro.engine.classify import CLS_FAST

        streams = [([1, 1, 5, 1, 2, 2], [0, 0, 0, 1, 0, 0]),
                   ([3, 3, 7, 3], [1, 0, 0, 0])]
        cls, sched = self._classify(streams)
        for p, slots in enumerate(sched.slot_of):
            residual = [int(s) for s in slots if s >= 0]
            assert residual == list(range(len(sched.status[p])))
            for s, code in zip(slots.tolist(), cls[p].tolist()):
                if s < 0:
                    assert code == CLS_FAST
            assert sum(1 for e in sched.entries if e[1] == p) == len(residual)

    def test_status_mask_is_fresh_per_run(self):
        from repro.engine.classify import CLS_FAST, CLS_PROBE, classify_phase
        from repro.mem.cache import DirectMappedCache

        phase = PhaseTrace(name="s", compute_per_access=1,
                           blocks=[np.asarray([1, 1], dtype=np.int64)],
                           writes=[np.asarray([0, 0], dtype=bool)])
        warm = DirectMappedCache(4)
        warm.fill(1, version=0)
        cls, sched = classify_phase(phase.blocks, phase.writes, [warm],
                                    lambda b: 0, phase=phase)
        assert cls[0][0] == CLS_FAST and sched.status[0][0] == 1
        # the next run reuses the cached static schedule on a cold cache:
        # the first run's live-state marks must not carry over
        cls, sched = classify_phase(phase.blocks, phase.writes,
                                    [DirectMappedCache(4)], lambda b: 0,
                                    phase=phase)
        assert cls[0][0] == CLS_PROBE and sched.status[0][0] == 0

    def test_empty_phase_has_empty_schedule(self):
        cls, sched = self._classify([([], []), ([], [])])
        assert [len(c) for c in cls] == [0, 0]
        assert sched.entries == [] and sched.keys == []
        assert [len(s) for s in sched.status] == [0, 0]

    def test_static_schedule_cached_on_phase(self):
        from repro.engine import classify as C
        from repro.mem.cache import DirectMappedCache

        phase = PhaseTrace(name="c", compute_per_access=1,
                           blocks=[np.asarray([1, 2, 1], dtype=np.int64)],
                           writes=[np.asarray([0, 0, 0], dtype=bool)])
        caches = [DirectMappedCache(4)]
        calls = []
        orig = C._build_static

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        C._build_static = counting
        try:
            for _ in range(3):
                C.classify_phase(phase.blocks, phase.writes, caches,
                                 lambda b: 0, phase=phase)
        finally:
            C._build_static = orig
        assert len(calls) == 1
        assert "_classify_static" in phase.__dict__


class TestKernelEngine:
    """engine=kernel: C-walk bit-identity, fallback and profile."""

    def _trace(self, small_machine):
        spec = make_simple_spec(pattern=SharingPattern.MIGRATORY,
                                accesses=400, write_fraction=0.3,
                                shift=1, phases=3)
        return make_trace(spec, small_machine, seed=5)

    @pytest.mark.parametrize("system", ["ccnuma", "migrep"])
    def test_backend_bit_identical(self, system, small_config,
                                   small_machine, monkeypatch):
        """The C walk reproduces legacy exactly — including the
        page-op-churn shape that exercises the bail path."""
        require_c_backend()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        trace = self._trace(small_machine)
        ref_machine = Machine(small_config, build_system(system))
        ref = fingerprint(ref_machine, ref_machine.run(trace, engine="legacy"))
        machine = Machine(small_config, build_system(system))
        stats = machine.run(trace, engine="kernel")
        prof = stats.engine_profile
        assert prof["engine"] == "kernel"
        assert prof["backend"] == "c"
        assert prof["bails"] == sum(prof["bail_kinds"].values())
        assert fingerprint(machine, stats) == ref

    def test_env_disable_falls_back(self, small_config, small_machine,
                                    monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "none")
        trace = self._trace(small_machine)
        machine = Machine(small_config, build_system("migrep"))
        stats = machine.run(trace, engine="kernel")
        prof = stats.engine_profile
        assert prof["engine"] == "batched"
        assert prof["requested_engine"] == "kernel"
        assert "disabled" in prof["fallback_reason"]
        ref_machine = Machine(small_config, build_system("migrep"))
        ref = fingerprint(ref_machine,
                          ref_machine.run(trace, engine="batched"))
        assert fingerprint(machine, stats) == ref

    @pytest.mark.parametrize("value", ["turbo", "interp", "numba"])
    def test_unknown_backend_falls_back_with_reason(
            self, value, small_config, small_machine, monkeypatch):
        """The C walk is the only backend: the retired ``interp`` and
        ``numba`` names are as unknown as any other."""
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", value)
        trace = self._trace(small_machine)
        machine = Machine(small_config, build_system("ccnuma"))
        stats = machine.run(trace, engine="kernel")
        prof = stats.engine_profile
        assert prof["engine"] == "batched"
        assert prof["requested_engine"] == "kernel"
        assert prof["fallback_reason"] == (
            f"unknown REPRO_KERNEL_BACKEND={value!r}")

    def test_infinite_block_cache_runs_on_kernel(self, small_config,
                                                 small_machine, monkeypatch):
        """perfect's infinite block cache rides the CC-NUMA lane (its
        frames are indexed by block id), bit-identical to batched."""
        require_c_backend()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        trace = self._trace(small_machine)
        ref_machine = Machine(small_config, build_system("perfect"))
        ref = fingerprint(ref_machine,
                          ref_machine.run(trace, engine="batched"))
        machine = Machine(small_config, build_system("perfect"))
        stats = machine.run(trace, engine="kernel")
        prof = stats.engine_profile
        assert prof["engine"] == "kernel"
        assert "fallback_reason" not in prof
        assert fingerprint(machine, stats) == ref

    def test_page_cache_system_runs_on_kernel(self, small_config,
                                              small_machine, monkeypatch):
        """rnuma no longer trips a blanket page-cache disqualifier: it
        runs compiled, bit-identical to batched."""
        require_c_backend()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        trace = self._trace(small_machine)
        ref_machine = Machine(small_config, build_system("rnuma"))
        ref = fingerprint(ref_machine,
                          ref_machine.run(trace, engine="batched"))
        machine = Machine(small_config, build_system("rnuma"))
        stats = machine.run(trace, engine="kernel")
        prof = stats.engine_profile
        assert prof["engine"] == "kernel"
        assert fingerprint(machine, stats) == ref

    def test_adaptive_policy_runs_on_kernel(self, small_config,
                                            small_machine, monkeypatch):
        """Adaptive policies are evaluated inside the compiled walk."""
        require_c_backend()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        trace = self._trace(small_machine)
        spec = build_system("migrep").derive("migrep-competitive",
                                             migrep_policy="competitive")
        ref_machine = Machine(small_config, spec)
        ref = fingerprint(ref_machine,
                          ref_machine.run(trace, engine="batched"))
        machine = Machine(small_config, spec)
        stats = machine.run(trace, engine="kernel")
        prof = stats.engine_profile
        assert prof["engine"] == "kernel"
        assert fingerprint(machine, stats) == ref

    def test_eligibility_reports_all_reasons(self, small_config,
                                             small_machine):
        """Every failing condition is reported, not just the first."""
        from repro.core.ccnuma import CCNUMAProtocol
        from repro.engine.kernel import kernel_eligibility

        trace = self._trace(small_machine)

        class TweakedCCNUMA(CCNUMAProtocol):
            def handle_miss(self, *args):  # pragma: no cover - never run
                return super().handle_miss(*args)

        machine = Machine(small_config, build_system("ccnuma"))
        machine.protocol.__class__ = TweakedCCNUMA
        machine.block_caches[1] = BlockCache(7)
        reason = kernel_eligibility(machine, trace)
        assert "heterogeneous block-cache capacity" in reason
        assert "overrides base machinery" in reason
        assert "unsupported protocol TweakedCCNUMA" in reason
        assert reason.count(";") >= 2

    @pytest.mark.parametrize("system", ["migrep", "rnuma"])
    def test_tracer_call_shapes_stay_on_kernel(self, system, small_config,
                                               small_machine, monkeypatch):
        """A tracer wrapping the walk from outside keeps it compiled: a
        zero-argument loader, a binder taking one positional argument,
        and a plain-function runner made with ``functools.wraps``.  The
        walk is bound once per run and entered once plus once per bail,
        however many phases the trace has."""
        import functools

        from repro.engine.kernel import cbuild

        require_c_backend()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        load = cbuild.load_cwalk
        calls = {"bind": 0, "run": 0}

        @functools.wraps(load)
        def loader():
            bind = load()
            if bind is None:
                return None

            def traced_bind(args):
                calls["bind"] += 1
                runner = bind(args)

                @functools.wraps(runner)
                def traced_runner(*a, **kw):
                    calls["run"] += 1
                    return runner(*a, **kw)
                return traced_runner
            return traced_bind

        monkeypatch.setattr(cbuild, "load_cwalk", loader)
        trace = self._trace(small_machine)
        ref_machine = Machine(small_config, build_system(system))
        ref = fingerprint(ref_machine, ref_machine.run(trace, engine="legacy"))
        machine = Machine(small_config, build_system(system))
        stats = machine.run(trace, engine="kernel")
        prof = stats.engine_profile
        assert prof["engine"] == "kernel"
        assert "fallback_reason" not in prof
        assert {"references", "fast", "residual", "demoted"} <= set(prof)
        assert len(trace.phases) > 1
        assert calls["bind"] == 1
        assert calls["run"] == 1 + prof["bails"]
        assert 0 <= prof["walk_s"] <= prof["wall_s"]
        assert fingerprint(machine, stats) == ref

    def test_backend_crash_falls_back_bit_identical(
            self, small_config, small_machine, monkeypatch):
        """An exception escaping the compiled walk (marshalling bug,
        broken C build) re-runs batched from a pristine machine with the
        crash surfaced as the fallback reason."""
        from repro.engine.kernel import cbuild

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        trace = self._trace(small_machine)

        def bind(args):
            def runner():
                raise ValueError("synthetic backend crash")
            return runner

        monkeypatch.setattr(cbuild, "load_cwalk", lambda: bind)
        machine = Machine(small_config, build_system("migrep"))
        stats = machine.run(trace, engine="kernel")
        prof = stats.engine_profile
        assert prof["engine"] == "batched"
        assert prof["requested_engine"] == "kernel"
        assert "kernel backend 'c' crashed" in prof["fallback_reason"]
        assert "synthetic backend crash" in prof["fallback_reason"]
        ref_machine = Machine(small_config, build_system("migrep"))
        ref = ref_machine.run(trace, engine="batched")
        # the fallback re-ran on a pristine machine: every stats-level
        # observable matches a clean batched run exactly
        assert stats.execution_time == ref.execution_time
        assert list(stats.proc_finish_times) == list(ref.proc_finish_times)
        assert stats.network_messages == ref.network_messages
        assert stats.network_bytes == ref.network_bytes
        assert stats.stall_breakdown == ref.stall_breakdown
        assert machine.stats.execution_time == ref.execution_time


class TestEngineSelection:
    def test_engine_names(self):
        assert set(ENGINE_NAMES) == {"batched", "kernel", "legacy"}
        assert default_engine() in ENGINE_NAMES

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("turbo")

    def test_env_var_selects_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "legacy")
        assert default_engine() == "legacy"
        monkeypatch.setenv("REPRO_ENGINE", "nonsense")
        assert default_engine() == "kernel"
        monkeypatch.delenv("REPRO_ENGINE")
        assert default_engine() == "kernel"

    @pytest.mark.parametrize("value, engine",
                             [("kernel", "kernel"), ("batched", "batched"),
                              (" Batched\n", "batched"),
                              ("LEGACY", "legacy"), ("", "kernel")])
    def test_env_value_is_normalised(self, value, engine, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", value)
        assert default_engine() == engine

    def test_resolve_engine_default_is_kernel(self, monkeypatch):
        from repro.engine import run_batched, run_kernel

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine() is run_kernel
        assert resolve_engine("batched") is run_batched
        monkeypatch.setenv("REPRO_ENGINE", "batched")
        assert resolve_engine() is run_batched

    def test_default_engine_falls_back_without_compiler(
            self, small_config, small_machine, monkeypatch):
        """With no C build the default (kernel) run falls back to
        batched for the whole run, names why, and matches legacy."""
        from repro.engine.kernel import cbuild

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        monkeypatch.setattr(cbuild, "load_cwalk", lambda: None)
        spec = make_simple_spec(pattern=SharingPattern.MIGRATORY,
                                accesses=400, write_fraction=0.3,
                                shift=1, phases=3)
        trace = make_trace(spec, small_machine, seed=5)
        machine = Machine(small_config, build_system("migrep"))
        stats = machine.run(trace)
        prof = stats.engine_profile
        assert prof["engine"] == "batched"
        assert prof["requested_engine"] == "kernel"
        assert "no working compiler" in prof["fallback_reason"]
        ref_machine = Machine(small_config, build_system("migrep"))
        ref = ref_machine.run(trace, engine="legacy")
        assert fingerprint(machine, stats) == fingerprint(ref_machine, ref)

    def test_machine_run_accepts_engine(self, tiny_config, tiny_machine):
        spec = make_simple_spec(accesses=50)
        trace = make_trace(spec, tiny_machine)
        machine = Machine(tiny_config, build_system("ccnuma"))
        stats = machine.run(trace, engine="legacy")
        assert stats.total_accesses == trace.total_accesses()


class TestEngineRunGuard:
    """``engine_run_guard``: shootdown hooks and GC pause for one run."""

    @staticmethod
    def _caches(n=2, lines=4):
        from repro.mem.cache import DirectMappedCache
        return [DirectMappedCache(lines) for _ in range(n)]

    def test_hooks_record_dropped_and_filled_sets(self):
        from repro.engine._guard import engine_run_guard

        caches = self._caches()
        caches[0].fill(5, version=0)
        events = {}
        with engine_run_guard(caches, events):
            caches[0].invalidate(5)           # drop: set 1
            caches[0].fill(6, version=0)      # fill: set 2
            caches[0].invalidate(7)           # absent: no event
            caches[1].fill(9, version=0)      # set 1 of cache 1
        assert events == {0: {1, 2}, 1: {1}}

    def test_whole_cache_drop_covers_every_set(self):
        from repro.engine._guard import engine_run_guard

        caches = self._caches()
        events = {}
        with engine_run_guard(caches, events):
            caches[1].fill(3, version=0)
            caches[1].clear()
            caches[1].fill(2, version=0)
        assert events == {1: True}

    def test_hooks_and_gc_restored_after_an_exception(self):
        import gc

        from repro.engine._guard import engine_run_guard

        caches = self._caches()
        mine = [lambda b: None for _ in caches]
        for c, hook in zip(caches, mine):
            c.watch = hook
            c.fill_watch = hook
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="mid-run"):
            with engine_run_guard(caches, {}):
                assert not gc.isenabled()
                assert caches[0].watch is not mine[0]
                raise RuntimeError("mid-run")
        assert gc.isenabled()
        for c, hook in zip(caches, mine):
            assert c.watch is hook and c.fill_watch is hook

    def test_gc_left_disabled_if_it_was(self):
        import gc

        from repro.engine._guard import engine_run_guard

        gc.disable()
        try:
            with engine_run_guard(self._caches(), {}):
                pass
            assert not gc.isenabled()
        finally:
            gc.enable()
