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
    }


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


class TestRandomTraces:
    """Property: equivalence holds on adversarial random traces."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_random_streams(self, data):
        tiny_config = _random_trace_config()
        num_procs = 4
        num_blocks = data.draw(st.integers(8, 96))
        phases = []
        for pi in range(data.draw(st.integers(1, 3))):
            blocks, writes = [], []
            for p in range(num_procs):
                n = data.draw(st.integers(0, 60))
                blocks.append(np.array(
                    data.draw(st.lists(st.integers(0, num_blocks - 1),
                                       min_size=n, max_size=n)),
                    dtype=np.int64))
                writes.append(np.array(
                    data.draw(st.lists(st.integers(0, 1),
                                       min_size=n, max_size=n)),
                    dtype=np.int8))
            phases.append(PhaseTrace(name=f"ph{pi}", compute_per_access=2,
                                     blocks=blocks, writes=writes))
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


class TestPromotionAdversarial:
    """Equivalence under traces built to stress the promotion lane.

    Each trace forces a specific hazard sequence — miss fill followed by
    a long same-block read run, a conflicting-set access cutting the
    run, foreign writes landing inside it, owned-write runs, and
    page-operation shootdowns mid-run — and must produce bit-identical
    results with promotion enabled and disabled, for every system.
    """

    @pytest.fixture(autouse=True,
                    params=["adaptive", "promotion", "no-promotion"])
    def _promotion_mode(self, request, monkeypatch):
        if request.param == "promotion":
            monkeypatch.setenv("REPRO_PROMOTION", "1")
        elif request.param == "no-promotion":
            monkeypatch.setenv("REPRO_PROMOTION", "0")
        else:
            monkeypatch.delenv("REPRO_PROMOTION", raising=False)

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

    @pytest.mark.parametrize("system",
                             ["ccnuma", "migrep", "rnuma", "scoma",
                              "rnuma-half-migrep"])
    def test_shootdown_mid_run(self, system, small_config, small_machine):
        """Page-op churn demotes pre-classified runs; promotion must
        recover them without changing a single counter."""
        spec = make_simple_spec(pattern=SharingPattern.MIGRATORY,
                                accesses=400, write_fraction=0.25,
                                shift=1, phases=3)
        trace = make_trace(spec, small_machine, seed=13)
        assert_equivalent(small_config, system, trace)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_run_traces(self, data):
        """Random traces with same-block run structure (the promotion
        lane's target shape) across the core systems."""
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


class TestResidualSchedule:
    """Unit tests for the pending-schedule mask structure."""

    def _classify(self, streams, num_lines=4, build_promotion=True):
        from repro.engine.classify import classify_phase
        from repro.mem.cache import DirectMappedCache

        blocks = [np.asarray(b, dtype=np.int64) for b, _ in streams]
        writes = [np.asarray(w, dtype=bool) for _, w in streams]
        caches = [DirectMappedCache(num_lines) for _ in streams]
        return classify_phase(blocks, writes, caches, lambda b: 0,
                              build_promotion=build_promotion)

    def test_entries_in_interleave_order_with_slots(self):
        cls, sched = self._classify([([1, 1, 2], [1, 0, 0]),
                                     ([3, 3, 3], [0, 0, 1])])
        assert len(sched.entries) > 0
        assert sched.keys == sorted(sched.keys)
        for i, p, probe, blk, wrt, slot, chain in sched.entries:
            assert sched.idx[p][slot] == i

    def test_promote_demote_are_mask_flips(self):
        cls, sched = self._classify([([1, 1, 1, 1], [1, 0, 0, 0])])
        # the head write is residual slot 0; flipping the mask moves it
        # out of (and back into) the pending set without rebuilding
        assert not sched.is_promoted(0, 0)
        head_idx = sched.idx[0][0]
        assert head_idx in sched.pending(0)
        sched.promote(0, 0)
        assert sched.is_promoted(0, 0)
        assert head_idx not in sched.pending(0)
        sched.demote(0, 0)
        assert not sched.is_promoted(0, 0)
        assert head_idx in sched.pending(0)

    def test_next_same_block_chains_are_per_block(self):
        # proc 0: write-run on block 1 (residual writes chain together);
        # block 2 interleaved on a different set
        cls, sched = self._classify([([1, 1, 1, 2, 1], [1, 1, 1, 1, 1])])
        nsb = sched.next_same_block[0]
        idx = sched.idx[0]
        blkof = {i: b for i, b in zip(idx, [1, 1, 1, 2, 1])}
        for s, t in enumerate(nsb):
            if t >= 0:
                assert blkof[idx[s]] == blkof[idx[t]]
                assert idx[t] > idx[s]

    def test_prev_conflict_marks_set_pressure(self):
        # blocks 1 and 5 share set 1 of a 4-line cache: the return to 1
        # after 5 must carry the conflicting access as its proof
        cls, sched = self._classify([([1, 5, 1], [1, 1, 1])])
        by_idx = dict(zip(sched.idx[0], sched.prev_conflict[0]))
        assert by_idx[0] == -1         # the opening access has no pressure
        assert by_idx[1] == 0          # 5 displaces the access to 1
        assert by_idx[2] == 1          # return to 1 crosses the access to 5

    def test_first_touch_prepromoted_when_resident_fresh(self):
        from repro.engine.classify import CLS_FAST, classify_phase
        from repro.mem.cache import DirectMappedCache

        cache = DirectMappedCache(4)
        cache.fill(1, version=0)
        cls, sched = classify_phase([np.asarray([1, 1], dtype=np.int64)],
                                    [np.asarray([0, 0], dtype=bool)],
                                    [cache], lambda b: 0)
        # the first touch is a residual slot, pre-promoted to fast
        assert cls[0][0] == CLS_FAST
        slot = int(sched.slot_of[0][0])
        assert slot >= 0 and sched.is_promoted(0, slot)

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
        """Adaptive policies ride the compiled walk via decide bails."""
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

    def test_promotion_env_is_invariant(self, small_config, small_machine,
                                        monkeypatch):
        """The kernel runs promotion-free; REPRO_PROMOTION must not
        change a single bit of its output."""
        require_c_backend()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        trace = self._trace(small_machine)
        fps = []
        for promo in ("0", "1"):
            monkeypatch.setenv("REPRO_PROMOTION", promo)
            machine = Machine(small_config, build_system("migrep"))
            stats = machine.run(trace, engine="kernel")
            assert stats.engine_profile["engine"] == "kernel"
            fps.append(fingerprint(machine, stats))
        assert fps[0] == fps[1]


class TestAdaptivePromotion:
    """Per-phase promotion decisions from static residual density."""

    def _profile(self, cfg, system, trace, monkeypatch, env=None):
        if env is None:
            monkeypatch.delenv("REPRO_PROMOTION", raising=False)
        else:
            monkeypatch.setenv("REPRO_PROMOTION", env)
        machine = Machine(cfg, build_system(system))
        stats = machine.run(trace, engine="batched")
        return stats.engine_profile

    def test_adaptive_records_per_phase_decisions(
            self, small_config, small_machine, monkeypatch):
        spec = make_simple_spec(pattern=SharingPattern.MIGRATORY,
                                accesses=400, write_fraction=0.3,
                                shift=1, phases=3)
        trace = make_trace(spec, small_machine, seed=5)
        prof = self._profile(small_config, "migrep", trace, monkeypatch)
        assert prof["promotion_mode"] == "adaptive"
        decisions = prof["phase_promotions"]
        assert len(decisions) == len(trace.phases)
        for d in decisions:
            assert isinstance(d["promotion"], bool)
            assert 0.0 <= d["residual_density"] <= 1.0
        assert prof["promotion_enabled"] == any(
            d["promotion"] for d in decisions)

    def test_env_override_forces_mode(self, tiny_config, tiny_machine,
                                      monkeypatch):
        spec = make_simple_spec(accesses=200, write_fraction=0.2)
        trace = make_trace(spec, tiny_machine, seed=3)
        on = self._profile(tiny_config, "ccnuma", trace, monkeypatch, "1")
        assert on["promotion_mode"] == "on"
        assert on["promotion_enabled"]
        assert all(d["promotion"] for d in on["phase_promotions"])
        off = self._profile(tiny_config, "ccnuma", trace, monkeypatch, "0")
        assert off["promotion_mode"] == "off"
        assert not off["promotion_enabled"]
        assert not any(d["promotion"] for d in off["phase_promotions"])

    def test_density_threshold_decides(self, tiny_config, tiny_machine,
                                       monkeypatch):
        """Long same-block runs → low density → promotion on; a stream
        of conflicting first touches → high density → promotion off."""
        from repro.engine.batched import PROMOTION_DENSITY_THRESHOLD

        runs = _run_streams(4, [([7] * 40, [1] + [0] * 39)] * 4)
        prof = self._profile(tiny_config, "ccnuma", runs, monkeypatch)
        (d,) = prof["phase_promotions"]
        assert d["residual_density"] < PROMOTION_DENSITY_THRESHOLD
        assert d["promotion"] is True

        churn = _run_streams(
            4, [(list(range(0, 64 * 16, 16)), [0] * 64)] * 4)
        prof = self._profile(tiny_config, "ccnuma", churn, monkeypatch)
        (d,) = prof["phase_promotions"]
        assert d["residual_density"] >= PROMOTION_DENSITY_THRESHOLD
        assert d["promotion"] is False


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
        assert default_engine() == "batched"

    def test_machine_run_accepts_engine(self, tiny_config, tiny_machine):
        spec = make_simple_spec(accesses=50)
        trace = make_trace(spec, tiny_machine)
        machine = Machine(tiny_config, build_system("ccnuma"))
        stats = machine.run(trace, engine="legacy")
        assert stats.total_accesses == trace.total_accesses()
