"""Tests for the parallel, memoizing SweepRunner and its trace store."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.config import base_config
from repro.experiments.figure5 import run_figure5
from repro.experiments.runner import (
    SweepRunner,
    TraceStore,
    _trace_digest,
    default_jobs,
    ensure_runner,
    run_experiment,
)
from repro.workloads import get_workload
from repro.workloads.trace import PhaseTrace, Trace
from repro.workloads.trace_io import load_trace, traces_equal

from helpers import require_c_backend


@pytest.fixture(scope="module")
def cfg():
    return base_config(seed=0)


@pytest.fixture(scope="module")
def ocean_trace(cfg):
    return get_workload("ocean", machine=cfg.machine, scale=0.05, seed=0)


class TestMemoization:
    def test_repeated_run_is_memoized(self, cfg, ocean_trace):
        with SweepRunner() as runner:
            first = runner.run(ocean_trace, "ccnuma", cfg)
            second = runner.run(ocean_trace, "ccnuma", cfg)
            assert first is second
            assert runner.stats.runs == 1
            assert runner.stats.memo_hits == 1

    def test_distinct_configs_not_conflated(self, cfg, ocean_trace):
        other = base_config(seed=0, threshold_scale=1.0)
        with SweepRunner() as runner:
            a = runner.run(ocean_trace, "rnuma", cfg)
            b = runner.run(ocean_trace, "rnuma", other)
            assert runner.stats.runs == 2
            assert a is not b

    def test_distinct_traces_not_conflated(self, cfg, ocean_trace):
        other_trace = get_workload("ocean", machine=cfg.machine, scale=0.05,
                                   seed=1)
        with SweepRunner() as runner:
            a = runner.run(ocean_trace, "ccnuma", cfg)
            b = runner.run(other_trace, "ccnuma", cfg)
            assert runner.stats.runs == 2
            assert a.execution_time != b.execution_time or a is not b

    def test_memoize_off(self, cfg, ocean_trace):
        with SweepRunner(memoize=False) as runner:
            first = runner.run(ocean_trace, "ccnuma", cfg)
            second = runner.run(ocean_trace, "ccnuma", cfg)
            assert first is not second
            assert runner.stats.runs == 2

    def test_matches_unmemoized_result(self, cfg, ocean_trace):
        direct = run_experiment(ocean_trace, "ccnuma", cfg)
        with SweepRunner() as runner:
            memoed = runner.run(ocean_trace, "ccnuma", cfg)
        assert memoed.execution_time == direct.execution_time
        assert memoed.summary() == direct.summary()


def _tiny_trace(name, streams, writes=None, procs=2):
    blocks = [np.asarray(s, dtype=np.int64) for s in streams]
    if writes is None:
        writes = [np.zeros(len(s), dtype=bool) for s in streams]
    return Trace(name=name, num_procs=procs,
                 phases=[PhaseTrace(name="ph0", compute_per_access=1,
                                    blocks=blocks, writes=writes)])


class TestTraceDigest:
    def test_distinct_streams_distinct_digests(self):
        a = _tiny_trace("t", [[1, 2, 3], [4, 5, 6]])
        b = _tiny_trace("t", [[1, 2, 3], [4, 5, 7]])
        assert _trace_digest(a) != _trace_digest(b)

    def test_stream_split_cannot_collide(self):
        """The same flat ids split differently across processors differ."""
        a = _tiny_trace("t", [[1, 2, 3, 4], [5, 6]])
        b = _tiny_trace("t", [[1, 2, 3], [4, 5, 6]])
        assert _trace_digest(a) != _trace_digest(b)

    def test_write_flags_change_digest(self):
        a = _tiny_trace("t", [[1, 2], [3, 4]])
        b = _tiny_trace("t", [[1, 2], [3, 4]],
                        writes=[np.array([True, False]),
                                np.array([False, False])])
        assert _trace_digest(a) != _trace_digest(b)

    def test_digest_is_content_based(self):
        a = _tiny_trace("t", [[9, 8], [7, 6]])
        b = _tiny_trace("t", [[9, 8], [7, 6]])
        assert a is not b
        assert _trace_digest(a) == _trace_digest(b)


class TestTraceStore:
    def test_round_trip_is_bit_identical(self, cfg, ocean_trace, tmp_path):
        store = TraceStore(tmp_path)
        digest = _trace_digest(ocean_trace)
        path = store.ensure(ocean_trace, digest)
        loaded = load_trace(path)
        assert traces_equal(ocean_trace, loaded)
        assert _trace_digest(loaded) == digest
        # the loaded trace simulates to the exact same results
        direct = run_experiment(ocean_trace, "ccnuma", cfg)
        from_store = run_experiment(loaded, "ccnuma", cfg)
        assert from_store.summary() == direct.summary()
        assert from_store.stats.stall_breakdown == direct.stats.stall_breakdown

    def test_ensure_spills_once(self, ocean_trace, tmp_path):
        store = TraceStore(tmp_path)
        digest = _trace_digest(ocean_trace)
        path = store.ensure(ocean_trace, digest)
        mtime = path.stat().st_mtime_ns
        assert store.ensure(ocean_trace, digest) == path
        assert path.stat().st_mtime_ns == mtime
        assert store.spills == 1

    def test_preexisting_archive_is_not_a_spill(self, ocean_trace, tmp_path):
        digest = _trace_digest(ocean_trace)
        TraceStore(tmp_path).ensure(ocean_trace, digest)
        # a fresh store over the same root finds the archive on disk
        fresh = TraceStore(tmp_path)
        fresh.ensure(ocean_trace, digest)
        assert fresh.spills == 0

    def test_private_store_removed_on_close(self):
        store = TraceStore()
        root = store.root
        assert root.exists()
        store.close()
        assert not root.exists()

    def test_explicit_root_survives_close(self, ocean_trace, tmp_path):
        store = TraceStore(tmp_path)
        path = store.ensure(ocean_trace, _trace_digest(ocean_trace))
        store.close()
        assert path.exists()


class TestZeroCopyDispatch:
    @pytest.fixture(autouse=True)
    def _npz_fallback(self, monkeypatch):
        """These tests cover the on-disk npz path (the shared-memory
        pool, which normally takes precedence, is exercised by
        TestSharedMemoryDispatch)."""
        monkeypatch.setenv("REPRO_NO_SHM", "1")

    def test_parallel_dispatch_spills_each_trace_once(self, cfg, ocean_trace):
        other = get_workload("ocean", machine=cfg.machine, scale=0.05, seed=1)
        items = [(trace, system, cfg)
                 for trace in (ocean_trace, other)
                 for system in ("perfect", "ccnuma", "rnuma")]
        with SweepRunner(jobs=2) as runner:
            par = runner.map_runs(items)
            # two distinct traces -> exactly two archives, six runs
            assert runner.stats.parallel_runs == 6
            assert runner.stats.traces_spilled == 2
            archives = list(runner.trace_store.root.glob("*.npz"))
            assert len(archives) == 2
        with SweepRunner(jobs=1) as runner:
            ser = runner.map_runs(items)
        for a, b in zip(par, ser):
            assert a.summary() == b.summary()
            assert a.stats.stall_breakdown == b.stats.stall_breakdown

    def test_shared_store_reused_across_runners(self, cfg, ocean_trace,
                                                tmp_path):
        store = TraceStore(tmp_path)
        items = [(ocean_trace, system, cfg)
                 for system in ("perfect", "ccnuma")]
        with SweepRunner(jobs=2, trace_store=store) as first:
            first.map_runs(items)
            assert first.stats.traces_spilled == 1
        with SweepRunner(jobs=2, trace_store=store) as second:
            res = second.map_runs([(ocean_trace, s, cfg)
                                   for s in ("migrep", "rnuma")])
            # the archive already exists on disk: nothing is re-written
            assert len(list(store.root.glob("*.npz"))) == 1
        assert len(res) == 2


class TestSharedMemoryDispatch:
    """Warm shared-memory workers: publication, attach reuse, fallback."""

    def test_trace_shm_round_trip(self, cfg, ocean_trace):
        import os

        from repro.workloads.trace_io import (trace_from_shm, trace_to_shm,
                                              traces_equal)

        shm, meta = trace_to_shm(ocean_trace, f"repro-test-{os.getpid()}")
        try:
            loaded, handle = trace_from_shm(meta)
            assert traces_equal(ocean_trace, loaded)
            # zero-copy: the loaded arrays view the shared segment
            assert loaded.phases[0].blocks[0].base is not None
            del loaded, handle
        finally:
            shm.close()
            shm.unlink()

    def test_parallel_dispatch_publishes_each_trace_once(self, cfg,
                                                         ocean_trace):
        other = get_workload("ocean", machine=cfg.machine, scale=0.05, seed=1)
        items = [(trace, system, cfg)
                 for trace in (ocean_trace, other)
                 for system in ("perfect", "ccnuma", "rnuma")]
        with SweepRunner(jobs=2) as runner:
            par = runner.map_runs(items)
            assert runner.stats.parallel_runs == 6
            assert runner.stats.shm_segments == 2
            assert runner.stats.traces_spilled == 0      # no npz needed
            # every parallel run either attached or reused a warm trace
            assert (runner.stats.shm_attaches
                    + runner.stats.worker_reuse) == 6
            assert runner.stats.shm_attaches >= 2
        with SweepRunner(jobs=1) as runner:
            ser = runner.map_runs(items)
        for a, b in zip(par, ser):
            assert a.summary() == b.summary()
            assert a.stats.stall_breakdown == b.stats.stall_breakdown

    def test_no_shm_env_falls_back_to_npz(self, cfg, ocean_trace,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_NO_SHM", "1")
        items = [(ocean_trace, system, cfg)
                 for system in ("perfect", "ccnuma")]
        with SweepRunner(jobs=2) as runner:
            runner.map_runs(items)
            assert runner.stats.shm_segments == 0
            assert runner.stats.traces_spilled == 1

    def test_segments_unlinked_on_close(self, cfg, ocean_trace):
        from multiprocessing import shared_memory

        with SweepRunner(jobs=2) as runner:
            runner.map_runs([(ocean_trace, s, cfg)
                             for s in ("perfect", "ccnuma")])
            pool = runner._shm_pool
            assert pool is not None and pool.segments == 1
            names = [shm.name for shm, _ in pool._segments.values()]
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_worker_cache_eviction_is_silent(self, cfg, capfd,
                                             monkeypatch):
        """Evicting a worker's cached shm trace unmaps its segment after
        the trace's views are gone: no ``BufferError`` is printed as an
        ignored exception, however many distinct traces cycle through."""
        import sys

        from repro.experiments.runner import _WORKER_SHM_LIMIT

        # the forked workers inherit the hook: print unraisable errors to
        # stderr, as outside pytest, instead of collecting them
        monkeypatch.setattr(sys, "unraisablehook", sys.__unraisablehook__)
        traces = [get_workload("lu", machine=cfg.machine, scale=0.02,
                               seed=seed)
                  for seed in range(2 * _WORKER_SHM_LIMIT + 2)]
        with SweepRunner(jobs=2) as runner:
            runner.map_runs([(t, "ccnuma", cfg) for t in traces])
            assert runner.stats.shm_segments == len(traces)
            assert runner.stats.run_errors == 0
        assert "Exception ignored" not in capfd.readouterr().err


class TestShmFailureRecovery:
    """shm failures are recorded, degrade to npz, and stay bit-identical."""

    def test_publish_failure_flips_to_npz_and_records(self, cfg, ocean_trace,
                                                      monkeypatch):
        import repro.experiments.runner as runner_mod

        def broken(trace, name):
            raise OSError("no space left on /dev/shm")

        monkeypatch.setattr(runner_mod, "trace_to_shm", broken)
        items = [(ocean_trace, system, cfg)
                 for system in ("perfect", "ccnuma", "rnuma")]
        with SweepRunner(jobs=2, backoff=0.01) as runner:
            par = runner.map_runs(items)
            assert runner._shm_broken
            assert runner.stats.shm_errors >= 1
            assert any("no space left" in msg
                       for msg in runner.stats.shm_error_messages)
            assert runner.stats.shm_segments == 0
            assert runner.stats.traces_spilled == 1
            assert runner.stats.degradations >= 1
        with SweepRunner(jobs=1) as serial:
            ser = serial.map_runs(items)
        for a, b in zip(par, ser):
            assert a.summary() == b.summary()

    def test_mid_sweep_flip_keeps_earlier_segments_working(self, cfg,
                                                           ocean_trace,
                                                           monkeypatch):
        """A publish failure on the second trace must not disturb runs
        already riding the first trace's healthy segment; everything
        after the flip stays on npz (so both traces may spill)."""
        import repro.experiments.runner as runner_mod

        other = get_workload("ocean", machine=cfg.machine, scale=0.05, seed=1)
        real = runner_mod.trace_to_shm
        first_digest = _trace_digest(ocean_trace)

        def flaky(trace, name):
            if _trace_digest(trace) != first_digest:
                raise OSError("segment quota exhausted")
            return real(trace, name)

        monkeypatch.setattr(runner_mod, "trace_to_shm", flaky)
        first = [(ocean_trace, system, cfg)
                 for system in ("perfect", "ccnuma")]
        second = [(other, system, cfg) for system in ("perfect", "ccnuma")]
        with SweepRunner(jobs=2, backoff=0.01) as runner:
            par = runner.map_runs(first)
            assert runner.stats.shm_segments == 1
            assert runner.stats.shm_errors == 0
            par += runner.map_runs(second)
            assert runner.stats.shm_errors == 1
            assert runner.stats.shm_segments == 1
            assert runner.stats.traces_spilled == 1
            assert runner._shm_broken
        with SweepRunner(jobs=1) as serial:
            ser = serial.map_runs(first + second)
        for a, b in zip(par, ser):
            assert a.summary() == b.summary()

    def test_close_surfaces_unlink_races(self, cfg, ocean_trace):
        runner = SweepRunner(jobs=2)
        try:
            runner.map_runs([(ocean_trace, s, cfg)
                             for s in ("perfect", "ccnuma")])
            pool = runner._shm_pool
            assert pool is not None and pool.segments == 1
            # simulate another process unlinking the segment first
            for shm, _ in pool._segments.values():
                shm.unlink()
        finally:
            runner.close()
        assert runner.stats.shm_errors == 1
        assert runner.stats.shm_error_messages

    def test_orphan_segment_reclamation(self, cfg, ocean_trace):
        import subprocess

        from multiprocessing import resource_tracker, shared_memory

        from repro.workloads.trace_io import (cleanup_orphan_segments,
                                              list_orphan_segments)

        proc = subprocess.Popen(["sleep", "0"])
        proc.wait()
        dead_pid = proc.pid
        name = f"repro_{'ab' * 8}_{dead_pid}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=64)
        shm.close()
        # this test plays the dead publisher, so nothing should try to
        # clean the segment up at interpreter exit
        resource_tracker.unregister(shm._name, "shared_memory")
        try:
            assert any(p.name == name for p in list_orphan_segments())
            listed = cleanup_orphan_segments(dry_run=True)
            assert name in listed
            assert any(p.name == name for p in list_orphan_segments())
            removed = cleanup_orphan_segments()
            assert name in removed
            assert not any(p.name == name for p in list_orphan_segments())
        finally:
            try:
                shared_memory.SharedMemory(name=name).unlink()
            except FileNotFoundError:
                pass

    def test_live_segments_are_not_orphans(self, cfg, ocean_trace):
        from repro.workloads.trace_io import list_orphan_segments

        with SweepRunner(jobs=2) as runner:
            runner.map_runs([(ocean_trace, s, cfg)
                             for s in ("perfect", "ccnuma")])
            pool = runner._shm_pool
            assert pool is not None and pool.segments == 1
            live = {shm.name for shm, _ in pool._segments.values()}
            orphans = {p.name for p in list_orphan_segments()}
            assert not (live & orphans)


class TestKernelFallbackInWorkers:
    """Engine-lane accounting must survive the process boundary."""

    def test_ineligible_systems_fall_back_inside_pool_workers(self, cfg,
                                                              ocean_trace,
                                                              monkeypatch):
        # with the kernel disabled the pool workers (forked after the env
        # change) run batched and ship the fallback profile home for
        # note_profile (two distinct configs keep the runs from
        # collapsing into one memo entry)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "none")
        items = [(ocean_trace, "ccnuma", c)
                 for c in (cfg, base_config(seed=1))]
        with SweepRunner(jobs=2, engine="kernel") as runner:
            par = runner.map_runs(items)
            assert runner.stats.parallel_runs == 2
            assert runner.stats.kernel_fallbacks == 2
            assert runner.stats.kernel_runs == 0
            reasons = [r.stats.engine_profile.get("fallback_reason")
                       for r in par]
            assert all("disabled" in reason for reason in reasons)
        with SweepRunner(jobs=1, engine="kernel") as serial:
            ser = serial.map_runs(items)
        for a, b in zip(par, ser):
            assert a.summary() == b.summary()

    def test_eligible_system_keeps_kernel_lane_in_workers(self, cfg,
                                                          ocean_trace,
                                                          monkeypatch):
        require_c_backend()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        items = [(ocean_trace, system, cfg)
                 for system in ("ccnuma", "migrep")]
        with SweepRunner(jobs=2, engine="kernel") as runner:
            runner.map_runs(items)
            assert runner.stats.kernel_runs == 2
            assert runner.stats.kernel_fallbacks == 0

    def test_bail_kinds_fold_across_workers(self, cfg, ocean_trace,
                                            monkeypatch):
        """Per-run bail_kinds aggregate into RunnerStats with the full
        stable key set, and survive the worker process boundary."""
        from repro.engine.kernel import BAIL_KIND_NAMES

        require_c_backend()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        items = [(ocean_trace, system, cfg)
                 for system in ("rnuma", "scoma")]
        with SweepRunner(jobs=2, engine="kernel") as runner:
            par = runner.map_runs(items)
            exported = runner.stats.as_dict()["bail_kinds"]
            assert tuple(exported) == BAIL_KIND_NAMES
            per_run = [r.stats.engine_profile["bail_kinds"] for r in par]
            assert all(tuple(k) == BAIL_KIND_NAMES for k in per_run)
            for kind in BAIL_KIND_NAMES:
                assert exported[kind] == sum(k[kind] for k in per_run)


class TestBatchExecution:
    def test_run_systems_shape(self, cfg, ocean_trace):
        with SweepRunner() as runner:
            results = runner.run_systems(ocean_trace, ["ccnuma", "rnuma"], cfg)
        assert set(results) == {"perfect", "ccnuma", "rnuma"}

    def test_batch_deduplicates(self, cfg, ocean_trace):
        with SweepRunner() as runner:
            results = runner.map_runs([
                (ocean_trace, "ccnuma", cfg),
                (ocean_trace, "ccnuma", cfg),
                (ocean_trace, "perfect", cfg),
            ])
            assert runner.stats.runs == 2
        assert results[0] is results[1]

    def test_parallel_matches_serial(self, cfg, ocean_trace):
        items = [(ocean_trace, name, cfg)
                 for name in ("perfect", "ccnuma", "migrep", "rnuma")]
        with SweepRunner(jobs=2) as parallel:
            par = parallel.map_runs(items)
            assert parallel.stats.parallel_runs == len(items)
        with SweepRunner(jobs=1) as serial:
            ser = serial.map_runs(items)
        for a, b in zip(par, ser):
            assert a.summary() == b.summary()
            assert a.stats.stall_breakdown == b.stats.stall_breakdown

    def test_engine_override(self, cfg, ocean_trace):
        with SweepRunner(engine="legacy") as runner:
            res = runner.run(ocean_trace, "ccnuma", cfg)
        direct = run_experiment(ocean_trace, "ccnuma", cfg)
        assert res.execution_time == direct.execution_time


class TestStreamedBatches:
    """map_runs consumes its items lazily and runs each as it arrives."""

    def test_first_trace_runs_before_the_last_is_built(self, cfg):
        submitted_before_last = []

        def items(runner):
            for seed in range(3):
                if seed == 2:
                    submitted_before_last.append(runner.stats.parallel_runs)
                trace = get_workload("lu", machine=cfg.machine, scale=0.02,
                                     seed=seed)
                for system in ("perfect", "ccnuma"):
                    yield trace, system, cfg

        with SweepRunner(jobs=2) as runner:
            par = runner.map_runs(items(runner))
            assert runner.stats.parallel_runs == 6
        assert submitted_before_last[0] > 0
        with SweepRunner(jobs=1) as serial:
            ser = serial.map_runs(list(items(serial)))
        for a, b in zip(par, ser):
            assert a.summary() == b.summary()

    def test_single_pending_run_stays_inline(self, cfg, ocean_trace):
        with SweepRunner(jobs=2) as runner:
            runner.run(ocean_trace, "ccnuma", cfg)
            results = runner.map_runs(
                (ocean_trace, system, cfg)
                for system in ("ccnuma", "rnuma", "ccnuma", "rnuma"))
            assert runner.stats.parallel_runs == 0
            assert runner._pool is None
            assert runner.stats.runs == 2
            assert runner.stats.memo_hits == 2
        assert results[1] is results[3]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_generator_matches_the_list_form(self, cfg, ocean_trace,
                                             tmp_path, jobs):
        from repro.core.factory import build_system

        other = get_workload("lu", machine=cfg.machine, scale=0.02, seed=0)
        spec = build_system("rnuma-half")
        items = [(ocean_trace, "perfect", cfg),    # memo hit
                 (ocean_trace, "ccnuma", cfg),     # store hit
                 (other, "ccnuma", cfg),
                 (ocean_trace, spec, cfg),         # explicit spec
                 (other, "ccnuma", cfg),           # duplicate
                 (ocean_trace, "ccnuma", cfg),     # duplicate store hit
                 (other, "rnuma", cfg),
                 (ocean_trace, "perfect", cfg),    # memo hit again
                 (other, spec, cfg)]

        def prepared(name):
            store = tmp_path / f"{name}.sqlite"
            with SweepRunner(jobs=1, store=store) as seed_runner:
                seed_runner.run(ocean_trace, "ccnuma", cfg)
            runner = SweepRunner(jobs=jobs, store=store)
            runner.run(ocean_trace, "perfect", cfg)
            return runner

        with prepared("list") as listed:
            want = listed.map_runs(items)
            want_stats = listed.stats.as_dict()
        with prepared("gen") as streamed:
            got = streamed.map_runs(item for item in items)
            got_stats = streamed.stats.as_dict()
        assert len(got) == len(items)
        for (trace, system, _), res in zip(items, got):
            name = system if isinstance(system, str) else system.name
            assert (res.workload, res.system) == (trace.name, name)
        for a, b in zip(got, want):
            assert a.summary() == b.summary()
            assert a.stats.stall_breakdown == b.stats.stall_breakdown
        assert got[4] is got[2] and got[5] is got[1]
        for counter in ("runs", "memo_hits", "store_hits", "store_misses",
                        "parallel_runs"):
            assert got_stats[counter] == want_stats[counter], counter
        assert got_stats["memo_hits"] == 2
        assert got_stats["store_hits"] == 1

    def test_serial_scenario_frees_each_trace_after_its_last_run(self):
        import weakref

        from repro.experiments.scenario import Scenario, run_scenario

        built = {}
        alive_when_built = {}

        def factory(app, machine, scale, seed):
            alive_when_built[app] = {name: ref() is not None
                                     for name, ref in built.items()}
            trace = get_workload(app, machine=machine, scale=scale,
                                 seed=seed)
            built[app] = weakref.ref(trace)
            return trace

        scn = Scenario(name="stream-free", title="stream-free",
                       systems=("ccnuma", "rnuma"),
                       apps=("lu", "ocean", "radix"), default_scale=0.02,
                       trace_factory=factory)
        with SweepRunner(jobs=1) as runner:
            rs = run_scenario(scn, runner=runner)
        assert len(rs.rows) == 9
        assert alive_when_built["radix"] == {"lu": False, "ocean": False}


class TestHarnessIntegration:
    def test_figures_share_a_runner_cache(self, cfg):
        with SweepRunner() as runner:
            first = run_figure5(apps=["ocean"], scale=0.05, runner=runner)
            executed = runner.stats.runs
            second = run_figure5(apps=["ocean"], scale=0.05, runner=runner)
            assert runner.stats.runs == executed  # fully served from memo
        assert first == second

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert default_jobs() >= 1
        monkeypatch.setenv("REPRO_JOBS", "bogus")
        assert default_jobs() == 1

    def test_ensure_runner_ownership(self):
        owned_runner, owned = ensure_runner(None)
        assert owned
        owned_runner.close()
        mine = SweepRunner()
        same, owned = ensure_runner(mine)
        assert same is mine and not owned
        mine.close()


class TestExplicitSystemSpecs:
    """Custom SystemSpec objects must not be conflated with registry names."""

    def test_custom_spec_runs_and_is_not_memo_conflated(self, cfg, ocean_trace):
        import dataclasses
        from repro.core.factory import build_system

        bigger = dataclasses.replace(build_system("ccnuma"),
                                     block_cache_scale=4.0)
        with SweepRunner() as runner:
            stock = runner.run(ocean_trace, "ccnuma", cfg)
            custom = runner.run(ocean_trace, bigger, cfg)
            # the customised spec simulates a different machine ...
            assert custom.execution_time != stock.execution_time
            # ... and never lands in (or is served from) the memo table
            again = runner.run(ocean_trace, bigger, cfg)
            assert again is not custom
            assert again.execution_time == custom.execution_time

    def test_run_systems_with_spec_object(self, cfg, ocean_trace):
        from repro.core.factory import build_system

        spec = build_system("rnuma-half")
        with SweepRunner() as runner:
            results = runner.run_systems(ocean_trace, [spec], cfg)
        assert set(results) == {"perfect", "rnuma-half"}


def _parent_watch_running() -> bool:
    """(In a pool worker) whether the parent-watch thread is running."""
    return any(t.name == "repro-parent-watch" and t.is_alive()
               for t in threading.enumerate())


class TestOrphanedWorkers:
    """Pool workers exit once the process that made the pool is gone."""

    def test_pool_workers_watch_their_parent(self):
        with SweepRunner(jobs=2) as runner:
            pool = runner._ensure_pool()
            futures = [pool.submit(_parent_watch_running) for _ in range(4)]
            assert all(f.result(timeout=60) for f in futures)
        assert not _parent_watch_running()

    def test_worker_exits_when_its_parent_is_killed(self):
        """A process that armed the watch outlives its SIGKILLed parent
        by about one poll: it holds the pipe's last write end, so the
        pipe reaching EOF proves it has exited."""
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        worker = textwrap.dedent("""
            import os, time
            from repro.experiments.runner import _exit_with_parent
            _exit_with_parent()
            print("ready", os.getpid(), flush=True)
            time.sleep(60)
        """)
        parent = textwrap.dedent(f"""
            import subprocess, sys, time
            subprocess.Popen([sys.executable, "-c", {worker!r}])
            time.sleep(60)
        """)
        proc = subprocess.Popen([sys.executable, "-c", parent], env=env,
                                stdout=subprocess.PIPE)
        worker_pid = None
        eof = False
        try:
            line = proc.stdout.readline().split()
            assert line[:1] == [b"ready"], line
            worker_pid = int(line[1])
            proc.kill()
            proc.wait(timeout=10)
            fd = proc.stdout.fileno()
            end = time.monotonic() + 10
            while not eof and time.monotonic() < end:
                ready, _, _ = select.select([fd], [], [], 0.5)
                eof = bool(ready) and os.read(fd, 4096) == b""
            assert eof, f"worker {worker_pid} outlived its parent"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            if worker_pid is not None and not eof:
                try:
                    os.kill(worker_pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.stdout.close()
