"""Batched-vs-legacy engine throughput, tracked over time (BENCH_*.json).

Two regimes bracket the engines' behaviour:

* **hot-set** — the default workload here: per-processor working sets that
  fit the L1 (the paper's own methodology notes that "uniprocessor cache
  hit ratios are high" for the SPLASH-2 applications).  Nearly every
  reference is a guaranteed hit that the batched engine's vectorised fast
  path resolves in bulk; this is where the two-tier design wins big (>= 3x
  over the reference interpreter on the default configuration).
* **miss-heavy** — the synthetic ``ocean`` trace whose records are
  deliberately miss-dense (each record stands for a run of references,
  see ``repro.config.reduced_costs``).  Almost everything takes the slow
  path, so this bounds the engine's worst case: bit-identical protocol
  interpretation with lower constant factors.

Both benchmarks assert that the engines' statistics agree exactly before
recording the timings — a speedup over wrong results would be worthless.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.cluster.machine import Machine
from repro.config import base_config
from repro.core.factory import build_system
from repro.workloads import get_workload
from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import PageGroup, Phase, SharingPattern, WorkloadSpec

from bench_helpers import bench_scale


def hot_set_spec(*, phases: int = 4, accesses_per_proc: int = 2000
                 ) -> WorkloadSpec:
    """Cache-resident working set with a small actively-shared fringe.

    One private page per processor (the per-proc hot set fits the L1) plus
    2% of references into a read-write-shared group — the high-hit-ratio
    regime the paper describes for its applications.
    """
    private = PageGroup(name="data", num_pages=32,
                        pattern=SharingPattern.PRIVATE, write_fraction=0.02)
    shared = PageGroup(name="shared", num_pages=32,
                       pattern=SharingPattern.READ_WRITE_SHARED,
                       write_fraction=0.2)
    phase_list = tuple(
        Phase(name=f"work-{i}", accesses_per_proc=accesses_per_proc,
              weights={"data": 0.98, "shared": 0.02}, compute_per_access=4)
        for i in range(phases))
    return WorkloadSpec(name="hot-set",
                        description="cache-resident working sets",
                        groups=(private, shared), phases=phase_list)


def miss_dense_spec(*, phases: int = 4, accesses_per_proc: int = 1500,
                    run_length: int = 6) -> WorkloadSpec:
    """Miss-dense regime with post-fill same-block runs.

    A MIGRATORY group whose node ownership shifts every phase (each node
    always mines a *remote* slice): the migrating systems respond with
    page operations whose L1 shootdowns demote pre-classified hits, and
    the per-node working set exceeds both the L1 and the block cache so
    the residual lane stays busy.  Every drawn block is referenced
    ``run_length`` times back to back — after the miss fill the tail of
    each run is a deterministic hit (MigrantStore's observation) that
    the static classifier proves fast unless a shootdown demotes it.
    """
    mig = PageGroup(name="mig", num_pages=96,
                    pattern=SharingPattern.MIGRATORY,
                    write_fraction=0.1, run_length=run_length)
    phase_list = tuple(
        Phase(name=f"mig-{i}", accesses_per_proc=accesses_per_proc,
              weights={"mig": 1.0}, compute_per_access=2,
              migratory_shift=i + 1)
        for i in range(phases))
    return WorkloadSpec(name="miss-dense",
                        description="miss-dense migratory churn with "
                                    "post-fill same-block runs",
                        groups=(mig,), phases=phase_list)


def miss_dense_config():
    """Configuration used with :func:`miss_dense_spec`.

    The base reduced config with explicit page-operation thresholds: low
    enough that the migratory churn actually triggers migrations,
    replications and relocations (the default thresholds reset the
    counters before they can fire on a trace this size), with a reset
    interval longer than the run.
    """
    from dataclasses import replace

    from repro.config import ThresholdConfig

    cfg = base_config(seed=0)
    return replace(cfg, thresholds=ThresholdConfig(
        migrep_threshold=25, migrep_reset_interval=200000,
        rnuma_threshold=24, hybrid_relocation_delay=0, scale=1.0))


def _time_engines(cfg, system, trace):
    """Run both engines on fresh machines; return (times, stats) per engine."""
    out = {}
    for engine in ("legacy", "batched"):
        machine = Machine(cfg, build_system(system))
        start = time.perf_counter()
        stats = machine.run(trace, engine=engine)
        out[engine] = (time.perf_counter() - start, stats)
    return out


def _assert_identical(a, b):
    assert a.execution_time == b.execution_time
    assert a.stall_breakdown == b.stall_breakdown
    assert a.nodes == b.nodes
    assert a.network_messages == b.network_messages
    assert a.network_bytes == b.network_bytes


def test_engine_speedup_hot_set(benchmark):
    """Batched-engine speedup on the default (high-hit-ratio) workload."""
    cfg = base_config(seed=0)
    accesses = max(2000, int(4000 * bench_scale()))
    trace = TraceGenerator(hot_set_spec(accesses_per_proc=accesses),
                           cfg.machine, seed=0).generate()

    results = _time_engines(cfg, "ccnuma", trace)
    _assert_identical(results["legacy"][1], results["batched"][1])

    def run_batched():
        machine = Machine(cfg, build_system("ccnuma"))
        return machine.run(trace, engine="batched")

    benchmark.pedantic(run_batched, rounds=3, iterations=1, warmup_rounds=0)
    legacy_s = results["legacy"][0]
    batched_s = results["batched"][0]
    benchmark.extra_info["accesses"] = trace.total_accesses()
    benchmark.extra_info["legacy_s"] = round(legacy_s, 4)
    benchmark.extra_info["batched_s"] = round(batched_s, 4)
    benchmark.extra_info["speedup"] = round(legacy_s / batched_s, 2)
    benchmark.extra_info["refs_per_s_batched"] = int(
        trace.total_accesses() / batched_s)


@pytest.mark.parametrize("system", ["migrep", "rnuma"])
def test_engine_speedup_miss_dense_runs(benchmark, system):
    """Batched-engine speedup on the miss-dense post-fill-run workload.

    This is the configuration ``scripts/bench_compare.py`` tracks in
    ``BENCH_engine.json``: the residual lane dominated by miss fills
    followed by same-block runs, with page-operation shootdowns (on the
    migrating systems) demoting pre-classified hits mid-phase.
    """
    cfg = miss_dense_config()
    accesses = max(800, int(3000 * bench_scale()))
    trace = TraceGenerator(miss_dense_spec(accesses_per_proc=accesses),
                           cfg.machine, seed=0).generate()

    results = _time_engines(cfg, system, trace)
    _assert_identical(results["legacy"][1], results["batched"][1])

    def run_batched():
        machine = Machine(cfg, build_system(system))
        return machine.run(trace, engine="batched")

    benchmark.pedantic(run_batched, rounds=3, iterations=1, warmup_rounds=0)
    legacy_s = results["legacy"][0]
    batched_s = results["batched"][0]
    benchmark.extra_info["accesses"] = trace.total_accesses()
    benchmark.extra_info["legacy_s"] = round(legacy_s, 4)
    benchmark.extra_info["batched_s"] = round(batched_s, 4)
    benchmark.extra_info["speedup"] = round(legacy_s / batched_s, 2)
    benchmark.extra_info["refs_per_s_batched"] = int(
        trace.total_accesses() / batched_s)


def test_sweep_warm_workers(benchmark):
    """Figure-sized ``jobs=2`` sweep: warm shared-memory workers.

    Times a 3-app x 4-system sweep dispatched to two worker processes,
    with the digest-keyed traces attached via ``multiprocessing.
    shared_memory`` (the warm path) and, for comparison, with the
    shared-memory pool disabled (``REPRO_NO_SHM``, the cold per-worker
    npz deserialization path).
    """
    from repro.experiments.runner import SweepRunner

    cfg = base_config(seed=0)
    scale = max(0.05, 0.15 * bench_scale())
    traces = [get_workload(app, machine=cfg.machine, scale=scale, seed=0)
              for app in ("lu", "radix", "barnes")]
    systems = ["perfect", "ccnuma", "migrep", "rnuma"]
    items = [(t, s, cfg) for t in traces for s in systems]

    def sweep():
        with SweepRunner(jobs=2, memoize=False) as runner:
            runner.map_runs(items)
            return runner.stats

    os.environ["REPRO_NO_SHM"] = "1"
    try:
        start = time.perf_counter()
        sweep()
        cold_s = time.perf_counter() - start
    finally:
        os.environ.pop("REPRO_NO_SHM", None)

    stats = benchmark.pedantic(sweep, rounds=2, iterations=1,
                               warmup_rounds=0)
    benchmark.extra_info["runs"] = len(items)
    benchmark.extra_info["cold_npz_s"] = round(cold_s, 4)
    benchmark.extra_info["shm_attaches"] = getattr(stats, "shm_attaches", 0)
    benchmark.extra_info["worker_reuse"] = getattr(stats, "worker_reuse", 0)


@pytest.mark.parametrize("system", ["ccnuma", "migrep", "rnuma"])
def test_engine_speedup_miss_heavy(benchmark, system):
    """Batched-engine speedup on the miss-dense synthetic ocean trace."""
    cfg = base_config(seed=0)
    trace = get_workload("ocean", machine=cfg.machine,
                         scale=max(0.05, 0.2 * bench_scale()), seed=0)

    results = _time_engines(cfg, system, trace)
    _assert_identical(results["legacy"][1], results["batched"][1])

    def run_batched():
        machine = Machine(cfg, build_system(system))
        return machine.run(trace, engine="batched")

    benchmark.pedantic(run_batched, rounds=3, iterations=1, warmup_rounds=0)
    legacy_s = results["legacy"][0]
    batched_s = results["batched"][0]
    benchmark.extra_info["accesses"] = trace.total_accesses()
    benchmark.extra_info["legacy_s"] = round(legacy_s, 4)
    benchmark.extra_info["batched_s"] = round(batched_s, 4)
    benchmark.extra_info["speedup"] = round(legacy_s / batched_s, 2)
