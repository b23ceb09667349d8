#!/usr/bin/env python
"""Track and gate the engine benchmarks against BENCH_engine.json.

The repository commits ``BENCH_engine.json``: a recorded baseline of the
engine's headline numbers (the PR 4 engine on the miss-dense reference
configuration) plus the numbers recorded for the current tree.  This
script re-measures the same quantities and

* ``--record``  rewrites the ``current`` section (run on the machine
  whose numbers you want committed),
* ``--check``   fails (exit 1) when the fresh measurements regress —
  used in CI, so the comparisons are *ratios* (batched vs legacy on the
  same host, kernel vs batched, warm vs cold sweep workers), which
  transfer across machines, never absolute wall times.

Gates enforced by ``--check`` (record schema 5):

1. On the miss-dense configuration (``benchmarks/bench_engine_speedup.
   miss_dense_spec``) the batched engine's speedup over the legacy
   interpreter for ``migrep`` must be at least ``1.3x`` the PR 4
   baseline's recorded speedup (the line-precise demotion /
   inlined-upgrade / cached-classification work), and ``rnuma`` must not
   regress below the baseline band.
2. The compiled residual kernel (``engine=kernel``) must hold a
   ``>= 5x`` miss-dense migrep speedup over the batched engine on the
   same host, and the full-family lanes added with schema 5 — ``rnuma``
   (the R-NUMA relocation lane), ``rnuma_migrep`` (the hybrid) and
   ``hysteresis`` (migrep under the adaptive hysteresis policy, its
   evaluation inlined in the compiled walk) — must each hold
   ``>= 4x``.  None may
   regress below the committed ``current`` band.  When the host has
   no C toolchain the lanes record their ``fallback_reason`` and the
   gates are skipped — the pure-Python install stays green.
3. The warm shared-memory ``jobs=2`` sweep must not be slower than the
   cold per-worker npz path beyond the tolerance band.
4. The hot-set batched-vs-legacy speedup must stay within the band of
   the committed ``current`` recording.
5. Streaming a trace from an on-disk trace file
   (:class:`repro.workloads.tracefile.StreamingTrace`) must cost at most
   10% over running the same trace in memory (schema 3, ``streaming``
   lane) — the mmap-served phase views are supposed to be within noise
   of heap arrays, and this lane keeps the out-of-core path honest.
6. A sweep checkpointing into a **cold** durable
   :class:`~repro.experiments.store.ResultStore` must cost at most 10%
   over the same sweep without a store (schema 4, ``store`` lane) —
   the per-run pickle+upsert is supposed to disappear next to
   simulation time.  The warm-store replay time is recorded
   informationally (it is bounded by unpickling, typically a tiny
   fraction of the cold sweep).

Every timing lane also asserts bit-identical results across engines
first — a speedup over wrong results is worthless.
Everything measured is also printed, so CI logs double as a perf record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

BENCH_FILE = REPO / "BENCH_engine.json"


def _build_system(system):
    """Resolve a lane's system: registry names plus the bench-local
    ``hysteresis`` lane (migrep under the adaptive hysteresis policy)."""
    from repro.core.factory import build_system

    if system == "hysteresis":
        return build_system("migrep").derive("migrep-hysteresis",
                                             migrep_policy="hysteresis")
    return build_system(system)


def _one_run(cfg, system, trace, engine):
    """One timed run: ``(seconds, stats)``."""
    from repro.cluster.machine import Machine

    machine = Machine(cfg, _build_system(system))
    t0 = time.perf_counter()
    stats = machine.run(trace, engine=engine)
    return time.perf_counter() - t0, stats


def _median_run(cfg, system, trace, engine, *, repeats=3):
    """Median-of-``repeats`` wall time for one (system, engine) lane,
    after one free warmup run."""
    _one_run(cfg, system, trace, engine)
    times = []
    for _ in range(repeats):
        t, stats = _one_run(cfg, system, trace, engine)
        times.append(t)
    return statistics.median(times), stats


def _assert_identical(system, a, b) -> None:
    if (a.execution_time != b.execution_time
            or a.stall_breakdown != b.stall_breakdown
            or a.nodes != b.nodes):
        raise SystemExit(
            f"engine results diverged for {system}: a speedup over "
            "wrong results is worthless")


def _kernel_lane(cfg, system, trace, batched_s, batched_stats,
                 repeats) -> dict:
    """Time ``engine=kernel`` on the same trace; assert bit-identity.

    When the kernel falls back (no compiled backend, ineligible
    system) the lane records the fallback reason instead of timings so
    the committed file documents *why* there is no kernel number.
    """
    kernel_s, kernel_stats = _median_run(cfg, system, trace, "kernel",
                                         repeats=repeats)
    prof = kernel_stats.engine_profile or {}
    if prof.get("engine") != "kernel":
        return {"fallback_reason": prof.get("fallback_reason", "?")}
    _assert_identical(system, batched_stats, kernel_stats)
    return {
        "backend": prof.get("backend", "?"),
        "kernel_s": round(kernel_s, 4),
        "refs_per_s": int(trace.total_accesses() / kernel_s),
        "speedup_vs_batched": round(batched_s / kernel_s, 3),
        "bails": int(prof.get("bails", 0)),
    }


def measure_miss_dense(scale: float, repeats: int) -> dict:
    """Engine timings on the miss-dense configuration.

    ``batched_s`` and ``legacy_s`` give the batched engine's speedup,
    and the ``kernel`` sub-record times the compiled residual kernel
    against the same trace.
    """
    from bench_engine_speedup import miss_dense_config, miss_dense_spec
    from repro.workloads.generator import TraceGenerator

    cfg = miss_dense_config()
    accesses = max(600, int(1500 * scale))
    trace = TraceGenerator(miss_dense_spec(accesses_per_proc=accesses),
                           cfg.machine, seed=0).generate()
    out = {"accesses": trace.total_accesses()}
    for system in ("migrep", "rnuma"):
        legacy_s, legacy_stats = _median_run(cfg, system, trace, "legacy",
                                             repeats=max(1, repeats - 1))
        batched_s, batched_stats = _median_run(cfg, system, trace,
                                               "batched", repeats=repeats)
        _assert_identical(system, legacy_stats, batched_stats)
        prof = batched_stats.engine_profile or {}
        out[system] = {
            "legacy_s": round(legacy_s, 4),
            "batched_s": round(batched_s, 4),
            "refs_per_s": int(trace.total_accesses() / batched_s),
            "speedup_vs_legacy": round(legacy_s / batched_s, 3),
            "demoted": int(prof.get("demoted", 0)),
            "residual": int(prof.get("residual", 0)),
            "kernel": _kernel_lane(cfg, system, trace, batched_s,
                                   batched_stats, repeats),
        }
    # full-family kernel lanes (schema 5): the hybrid system and the
    # adaptive-policy ride-along get a lighter record — legacy, batched
    # and the gated kernel number — without the lane counters
    for system, key in (("rnuma-migrep", "rnuma_migrep"),
                        ("hysteresis", "hysteresis")):
        legacy_s, legacy_stats = _median_run(cfg, system, trace, "legacy",
                                             repeats=max(1, repeats - 1))
        batched_s, batched_stats = _median_run(cfg, system, trace,
                                               "batched", repeats=repeats)
        _assert_identical(system, legacy_stats, batched_stats)
        out[key] = {
            "legacy_s": round(legacy_s, 4),
            "batched_s": round(batched_s, 4),
            "refs_per_s": int(trace.total_accesses() / batched_s),
            "speedup_vs_legacy": round(legacy_s / batched_s, 3),
            "kernel": _kernel_lane(cfg, system, trace, batched_s,
                                   batched_stats, repeats),
        }
    return out


def measure_hot_set(scale: float, repeats: int) -> dict:
    """Batched-vs-legacy speedup on the high-hit-ratio workload."""
    from bench_engine_speedup import hot_set_spec
    from repro.config import base_config
    from repro.workloads.generator import TraceGenerator

    cfg = base_config(seed=0)
    accesses = max(1000, int(2000 * scale))
    trace = TraceGenerator(hot_set_spec(accesses_per_proc=accesses),
                           cfg.machine, seed=0).generate()
    legacy_s, legacy_stats = _median_run(cfg, "ccnuma", trace, "legacy",
                                         repeats=repeats)
    batched_s, batched_stats = _median_run(cfg, "ccnuma", trace, "batched",
                                           repeats=repeats)
    _assert_identical("ccnuma", legacy_stats, batched_stats)
    return {
        "accesses": trace.total_accesses(),
        "legacy_s": round(legacy_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup_vs_legacy": round(legacy_s / batched_s, 3),
        "kernel": _kernel_lane(cfg, "ccnuma", trace, batched_s,
                               batched_stats, repeats),
    }


def measure_sweep(scale: float) -> dict:
    """Figure-sized jobs=2 sweep: warm shared-memory vs cold npz workers."""
    from repro.config import base_config
    from repro.experiments.runner import SweepRunner
    from repro.workloads import get_workload

    cfg = base_config(seed=0)
    traces = [get_workload(app, machine=cfg.machine, scale=max(0.05, scale),
                           seed=0) for app in ("lu", "radix", "barnes")]
    items = [(t, s, cfg) for t in traces
             for s in ("perfect", "ccnuma", "migrep", "rnuma")]

    def sweep():
        with SweepRunner(jobs=2, memoize=False) as runner:
            runner.map_runs(items)
            return runner.stats

    # two passes each, best-of: pool start-up and 2-worker scheduling on
    # small CI machines are noisy, and the gate compares the two numbers
    # against each other rather than against a committed recording
    cold_times = []
    os.environ["REPRO_NO_SHM"] = "1"
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            sweep()
            cold_times.append(time.perf_counter() - t0)
    finally:
        os.environ.pop("REPRO_NO_SHM", None)
    warm_times = []
    for _ in range(2):
        t0 = time.perf_counter()
        stats = sweep()
        warm_times.append(time.perf_counter() - t0)
    cold_s = min(cold_times)
    warm_s = min(warm_times)
    return {
        "runs": len(items),
        "cold_npz_s": round(cold_s, 4),
        "warm_shm_s": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 3),
        "shm_attaches": stats.shm_attaches,
        "worker_reuse": stats.worker_reuse,
    }


def measure_streaming(scale: float, repeats: int) -> dict:
    """In-memory vs streamed-from-file timings of the same trace.

    Writes a figure-sized trace to a trace file, then times the batched
    engine over the in-memory :class:`Trace` and over the mmap-backed
    :class:`StreamingTrace` of the same file, repeats interleaved to
    cancel drift.  Results must be bit-identical; the gate is on the
    overhead ratio.
    """
    import tempfile

    from repro.config import base_config
    from repro.workloads import get_workload
    from repro.workloads.tracefile import open_trace, write_trace_file

    cfg = base_config(seed=0)
    trace = get_workload("lu", machine=cfg.machine,
                         scale=max(0.05, 0.3 * scale), seed=0)
    with tempfile.TemporaryDirectory(prefix="repro-bench-stream-") as d:
        path = write_trace_file(trace, Path(d) / "bench.rpt")
        streamed = open_trace(path)
        lanes = [("memory", trace), ("file", streamed)]
        times = {label: [] for label, _ in lanes}
        stats = {}
        for label, tr in lanes:            # warmup (maps the file once)
            _one_run(cfg, "migrep", tr, "batched")
        for _ in range(repeats):
            for label, tr in lanes:
                t, st = _one_run(cfg, "migrep", tr, "batched")
                times[label].append(t)
                stats[label] = st
        _assert_identical("migrep", stats["memory"], stats["file"])
        inmem_s = statistics.median(times["memory"])
        stream_s = statistics.median(times["file"])
        return {
            "accesses": trace.total_accesses(),
            "file_bytes": path.stat().st_size,
            "inmem_s": round(inmem_s, 4),
            "streamed_s": round(stream_s, 4),
            "overhead": round(stream_s / inmem_s, 3),
            "bytes_streamed": streamed.bytes_streamed,
        }


def measure_store(scale: float) -> dict:
    """Sweep wall time without a store vs checkpointing into a cold one.

    Each repetition of the store lane gets a fresh sqlite file, so the
    measured cost is the worst case: every run pickled and upserted.
    A final warm pass over the last populated store is recorded
    informationally — it is bounded by unpickling and should be a small
    fraction of the cold sweep.  Both gated sides are fresh best-of-two
    wall clocks, compared against each other (ratios transfer across
    machines).
    """
    import tempfile

    from repro.config import base_config
    from repro.experiments.runner import SweepRunner
    from repro.experiments.store import ResultStore
    from repro.workloads import get_workload

    cfg = base_config(seed=0)
    traces = [get_workload(app, machine=cfg.machine, scale=max(0.05, scale),
                           seed=0) for app in ("lu", "radix", "barnes")]
    items = [(t, s, cfg) for t in traces
             for s in ("perfect", "ccnuma", "migrep", "rnuma")]

    def sweep(store_path=None):
        with SweepRunner(jobs=2, memoize=False,
                         store=store_path) as runner:
            runner.map_runs(items)
            return runner.stats

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as d:
        nostore_times, cold_times = [], []
        store_path = None
        for rep in range(2):
            t0 = time.perf_counter()
            sweep()
            nostore_times.append(time.perf_counter() - t0)
            store_path = Path(d) / f"bench-{rep}.sqlite"
            t0 = time.perf_counter()
            cold_stats = sweep(store_path)
            cold_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        warm_stats = sweep(store_path)
        warm_s = time.perf_counter() - t0
        with ResultStore(store_path) as store:
            store_rows = len(store)
    nostore_s = min(nostore_times)
    cold_s = min(cold_times)
    return {
        "runs": len(items),
        "nostore_s": round(nostore_s, 4),
        "cold_store_s": round(cold_s, 4),
        "warm_store_s": round(warm_s, 4),
        "overhead": round(cold_s / nostore_s, 3),
        "warm_ratio": round(warm_s / nostore_s, 3),
        "store_misses": cold_stats.store_misses,
        "store_hits": warm_stats.store_hits,
        "store_rows": store_rows,
    }


def measure_all(scale: float, repeats: int) -> dict:
    return {
        "miss_dense": measure_miss_dense(scale, repeats),
        "hot_set": measure_hot_set(scale, repeats),
        "sweep_jobs2": measure_sweep(scale * 0.15),
        "streaming": measure_streaming(scale, repeats),
        "store": measure_store(scale * 0.15),
    }


def _fail(msgs, msg):
    msgs.append("FAIL: " + msg)


def check(measured: dict, recorded: dict, tolerance: float) -> int:
    """Compare fresh measurements against the committed record."""
    failures: list = []
    baseline = recorded.get("baseline", {})
    current = recorded.get("current", {})

    # 1. miss-dense speedup vs the PR 4 baseline (ratio of ratios)
    pr4_md = baseline.get("miss_dense", {})
    md = measured["miss_dense"]
    pr4_migrep = pr4_md.get("migrep", {}).get("speedup_vs_legacy")
    if pr4_migrep:
        need = pr4_migrep * 1.3 * (1 - tolerance)
        got = md["migrep"]["speedup_vs_legacy"]
        print(f"miss-dense migrep speedup vs legacy: {got:.2f} "
              f"(PR4 {pr4_migrep:.2f}; gate >= {need:.2f})")
        if got < need:
            _fail(failures, "miss-dense migrep speedup fell below 1.3x the "
                            "PR 4 baseline")
    pr4_rnuma = pr4_md.get("rnuma", {}).get("speedup_vs_legacy")
    if pr4_rnuma:
        need = pr4_rnuma * (1 - tolerance)
        got = md["rnuma"]["speedup_vs_legacy"]
        print(f"miss-dense rnuma speedup vs legacy: {got:.2f} "
              f"(PR4 {pr4_rnuma:.2f}; gate >= {need:.2f})")
        if got < need:
            _fail(failures, "miss-dense rnuma speedup regressed below the "
                            "PR 4 band")

    # 2. compiled kernel lanes: migrep >= 5x over batched on the same
    # host; the full-family lanes (rnuma relocation, the hybrid, and
    # migrep under the inlined hysteresis policy) >= 4x each — and
    # none below the band of the committed recording.  A fallback (no
    # compiled backend on this host) skips that lane's gate by design.
    for key, floor in (("migrep", 5.0), ("rnuma", 4.0),
                       ("rnuma_migrep", 4.0), ("hysteresis", 4.0)):
        kernel = md.get(key, {}).get("kernel", {})
        if "speedup_vs_batched" not in kernel:
            print(f"miss-dense {key} kernel: fell back "
                  f"({kernel.get('fallback_reason', 'no record')}) — gate "
                  "skipped")
            continue
        got = kernel["speedup_vs_batched"]
        need = floor * (1 - tolerance)
        print(f"miss-dense {key} kernel ({kernel.get('backend')}) vs "
              f"batched: x{got:.2f} at {kernel['refs_per_s']:,} refs/s "
              f"(gate >= x{need:.2f})")
        if got < need:
            _fail(failures, f"{key} kernel speedup over batched fell "
                            f"below the {floor:g}x floor")
        cur_kernel = (current.get("miss_dense", {}).get(key, {})
                      .get("kernel", {}).get("speedup_vs_batched"))
        if cur_kernel and got < cur_kernel * (1 - tolerance):
            _fail(failures, f"{key} kernel speedup regressed below the "
                            "committed band")

    # 3. warm shared-memory workers must not lose to the cold path.  Both
    # sides are fresh best-of-two wall clocks (no committed anchor), so
    # the margin is doubled to keep small shared CI machines from
    # flaking the build.
    sw = measured["sweep_jobs2"]
    print(f"jobs=2 sweep: warm {sw['warm_shm_s']}s vs cold "
          f"{sw['cold_npz_s']}s (x{sw['warm_speedup']})")
    if sw["warm_shm_s"] > sw["cold_npz_s"] * (1 + 2 * tolerance):
        _fail(failures, "warm shared-memory sweep slower than the cold npz "
                        "path")

    # 4. hot-set band vs the committed current recording
    cur_hot = current.get("hot_set", {}).get("speedup_vs_legacy")
    hot = measured["hot_set"]["speedup_vs_legacy"]
    if cur_hot:
        need = cur_hot * (1 - tolerance)
        print(f"hot-set speedup vs legacy: {hot:.2f} "
              f"(recorded {cur_hot:.2f}; gate >= {need:.2f})")
        if hot < need:
            _fail(failures, "hot-set batched speedup regressed")
    else:
        print(f"hot-set speedup vs legacy: {hot:.2f} (no recording)")

    # 5. streaming overhead: a file-served run may cost at most 10% over
    # the in-memory run of the same trace (both sides fresh wall clocks,
    # so the tolerance band widens the fixed gate rather than anchoring
    # to a committed number)
    stream = measured.get("streaming")
    if stream:
        limit = 1.10 * (1 + tolerance)
        print(f"streaming overhead vs in-memory: x{stream['overhead']:.3f} "
              f"(gate <= x{limit:.3f})")
        if stream["overhead"] > limit:
            _fail(failures, "file-streamed run exceeded the 10% overhead "
                            "budget over the in-memory run")

    # 6. cold-store checkpointing overhead: a sweep writing every result
    # into a fresh ResultStore may cost at most 10% over the same sweep
    # without a store (fixed gate widened by the tolerance band, same
    # shape as gate 5).  The warm number is informational: it is a
    # replay, not a simulation.
    store = measured.get("store")
    if store:
        limit = 1.10 * (1 + tolerance)
        print(f"cold-store sweep overhead vs no-store: "
              f"x{store['overhead']:.3f} (gate <= x{limit:.3f}; warm "
              f"replay x{store['warm_ratio']:.3f})")
        if store["overhead"] > limit:
            _fail(failures, "cold-store sweep exceeded the 10% overhead "
                            "budget over the storeless sweep")
        if store["store_hits"] != store["runs"]:
            _fail(failures, "warm store pass recomputed runs that were "
                            "already stored")

    for msg in failures:
        print(msg, file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true",
                      help="measure and rewrite the `current` section of "
                           "BENCH_engine.json")
    mode.add_argument("--check", action="store_true",
                      help="measure and fail on regression vs the committed "
                           "BENCH_engine.json")
    parser.add_argument("--scale", type=float,
                        default=float(os.environ.get("REPRO_BENCH_SCALE",
                                                     "1.0")),
                        help="workload scale factor (default: "
                             "REPRO_BENCH_SCALE or 1.0)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per measurement (median)")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="relative tolerance band for --check "
                             "(default 0.2)")
    parser.add_argument("--file", type=Path, default=BENCH_FILE,
                        help="benchmark record file (default: "
                             "BENCH_engine.json)")
    args = parser.parse_args(argv)

    recorded = {}
    if args.file.exists():
        recorded = json.loads(args.file.read_text())

    measured = measure_all(args.scale, args.repeats)
    print(json.dumps(measured, indent=2))

    if args.record:
        recorded["schema"] = 5
        recorded["current"] = {
            "scale": args.scale,
            **measured,
        }
        args.file.write_text(json.dumps(recorded, indent=2) + "\n")
        print(f"recorded -> {args.file}")
        return 0
    return check(measured, recorded, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
