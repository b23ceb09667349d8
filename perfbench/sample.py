"""One benchmark child process: set up, run one workload once, report.

Started by ``run.py`` in a fresh interpreter for every sample, so each
sample pays (and reports) the set-up a user pays. Modes:

``setup``   import ``repro`` plus its scenarios and load the kernel
            backend, then stop: the time to "ready". After "ready" it
            runs one calibration probe (``measure.calibrate``).
            The first call in a checkout also builds the C backend into
            ``REPRO_KERNEL_CACHE``; the result names the backend.
``prep``    write the workload's traces to ``.rpt`` files (streamed
            workloads only).
``sample``  run the workload's scenario once and report the end-to-end
            numbers, each simulation's own time, the rows' hashes and the
            claim checks, with a calibration probe before and after the
            timed run; ``--traced`` adds the per-layer spans.
``xcheck``  re-run one application's cells on the workload's second
            engine, untimed, and report the rows' hashes.

The result is one JSON document written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
from spec import APPS, WORKLOADS, Workload  # noqa: E402


def _setup() -> dict:
    """Import the package and its scenarios, and load the kernel backend."""
    import repro  # noqa: F401
    import repro.experiments.scenarios  # noqa: F401
    from repro.experiments.scenario import run_scenario  # noqa: F401
    from repro.engine import kernel

    forced = os.environ.get(getattr(kernel, "BACKEND_ENV_VAR", ""), "")
    resolve = getattr(kernel, "_resolve_backend", None)
    if resolve is not None:
        bind, name = resolve(forced.strip().lower())
        backend, reason = (name, None) if bind is not None else (None, name)
    else:   # the resolver moved: fall back to the C loader itself
        from repro.engine.kernel.cbuild import load_cwalk
        backend = "c" if load_cwalk() is not None else None
        reason = None if backend else "C backend did not load"
    return {"ready": time.monotonic(), "backend": backend,
            "backend_reason": reason}


def _apps(w: Workload, traces: Path) -> tuple:
    if w.streamed:
        return tuple(f"file:{traces / (app + '.rpt')}" for app in APPS)
    return APPS


def _prep(w: Workload, seed: int, traces: Path) -> dict:
    from repro.config import base_config
    from repro.workloads import get_workload
    from repro.workloads.tracefile import write_trace_file

    traces.mkdir(parents=True, exist_ok=True)
    machine = base_config(seed=seed).machine
    for app in APPS:
        trace = get_workload(app, machine=machine, scale=w.scale, seed=seed)
        write_trace_file(trace, traces / f"{app}.rpt")
    return {"traces": len(APPS)}


def _claims(w: Workload, rs) -> list:
    from repro.analysis import validate

    if w.claims == "figure5":
        checks = validate.check_figure5_shape(rs.figure_data())
    elif w.claims == "table4":
        from repro.experiments.table4 import rows_from_resultset
        checks = validate.check_table4_shape(
            rows_from_resultset(rs, rs.axes["app"]))
    else:
        return []
    return [{"claim": c.claim, "passed": bool(c.passed)} for c in checks]


def _run(w: Workload, seed: int, work: Path, *, engine: str, apps: tuple,
         store: bool):
    """Submit the scenario and wait for a complete ResultSet."""
    from repro.experiments.runner import SweepRunner
    from repro.experiments.scenario import run_scenario

    runner = SweepRunner(
        jobs=w.jobs, engine=engine,
        store=str(work / f"store-{os.getpid()}.db") if store else None)
    try:
        rs = run_scenario(w.scenario, apps=apps, scale=w.scale, seed=seed,
                          runner=runner)
    finally:
        runner.close()
    return rs, runner


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _sample(w: Workload, seed: int, work: Path, traced: bool,
            trace_out: Path) -> dict:
    out = _setup()
    rec = inst = None
    if traced:
        import layers
        rec = layers.Recorder(w.name, sink=work / f"spans-{os.getpid()}")
        try:
            inst = layers.install(rec)
        except Exception as exc:   # tracing must never cost the sample
            out["tracing_error"] = f"{type(exc).__name__}: {exc}"
            traced = False
    cal = [measure.calibrate()]
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    rs, runner = _run(w, seed, work, engine=w.engine,
                      apps=_apps(w, work / "traces"), store=w.store)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    cal.append(measure.calibrate())

    profiles = [r.stats.engine_profile for r in runner.iter_results()
                if isinstance(r.stats.engine_profile, dict)]
    stats = rs.runner_stats or {}
    refs = sum(int(p.get("references", 0)) for p in profiles)
    reasons: dict = {}
    for p in profiles:
        if p.get("fallback_reason"):
            reasons[p["fallback_reason"]] = reasons.get(p["fallback_reason"], 0) + 1
    kernel_runs = sum(1 for p in profiles if p.get("engine") == "kernel")
    problems = []
    if w.engine == "kernel":
        if not kernel_runs:
            problems.append(f"no run used the kernel (backend {out['backend']})")
        unexpected = sorted(set(reasons) - set(w.expected_fallbacks))
        if unexpected:
            problems.append("unexpected kernel fallback: " + "; ".join(unexpected))
    claims = _claims(w, rs)
    if len(claims) != w.n_claims:
        problems.append(f"{len(claims)} of {w.n_claims} claims checked")
    failed_claims = [c["claim"] for c in claims if not c["passed"]]
    if failed_claims:
        problems.append("claims failed: " + "; ".join(failed_claims))
    # each simulation's own timer, in execution order; with workers the
    # simulations overlap, so only a serial sweep is split into parts
    parts = [float(p["wall_s"]) for p in profiles if "wall_s" in p]
    if w.jobs != 1 or len(parts) != len(profiles):
        parts = []
    out.update({
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": _peak_rss_mb(),
        "parts": parts, "cal": cal,
        "refs": refs, "rows": measure.row_hashes(rs.rows),
        "claims": claims, "problems": problems,
        "backends": sorted({str(p["backend"]) for p in profiles
                            if p.get("backend")}),
        "fallback_reasons": reasons,
        "run_failures": sum(int(stats.get(k, 0))
                            for k in ("run_errors", "crashes", "timeouts")),
    })
    if traced:
        inst.restore()
        workers = rec.merge_sink()
        metrics = layers.span_metrics(rec, inst.installed, wall_s=wall,
                                      jobs=w.jobs)
        metrics.update(layers.profile_metrics(profiles, stats))
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        trace_out.write_text(json.dumps(rec.chrome_trace(t0)))
        out.update({"layers": metrics, "absent": inst.absent,
                    "trace_file": str(trace_out), "trace_workers": workers,
                    "dropped_spans": rec.dropped})
    return out


def _xcheck(w: Workload, seed: int, work: Path) -> dict:
    app = w.xcheck_app
    apps = (f"file:{work / 'traces' / (app + '.rpt')}",) if w.streamed else (app,)
    rs, _ = _run(w, seed, work, engine=w.xcheck_engine, apps=apps, store=False)
    return {"engine": w.xcheck_engine, "app": app,
            "rows": measure.row_hashes(rs.rows)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "prep", "sample", "xcheck"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True,
                    help="per-run scratch directory (traces, stores, spans)")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--trace-out", type=Path, default=None)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    if w.jobs == 1 and hasattr(os, "sched_setaffinity"):
        # every child of a serial workload runs on the same CPU, so the
        # calibration probes time the vCPU the samples run on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.mode == "setup":
        result = _setup()
        result["cal"] = [measure.calibrate()]
    elif args.mode == "prep":
        result = _prep(w, args.seed, args.work / "traces")
    elif args.mode == "sample":
        result = _sample(w, args.seed, args.work, args.traced,
                         args.trace_out or args.work / "trace.json")
    else:
        result = _xcheck(w, args.seed, args.work)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
