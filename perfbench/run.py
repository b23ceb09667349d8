"""End-to-end benchmark: regenerate paper artefacts as a user does.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload figure5 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seconds 40          # every workload, one table

One run warms up (builds the kernel's C backend into a benchmark-owned
cache, writes streamed traces), then starts fresh-process samples of the
workload, each after a set-up probe, until ``--seconds`` are used, and
finally checks the outputs: every row's simulated columns against the
digest recorded in ``digests.json`` for the workload and seed, or, for
an unrecorded seed, one application's cells re-simulated on a second
engine. ``--trace 1`` adds one traced sample and reports the per-layer
metrics instead of the end-to-end ones. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
from spec import WORKLOADS, Workload  # noqa: E402

#: set-up probes before each sample, on top of the sample's own set-up
SETUP_PROBES = 1
#: longest any child may take before it is killed
CHILD_TIMEOUT_S = 150.0
#: stderr lines that count as errors a run swallowed
STDERR_ERROR_MARKS = ("Exception ignored", "Traceback (most recent call last)")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    """A child process exited badly or wrote no result."""


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_KERNEL_CACHE"] = str(WORK / "kernel-cache")
    # byte-code caches fill during warm-up, as they do for any user
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(mode: str, w: Workload, seed: int, run_dir: Path,
              *extra: str) -> Tuple[dict, float, int]:
    """Run ``sample.py <mode>``; returns (result, spawn time, stderr errors).

    The child runs in its own session so that a timeout kills its sweep
    workers with it.
    """
    out = run_dir / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "sample.py"), mode,
           "--workload", w.name, "--seed", str(seed), "--work", str(run_dir),
           "--out", str(out), *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} timed out after {CHILD_TIMEOUT_S:.0f} s")
    errors = sum(1 for line in err.splitlines()
                 if line.startswith(STDERR_ERROR_MARKS))
    if proc.returncode != 0 or not out.exists():
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise ChildFailed(f"{mode} exited {proc.returncode}: {tail}")
    return json.loads(out.read_text()), spawned, errors


def load_digests() -> Dict[str, Dict[str, Dict[str, str]]]:
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {}


def _sample(w: Workload, seed: int, run_dir: Path, log: List[str], *,
            traced: bool = False) -> Optional[dict]:
    extra = ["--traced", "--trace-out",
             str(WORK / "traces" / f"{w.name}-seed{seed}.json")] if traced else []
    try:
        res, spawned, errors = run_child("sample", w, seed, run_dir, *extra)
    except ChildFailed as exc:
        log.append(f"sample failed: {exc}")
        return None
    res["setup_s"] = res["ready"] - spawned
    res["stderr_errors"] = errors
    for problem in res["problems"]:
        log.append(f"sample check failed: {problem}")
    return res


def measure_workload(w: Workload, seed: int, seconds: float, trace: bool,
                     *, record: bool = False) -> dict:
    """One benchmark run of ``w``; returns the result document and a log."""
    log: List[str] = []
    warnings: List[str] = []
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        warm, _, _ = run_child("setup", w, seed, run_dir)
        if w.engine == "kernel" and not warm["backend"]:
            log.append(f"kernel backend resolved to none: {warm['backend_reason']}")
        if w.streamed:
            run_child("prep", w, seed, run_dir)
        traced = None
        samples: List[Optional[dict]] = []
        durations: List[float] = []
        start = time.monotonic()
        if trace:
            # a traced sample that breaks is the wrappers' fault, not the
            # simulator's: it costs the per-layer metrics, never a run
            notes: List[str] = []
            traced = _sample(w, seed, run_dir, notes, traced=True)
            if traced is None or traced["problems"]:
                warnings.extend(notes)
                traced = None
        setups: List[float] = []
        cals: List[float] = []
        while True:
            t = time.monotonic()
            # set-up probes ride along with every sample, so the set-up
            # figure spans the whole run like the samples do
            for _ in range(0 if trace else SETUP_PROBES):
                res, spawned, _ = run_child("setup", w, seed, run_dir)
                setups.append(res["ready"] - spawned)
                cals.extend(res["cal"])
            samples.append(_sample(w, seed, run_dir, log))
            if samples[-1] is not None:
                cals.extend(samples[-1]["cal"])
            durations.append(time.monotonic() - t)
            if time.monotonic() - start + measure.median(durations) > seconds:
                break

        good = [s for s in samples + [traced] if s and not s["problems"]]
        digests = load_digests()
        reference = digests.get(w.name, {}).get(str(seed))
        suspect: set = set()
        if reference is None and good:
            reference = good[0]["rows"]
            try:
                x, _, _ = run_child("xcheck", w, seed, run_dir)
                mine = {k: v for k, v in reference.items()
                        if k.startswith(x["app"] + "|")}
                suspect = set(measure.mismatched(x["rows"], mine))
                if suspect:
                    log.append(f"cross-check on {x['engine']} disagrees on "
                               f"{len(suspect)} cells of {x['app']}")
                elif record:
                    digests.setdefault(w.name, {})[str(seed)] = reference
                    DIGESTS.write_text(json.dumps(digests, indent=1,
                                                  sort_keys=True) + "\n")
            except ChildFailed as exc:
                log.append(f"cross-check failed: {exc}")
                suspect = {k for k in reference
                           if k.startswith(w.xcheck_app + "|")}

        attempted = failed = 0
        for s in samples + ([traced] if traced else []):
            attempted += w.cells
            if s is None or s["problems"] or reference is None:
                failed += w.cells
                continue
            bad = set(measure.mismatched(s["rows"], reference)) | suspect
            failed += min(w.cells, len(bad) + s["run_failures"])
        ok = [s for s in samples if s is not None]
        return {"workload": w, "seed": seed, "samples": ok, "traced": traced,
                "setups": setups + [s["setup_s"] for s in ok], "cals": cals,
                "attempted": attempted, "failed": failed, "log": log,
                "warnings": warnings, "backend": warm["backend"]}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def end_to_end(result: dict) -> Dict[str, Tuple[float, str]]:
    """The gated metrics. Times are fastest observations (of each
    simulation for ``wall_s``, of the set-up probes for ``setup_s``) in
    seconds at the reference host speed; see ``measure.host_speed``.
    """
    samples = result["samples"]
    if not samples:
        return {}
    speed = measure.host_speed(result["cals"])
    out = {
        "wall_s": speed * measure.fastest_parts(
            [(s["wall_s"], s["parts"]) for s in samples]),
        "setup_s": speed * min(result["setups"]),
        "peak_rss_mb": measure.median([s["peak_rss_mb"] for s in samples]),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in out.items()}


def per_layer(result: dict) -> Dict[str, Tuple[float, str]]:
    traced = result["traced"]
    if not traced or "layers" not in traced:
        return {}
    out = {k: (float(v), unit) for k, (v, unit) in traced["layers"].items()}
    out["runner.stderr_errors"] = (float(traced["stderr_errors"]), "count")
    if result["samples"]:
        base = measure.median([s["wall_s"] for s in result["samples"]])
        out["trace_overhead"] = (traced["wall_s"] / base, "ratio")
    return out


def print_report(result: dict, metrics: Dict[str, Tuple[float, str]]) -> None:
    w = result["workload"]
    n = len(result["samples"])
    share = measure.failed_share(result["failed"], result["attempted"])
    print(f"== {w.name} (seed {result['seed']}): {w.scenario} at scale "
          f"{w.scale}, engine={w.engine}, jobs={w.jobs}, backend="
          f"{result['backend']}, {n} samples")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<36} {value:>16.6g} {unit}")
    print(f"  {'failed_share':<36} {share:>16.6g} "
          f"({result['failed']}/{result['attempted']} runs)")
    samples = result["samples"]
    if samples:
        # throughput is 1/wall_s at a fixed input and cpu_s tracks wall_s
        # at -j1, so both are reported but not gated: gating them would
        # count the same noise twice
        refs_per_s = measure.median([s["refs"] / s["wall_s"] for s in samples])
        print(f"  {'refs_per_s':<36} {refs_per_s:>16.6g} 1/s "
              f"({samples[0]['refs']} refs, median, as measured)")
        cpu = measure.median([s["cpu_s"] for s in samples])
        print(f"  {'cpu_s':<36} {cpu:>16.6g} s (median, as measured)")
    if result["cals"]:
        print(f"  host speed {measure.host_speed(result['cals']):.4f} of the "
              f"reference ({len(result['cals'])} calibration probes)")
    walls = [s["wall_s"] for s in samples]
    print(f"  sample wall_s as measured: {', '.join(f'{x:.3f}' for x in walls)} "
          f"(quartile spread {measure.spread(walls):.3f})")
    if result["setups"]:
        print(f"  set-up as measured: median {measure.median(result['setups']):.4f}"
              f" s, fastest {min(result['setups']):.4f} s "
              f"({len(result['setups'])} probes)")
    traced = result["traced"]
    first = traced or (result["samples"] or [None])[0]
    if first:
        print(f"  kernel backends: {first['backends']}, fallbacks: "
              f"{first['fallback_reasons']}")
    if traced:
        print(f"  trace file: {traced.get('trace_file')}")
        for target in traced.get("absent", []):
            print(f"  absent: {target}")
    for line in result["warnings"]:
        print(f"  warning: {line}")
    for line in result["log"]:
        print(f"  ! {line}")


def summary_line(result: dict, metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps({
        "correct": result["failed"] == 0 and not result["log"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print one table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record the digest of a seed that passes the "
                         "cross-check into digests.json")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")
    names = sorted(WORKLOADS) if args.all else [args.workload]
    lines = []
    for name in names:
        result = measure_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), record=args.record)
        metrics = per_layer(result) if args.trace else end_to_end(result)
        print_report(result, metrics)
        lines.append(summary_line(result, metrics))
    print(lines[0] if len(lines) == 1 else
          json.dumps({n: json.loads(l) for n, l in zip(names, lines)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
