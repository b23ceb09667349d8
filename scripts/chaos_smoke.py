#!/usr/bin/env python
"""CI chaos leg: prove the sweep-robustness invariants end to end.

Two checks, both runnable locally:

``python scripts/chaos_smoke.py chaos``
    Runs a figure5 sweep at ``jobs=2`` with crash+hang+error injectors
    afflicting a large fraction of worker runs and asserts the
    ``ResultSet`` rows are bit-identical to a fault-free run, with the
    recoveries visible in the runner counters.

``python scripts/chaos_smoke.py kill-resume``
    Launches a sweep with a result store (``--store``) in a subprocess,
    SIGKILLs it once a run has been committed, reruns it to completion
    (the committed runs served from the store), then reruns once more
    and asserts zero runs were re-executed: every row is a store hit.

Both sweeps cover two applications: the runner streams a sweep's
traces, so faults strike while the second trace is still being built
and its runs submitted.

Exit code 0 means the invariants held.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

APPS = ["lu", "ocean"]
SCALE = "0.05"


def _clean_env() -> dict:
    env = dict(os.environ)
    for var in ("REPRO_FAULTS", "REPRO_FAULTS_SEED", "REPRO_FAULTS_ATTEMPTS",
                "REPRO_FAULTS_HANG_S", "REPRO_JOBS"):
        env.pop(var, None)
    return env


def check_chaos() -> int:
    from repro.experiments.runner import SweepRunner
    from repro.experiments.scenario import run_scenario

    clean = run_scenario("figure5", apps=APPS, scale=float(SCALE))

    os.environ["REPRO_FAULTS"] = "crash=0.25,hang=0.15,error=0.15"
    os.environ["REPRO_FAULTS_HANG_S"] = "60"
    with SweepRunner(jobs=2, run_timeout=10.0, backoff=0.05) as runner:
        faulted = run_scenario("figure5", apps=APPS, scale=float(SCALE),
                               runner=runner)
        stats = runner.stats.as_dict()
    del os.environ["REPRO_FAULTS"]

    print("runner counters under injection:", json.dumps(stats))
    recoveries = stats["retries"] + stats["crashes"] + stats["timeouts"] \
        + stats["run_errors"]
    if recoveries == 0:
        print("FAIL: injection produced no faults (rates too low?)")
        return 1
    if faulted.rows != clean.rows:
        print("FAIL: faulted ResultSet differs from the fault-free run")
        return 1
    print(f"OK: {len(faulted.rows)} rows bit-identical under injection "
          f"({recoveries} recoveries)")
    return 0


def _stored_rows(store: Path) -> int:
    """Runs committed to the store so far (0 until its table exists)."""
    if not store.exists():
        return 0
    try:
        conn = sqlite3.connect(str(store), timeout=5)
        try:
            (count,) = conn.execute("SELECT COUNT(*) FROM results").fetchone()
        finally:
            conn.close()
    except sqlite3.Error:
        return 0
    return int(count)


def check_kill_resume() -> int:
    env = _clean_env()
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "sweep.sqlite"
        out_json = Path(tmp) / "out.json"
        argv = [sys.executable, "-m", "repro", "exp", "figure5",
                "--apps", ",".join(APPS), "--scale", SCALE, "--jobs", "2",
                "--store", str(store), "--json", str(out_json)]

        # 1) start the sweep and SIGKILL it mid-flight (as soon as the
        # store holds a committed run, so the kill lands mid-sweep)
        victim = subprocess.Popen(argv, env=env, cwd=tmp,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if _stored_rows(store) > 0 or victim.poll() is not None:
                break
            time.sleep(0.02)
        at_kill = 0
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
            victim.wait()
            at_kill = _stored_rows(store)
            print(f"killed mid-flight ({at_kill} run(s) in the store)")
        else:
            # tiny sweeps can finish before the kill lands; the resume
            # half of the check still proves the store contract
            print("sweep finished before the kill; continuing with resume")

        # 2) resume to completion: the committed runs are store hits
        rc = subprocess.run(argv, env=env, cwd=tmp).returncode
        if rc != 0:
            print(f"FAIL: resumed sweep exited {rc}")
            return 1
        first = json.loads(out_json.read_text())
        hits = (first.get("runner") or {}).get("store_hits", 0)
        if hits < at_kill:
            print(f"FAIL: resume served {hits} of {at_kill} stored runs")
            return 1

        # 3) resume again: every row must come from the store
        rc = subprocess.run(argv, env=env, cwd=tmp).returncode
        if rc != 0:
            print(f"FAIL: second resume exited {rc}")
            return 1
        second = json.loads(out_json.read_text())
        runner = second.get("runner") or {}
        print("second-resume counters:", json.dumps(runner))
        if runner.get("runs") != 0:
            print(f"FAIL: resume re-executed {runner.get('runs')} runs")
            return 1
        if runner.get("store_hits") != len(second["rows"]):
            print(f"FAIL: {runner.get('store_hits')} store hits for "
                  f"{len(second['rows'])} rows")
            return 1
        if second["rows"] != first["rows"]:
            print("FAIL: resumed rows differ")
            return 1
    print("OK: kill-resume recomputed zero completed runs")
    return 0


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1] not in ("chaos", "kill-resume"):
        print(__doc__)
        return 2
    if sys.argv[1] == "chaos":
        return check_chaos()
    return check_kill_resume()


if __name__ == "__main__":
    sys.exit(main())
