"""Pure helpers of the benchmark: summary statistics, host calibration
and output digests.

Kept free of ``repro`` imports so the orchestrator and the tests can use
them without the simulator.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from pathlib import PurePath
from time import perf_counter
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: iterations of one calibration repetition (about 20 ms of interpreter work)
CAL_ITERATIONS = 131072
#: repetitions per calibration probe; the probe reports the fastest
CAL_REPS = 5
#: the probe's time on the reference host (a quiet 2-vCPU Intel Xeon at
#: 2.0 GHz, CPython 3.11): times are reported in seconds at this speed
CAL_REF_S = 0.0185

#: the simulated columns of a ResultSet row that the output check hashes:
#: execution time, miss classes, messages, bytes and page operations
SIMULATED_COLUMNS = (
    "execution_time",
    "remote_misses", "capacity_conflict_misses", "coherence_misses",
    "cold_misses", "local_misses",
    "network_messages", "network_bytes",
    "migrations", "replications", "relocations",
)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle two when even)."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the default
    exclusive method), the same rule the acceptance check applies to the
    ten per-seed medians. Fewer than two values have no spread.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def _cal_body(n: int) -> int:
    table: Dict[int, int] = {}
    acc = 0
    for i in range(n):
        k = i & 1023
        v = table.get(k, 0) + ((i ^ acc) & 7)
        table[k] = v
        acc += v
    return acc


def _fastest_loop(reps: int, n: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t = perf_counter()
        _cal_body(n)
        best = min(best, perf_counter() - t)
    return best


def calibrate(reps: int = CAL_REPS, n: int = CAL_ITERATIONS) -> float:
    """Seconds the fixed interpreter loop takes now on the caller's CPUs.

    The loop is pure CPython (dict, integer and branch work, like the
    simulator's interpreted paths) and uses no ``repro`` code, so a change
    to the simulator never moves it, while a slower host moves both. Each
    vCPU of a shared host slows on its own, so the loop runs on every CPU
    the process may use, in turn, and the result is the mean over those
    CPUs of the fastest of ``reps``.
    """
    cpus = (sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else [])
    if len(cpus) < 2:
        return _fastest_loop(reps, n)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_fastest_loop(reps, n))
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def host_speed(probes: Sequence[float]) -> float:
    """Reference probe time over this run's: above 1 means a faster host.

    The run's probe time is the lower quartile of its probes (inclusive
    method): like the gated times it leans to the host's fast speed when
    the run saw some, which the median does not, while one freak fast
    probe does not move it, as it would the minimum.
    """
    if not probes:
        raise ValueError("host_speed of no probes")
    if len(probes) == 1:
        return CAL_REF_S / probes[0]
    return CAL_REF_S / statistics.quantiles(probes, n=4, method="inclusive")[0]


def fastest_parts(samples: Sequence[Tuple[float, Sequence[float]]]) -> float:
    """Wall time built from the fastest observation of each part.

    Each sample is ``(wall, parts)``, where ``parts`` are the times of the
    sample's simulations in execution order and the rest of ``wall`` is
    trace building and bookkeeping. The result is the fastest rest plus,
    for each simulation, its fastest time over the samples. On a shared
    host a sample is slowed for stretches of seconds; taking each short
    part at its fastest keeps those stretches out. Samples whose parts do
    not line up (or that have none) fall back to the fastest whole wall.
    """
    if not samples:
        raise ValueError("fastest_parts of no samples")
    counts = {len(parts) for _, parts in samples}
    if len(counts) != 1 or counts == {0}:
        return min(wall for wall, _ in samples)
    rest = min(wall - sum(parts) for wall, parts in samples)
    return rest + sum(min(col) for col in zip(*(p for _, p in samples)))


def failed_share(failed: int, attempted: int) -> float:
    """Failed runs over attempted runs; a run nobody attempted is failed."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def row_key(row: Mapping[str, object]) -> str:
    """Stable identity of a ResultSet row: ``app|system|config``.

    ``file:`` apps are named by their file stem, so the key does not
    depend on where the checkout lives.
    """
    app = str(row["app"])
    if app.startswith("file:"):
        app = PurePath(app[len("file:"):]).stem
    return f"{app}|{row['system']}|{row['config']}"


def row_hash(row: Mapping[str, object]) -> str:
    """Short hash of one row's simulated columns."""
    values = [row.get(col) for col in SIMULATED_COLUMNS]
    blob = json.dumps(values, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def row_hashes(rows: Iterable[Mapping[str, object]]) -> Dict[str, str]:
    """``{row_key: row_hash}`` for every row of a ResultSet."""
    return {row_key(r): row_hash(r) for r in rows}


def mismatched(observed: Mapping[str, str],
               reference: Mapping[str, str]) -> List[str]:
    """Keys whose hash differs from the reference, or that either side lacks."""
    keys = sorted(set(observed) | set(reference))
    return [k for k in keys if observed.get(k) != reference.get(k)]
