"""Run (workload, system) experiments: one-shot helpers and the SweepRunner.

:func:`run_experiment` is the basic entry point: build a machine for a
named system, run a trace through it and wrap the statistics in an
:class:`ExperimentResult`.  Because the paper reports everything
normalized to a perfect CC-NUMA run of the same application,
:func:`run_pair` and :func:`run_systems` bundle the baseline run together
with the systems of interest.

The figure/table/ablation harnesses go through a :class:`SweepRunner`
instead: it executes independent (workload, system, config) runs across
worker *processes* (``--jobs`` on the CLI, ``REPRO_JOBS`` in the
environment) and memoizes results keyed by a digest of the trace content,
the system name and the configuration — so e.g. the perfect-CC-NUMA
baseline of an application is simulated once per sweep, not once per
figure, and re-renders are free.

Parallel dispatch is *zero-copy* with respect to the trace streams: the
runner publishes each distinct trace once into a digest-keyed
shared-memory pool (:class:`SharedTracePool`, via
:func:`repro.workloads.trace_io.trace_to_shm`) and submits only
``(meta, digest, system, config)`` to the pool.  Warm workers attach a
segment the first time they see its digest — one ``mmap``, no
deserialization — and keep it in a per-process cache, so repeated runs
of the same trace cost nothing to ship.  When the platform offers no
shared memory (or ``REPRO_NO_SHM`` is set) the runner falls back to the
digest-keyed on-disk npz store (:class:`TraceStore`): workers then load
a trace the first time they see its digest and cache it per process, so
a figure-sized sweep still pickles no stream arrays at all.

File-backed traces (:class:`repro.workloads.tracefile.StreamingTrace`)
ride their own lane: the trace already *is* a digest-carrying on-disk
artifact, so the runner submits just its path — workers mmap the file
and stream phases out of core, and nothing is ever published to shm or
spilled to npz.  Their content digest comes from the file footer, so
memoization and the result store work without hashing a single stream
byte.

Parallel execution is *supervised*: futures are harvested as they
complete, so one dying worker cannot orphan finished results.  Failures
are classified — worker crash (``BrokenProcessPool``), wall-clock
timeout (the runner kills the hung pool), or an exception raised by the
run itself — and failed runs are retried on a respawned pool with
capped exponential backoff, degrading repeat offenders from the
shared-memory lane to the npz lane to inline execution in the
supervising process (which cannot crash the sweep).  The deterministic
fault injectors in :mod:`repro.experiments.faults` prove the invariant:
a sweep under injected crashes/hangs returns results bit-identical to a
fault-free run.

The memo table itself can be made durable: a content-addressed
:class:`~repro.experiments.store.ResultStore` (``store=`` /
``repro exp --store``) is consulted before any pending run executes,
and every completed run is committed to it as soon as it is harvested,
under the memo's own key.  A sweep killed at any instant therefore
loses at most its in-flight runs: re-run against the same store, in a
fresh process, it executes only what the store does not hold.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
import threading
import time
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.cluster.machine import Machine
from repro.config import SimulationConfig, base_config
from repro.core.factory import SystemSpec, build_system
from repro.engine import default_engine
from repro.engine.kernel import BAIL_KIND_NAMES
from repro.experiments import faults as _faults
from repro.experiments.store import ResultStore
from repro.stats.counters import MachineStats
from repro.workloads.trace import Trace
from repro.workloads.trace_io import (
    load_trace,
    save_trace,
    trace_from_shm,
    trace_to_shm,
)
from repro.workloads.tracefile import StreamingTrace, trace_digest

#: Environment variable disabling the shared-memory trace pool (any
#: non-empty value): parallel dispatch then falls back to the on-disk
#: npz store with per-worker deserialization.
NO_SHM_ENV_VAR = "REPRO_NO_SHM"

#: Environment variable giving the default retry budget per run.
RETRIES_ENV_VAR = "REPRO_RETRIES"

#: Environment variable giving the default per-run wall-clock timeout in
#: seconds (empty/unset: no timeout).
RUN_TIMEOUT_ENV_VAR = "REPRO_RUN_TIMEOUT"


@dataclass
class ExperimentResult:
    """Results of running one workload under one system configuration."""

    workload: str
    system: str
    config: SimulationConfig
    stats: MachineStats

    # -- headline numbers ---------------------------------------------------------

    @property
    def execution_time(self) -> int:
        """Execution time of the run, in processor cycles."""
        return self.stats.execution_time

    def normalized_time(self, baseline: "ExperimentResult | int | float") -> float:
        """Execution time normalized against ``baseline`` (perfect CC-NUMA)."""
        base = (baseline.execution_time
                if isinstance(baseline, ExperimentResult) else float(baseline))
        if base <= 0:
            raise ValueError("baseline execution time must be positive")
        return self.execution_time / base

    # -- Table 4 style numbers -----------------------------------------------------

    def per_node_page_ops(self) -> Dict[str, float]:
        """Per-node migrations, replications and relocations."""
        return {
            "migrations": self.stats.per_node_migrations(),
            "replications": self.stats.per_node_replications(),
            "relocations": self.stats.per_node_relocations(),
        }

    def per_node_misses(self) -> Dict[str, float]:
        """Per-node overall and capacity/conflict remote misses."""
        return {
            "overall": self.stats.per_node_remote_misses(),
            "capacity_conflict": self.stats.per_node_capacity_conflict(),
        }

    def summary(self) -> Dict[str, object]:
        """Flat dictionary of the headline results (reports and tests)."""
        out: Dict[str, object] = {
            "workload": self.workload,
            "system": self.system,
            "execution_time": self.execution_time,
            "remote_misses": self.stats.total_remote_misses,
            "capacity_conflict_misses": self.stats.total_capacity_conflict_misses,
            "coherence_misses": self.stats.total_coherence_misses,
            "cold_misses": self.stats.total_cold_misses,
            "local_misses": self.stats.total_local_misses,
            "network_messages": self.stats.network_messages,
            "network_bytes": self.stats.network_bytes,
        }
        out.update({f"per_node_{k}": v for k, v in self.per_node_page_ops().items()})
        return out


def run_experiment(trace: Trace, system: Union[str, SystemSpec],
                   config: Optional[SimulationConfig] = None) -> ExperimentResult:
    """Run ``trace`` under ``system`` and return the result.

    ``system`` may be a name (see :data:`repro.core.factory.SYSTEM_NAMES`)
    or an explicit :class:`SystemSpec`; ``config`` defaults to the base
    (reduced-machine, fast-page-op) configuration.
    """
    spec = build_system(system) if isinstance(system, str) else system
    cfg = config if config is not None else base_config()
    machine = Machine(cfg, spec)
    stats = machine.run(trace)
    return ExperimentResult(workload=trace.name, system=spec.name,
                            config=cfg, stats=stats)


def run_pair(trace: Trace, system: Union[str, SystemSpec],
             config: Optional[SimulationConfig] = None,
             baseline: str = "perfect") -> tuple[ExperimentResult, ExperimentResult]:
    """Run ``system`` and the normalisation ``baseline`` on the same trace."""
    base = run_experiment(trace, baseline, config)
    result = run_experiment(trace, system, config)
    return result, base


def run_systems(trace: Trace, systems: Sequence[Union[str, SystemSpec]],
                config: Optional[SimulationConfig] = None,
                baseline: Optional[str] = "perfect"
                ) -> Dict[str, ExperimentResult]:
    """Run several systems on the same trace.

    Returns a mapping from system name to result; when ``baseline`` is not
    None it is included under its own name (so callers can normalize).
    """
    results: Dict[str, ExperimentResult] = {}
    if baseline is not None:
        results[baseline] = run_experiment(trace, baseline, config)
    for system in systems:
        spec = build_system(system) if isinstance(system, str) else system
        if spec.name in results:
            continue
        results[spec.name] = run_experiment(trace, spec, config)
    return results


# ---------------------------------------------------------------------------
# SweepRunner: parallel, memoized execution of independent runs
# ---------------------------------------------------------------------------


#: Environment variable giving the default worker-process count.
JOBS_ENV_VAR = "REPRO_JOBS"


def default_jobs() -> int:
    """Worker processes used when a SweepRunner is built without ``jobs``."""
    raw = os.environ.get(JOBS_ENV_VAR, "").strip().lower()
    if raw in ("", "1"):
        return 1
    if raw in ("auto", "0"):
        return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def default_retries() -> int:
    """Retry budget used when a SweepRunner is built without ``retries``."""
    raw = os.environ.get(RETRIES_ENV_VAR, "").strip()
    try:
        return max(0, int(raw)) if raw else 3
    except ValueError:
        return 3


def default_run_timeout() -> Optional[float]:
    """Per-run timeout used when a SweepRunner is built without one."""
    raw = os.environ.get(RUN_TIMEOUT_ENV_VAR, "").strip()
    try:
        value = float(raw) if raw else 0.0
    except ValueError:
        return None
    return value if value > 0 else None


def _trace_digest(trace: Trace) -> str:
    """Content digest of a trace (streams, geometry and phase costs).

    The canonical scheme lives in
    :func:`repro.workloads.tracefile.trace_digest`; traces that already
    carry their digest (a :class:`StreamingTrace` reads it from its file
    footer, where the writer stored the identical hash) skip the stream
    scan entirely.
    """
    carried = getattr(trace, "digest", None)
    if carried:
        return str(carried)
    return trace_digest(trace)


def _peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 if unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix platforms
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import sys
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss in bytes
        peak //= 1024
    return int(peak)


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit once the worker's parent is gone.

    A SIGKILLed sweep cannot shut its pool down; without this its
    workers, and the resource tracker that waits for them, would live on
    reparented to init.  A daemon thread polls the parent pid about once
    a second and exits when it changes.
    """
    parent_pid = os.getppid()

    def _watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=_watch, name="repro-parent-watch",
                     daemon=True).start()


def _execute_run(trace: Trace, system_name: str, cfg: SimulationConfig,
                 engine: str) -> ExperimentResult:
    """Worker entry point: one independent simulation (also used inline).

    The run's ``engine_profile`` (when the engine produces one) is
    annotated with the executing process's peak RSS and, for streamed
    traces, the logical stream bytes this run pulled through the trace —
    the observability behind ``repro exp --profile`` on out-of-core
    sweeps.
    """
    streamed_before = getattr(trace, "bytes_streamed", None)
    machine = Machine(cfg, build_system(system_name))
    stats = machine.run(trace, engine=engine)
    profile = stats.engine_profile
    if isinstance(profile, dict):
        profile["peak_rss_kb"] = _peak_rss_kb()
        if streamed_before is not None:
            profile["bytes_streamed"] = (
                getattr(trace, "bytes_streamed", 0) - streamed_before)
    return ExperimentResult(workload=trace.name, system=system_name,
                            config=cfg, stats=stats)


# ---------------------------------------------------------------------------
# Digest-keyed on-disk trace store (zero-copy parallel dispatch)
# ---------------------------------------------------------------------------


class TraceStore:
    """Digest-keyed on-disk store of traces shared with worker processes.

    Each distinct trace is spilled exactly once, as ``<digest>.npz``
    (written via :func:`repro.workloads.trace_io.save_trace`, whose
    round-trip is bit-exact), into ``root``.  Workers re-load the file on
    first use and cache the trace per process, so submitting N runs of the
    same trace moves its streams across the process boundary zero times —
    only the path string travels.

    Parameters
    ----------
    root:
        Directory for the archives.  ``None`` (the default) creates a
        private temporary directory on first use and removes it on
        :meth:`close`; an explicit directory is reused across runners and
        never deleted.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self._root = Path(root) if root is not None else None
        self._owned = root is None
        self._saved: set = set()
        #: number of archives this store has actually written to disk
        self.spills = 0

    @property
    def root(self) -> Path:
        """The store directory (created on first use)."""
        if self._root is None:
            self._root = Path(tempfile.mkdtemp(prefix="repro-traces-"))
        else:
            self._root.mkdir(parents=True, exist_ok=True)
        return self._root

    def path_for(self, digest: str) -> Path:
        """Path of the archive holding the trace with ``digest``."""
        return self.root / f"{digest}.npz"

    def ensure(self, trace: Trace, digest: str) -> Path:
        """Spill ``trace`` under ``digest`` if not already stored; return its path.

        The archive is written to a temporary name and renamed into place
        so concurrent runners sharing an explicit ``root`` never observe a
        half-written file.
        """
        path = self.path_for(digest)
        if digest not in self._saved:
            if not path.exists():
                # save_trace itself is atomic (tmp + os.replace)
                save_trace(trace, path)
                self.spills += 1
            self._saved.add(digest)
        return path

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Remove the store directory (only when this store created it)."""
        if self._owned and self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
            self._root = None
            self._saved.clear()


#: Per-worker-process LRU cache of traces loaded from a TraceStore.
#: Bounded: map_runs submits runs of the same trace back to back, so a
#: small cache gets the same hit rate as an unbounded one without letting
#: long multi-trace sweeps accumulate every trace in every worker.
_WORKER_TRACES: "Dict[str, Trace]" = {}
_WORKER_TRACE_LIMIT = 4


def _execute_stored_run(trace_path: str, digest: str, system_name: str,
                        cfg: SimulationConfig, engine: str,
                        attempt: int = 0) -> ExperimentResult:
    """Worker entry point taking a stored trace reference instead of arrays."""
    _faults.inject_from_env(digest, system_name, attempt)
    trace = _WORKER_TRACES.pop(digest, None)
    if trace is None:
        trace = load_trace(trace_path)
        while len(_WORKER_TRACES) >= _WORKER_TRACE_LIMIT:
            _WORKER_TRACES.pop(next(iter(_WORKER_TRACES)))
    _WORKER_TRACES[digest] = trace   # re-insert = move to MRU position
    return _execute_run(trace, system_name, cfg, engine)


# ---------------------------------------------------------------------------
# Warm shared-memory workers
# ---------------------------------------------------------------------------


class SharedTracePool:
    """Digest-keyed pool of traces published in shared memory.

    The publishing (runner) process copies each distinct trace once into
    a named ``multiprocessing.shared_memory`` segment; worker processes
    attach by name and rebuild a zero-copy trace
    (:func:`repro.workloads.trace_io.trace_from_shm`), so a run costs one
    ``mmap`` the first time a worker sees a digest and *nothing* after
    that — the per-run npz decompression of the cold path disappears.
    The pool owns the segments: :meth:`close` unlinks them (workers'
    attaches are deregistered from their resource trackers, so nothing
    else ever unlinks a segment) and returns a description of any
    cleanup race it hit instead of swallowing it, so the runner can
    surface the failure in :class:`RunnerStats`.  Worker death never
    leaks a segment held by a *live* publisher; segments orphaned by a
    killed publisher are reclaimed by
    :func:`repro.workloads.trace_io.cleanup_orphan_segments`
    (``repro clean-shm``).
    """

    def __init__(self) -> None:
        self._segments: Dict[str, Tuple[object, Dict[str, object]]] = {}
        #: number of segments this pool has published
        self.segments = 0

    def ensure(self, trace: Trace, digest: str) -> Dict[str, object]:
        """Publish ``trace`` under ``digest`` if new; return its attach meta."""
        entry = self._segments.get(digest)
        if entry is None:
            name = f"repro_{digest[:16]}_{os.getpid()}"
            shm, meta = trace_to_shm(trace, name)
            entry = (shm, meta)
            self._segments[digest] = entry
            self.segments += 1
        return entry[1]

    def close(self) -> List[str]:
        """Unlink every published segment; return cleanup error messages."""
        errors: List[str] = []
        for shm, _meta in self._segments.values():
            try:
                shm.close()
                shm.unlink()
            except Exception as exc:  # pragma: no cover - platform races
                errors.append(f"unlink {getattr(shm, 'name', '?')}: "
                              f"{type(exc).__name__}: {exc}")
        self._segments.clear()
        return errors


#: Per-worker cache of shared-memory traces: digest -> (trace, shm).
#: The shm handle must stay referenced while the trace's arrays (views
#: into the segment) are alive; eviction drops the trace, then closes the
#: handle.
_WORKER_SHM: "Dict[str, Tuple[Trace, object]]" = {}
_WORKER_SHM_LIMIT = 4


def _execute_shm_run(meta: Dict[str, object], digest: str, system_name: str,
                     cfg: SimulationConfig, engine: str, attempt: int = 0
                     ) -> Tuple[ExperimentResult, bool]:
    """Worker entry point for shared-memory traces.

    Returns ``(result, attached)`` — ``attached`` is True when this call
    had to map the segment (a cold worker), False when the warm cache
    served it; the runner aggregates these into
    :class:`RunnerStats.shm_attaches` / ``worker_reuse``.
    """
    _faults.inject_from_env(digest, system_name, attempt)
    entry = _WORKER_SHM.pop(digest, None)
    attached = False
    if entry is None:
        trace, shm = trace_from_shm(meta)
        attached = True
        while len(_WORKER_SHM) >= _WORKER_SHM_LIMIT:
            # the views export the segment's buffer, so they must go
            # first: the tuple's own teardown would close the handle
            # first and SharedMemory's finaliser would print a BufferError
            old_trace, old_shm = _WORKER_SHM.pop(next(iter(_WORKER_SHM)))
            del old_trace
            old_shm.close()
        entry = (trace, shm)
    _WORKER_SHM[digest] = entry   # re-insert = move to MRU position
    return _execute_run(entry[0], system_name, cfg, engine), attached


# ---------------------------------------------------------------------------
# File-backed traces (out-of-core parallel dispatch)
# ---------------------------------------------------------------------------


#: Per-worker cache of open streaming traces, keyed by digest.  An open
#: :class:`StreamingTrace` holds one read-only mmap plus cached phase
#: *views* (not data), so the cache is cheap no matter how large the
#: traces are; keeping it warm preserves the per-phase classification
#: schedules across repeated runs of the same file.
_WORKER_FILES: "Dict[str, StreamingTrace]" = {}
_WORKER_FILE_LIMIT = 4


def _execute_file_run(trace_path: str, digest: str, system_name: str,
                      cfg: SimulationConfig, engine: str,
                      attempt: int = 0) -> Tuple[ExperimentResult, bool]:
    """Worker entry point for file-backed (streaming) traces.

    Only the path string crosses the process boundary — the worker mmaps
    the trace file on first sight of its digest and streams phases from
    it, never materializing the trace.  Returns ``(result, opened)``;
    ``opened`` is True when this call had to open/map the file (a cold
    worker), mirroring the shm lane's attach accounting.
    """
    _faults.inject_from_env(digest, system_name, attempt)
    trace = _WORKER_FILES.pop(digest, None)
    opened = False
    if trace is None:
        trace = StreamingTrace(trace_path)
        opened = True
        while len(_WORKER_FILES) >= _WORKER_FILE_LIMIT:
            _WORKER_FILES.pop(next(iter(_WORKER_FILES)))
    _WORKER_FILES[digest] = trace   # re-insert = move to MRU position
    return _execute_run(trace, system_name, cfg, engine), opened


#: The memo and store key: (trace digest, system, canonical config).  The
#: engine is not part of it: the engines are bit-identical by contract.
RunKey = Tuple[str, str, str]

#: One run still to execute: (trace, system name, config).
PendingRun = Tuple[Trace, str, SimulationConfig]


@dataclass
class RunnerStats:
    """Bookkeeping of a SweepRunner's cache, dispatch and fault behaviour."""

    runs: int = 0           # simulations actually executed
    memo_hits: int = 0      # results served from the memo table
    parallel_runs: int = 0  # runs dispatched to worker processes
    traces_spilled: int = 0  # distinct traces written to the on-disk store
    shm_segments: int = 0   # traces published as shared-memory segments
    shm_attaches: int = 0   # cold worker attaches (one mmap each)
    worker_reuse: int = 0   # parallel runs served by a warm worker's trace
    file_runs: int = 0      # runs dispatched on the file (streaming) lane
    file_maps: int = 0      # cold worker opens of a trace file (one mmap each)
    bytes_streamed: int = 0  # logical stream bytes served from trace files
    peak_rss_kb: int = 0    # max peak RSS observed across executed runs
    kernel_runs: int = 0    # runs executed by the compiled kernel engine
    kernel_fallbacks: int = 0  # kernel requests served by batched fallback
    retries: int = 0        # re-attempts scheduled after a failed run
    crashes: int = 0        # runs charged with killing a worker process
    timeouts: int = 0       # runs killed by the per-run wall-clock timeout
    run_errors: int = 0     # runs whose execution raised an exception
    degradations: int = 0   # lane demotions (shm -> npz -> inline)
    store_hits: int = 0     # pending runs served from the durable store
    store_misses: int = 0   # pending runs the durable store had never seen
    shm_errors: int = 0     # shared-memory publish/cleanup failures
    #: kernel bail counts by kind, summed over executed runs — always
    #: carries the full stable key set, even when every count is zero
    bail_kinds: Dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in BAIL_KIND_NAMES})
    #: the recorded shm failure messages (capped; not part of as_dict)
    shm_error_messages: List[str] = field(default_factory=list)

    _SHM_ERROR_CAP = 16

    def as_dict(self) -> Dict[str, object]:
        """Plain dictionary of the counters (JSON export).

        All values are ints except ``bail_kinds``, a stable
        ``{kind: count}`` dict keyed by :data:`BAIL_KIND_NAMES`.
        """
        return {
            "runs": self.runs,
            "memo_hits": self.memo_hits,
            "parallel_runs": self.parallel_runs,
            "traces_spilled": self.traces_spilled,
            "shm_segments": self.shm_segments,
            "shm_attaches": self.shm_attaches,
            "worker_reuse": self.worker_reuse,
            "file_runs": self.file_runs,
            "file_maps": self.file_maps,
            "bytes_streamed": self.bytes_streamed,
            "peak_rss_kb": self.peak_rss_kb,
            "kernel_runs": self.kernel_runs,
            "kernel_fallbacks": self.kernel_fallbacks,
            "retries": self.retries,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "run_errors": self.run_errors,
            "degradations": self.degradations,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "shm_errors": self.shm_errors,
            "bail_kinds": {name: self.bail_kinds.get(name, 0)
                           for name in BAIL_KIND_NAMES},
        }

    def note_profile(self, profile) -> None:
        """Fold one executed run's ``engine_profile`` into the counters."""
        if not isinstance(profile, dict):
            return
        if profile.get("engine") == "kernel":
            self.kernel_runs += 1
            kinds = profile.get("bail_kinds")
            if isinstance(kinds, dict):
                for kind, count in kinds.items():
                    self.bail_kinds[kind] = (
                        self.bail_kinds.get(kind, 0) + int(count))
        elif profile.get("requested_engine") == "kernel":
            self.kernel_fallbacks += 1
        self.bytes_streamed += int(profile.get("bytes_streamed") or 0)
        peak = int(profile.get("peak_rss_kb") or 0)
        if peak > self.peak_rss_kb:
            self.peak_rss_kb = peak

    def note_shm_error(self, message: str) -> None:
        """Record one shared-memory failure (count + capped message list)."""
        self.shm_errors += 1
        if len(self.shm_error_messages) < self._SHM_ERROR_CAP:
            self.shm_error_messages.append(message)


#: Execution lanes of the degradation ladder, safest last.
LANE_SHM = "shm"
LANE_NPZ = "npz"
LANE_INLINE = "inline"

#: Dispatch lane of file-backed (streaming) traces: only the file path
#: travels; workers mmap and stream.  File-backed runs stay on this lane
#: through every retry short of inline — spilling them to shm/npz would
#: materialize the very streams the file format exists to keep on disk.
LANE_FILE = "file"


class SweepRunner:
    """Executes independent (trace, system, config) runs, possibly in parallel.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default, or ``REPRO_JOBS`` unset)
        runs everything inline; ``N > 1`` dispatches cache-missing runs of
        a batch to a supervised ``ProcessPoolExecutor``.  Results are
        bit-identical either way — runs are independent and the simulator
        is deterministic — including under worker crashes and timeouts,
        which are retried (see ``retries`` / ``run_timeout``).
    memoize:
        Keep a result table keyed by ``(trace digest, system, config)``
        so repeated runs (e.g. the per-app perfect baseline shared by
        several figures) are simulated once.
    engine:
        Execution engine for all runs (default: ``REPRO_ENGINE`` or
        ``kernel``, see :mod:`repro.engine`).
    trace_store:
        On-disk trace store used for parallel dispatch (see
        :class:`TraceStore`).  The default builds a private store in a
        temporary directory, used lazily (only when runs are actually
        dispatched to workers) and removed on :meth:`close`.  Pass a
        shared store to reuse spilled traces across runners.
    store:
        A durable content-addressed
        :class:`~repro.experiments.store.ResultStore` (or a path to one,
        opened — and closed — by this runner).  Pending runs consult the
        store before executing (``RunnerStats.store_hits`` /
        ``store_misses``) and each completed run is committed to it as
        soon as it is harvested, so results survive the process: a
        sweep re-run against the same store in a fresh process — after
        a clean exit or a SIGKILL — executes only the runs it lacks.
    retries:
        Retry budget per run for crash/timeout/error failures (default
        3, or ``REPRO_RETRIES``).  The final attempts walk the
        degradation ladder: the second-to-last runs through the npz
        lane, the last runs inline in the supervising process.
        ``retries=0`` degenerates to all-inline execution.
    run_timeout:
        Per-run wall-clock timeout in seconds (default none, or
        ``REPRO_RUN_TIMEOUT``).  A run exceeding it has its pool killed
        and is retried like a crash; timeouts are not enforced on the
        inline lane.
    backoff / backoff_cap:
        Base delay and cap of the capped exponential backoff slept
        between retry waves (seconds).

    Use as a context manager (or call :meth:`close`) to release the worker
    pool and the private trace store; a runner with ``jobs=1`` holds no
    pool resources.
    """

    def __init__(self, jobs: Optional[int] = None, *, memoize: bool = True,
                 engine: Optional[str] = None,
                 trace_store: Optional[TraceStore] = None,
                 store: Optional[Union[str, Path, ResultStore]] = None,
                 retries: Optional[int] = None,
                 run_timeout: Optional[float] = None,
                 backoff: float = 0.25,
                 backoff_cap: float = 4.0) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.engine = engine if engine is not None else default_engine()
        self.memoize = memoize
        self.stats = RunnerStats()
        self.trace_store = trace_store if trace_store is not None else TraceStore()
        self._owns_store = trace_store is None
        self.retries = default_retries() if retries is None else max(0, int(retries))
        self.run_timeout = (default_run_timeout() if run_timeout is None
                            else (float(run_timeout) if run_timeout > 0 else None))
        self.backoff = max(0.0, float(backoff))
        self.backoff_cap = max(0.0, float(backoff_cap))
        self._memo: Dict[RunKey, ExperimentResult] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._trace_keys: Dict[int, str] = {}
        self._shm_pool: Optional[SharedTracePool] = None
        self._shm_broken = False   # platform refused a segment: stay on npz
        if store is None or isinstance(store, ResultStore):
            self.store = store
            self._owns_result_store = False
        else:
            self.store = ResultStore(store)
            self._owns_result_store = True

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pool, the shm pool and the stores."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._shm_pool is not None:
            for message in self._shm_pool.close():
                self.stats.note_shm_error(message)
            self._shm_pool = None
        if self._owns_store:
            self.trace_store.close()
        if self.store is not None and self._owns_result_store:
            self.store.close()

    # -- keys ---------------------------------------------------------------

    def _key(self, trace: Trace, system_name: str,
             cfg: SimulationConfig) -> RunKey:
        # id()-keyed digest cache: sweeps reuse the same trace object for
        # many systems, and hashing the streams repeatedly would dominate.
        # A finalizer drops the entry when the trace dies, so a recycled
        # id() can never serve a stale digest.
        tkey = self._trace_keys.get(id(trace))
        if tkey is None:
            tkey = _trace_digest(trace)
            self._trace_keys[id(trace)] = tkey
            weakref.finalize(trace, self._trace_keys.pop, id(trace), None)
        return (tkey, system_name, repr(sorted(cfg.describe().items())))

    # -- supervised parallel execution --------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_exit_with_parent)
        return self._pool

    def _kill_pool(self) -> None:
        """Forcibly tear down the worker pool (hung or broken workers)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:  # pragma: no cover - already-dead workers
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken executor races
            pass

    def _publish_shm(self, trace: Trace, digest: str) -> Optional[Dict[str, object]]:
        """Publish ``trace`` to shared memory; None (and record why) on failure."""
        if self._shm_pool is None:
            self._shm_pool = SharedTracePool()
        before = self._shm_pool.segments
        try:
            meta = self._shm_pool.ensure(trace, digest)
        except Exception as exc:
            self._shm_broken = True
            self.stats.note_shm_error(
                f"publish {digest[:12]}: {type(exc).__name__}: {exc}")
            return None
        self.stats.shm_segments += self._shm_pool.segments - before
        return meta

    def _lane_for(self, attempt: int, prefer_shm: bool) -> str:
        """Execution lane of the degradation ladder for this attempt."""
        if attempt >= self.retries:
            return LANE_INLINE
        if attempt == self.retries - 1 or not prefer_shm:
            return LANE_NPZ
        return LANE_SHM

    def _submit_worker(self, pool: ProcessPoolExecutor, key: RunKey,
                       trace: Trace, name: str, cfg: SimulationConfig,
                       lane: str, attempt: int) -> Tuple[Future, str]:
        """Submit one run to the pool through its lane; returns (future, lane)."""
        digest = key[0]
        if isinstance(trace, StreamingTrace):
            # file-backed traces ship as a path string on every
            # non-inline attempt; shm/npz publication would materialize
            # the streams this lane exists to keep out of core
            fut = pool.submit(_execute_file_run, str(trace.path), digest,
                              name, cfg, self.engine, attempt)
            self.stats.file_runs += 1
            return fut, LANE_FILE
        if lane == LANE_SHM:
            # one failed publication flips _shm_broken; later submits of
            # the same wave reroute silently instead of re-recording it
            meta = (None if self._shm_broken
                    else self._publish_shm(trace, digest))
            if meta is not None:
                fut = pool.submit(_execute_shm_run, meta, digest, name, cfg,
                                  self.engine, attempt)
                return fut, LANE_SHM
            lane = LANE_NPZ   # publication failed: this run rides npz
            self.stats.degradations += 1
        spills_before = self.trace_store.spills
        path = self.trace_store.ensure(trace, digest)
        self.stats.traces_spilled += self.trace_store.spills - spills_before
        fut = pool.submit(_execute_stored_run, str(path), digest, name, cfg,
                          self.engine, attempt)
        return fut, LANE_NPZ

    def _harvest(self, key: RunKey, payload, lane: str) -> None:
        """Fold one completed worker payload into the stats and the store."""
        if lane == LANE_SHM:
            result, attached = payload
            if attached:
                self.stats.shm_attaches += 1
            else:
                self.stats.worker_reuse += 1
        elif lane == LANE_FILE:
            result, opened = payload
            if opened:
                self.stats.file_maps += 1
            else:
                self.stats.worker_reuse += 1
        else:
            result = payload
        self._record(key, result)

    def _record(self, key: RunKey, result: ExperimentResult) -> None:
        """Count one executed run, memoize it and commit it to the store."""
        self.stats.note_profile(result.stats.engine_profile)
        if self.store is not None:
            self.store.put(key, result, engine=self.engine)
        self._memo[key] = result

    def _run_supervised(self, runs: Iterable[Tuple[RunKey, PendingRun]]
                        ) -> None:
        """Execute ``runs`` across the worker pool under supervision.

        The first wave streams: each run is submitted as it arrives, and
        the futures that finished meanwhile are harvested between
        arrivals, so the pool simulates while the caller builds the next
        trace.  Futures are harvested as they complete, so results
        finished before a crash are never lost (and are already in the
        store).  Failed runs are classified and retried in later
        *waves*: each sleeps a capped exponential backoff first, submits
        everything still missing and walks repeat offenders down the
        lane ladder (shm → npz → inline).  Worker crashes break the
        whole ``ProcessPoolExecutor``; blame is assigned to the runs
        observed executing at the break (or to all unharvested runs of
        the wave when none were observed, which guarantees progress),
        everything else retries for free, and runs that arrive after the
        first wave broke wait for the second.  The inline lane runs in
        this process — it cannot crash the sweep, and any exception it
        raises is a genuine simulation error and propagates.
        """
        todo: Dict[RunKey, PendingRun] = {}
        attempts: Dict[RunKey, int] = {}
        lanes: Dict[RunKey, str] = {}
        # the current wave: future -> (key, lane), and what was seen of it
        futures: Dict[Future, Tuple[RunKey, str]] = {}
        inflight: Set[Future] = set()
        started: Dict[Future, float] = {}
        penalized: Set[RunKey] = set()

        def penalize(key: RunKey) -> None:
            if key not in penalized:
                penalized.add(key)
                attempts[key] += 1
                self.stats.retries += 1

        def reap(timeout: float) -> bool:
            """Harvest finished futures; True once the wave is broken."""
            done, _ = wait(inflight, timeout=timeout,
                           return_when=FIRST_COMPLETED)
            inflight.difference_update(done)
            now = time.monotonic()
            for fut in inflight:
                if fut not in started and fut.running():
                    started[fut] = now
            broke = False
            for fut in done:
                key, lane = futures[fut]
                try:
                    payload = fut.result()
                except BrokenExecutor:
                    broke = True   # blame assigned by collapse()
                except Exception as exc:
                    # the run itself raised (e.g. an injected poison
                    # fault or a transient MemoryError): retry it; a
                    # deterministic error resurfaces on the inline
                    # lane and propagates from there
                    self.stats.run_errors += 1
                    penalize(key)
                    del exc
                else:
                    self._harvest(key, payload, lane)
                    del todo[key]
            if broke or self.run_timeout is None:
                return broke
            expired = [f for f in inflight if f in started
                       and now - started[f] >= self.run_timeout]
            for fut in expired:
                self.stats.timeouts += 1
                penalize(futures[fut][0])
            return bool(expired)   # surviving runs retry for free

        def collapse() -> None:
            """Kill the broken or hung pool and charge the runs it held."""
            self._kill_pool()
            victims = {key for key, _ in futures.values()} & todo.keys()
            observed = ({futures[f][0] for f in started} & victims) - penalized
            for key in observed or (victims - penalized):
                self.stats.crashes += 1
                penalize(key)

        batch: Iterable[Tuple[RunKey, PendingRun]] = runs
        wave = 0
        while True:
            wave += 1
            prefer_shm = (not self._shm_broken
                          and not os.environ.get(NO_SHM_ENV_VAR))
            futures.clear()
            inflight.clear()
            started.clear()
            penalized.clear()
            broke = False
            for key, run in batch:
                if key not in attempts:   # a first-wave arrival
                    todo[key] = run
                    attempts[key] = 0
                if broke:
                    continue   # the rest wait for the next wave
                lane = self._lane_for(attempts[key], prefer_shm)
                prev = lanes.get(key)
                if prev is not None and lane != prev:
                    self.stats.degradations += 1
                lanes[key] = lane
                trace, name, cfg = run
                if lane == LANE_INLINE:
                    # the inline lane executes here, while the pool works
                    self._record(key, _execute_run(trace, name, cfg,
                                                   self.engine))
                    del todo[key]
                else:
                    try:
                        fut, lane = self._submit_worker(
                            self._ensure_pool(), key, trace, name, cfg,
                            lane, attempts[key])
                    except BrokenExecutor:
                        # the pool died: its futures resolve broken
                        broke = True
                    else:
                        futures[fut] = (key, lane)
                        inflight.add(fut)
                        self.stats.parallel_runs += 1
                if reap(0.0) or broke:
                    broke = True
                    collapse()
            poll = 0.05 if self.run_timeout is not None else 0.25
            while inflight and not broke:
                if reap(poll):
                    broke = True
                    collapse()
            if not todo:
                return
            if self.backoff > 0:
                time.sleep(min(self.backoff_cap,
                               self.backoff * (2 ** (wave - 1))))
            # fewest attempts first: the inline lane runs after the
            # wave's pool runs are submitted
            batch = sorted(todo.items(), key=lambda item: attempts[item[0]])

    # -- execution ----------------------------------------------------------

    def run(self, trace: Trace, system: Union[str, SystemSpec],
            config: Optional[SimulationConfig] = None) -> ExperimentResult:
        """Run one (trace, system) pair through the memo table."""
        return self.map_runs([(trace, system, config)])[0]

    def map_runs(self, items: Iterable[Tuple[Trace, Union[str, SystemSpec],
                                             Optional[SimulationConfig]]]
                 ) -> List[ExperimentResult]:
        """Run a stream of independent (trace, system, config) items.

        ``items`` is consumed lazily, one item at a time.  Each is keyed
        and served from the memo table or the store when either holds
        it; otherwise it executes as it arrives — inline when
        ``jobs == 1``, on the supervised worker pool otherwise.  An
        iterator that builds its traces on demand therefore overlaps the
        next trace's construction with the pool's simulations, and a
        serial runner holds no trace past its last run.  The pool starts
        once two runs are pending: a batch with a single pending run
        executes inline.  Duplicate items execute once, and every
        result lands in the memo table (and the store, when one is
        attached).  The returned list is aligned with ``items``.

        Explicit :class:`SystemSpec` objects (rather than registry names)
        may carry arbitrary protocol factories, so they are executed
        inline and bypass the memo table, the worker pool and the
        store — a customised spec can never be conflated with the
        registry system of the same name.
        """
        slots: List[Union[RunKey, ExperimentResult]] = []
        pending = self._admit(items, slots)
        if self.jobs > 1:
            # the pool starts once two runs are pending: a batch with a
            # single pending run executes inline below
            head = list(itertools.islice(pending, 2))
            pending = itertools.chain(head, pending)
            if len(head) == 2:
                del head
                self._run_supervised(pending)   # drains the stream
        for key, (trace, name, cfg) in pending:
            self._record(key, _execute_run(trace, name, cfg, self.engine))
            del trace   # free it before the next item is built

        results = [slot if isinstance(slot, ExperimentResult)
                   else self._memo[slot] for slot in slots]
        if not self.memoize:
            self._memo.clear()
            self._trace_keys.clear()
        return results

    def _admit(self, items: Iterable[Tuple[Trace, Union[str, SystemSpec],
                                           Optional[SimulationConfig]]],
               slots: List[Union[RunKey, ExperimentResult]]
               ) -> Iterator[Tuple[RunKey, PendingRun]]:
        """Key ``items`` as they arrive; yield each run still to execute.

        Every item appends its slot to ``slots``: its key, or the result
        of an explicit :class:`SystemSpec` run, which executes inline on
        arrival.  A key that neither the memo table nor the store holds
        is yielded once, however often it recurs in the batch; only
        items whose key the memo held before the batch count as memo
        hits.
        """
        fresh: Set[RunKey] = set()
        for trace, system, config in items:
            cfg = config if config is not None else base_config()
            if not isinstance(system, str):
                slots.append(self._run_spec(trace, system, cfg))
            else:
                key = self._key(trace, system, cfg)
                slots.append(key)
                if key in fresh:
                    pass   # a duplicate of a run this batch already owns
                elif key in self._memo:
                    self.stats.memo_hits += 1
                else:
                    fresh.add(key)
                    if not self._load_stored(key):
                        self.stats.runs += 1
                        yield key, (trace, system, cfg)
            del trace   # hold no trace while the next item is built

    def _load_stored(self, key: RunKey) -> bool:
        """Pull ``key`` from the durable store into the memo table if held."""
        if self.store is None:
            return False
        stored = self.store.get(key)
        if stored is None:
            self.stats.store_misses += 1
            return False
        self._memo[key] = stored
        self.stats.store_hits += 1
        return True

    def _run_spec(self, trace: Trace, spec: SystemSpec,
                  cfg: SimulationConfig) -> ExperimentResult:
        """A fresh, unmemoized inline run of an explicit SystemSpec."""
        self.stats.runs += 1
        stats = Machine(cfg, spec).run(trace, engine=self.engine)
        self.stats.note_profile(stats.engine_profile)
        return ExperimentResult(workload=trace.name, system=spec.name,
                                config=cfg, stats=stats)

    def iter_results(self) -> List[ExperimentResult]:
        """The memoized results accumulated so far (insertion order).

        Used e.g. by ``repro exp --profile`` to aggregate the engines'
        per-lane execution profiles across a scenario's runs.
        """
        return list(self._memo.values())

    def run_systems(self, trace: Trace,
                    systems: Sequence[Union[str, SystemSpec]],
                    config: Optional[SimulationConfig] = None,
                    baseline: Optional[str] = "perfect"
                    ) -> Dict[str, ExperimentResult]:
        """Memoized, batched equivalent of :func:`run_systems`."""
        ordered: List[Union[str, SystemSpec]] = (
            [baseline] if baseline is not None else [])
        names = [baseline] if baseline is not None else []
        for system in systems:
            name = system if isinstance(system, str) else system.name
            if name not in names:
                names.append(name)
                ordered.append(system)
        results = self.map_runs([(trace, system, config)
                                 for system in ordered])
        return dict(zip(names, results))


def ensure_runner(runner: Optional[SweepRunner],
                  **runner_kwargs) -> Tuple[SweepRunner, bool]:
    """Return ``(runner, owned)`` — creating a default one when None.

    Harness entry points accept an optional shared runner; when the caller
    did not supply one, a private runner is created (with
    ``runner_kwargs`` forwarded to :class:`SweepRunner`) and the caller
    is responsible for closing it (``owned`` is True) — use
    ``try/finally`` or the runner's context manager so pools, shm
    segments and the trace store are released even when the harness
    raises mid-sweep.  Passing both a shared runner *and* runner kwargs
    is a conflict and raises ``ValueError``.
    """
    if runner is not None:
        conflicts = {k: v for k, v in runner_kwargs.items() if v}
        if conflicts:
            raise ValueError(
                "cannot combine a shared runner with runner options "
                f"({', '.join(sorted(conflicts))}); configure the "
                "SweepRunner directly instead")
        return runner, False
    return SweepRunner(**runner_kwargs), True
