"""Outside-in layer tracing for the traced benchmark sample.

Nothing under ``src/`` knows about this module. :func:`install` replaces
each layer's public entry point (a module binding or a class attribute)
with a wrapper that records a span around the call, so the traced run
sees the layers exactly where the simulator's own modules call into
each other:

========================  ==================================================
span                      wrapped target
========================  ==================================================
``workloads.gen``         ``repro.experiments.scenario.get_workload``
``workloads.digest``      ``repro.experiments.runner.trace_digest``
``runner.map_runs``       ``SweepRunner.map_runs``
``runner.publish``        ``repro.experiments.runner.trace_to_shm``
``runner.attach``         ``repro.experiments.runner.trace_from_shm``
``store.put/get``         ``ResultStore.put`` / ``ResultStore.get``
``engine.<engine>``       ``Machine.run`` (named after the engine that ran)
``engine.classify``       ``classify_phase`` as bound in the kernel/batched
``engine.schedule``       ``repro.engine.kernel.schedule_arrays``
``engine.marshal/flush``  ``KernelState.marshal_phase`` / ``.flush``
``engine.walk``           every re-entry of the C backend's walk
``core.handle_miss``      ``DSMProtocol.handle_miss``
``core.decide``           ``evaluate`` / ``should_relocate`` of every policy
``kernel.<op>``           ``MigrationEngine`` / ``RelocationEngine`` methods
========================  ==================================================

A target that no longer exists is reported as *absent*: its metrics are
left out rather than read as zero, and the run goes on. Spans are kept
in memory (every call is aggregated; the first ``keep`` calls per name
are also stored individually for the trace file). Forked sweep workers
start with an empty recorder and append what they recorded to a sink
directory after each run, which :meth:`Recorder.merge_sink` folds back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional, Tuple

#: (span name, module, attribute path); class methods use ``Class.method``
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.gen", "repro.experiments.scenario", "get_workload"),
    ("workloads.digest", "repro.experiments.runner", "trace_digest"),
    ("runner.map_runs", "repro.experiments.runner", "SweepRunner.map_runs"),
    ("runner.publish", "repro.experiments.runner", "trace_to_shm"),
    ("runner.attach", "repro.experiments.runner", "trace_from_shm"),
    ("store.put", "repro.experiments.store", "ResultStore.put"),
    ("store.get", "repro.experiments.store", "ResultStore.get"),
    ("engine.classify", "repro.engine.kernel", "classify_phase"),
    ("engine.classify", "repro.engine.batched", "classify_phase"),
    ("engine.schedule", "repro.engine.kernel", "schedule_arrays"),
    ("engine.marshal", "repro.engine.kernel.state", "KernelState.marshal_phase"),
    ("engine.flush", "repro.engine.kernel.state", "KernelState.flush"),
    ("core.handle_miss", "repro.core.protocol", "DSMProtocol.handle_miss"),
    ("kernel.migrate", "repro.kernel.migration", "MigrationEngine.migrate"),
    ("kernel.replicate", "repro.kernel.migration", "MigrationEngine.replicate"),
    ("kernel.collapse", "repro.kernel.migration",
     "MigrationEngine.collapse_replicas"),
    ("kernel.relocate", "repro.kernel.relocation", "RelocationEngine.relocate"),
    ("kernel.evict", "repro.kernel.relocation", "RelocationEngine.evict_victim"),
    # these three get a wrapper of their own (see install)
    ("engine.run", "repro.cluster.machine", "Machine.run"),
    ("engine.walk", "repro.engine.kernel.cbuild", "load_cwalk"),
    ("core.decide", "repro.core.decisions", "DecisionPolicy"),
)

#: the policy methods a decision evaluation goes through
DECIDE_METHODS = ("evaluate", "should_relocate")


class Recorder:
    """In-memory span store with per-name aggregates and self time.

    ``agg[name] = [calls, total_s, self_s]``; a span's self time is its
    duration minus the durations of its direct child spans (spans of
    one process nest, so the children never overlap).
    """

    def __init__(self, workload: str = "", *, keep: int = 2000,
                 sink: Optional[Path] = None) -> None:
        self.workload = workload
        self.keep = keep
        self.sink = Path(sink) if sink is not None else None
        self.root_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.stack: List[list] = []
        self.agg: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []
        self.kept: Dict[str, int] = {}
        self.dropped = 0
        self._next = 0

    def after_fork(self) -> None:
        """A forked worker starts empty: the parent's open spans are not its."""
        self._reset()

    def begin(self, name: str, cell: str = "") -> list:
        self._next += 1
        parent = self.stack[-1] if self.stack else None
        frame = [name, perf_counter(), 0.0,
                 cell or (parent[3] if parent else ""), self._next,
                 parent[4] if parent else 0]
        self.stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        now = perf_counter()
        self.stack.pop()
        name, start, child, cell, sid, parent = frame
        dur = now - start
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if self.kept.get(name, 0) < self.keep:
            self.kept[name] = self.kept.get(name, 0) + 1
            self.spans.append((sid, name, start, now, parent, cell, self.pid))
        else:
            self.dropped += 1
        if not self.stack and self.pid != self.root_pid:
            self.flush_to_sink()

    # -- worker merge --------------------------------------------------------

    def flush_to_sink(self) -> None:
        """Append this worker's spans to the sink and start afresh."""
        if self.sink is None:
            return
        self.sink.mkdir(parents=True, exist_ok=True)
        record = {"agg": self.agg, "spans": self.spans, "dropped": self.dropped}
        with open(self.sink / f"worker-{self.pid}.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self.agg = {}
        self.spans = []
        self.dropped = 0

    def merge_sink(self) -> int:
        """Fold every worker record into this recorder; returns workers seen."""
        if self.sink is None or not self.sink.is_dir():
            return 0
        files = sorted(self.sink.glob("worker-*.jsonl"))
        for path in files:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    for name, (calls, total, own) in rec["agg"].items():
                        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
                        agg[0] += calls
                        agg[1] += total
                        agg[2] += own
                    self.spans.extend(tuple(s) for s in rec["spans"])
                    self.dropped += rec["dropped"]
        return len(files)

    # -- output ---------------------------------------------------------------

    def total(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name: str) -> int:
        return int(self.agg.get(name, [0, 0.0, 0.0])[0])

    def self_time(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[2]

    def chrome_trace(self, t0: float) -> Dict[str, object]:
        """The kept spans as a Chrome Trace Event document (opens in Perfetto)."""
        events = [{
            "name": name, "cat": name.split(".", 1)[0], "ph": "X",
            "ts": round((start - t0) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": pid, "tid": pid,
            "args": {"id": sid, "parent": parent, "cell": cell,
                     "workload": self.workload},
        } for sid, name, start, end, parent, cell, pid in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"workload": self.workload,
                              "dropped_spans": self.dropped}}


def _resolve(module: str, path: str) -> Tuple[object, str, object]:
    """``(owner, attribute, current value)``; raises LookupError if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise LookupError(f"{module}: {exc}") from None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{module}.{path}")
    if not hasattr(owner, attr):
        raise LookupError(f"{module}.{path}")
    return owner, attr, getattr(owner, attr)


def _timed(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(frame)
    return wrapper


def _timed_machine_run(rec: Recorder, fn: Callable) -> Callable:
    """``Machine.run``: one span per simulation, named after the engine that ran."""
    @functools.wraps(fn)
    def wrapper(self, trace, *args, **kwargs):
        cell = f"{getattr(trace, 'name', '?')}/{getattr(self.system, 'name', '?')}"
        frame = rec.begin("engine.run", cell)
        try:
            stats = fn(self, trace, *args, **kwargs)
            profile = getattr(stats, "engine_profile", None)
            if isinstance(profile, dict) and profile.get("engine"):
                frame[0] = f"engine.{profile['engine']}"
            return stats
        finally:
            rec.end(frame)
    return wrapper


def _timed_backend_loader(rec: Recorder, load: Callable) -> Callable:
    """``load_cwalk``: wrap the per-phase runner so every walk entry is a span."""
    @functools.wraps(load)
    def loader():
        bind = load()
        if bind is None:
            return None

        def traced_bind(args):
            return _timed(rec, "engine.walk", bind(args))
        return traced_bind
    return loader


def _policy_classes(base: type) -> List[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in out:   # a class with two policy bases is seen twice
            out.append(cls)
            todo.extend(cls.__subclasses__())
    return out


_INHERITED = object()


class Installation:
    """The wrappers :func:`install` put in place, and how to take them out."""

    def __init__(self) -> None:
        self.installed: List[str] = []
        self.absent: List[str] = []
        self._originals: List[Tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._originals.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original back (newest first)."""
        for owner, attr, original in reversed(self._originals):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._originals.clear()


def install(rec: Recorder) -> Installation:
    """Wrap every target that exists; absent ones are listed, not fatal.

    Also registers :meth:`Recorder.after_fork` so forked workers record
    into a fresh recorder.
    """
    inst = Installation()
    for name, module, path in TARGETS:
        try:
            owner, attr, fn = _resolve(module, path)
        except LookupError:
            inst.absent.append(f"{name} ({module}.{path})")
            continue
        if name == "engine.run":
            inst.patch(owner, attr, _timed_machine_run(rec, fn))
        elif name == "engine.walk":
            inst.patch(owner, attr, _timed_backend_loader(rec, fn))
        elif name == "core.decide":
            methods = [(cls, meth) for cls in _policy_classes(fn)
                       for meth in DECIDE_METHODS if meth in vars(cls)]
            if not methods:
                inst.absent.append(f"{name} ({module}.{path} has no policies)")
                continue
            for cls, meth in methods:
                inst.patch(cls, meth, _timed(rec, name, vars(cls)[meth]))
        else:
            inst.patch(owner, attr, _timed(rec, name, fn))
        if name not in inst.installed:
            inst.installed.append(name)
    os.register_at_fork(after_in_child=rec.after_fork)
    return inst


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: kernel page operations, in report order
PAGE_OPS = ("migrate", "replicate", "collapse", "relocate", "evict")

#: engine bail kinds, as keyed in ``engine_profile["bail_kinds"]``
BAIL_KINDS = ("fault", "collapse", "replicate", "migrate", "relocate",
              "decide", "pagecache")

#: runner counters copied from ``ResultSet.runner_stats``
RUNNER_COUNTERS = ("runs", "memo_hits", "parallel_runs", "shm_segments",
                   "shm_attaches", "worker_reuse", "retries", "crashes",
                   "timeouts", "run_errors", "degradations")


def span_metrics(rec: Recorder, installed: List[str], *, wall_s: float,
                 jobs: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics read from the spans; absent targets give no entry."""
    have = set(installed)
    out: Dict[str, Tuple[float, str]] = {}

    def put(metric: str, span: str, value: float, unit: str) -> None:
        if span in have:
            out[metric] = (value, unit)

    batched_s = rec.total("engine.batched")
    kernel_s = rec.total("engine.kernel")
    run_s = batched_s + kernel_s + rec.total("engine.legacy")
    put("engine.batched.s", "engine.run", batched_s, "s")
    put("engine.batched.share", "engine.run",
        batched_s / wall_s if wall_s else 0.0, "ratio")
    put("engine.kernel.s", "engine.run", kernel_s, "s")
    put("runner.busy_share", "engine.run",
        run_s / (jobs * wall_s) if wall_s else 0.0, "ratio")
    for span, metric in (("engine.classify", "engine.classify_s"),
                         ("engine.schedule", "engine.schedule_s"),
                         ("engine.marshal", "engine.marshal_s"),
                         ("engine.flush", "engine.flush_s"),
                         ("workloads.gen", "workloads.gen_s"),
                         ("workloads.digest", "workloads.digest_s"),
                         ("runner.publish", "runner.publish_s"),
                         ("runner.attach", "runner.attach_s")):
        put(metric, span, rec.total(span), "s")
    put("engine.walk_self_s", "engine.walk", rec.self_time("engine.walk"), "s")
    put("engine.walk.entries", "engine.walk", rec.calls("engine.walk"), "count")
    put("runner.self_s", "runner.map_runs", rec.self_time("runner.map_runs"), "s")
    for span in ("core.handle_miss", "core.decide", "store.put", "store.get",
                 *(f"kernel.{op}" for op in PAGE_OPS)):
        put(f"{span}_calls", span, rec.calls(span), "count")
        put(f"{span}_s", span, rec.total(span), "s")
    return out


def profile_metrics(profiles: List[Mapping[str, object]],
                    runner_stats: Mapping[str, object]
                    ) -> Dict[str, Tuple[float, str]]:
    """Per-layer counts the simulator already reports: engine profiles and
    the runner's counters. Keys the simulator no longer reports are absent.
    """
    out: Dict[str, Tuple[float, str]] = {}
    engines = [p.get("engine") for p in profiles]
    out["engine.batched.runs"] = (engines.count("batched"), "count")
    out["engine.kernel.runs"] = (engines.count("kernel"), "count")
    out["engine.kernel.fallbacks"] = (sum(
        1 for p in profiles
        if p.get("requested_engine") == "kernel" and p.get("engine") != "kernel"),
        "count")
    for key, metric in (("fast", "engine.refs.fast"),
                        ("residual", "engine.refs.residual"),
                        ("demoted", "engine.refs.demoted"),
                        ("references", "workloads.refs")):
        if profiles and all(key in p for p in profiles):
            out[metric] = (sum(int(p[key]) for p in profiles), "count")
    for kind in BAIL_KINDS:
        out[f"engine.bails.{kind}"] = (sum(
            int((p.get("bail_kinds") or {}).get(kind, 0)) for p in profiles),
            "count")
    for key in RUNNER_COUNTERS:
        if key in runner_stats:
            out[f"runner.{key}"] = (int(runner_stats[key]), "count")
    for key, metric in (("store_hits", "store.hits"),
                        ("store_misses", "store.misses"),
                        ("bytes_streamed", "workloads.tracefile.bytes_streamed")):
        if key in runner_stats:
            out[metric] = (int(runner_stats[key]),
                           "B" if key == "bytes_streamed" else "count")
    return out
