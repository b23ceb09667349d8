"""Reproduction of Lai & Falsafi, SPAA 2000.

``repro`` is a trace-driven simulator of CC-NUMA DSM clusters built from
SMP nodes, together with implementations of the two traffic-reduction
techniques the paper compares:

* kernel-based **page migration/replication** (``CC-NUMA+MigRep``), and
* reactive fine-grain memory caching (**R-NUMA**), which relocates pages
  into a local S-COMA page cache.

The public API is intentionally small:

``MachineConfig`` / ``CostModel`` / ``ThresholdConfig``
    describe the simulated hardware and software cost model
    (Table 3 of the paper).

``build_system``
    construct a named system (``"ccnuma"``, ``"migrep"``, ``"rnuma"``,
    ``"rnuma-inf"``, ...) ready to run a workload.

``get_workload`` / ``list_workloads``
    the seven synthetic SPLASH-2-like workloads (Table 2 of the paper).

``register_system`` / ``register_workload`` / ``register_placement`` /
``register_scenario`` / ``register_policy``
    the open-registry extension points: systems (often derived from an
    existing spec via :meth:`SystemSpec.derive`), workloads, placement
    policies, scenarios and page-operation decision policies registered
    by user code immediately appear in the name lists, the CLI and every
    sweep.

``build_policy`` / ``POLICY_NAMES`` / ``DecisionPolicy``
    the decision-policy axis: when to migrate, replicate or relocate a
    page.  The paper's static thresholds (``"static-threshold"``) are
    the default; ``"competitive"`` (ski-rental), ``"hysteresis"``
    (decayed miss pressure) and ``"cost-model"`` (margin-gated
    cost/benefit) adapt to the configured cost model.  Select per run
    with ``SimulationConfig.with_policies`` or per system with
    ``SystemSpec.derive(migrep_policy=..., rnuma_policy=...)``.

``Scenario`` / ``run_scenario`` / ``ResultSet``
    the declarative experiment API: a :class:`Scenario` names the axes
    (apps × systems × configs × scales × seeds) and the normalisation
    baseline, :func:`run_scenario` executes it as one parallel batch, and
    the returned :class:`ResultSet` carries the flat result rows with
    pivot/mean/export helpers.  Every figure/table of the paper is such a
    scenario (``run_scenario("figure5")``, or ``repro exp figure5``).

``run_experiment`` / ``ExperimentResult``
    run one (workload, system) pair and collect execution time, miss
    breakdowns and page-operation counts.

``SweepRunner`` / ``RunnerStats``
    execute batches of independent runs — memoized by a trace/config
    digest and fanned out across *supervised* worker processes — the
    engine behind every figure/table/ablation harness.  Worker crashes,
    hangs and run exceptions are classified, retried with capped
    exponential backoff and demoted down a shm → npz → inline
    degradation ladder, and :class:`RunnerStats` surfaces the
    cache/dispatch/fault counters.

``ResultStore``
    the durable, content-addressed result store: one SQLite file holding
    every completed run keyed by the same (trace digest, system, config)
    key as the runner's memo table — whichever engine ran it — with
    provenance, checksums and schema migration.  Wire it in with
    ``SweepRunner(store=...)``, ``run_scenario(store=...)`` or ``repro
    exp --store PATH``: every completed run is committed as it finishes,
    so a sweep re-run in a fresh process, even after a SIGKILL, executes
    only the runs the store lacks (``repro store ls|verify|gc|export``
    inspects one).

``ENGINE_NAMES``
    the available execution engines (``"kernel"``, the compiled default,
    ``"batched"``, its vectorised pure-Python fallback, and ``"legacy"``,
    the reference interpreter); pick one per run with
    ``Machine.run(trace, engine=...)`` or globally with the
    ``REPRO_ENGINE`` environment variable.

``analyze_trace``
    sharing-pattern analysis of a workload trace (the measured Table 1).

``save_trace`` / ``load_trace``
    persist generated traces as ``.npz`` archives.

``open_trace`` / ``write_trace_file`` / ``import_trace_file`` /
``register_trace_file``
    the out-of-core trace subsystem (``repro.traces``): versioned
    mmap-able trace *files* written chunk by chunk, streamed back
    lazily through every engine with bit-identical results, importable
    from external recordings (``tsv``, valgrind ``lackey``) and usable
    anywhere a workload name is accepted (``--apps file:app.rpt``,
    ``repro trace gen|import|info|verify``).

``repro.experiments``
    one module per table/figure of the paper's evaluation section, the
    ablation harnesses, and the EXPERIMENTS.md report builder.

``repro.cli``
    the ``repro`` / ``python -m repro`` command-line interface.

Example
-------
>>> from repro import build_system, get_workload, run_experiment
>>> wl = get_workload("lu", scale=0.05)
>>> result = run_experiment(wl, "rnuma")
>>> result.normalized_time(run_experiment(wl, "perfect"))  # doctest: +SKIP
1.18
"""

from __future__ import annotations

from repro.config import (
    CostModel,
    MachineConfig,
    ThresholdConfig,
    SimulationConfig,
    base_config,
    slow_page_ops_config,
    long_latency_config,
)
from repro.analysis.sharing import SharingClass, SharingReport, analyze_trace
from repro.core.decisions import (
    POLICY_NAMES,
    DecisionPolicy,
    MigRepDecision,
    MigRepPolicy,
    PolicySpec,
    RNUMAPolicy,
    build_policy,
)
from repro.core.factory import (
    PAPER_SYSTEM_NAMES,
    SYSTEM_NAMES,
    SystemSpec,
    build_system,
)
from repro.engine import ENGINE_NAMES
from repro.experiments.runner import (
    ExperimentResult,
    RunnerStats,
    SweepRunner,
    run_experiment,
    run_pair,
)
from repro.experiments.scenario import (
    ResultSet,
    Scenario,
    get_scenario,
    list_scenarios,
    run_scenario,
)
from repro.experiments.store import ResultStore
from repro.kernel.placement import PLACEMENT_NAMES, build_placement
from repro.registry import (
    Registry,
    UnknownNameError,
    register_placement,
    register_policy,
    register_scenario,
    register_system,
    register_workload,
)
from repro.traces import (
    StreamingTrace,
    import_trace_file,
    open_trace,
    register_trace_file,
    write_trace_file,
)
from repro.workloads import get_workload, list_workloads
from repro.workloads.trace_io import load_trace, save_trace

__version__ = "1.9.0"

__all__ = [
    "CostModel",
    "MachineConfig",
    "ThresholdConfig",
    "SimulationConfig",
    "base_config",
    "slow_page_ops_config",
    "long_latency_config",
    "build_system",
    "SystemSpec",
    "SYSTEM_NAMES",
    "PAPER_SYSTEM_NAMES",
    "build_placement",
    "PLACEMENT_NAMES",
    "Registry",
    "UnknownNameError",
    "register_system",
    "register_workload",
    "register_placement",
    "register_scenario",
    "register_policy",
    "DecisionPolicy",
    "PolicySpec",
    "MigRepDecision",
    "MigRepPolicy",
    "RNUMAPolicy",
    "build_policy",
    "POLICY_NAMES",
    "Scenario",
    "ResultSet",
    "run_scenario",
    "get_scenario",
    "list_scenarios",
    "get_workload",
    "list_workloads",
    "save_trace",
    "load_trace",
    "open_trace",
    "write_trace_file",
    "import_trace_file",
    "register_trace_file",
    "StreamingTrace",
    "run_experiment",
    "run_pair",
    "ExperimentResult",
    "SweepRunner",
    "RunnerStats",
    "ResultStore",
    "ENGINE_NAMES",
    "analyze_trace",
    "SharingClass",
    "SharingReport",
    "__version__",
]
