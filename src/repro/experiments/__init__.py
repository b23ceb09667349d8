"""Experiment harnesses: declarative scenarios plus the classic modules.

* :mod:`repro.experiments.runner` — run (workload, system) experiments:
  one-shot helpers and the parallel, memoizing :class:`SweepRunner`
  every harness executes through.
* :mod:`repro.experiments.scenario` — the declarative experiment API:
  :class:`Scenario` plans, the single :func:`run_scenario` executor and
  the :class:`ResultSet` artifact.
* :mod:`repro.experiments.store` — the durable content-addressed
  :class:`ResultStore` (SQLite) every completed run can checkpoint into,
  and a killed sweep resumes from.
* :mod:`repro.experiments.scenarios` — the built-in scenario registry:
  Figures 5-8, Tables 1-4 and the ablations/sweeps as declarations.
* :mod:`repro.experiments.table1` … :mod:`repro.experiments.figure8` —
  one module per table/figure of the paper, now thin compatibility shims
  over the corresponding scenario (identical return values).
"""

from repro.experiments.runner import (
    ExperimentResult,
    RunnerStats,
    SweepRunner,
    ensure_runner,
    run_experiment,
    run_pair,
    run_systems,
)
from repro.experiments.scenario import (
    ResultSet,
    Scenario,
    get_scenario,
    list_scenarios,
    run_scenario,
)
from repro.experiments.store import ResultStore, StoreError
from repro.experiments import scenarios as _builtin_scenarios  # noqa: F401  (registers the built-ins)

__all__ = [
    "ExperimentResult",
    "RunnerStats",
    "SweepRunner",
    "ensure_runner",
    "run_experiment",
    "run_pair",
    "run_systems",
    "Scenario",
    "ResultSet",
    "run_scenario",
    "get_scenario",
    "list_scenarios",
    "ResultStore",
    "StoreError",
]
