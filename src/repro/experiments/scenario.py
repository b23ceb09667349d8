"""Declarative experiment plans: ``Scenario`` → ``run_scenario`` → ``ResultSet``.

Every figure and table of the paper's evaluation — and every ablation this
reproduction adds — is a grid of (application × system × configuration)
simulations normalized against a baseline run.  Earlier revisions spelled
that grid out eight times over in ``figure5.py`` … ``table4.py``; this
module factors the shape into three pieces:

:class:`Scenario`
    a frozen declaration of the grid's axes (apps, systems, configs,
    scales, seeds), its normalisation baseline, and how traces are built.
    The built-in scenarios live in
    :mod:`repro.experiments.scenarios` and are registered in
    :data:`repro.registry.SCENARIOS`; user code registers its own with
    :func:`repro.registry.register_scenario`.

:func:`run_scenario`
    the one executor.  It expands the axes into independent cells,
    streams them app by app, as a single lazy batch, through a
    :class:`repro.experiments.runner.SweepRunner` (parallel across
    processes, memoized by trace/config digest) and assembles the flat
    result rows.  Runtime keyword arguments override any axis, which is
    what ``repro exp <scenario> --apps … --systems … --scale …`` maps to.

:class:`ResultSet`
    the returned artifact: one flat dictionary per (app, system, config,
    scale, seed) cell carrying execution time, the full miss breakdown,
    page-operation counts and the derived ``normalized_time`` column,
    plus pivot/filter/mean helpers and exporters
    (:mod:`repro.stats.export` renders CSV/JSON/Markdown from this one
    shape).

The legacy ``run_figureN`` / ``run_tableN`` entry points are thin shims
over scenarios declared in :mod:`repro.experiments.scenarios`; they
return bit-identical data to what they produced before the redesign
(enforced by ``tests/test_scenario.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.config import MachineConfig, SimulationConfig, base_config
from repro.experiments.runner import ExperimentResult, SweepRunner, ensure_runner
from repro.registry import SCENARIOS
from repro.workloads import get_workload, list_workloads
from repro.workloads.trace import Trace

#: A config axis entry: a ready configuration or a ``seed -> config`` factory.
ConfigLike = Union[SimulationConfig, Callable[[int], SimulationConfig]]

#: Builds the trace for one cell: ``(app, machine, scale, seed) -> Trace``.
TraceFactory = Callable[[str, MachineConfig, float, int], Trace]


def _default_configs() -> Dict[str, ConfigLike]:
    return {"base": lambda seed: base_config(seed=seed)}


@dataclass(frozen=True)
class ScenarioContext:
    """Resolved axes handed to a static scenario's row builder."""

    apps: Tuple[str, ...]
    scale: float
    seed: int
    configs: Mapping[str, SimulationConfig]


@dataclass(frozen=True)
class Scenario:
    """A declarative experiment plan.

    Attributes
    ----------
    name / title / description:
        Registry key, headline used by renderers, and a one-line summary
        shown by ``repro list``.
    systems:
        System names to run (resolved through the open system registry).
    apps:
        Application names; ``None`` means *all currently registered
        workloads* (resolved at run time, so user registrations join in).
    configs:
        The configuration axis: an ordered mapping from axis key (a
        string for named variants like ``"fast"``/``"slow"``, or any
        value for parameter sweeps) to a :class:`SimulationConfig` or a
        ``seed -> SimulationConfig`` factory.
    scales / seeds:
        Optional extra axes; ``None`` means a single value taken from the
        runtime arguments (``default_scale`` / seed 0).
    baseline:
        System normalized against (``None`` disables normalisation).
    baseline_config:
        Config-axis key the baseline runs under; ``None`` runs the
        baseline under *each* config (per-value normalisation, as the
        sweeps do), a fixed key pins it (Figure 6 normalizes everything
        against the *fast* perfect run).
    trace_factory:
        Overrides trace construction (defaults to
        :func:`repro.workloads.get_workload`); Table 1 uses this to drive
        its synthetic sharing-scenario specs.
    static_rows:
        For scenarios without simulations (Tables 2 and 3): a callable
        producing the result rows directly from a
        :class:`ScenarioContext`.
    renderer:
        Optional ``ResultSet -> str`` plain-text renderer used by the CLI
        (defaults to the generic normalized-figure table).
    """

    name: str
    title: str
    systems: Tuple[str, ...] = ()
    apps: Optional[Tuple[str, ...]] = None
    configs: Mapping[Any, ConfigLike] = field(default_factory=_default_configs)
    scales: Optional[Tuple[float, ...]] = None
    seeds: Optional[Tuple[int, ...]] = None
    default_scale: float = 1.0
    baseline: Optional[str] = "perfect"
    baseline_config: Optional[Any] = None
    trace_factory: Optional[TraceFactory] = None
    static_rows: Optional[Callable[[ScenarioContext], List[Dict[str, object]]]] = None
    renderer: Optional[Callable[["ResultSet"], str]] = None
    description: str = ""

    def with_axes(self, *, apps: Optional[Sequence[str]] = None,
                  systems: Optional[Sequence[str]] = None,
                  configs: Optional[Mapping[Any, ConfigLike]] = None
                  ) -> "Scenario":
        """Return a copy with the given axes replaced (None keeps an axis)."""
        out = self
        if apps is not None:
            out = replace(out, apps=tuple(apps))
        if systems is not None:
            out = replace(out, systems=tuple(systems))
        if configs is not None:
            out = replace(out, configs=dict(configs))
        return out


class ResultSet:
    """Flat result rows of one scenario run, with pivot/export helpers.

    ``rows`` is a list of plain dictionaries — one per executed cell —
    whose columns include the axis values (``app``, ``system``,
    ``config``, ``scale``, ``seed``), the derived ``series`` label and
    ``normalized_time``, and the full measurement set (execution time,
    miss breakdown, page-operation counts, per-node rates).  Baseline
    runs are included with ``is_baseline=True`` so derived tables can
    reach their raw numbers.

    Parameters
    ----------
    scenario / title:
        Name and headline of the scenario that produced the rows.
    rows:
        The flat result rows.
    series:
        Ordered non-baseline series labels (legend order).
    axes:
        The resolved axis values (``{"app": (...), "system": (...)}``).
    baseline:
        Name of the normalisation system, or ``None``.

    Examples
    --------
    >>> rs = ResultSet("demo", "Demo", [
    ...     {"app": "lu", "system": "rnuma", "series": "rnuma",
    ...      "normalized_time": 1.5},
    ...     {"app": "lu", "system": "perfect", "series": "perfect",
    ...      "normalized_time": 1.0, "is_baseline": True},
    ... ], series=("rnuma",), baseline="perfect")
    >>> len(rs)
    2
    >>> rs.only(app="lu", system="rnuma")["normalized_time"]
    1.5
    >>> rs.figure_data()
    {'lu': {'rnuma': 1.5}}
    >>> rs.mean()
    {'rnuma': 1.5}
    """

    def __init__(self, scenario: str, title: str,
                 rows: List[Dict[str, object]], *,
                 series: Tuple[str, ...] = (),
                 axes: Optional[Dict[str, Tuple]] = None,
                 baseline: Optional[str] = None,
                 runner_stats: Optional[Dict[str, int]] = None) -> None:
        self.scenario = scenario
        self.title = title
        self.rows = rows
        self.series = tuple(series)
        self.axes = dict(axes or {})
        self.baseline = baseline
        #: cache/dispatch counters of the SweepRunner that executed the
        #: plan (memo hits, parallel runs, shared-memory attaches, warm
        #: worker reuse) — set by :func:`run_scenario`, ``None`` for
        #: hand-built sets
        self.runner_stats = dict(runner_stats) if runner_stats else None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:
        return (f"ResultSet({self.scenario!r}, {len(self.rows)} rows, "
                f"series={list(self.series)})")

    # -- selection ----------------------------------------------------------

    def filter(self, **selectors: object) -> "ResultSet":
        """Rows matching every ``column=value`` selector, as a new ResultSet.

        Parameters
        ----------
        **selectors:
            Column/value equality constraints, combined with AND.

        Returns
        -------
        ResultSet
            A new set sharing this one's metadata (series, axes,
            baseline) with only the matching rows.

        Examples
        --------
        >>> rs = ResultSet("d", "D", [{"app": "lu"}, {"app": "ocean"}])
        >>> [r["app"] for r in rs.filter(app="lu")]
        ['lu']
        """
        rows = [r for r in self.rows
                if all(r.get(k) == v for k, v in selectors.items())]
        return ResultSet(self.scenario, self.title, rows, series=self.series,
                         axes=self.axes, baseline=self.baseline)

    def only(self, **selectors: object) -> Dict[str, object]:
        """The single row matching the selectors.

        Parameters
        ----------
        **selectors:
            Column/value constraints, as for :meth:`filter`.

        Returns
        -------
        dict
            The one matching row.

        Raises
        ------
        ValueError
            When zero or more than one row matches.

        Examples
        --------
        >>> rs = ResultSet("d", "D", [{"app": "lu"}, {"app": "ocean"}])
        >>> rs.only(app="ocean")
        {'app': 'ocean'}
        >>> rs.only(app="fft")
        Traceback (most recent call last):
            ...
        ValueError: expected exactly one row for {'app': 'fft'}, found 0
        """
        rows = self.filter(**selectors).rows
        if len(rows) != 1:
            raise ValueError(f"expected exactly one row for {selectors}, "
                             f"found {len(rows)}")
        return rows[0]

    # -- pivots -------------------------------------------------------------

    def pivot(self, index: str = "app", columns: str = "series",
              values: str = "normalized_time", *,
              include_baseline: bool = False) -> Dict[object, Dict[object, object]]:
        """Nest rows as ``{index: {column: value}}`` in row order.

        Parameters
        ----------
        index / columns / values:
            Row columns providing the outer key, inner key and cell
            value respectively.
        include_baseline:
            Keep rows flagged ``is_baseline`` (dropped by default).

        Returns
        -------
        dict of dict
            The nested shape; later rows overwrite earlier ones on key
            collisions.

        Examples
        --------
        >>> rs = ResultSet("d", "D", [
        ...     {"app": "lu", "series": "rnuma", "normalized_time": 1.5}])
        >>> rs.pivot()
        {'lu': {'rnuma': 1.5}}
        """
        out: Dict[object, Dict[object, object]] = {}
        for row in self.rows:
            if not include_baseline and row.get("is_baseline"):
                continue
            out.setdefault(row[index], {})[row[columns]] = row[values]
        return out

    def figure_data(self) -> Dict[str, Dict[str, float]]:
        """The ``{app: {series: normalized_time}}`` shape the figures use."""
        return self.pivot("app", "series", "normalized_time")

    def mean(self, values: str = "normalized_time",
             by: str = "series") -> Dict[object, float]:
        """Mean of ``values`` grouped by ``by``.

        Parameters
        ----------
        values:
            Numeric column to average; rows where it is ``None`` are
            skipped, as are baseline rows.
        by:
            Grouping column.

        Returns
        -------
        dict
            ``{group: arithmetic mean}`` in first-seen group order.
        """
        sums: Dict[object, List[float]] = {}
        for row in self.rows:
            if row.get("is_baseline") or row.get(values) is None:
                continue
            sums.setdefault(row[by], []).append(float(row[values]))  # type: ignore[arg-type]
        return {k: sum(v) / len(v) for k, v in sums.items()}

    def normalize(self, column: str = "execution_time",
                  against: str = "perfect",
                  into: str = "renormalized") -> "ResultSet":
        """Derive ``into`` = ``column`` / baseline ``column`` per cell group.

        Parameters
        ----------
        column:
            Numeric column to normalize (any metric column works, e.g.
            ``"remote_misses"``).
        against:
            System name providing the denominator row.
        into:
            Name of the derived column added to every row.

        Returns
        -------
        ResultSet
            A new set whose rows carry the extra column (``None`` when
            no denominator row exists for a group).

        The baseline row is the one whose ``system`` equals ``against``
        within the same (app, scale, seed) group and — when the scenario
        pinned a baseline config — the same config axis value.
        """
        base: Dict[Tuple, float] = {}
        for row in self.rows:
            if row.get("system") == against:
                base[(row.get("app"), row.get("scale"), row.get("seed"),
                      row.get("config"))] = float(row[column])  # type: ignore[arg-type]
        rows = []
        for row in self.rows:
            key = (row.get("app"), row.get("scale"), row.get("seed"),
                   row.get("config"))
            if key not in base:  # fall back to any config of the group
                candidates = [v for k, v in base.items() if k[:3] == key[:3]]
                denom = candidates[0] if candidates else None
            else:
                denom = base[key]
            new = dict(row)
            new[into] = (float(row[column]) / denom  # type: ignore[arg-type]
                         if denom else None)
            rows.append(new)
        return ResultSet(self.scenario, self.title, rows, series=self.series,
                         axes=self.axes, baseline=self.baseline)

    # -- export (one code path, in repro.stats.export) ----------------------

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready dictionary: metadata, axes and the flat rows."""
        out = {
            "scenario": self.scenario,
            "title": self.title,
            "series": list(self.series),
            "axes": {k: list(v) for k, v in self.axes.items()},
            "rows": self.rows,
        }
        if self.runner_stats is not None:
            out["runner"] = self.runner_stats
        return out

    def to_csv(self) -> str:
        """Render the rows as CSV text."""
        from repro.stats.export import render_resultset
        return render_resultset(self, "csv")

    def to_json(self) -> str:
        """Render :meth:`as_dict` as JSON text."""
        from repro.stats.export import render_resultset
        return render_resultset(self, "json")

    def to_markdown(self) -> str:
        """Render the rows as a GitHub-flavoured Markdown table."""
        from repro.stats.export import render_resultset
        return render_resultset(self, "markdown")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def default_render(rs: ResultSet) -> str:
    """Generic plain-text rendering of a ResultSet.

    Normalized scenarios render as the classic per-app/per-series table
    (in the ResultSet's actual series order, so axis overrides degrade
    gracefully); scenarios without series render their rows as Markdown.
    This is the fallback used by ``repro exp`` when a scenario declares
    no ``renderer`` (or its renderer cannot handle the selected axes).
    """
    if rs.series and rs.baseline is not None:
        from repro.stats.report import format_normalized_figure
        return format_normalized_figure(rs.title, rs.figure_data(),
                                        list(rs.series))
    from repro.stats.export import render_resultset
    return rs.title + "\n\n" + render_resultset(rs, "markdown")


def get_scenario(name: str) -> Scenario:
    """Resolve a registered scenario by name.

    Parameters
    ----------
    name:
        A registered scenario name (case-insensitive).

    Returns
    -------
    Scenario
        The registered (frozen) scenario.

    Raises
    ------
    repro.registry.UnknownNameError
        A ``ValueError`` with a did-you-mean suggestion.

    Examples
    --------
    >>> get_scenario("figure5").baseline
    'perfect'
    """
    return SCENARIOS.resolve(name)


def list_scenarios() -> Tuple[str, ...]:
    """Names of every registered scenario, in registration order.

    Returns
    -------
    tuple of str
        Built-in scenarios first, then user registrations.

    Examples
    --------
    >>> "figure5" in list_scenarios()
    True
    """
    return SCENARIOS.names()


def _metrics(res: ExperimentResult) -> Dict[str, object]:
    """The measurement columns of one cell's row."""
    s = res.stats
    return {
        "execution_time": s.execution_time,
        "remote_misses": s.total_remote_misses,
        "capacity_conflict_misses": s.total_capacity_conflict_misses,
        "coherence_misses": s.total_coherence_misses,
        "cold_misses": s.total_cold_misses,
        "local_misses": s.total_local_misses,
        "network_messages": s.network_messages,
        "network_bytes": s.network_bytes,
        "migrations": s.total_migrations,
        "replications": s.total_replications,
        "relocations": s.total_relocations,
        "num_nodes": s.num_nodes,
        "per_node_migrations": s.per_node_migrations(),
        "per_node_replications": s.per_node_replications(),
        "per_node_relocations": s.per_node_relocations(),
        "per_node_remote_misses": s.per_node_remote_misses(),
        "per_node_capacity_conflict": s.per_node_capacity_conflict(),
    }


def run_scenario(scenario: Union[str, Scenario], *,
                 apps: Optional[Sequence[str]] = None,
                 systems: Optional[Sequence[str]] = None,
                 configs: Optional[Mapping[Any, ConfigLike]] = None,
                 config: Optional[SimulationConfig] = None,
                 scale: Optional[float] = None,
                 seed: Optional[int] = None,
                 runner: Optional[SweepRunner] = None,
                 store: Optional[Union[str, "Path"]] = None) -> ResultSet:
    """Execute ``scenario`` and return its :class:`ResultSet`.

    Parameters
    ----------
    scenario:
        A registered name or a :class:`Scenario` object.
    apps / systems:
        Replace the corresponding axis values.
    configs:
        Replace the whole config axis (mapping of axis key to a
        :class:`~repro.config.SimulationConfig` or ``seed -> config``
        factory).
    config:
        Replace the *value* of a single-entry config axis (the common
        "run the same plan under this configuration" case).
    scale / seed:
        Pin the scale/seed axes to one value.
    runner:
        A shared :class:`~repro.experiments.runner.SweepRunner`; a
        private one is created (and closed) when omitted.
    store:
        Durable content-addressed result store
        (:class:`~repro.experiments.store.ResultStore` path): pending
        runs are served from the store when it already holds them and
        committed to it as each completes, so a scenario re-run against
        the same store — even in a fresh process, even after the first
        run was killed — executes only the runs the store lacks
        (``runner_stats["store_hits"]``).  Only valid when the scenario
        creates its own runner — configure a shared runner's store
        directly.

    Returns
    -------
    ResultSet
        One flat row per executed (app, system, config, scale, seed)
        cell, baseline rows included.

    The cells stream through the runner as one batch, app by app: each
    app's traces are built just before its first cell and released after
    its last, so a multi-process :class:`SweepRunner` simulates one app
    while the next app's trace is built, a serial one holds a single
    app's traces at a time, and repeated cells (e.g. a baseline shared
    between scenarios) are memoized.
    """
    scn = get_scenario(scenario) if isinstance(scenario, str) else scenario

    app_names: Tuple[str, ...] = (
        tuple(apps) if apps is not None
        else scn.apps if scn.apps is not None
        else tuple(list_workloads()))
    system_names: Tuple[str, ...] = (tuple(systems) if systems is not None
                                     else tuple(scn.systems))
    scales: Tuple[float, ...] = ((scale,) if scale is not None
                                 else scn.scales or (scn.default_scale,))
    seeds: Tuple[int, ...] = ((seed,) if seed is not None
                              else scn.seeds or (0,))

    config_axis: Mapping[Any, ConfigLike]
    if configs is not None:
        config_axis = dict(configs)
    elif config is not None:
        if len(scn.configs) != 1:
            raise ValueError(
                f"scenario {scn.name!r} has {len(scn.configs)} config-axis "
                "entries; pass configs={...} instead of config=")
        config_axis = {next(iter(scn.configs)): config}
    else:
        config_axis = scn.configs
    config_keys = list(config_axis)
    if (scn.baseline is not None and scn.baseline_config is not None
            and scn.baseline_config not in config_axis):
        raise ValueError(
            f"scenario {scn.name!r} normalizes against the "
            f"{scn.baseline_config!r} config, so a configs= override must "
            f"include that key (got: {', '.join(map(repr, config_keys))})")

    # materialize configs per (key, seed)
    def make_cfg(key: Any, seed_value: int) -> SimulationConfig:
        entry = config_axis[key]
        return entry if isinstance(entry, SimulationConfig) else entry(seed_value)

    cfgs: Dict[Tuple[Any, int], SimulationConfig] = {
        (key, sd): make_cfg(key, sd) for sd in seeds for key in config_keys}

    # -- static scenarios (no simulations) ----------------------------------
    if scn.static_rows is not None:
        ctx = ScenarioContext(
            apps=app_names, scale=scales[0], seed=seeds[0],
            configs={key: cfgs[(key, seeds[0])] for key in config_keys})
        rows = [dict(row) for row in scn.static_rows(ctx)]
        return ResultSet(scn.name, scn.title, rows,
                         axes={"app": app_names}, baseline=None)

    multi_config = len(config_keys) > 1

    def series_name(system: str, key: Any) -> str:
        return f"{system}-{key}" if multi_config else str(system)

    # -- expand the axes into unique cells, baseline first per app ----------
    Cell = Tuple[str, str, Any, float, int]   # (app, system, config, scale, seed)
    cells: List[Cell] = []
    seen: set = set()

    def add(app: str, system: str, key: Any, sc: float, sd: int) -> None:
        cell = (app, system, key, sc, sd)
        if cell not in seen:
            seen.add(cell)
            cells.append(cell)

    baseline_keys = ([scn.baseline_config] if scn.baseline_config is not None
                     else config_keys)
    for sd in seeds:
        for sc in scales:
            for app in app_names:
                if scn.baseline is not None:
                    for key in baseline_keys:
                        add(app, scn.baseline, key, sc, sd)
                for key in config_keys:
                    for system in system_names:
                        add(app, system, key, sc, sd)

    # -- stream the cells through the runner, app by app --------------------
    make_trace = scn.trace_factory or (
        lambda app, machine, sc, sd: get_workload(app, machine=machine,
                                                  scale=sc, seed=sd))

    def cell_items() -> Iterator[Tuple[Trace, str, SimulationConfig]]:
        # each (app, scale, seed)'s cells are contiguous, so only its
        # traces (one per machine) are kept: each is built just before
        # its first cell, and dropped before the next app's are built
        traces: Dict[MachineConfig, Trace] = {}
        group = None
        for app, system, key, sc, sd in cells:
            cfg = cfgs[(key, sd)]
            if (app, sc, sd) != group:
                group = (app, sc, sd)
                traces.clear()
            if cfg.machine not in traces:
                traces[cfg.machine] = make_trace(app, cfg.machine, sc, sd)
            yield traces[cfg.machine], system, cfg

    runner, owned = ensure_runner(runner, store=store)
    try:
        # report only this plan's share of a (possibly shared) runner's
        # counters: the delta across the batch, not the lifetime totals
        stats_before = runner.stats.as_dict()
        results = runner.map_runs(cell_items())

        def _delta(after, before):
            # bail_kinds is a nested {kind: count} dict; everything
            # else is a plain integer counter
            if isinstance(after, dict):
                prior = before if isinstance(before, dict) else {}
                return {k: v - prior.get(k, 0) for k, v in after.items()}
            return after - (before or 0)

        runner_stats = {k: _delta(v, stats_before.get(k))
                        for k, v in runner.stats.as_dict().items()}
    finally:
        if owned:
            runner.close()
    by_cell: Dict[Cell, ExperimentResult] = dict(zip(cells, results))

    # -- assemble rows -------------------------------------------------------
    def baseline_time(app: str, key: Any, sc: float, sd: int) -> Optional[int]:
        if scn.baseline is None:
            return None
        bkey = scn.baseline_config if scn.baseline_config is not None else key
        return by_cell[(app, scn.baseline, bkey, sc, sd)].execution_time

    rows: List[Dict[str, object]] = []
    for cell in cells:
        app, system, key, sc, sd = cell
        res = by_cell[cell]
        base = baseline_time(app, key, sc, sd)
        row: Dict[str, object] = {
            "scenario": scn.name,
            "app": app,
            "system": system,
            "config": key,
            "scale": sc,
            "seed": sd,
            "series": series_name(system, key),
            "is_baseline": (system == scn.baseline
                            and (scn.baseline_config is None
                                 or key == scn.baseline_config)),
        }
        row.update(_metrics(res))
        row["normalized_time"] = (res.execution_time / base
                                  if base is not None else None)
        rows.append(row)

    series = tuple(series_name(system, key)
                   for system in system_names for key in config_keys
                   if not (system == scn.baseline
                           and (scn.baseline_config is None
                                or key == scn.baseline_config)))
    axes: Dict[str, Tuple] = {
        "app": app_names, "system": system_names,
        "config": tuple(config_keys), "scale": scales, "seed": seeds}
    return ResultSet(scn.name, scn.title, rows, series=series, axes=axes,
                     baseline=scn.baseline,
                     runner_stats=runner_stats)
