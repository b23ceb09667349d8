"""Command-line interface: ``python -m repro <command>``.

The CLI exposes the experiment harnesses and the analysis tools without
writing any Python:

=====================  ====================================================
command                 what it does
=====================  ====================================================
``list``                list workloads, systems, placements, decision
                        policies and scenarios (``--json`` for
                        machine-readable output)
``run``                 run one (workload, system) pair and print a summary
``exp``                 run any registered scenario (``repro exp figure5``,
                        ``repro exp sweep-page-cache``, or one registered
                        by user code) with axis overrides
``figure5`` .. ``figure8``  regenerate one of the paper's figures
``table1`` .. ``table4``    regenerate one of the paper's tables
``sweep``               run one of the predefined parameter sweeps
``analyze``             sharing-pattern analysis of a workload trace
``trace``               out-of-core trace files: ``gen`` (generate a
                        workload straight to disk), ``import`` (convert
                        tab-separated or valgrind-lackey recordings),
                        ``info`` and ``verify``
``clean-shm``           unlink shared-memory trace segments orphaned by
                        dead repro processes
``store``               inspect the durable result store: ``ls``, ``verify``,
                        ``gc``, ``export``
=====================  ====================================================

``repro exp --store PATH`` commits every completed run to a durable
SQLite store as it finishes: a second invocation — in a new process, on
any engine, or after the first was killed — replays the stored runs
without simulating them and executes only the rest.

Trace files plug back into every other command: ``repro exp <scenario>
--apps file:/path/to/trace.rpt`` streams the file through a scenario
without registering anything.

The figure/table commands are legacy spellings that delegate to the same
scenario machinery as ``exp`` (keeping their historical output and export
shapes); ``repro exp <scenario>`` is the generic path and renders/exports
every scenario — including user-registered ones — through one code path
(:mod:`repro.stats.export`).

Every command accepts ``--scale`` (workload size multiplier), ``--seed``
and, where meaningful, ``--apps`` / ``--systems`` selections.  Results can
be exported with ``--csv PATH`` / ``--json PATH`` (and, for ``exp``,
``--markdown PATH``) in addition to the plain-text table on stdout.
"""

from __future__ import annotations

import argparse
import json as _json
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.sharing import analyze_trace
from repro.analysis.sweeps import (
    SweepResult,
    migrep_threshold_sweep,
    network_latency_sweep,
    page_cache_sweep,
    placement_sweep,
    policy_sweep,
    rnuma_threshold_sweep,
)
from repro.config import SimulationConfig, base_config
from repro.core.decisions import POLICY_NAMES, apply_policy
from repro.core.factory import SYSTEM_NAMES
from repro.engine import ENGINE_NAMES
from repro.experiments import figure5, figure6, figure7, figure8
from repro.experiments import table1, table2, table3, table4
from repro.experiments.runner import SweepRunner
from repro.experiments.store import (
    STORE_ENV_VAR,
    ResultStore,
    StoreError,
    describe_key,
    dumps_export,
)
from repro.experiments.scenario import (
    ResultSet,
    Scenario,
    default_render,
    run_scenario,
)
from repro.kernel.placement import PLACEMENT_NAMES
from repro.registry import SCENARIOS, UnknownNameError
from repro.stats.export import (
    export_resultset,
    figure_to_rows,
    render_resultset,
    write_csv,
    write_json,
)
from repro.stats.plotting import grouped_bar_chart
from repro.workloads import get_workload, list_workloads


def _csv_list(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _add_common(parser: argparse.ArgumentParser, *, apps: bool = True,
                systems: bool = False, runner: bool = True) -> None:
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload scale factor (default 0.5)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    if runner:
        parser.add_argument("--jobs", "-j", type=int, default=None,
                            help="worker processes for independent runs "
                                 "(default: REPRO_JOBS or 1)")
        parser.add_argument("--engine", choices=ENGINE_NAMES, default=None,
                            help="simulation engine (default: kernel, or "
                                 "REPRO_ENGINE)")
    parser.add_argument("--csv", type=str, default=None,
                        help="also write the result rows to this CSV file")
    parser.add_argument("--json", type=str, default=None,
                        help="also write the result data to this JSON file")
    parser.add_argument("--chart", action="store_true",
                        help="render figure data as an ASCII bar chart")
    if apps:
        parser.add_argument("--apps", type=_csv_list, default=None,
                            help="comma-separated application subset")
    if systems:
        parser.add_argument("--systems", type=_csv_list, default=None,
                            help="comma-separated system subset")


def _export(args: argparse.Namespace, rows: Sequence[Dict[str, object]],
            data: object) -> None:
    if args.csv:
        write_csv(rows, args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        write_json(data, args.json)
        print(f"wrote {args.json}")


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _registry_listing() -> Dict[str, List[str]]:
    """Current contents of every open registry (plus the engines)."""
    return {
        "workloads": list(list_workloads()),
        "systems": list(SYSTEM_NAMES),
        "placements": list(PLACEMENT_NAMES),
        "policies": list(POLICY_NAMES),
        "scenarios": list(SCENARIOS.names()),
        "engines": list(ENGINE_NAMES),
    }


def _cmd_list(args: argparse.Namespace) -> int:
    listing = _registry_listing()
    if getattr(args, "json", False):
        print(_json.dumps(listing, indent=2))
        return 0
    print("workloads: " + ", ".join(listing["workloads"]))
    print("systems:   " + ", ".join(listing["systems"]))
    print("placement: " + ", ".join(listing["placements"]))
    print("policies:  " + ", ".join(listing["policies"]))
    print("scenarios: " + ", ".join(listing["scenarios"]))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = base_config(seed=args.seed).with_placement(args.placement)
    if getattr(args, "policy", None):
        cfg = apply_policy(cfg, args.policy)
    trace = get_workload(args.app, machine=cfg.machine, scale=args.scale,
                         seed=args.seed)
    with _make_runner(args) as runner:
        results = runner.run_systems(trace, [args.system], cfg)
    baseline = results["perfect"].execution_time
    res = results[args.system]
    summary = res.summary()
    summary["normalized_time"] = round(res.execution_time / baseline, 3)
    width = max(len(k) for k in summary)
    for key, value in summary.items():
        print(f"{key:<{width}}  {value}")
    _export(args, [summary], summary)
    return 0


def _default_store(args: argparse.Namespace) -> Optional[str]:
    """``--store`` if given, else the ``REPRO_STORE`` environment default."""
    explicit = getattr(args, "store", None)
    if explicit:
        return explicit
    return os.environ.get(STORE_ENV_VAR) or None


def _make_runner(args: argparse.Namespace) -> SweepRunner:
    kwargs = {}
    if getattr(args, "retries", None) is not None:
        kwargs["retries"] = args.retries
    if getattr(args, "run_timeout", None) is not None:
        kwargs["run_timeout"] = args.run_timeout
    store = _default_store(args)
    if store:
        kwargs["store"] = store
    return SweepRunner(jobs=getattr(args, "jobs", None),
                       engine=getattr(args, "engine", None), **kwargs)


# -- the generic scenario command -------------------------------------------


def _render_scenario(scenario: Scenario, rs: ResultSet) -> str:
    """Plain-text rendering: the scenario's renderer or the generic table.

    A scenario's custom renderer may assume the full declared axes (e.g.
    table4's needs all three systems); when an ``--apps``/``--systems``
    override leaves it short of rows, fall back to the generic rendering
    rather than failing the command.
    """
    if scenario.renderer is not None:
        try:
            return scenario.renderer(rs)
        except Exception:
            pass
    return default_render(rs)


def _policy_configs(scenario: Scenario, policy: str):
    """The scenario's config axis with every entry forced to ``policy``.

    Entries may be ready configurations or ``seed -> config`` factories;
    both are mapped through :func:`repro.core.decisions.apply_policy`
    (which selects the name only for the roles the family supports) so
    ``repro exp <scenario> --policy competitive`` reruns any scenario
    under the named decision policy.

    Scenarios whose config axis *already* selects policies (the axis
    keys are policy names, e.g. ``policy-adaptivity``/``sweep-policy``)
    are rejected: forcing one policy would collapse their axis into
    identical configs still labeled with the original policy names —
    a mislabeled, self-normalized table.
    """
    from repro.registry import POLICIES
    if any(isinstance(key, str) and key in POLICIES
           for key in scenario.configs):
        raise ValueError(
            f"scenario {scenario.name!r} already compares decision "
            "policies on its config axis; rerun without --policy (or use "
            "`repro sweep policy --values ...` to pick the set)")
    def apply(entry):
        if isinstance(entry, SimulationConfig):
            return apply_policy(entry, policy)
        return lambda seed, e=entry: apply_policy(e(seed), policy)
    return {key: apply(entry) for key, entry in scenario.configs.items()}


def _engine_label(prof: dict) -> str:
    """Lane label for one run: engine, kernel backend, or fallback."""
    engine = prof.get("engine", "?")
    if engine == "kernel":
        return f"kernel:{prof.get('backend', '?')}"
    if prof.get("requested_engine") == "kernel":
        return "kernel>batched"
    return engine


def _render_profile(runner: SweepRunner, rs: ResultSet) -> str:
    """Engine per-lane breakdown + runner counters for ``exp --profile``."""
    stats = rs.runner_stats or runner.stats.as_dict()
    kinds = stats.get("bail_kinds") or {}
    lines = ["runner: " + "  ".join(f"{k}={v}" for k, v in stats.items()
                                    if k != "bail_kinds")]
    lines.append("bails:  " + "  ".join(f"{k}={v}" for k, v in kinds.items())
                 + f"  total={sum(kinds.values())}")
    if runner.stats.shm_error_messages:
        lines.append("shm errors:")
        lines += [f"  {msg}" for msg in runner.stats.shm_error_messages]
    profs = [(r.workload, r.system, r.stats.engine_profile)
             for r in runner.iter_results()
             if r.stats.engine_profile is not None]
    if not profs:
        lines.append("(no engine profiles: the runs used the legacy engine)")
        return "\n".join(lines)
    # walk_s is the time inside the compiled walk; wall_s - walk_s is the
    # kernel driver's share (a batched run has no walk: "-")
    header = (f"{'app':<12} {'system':<14} {'engine':<15} "
              f"{'refs':>9} {'fast':>9} {'demoted':>8} "
              f"{'residual':>9} {'wall_s':>8} {'walk_s':>8} {'rss_mb':>7} "
              f"{'strm_mb':>8}")
    lines += [header, "-" * len(header)]
    totals = {"references": 0, "fast": 0, "demoted": 0,
              "residual": 0, "wall_s": 0.0}
    walk_total = 0.0
    peak_rss_kb = 0
    streamed = 0
    fallbacks = []
    for app, system_name, prof in profs:
        rss_kb = int(prof.get("peak_rss_kb") or 0)
        run_streamed = int(prof.get("bytes_streamed") or 0)
        walk_s = prof.get("walk_s")
        lines.append(
            f"{app:<12} {system_name:<14} {_engine_label(prof):<15} "
            f"{prof['references']:>9} {prof['fast']:>9} {prof['demoted']:>8} "
            f"{prof['residual']:>9} {prof['wall_s']:>8.3f} "
            f"{'-' if walk_s is None else f'{walk_s:.3f}':>8} "
            f"{rss_kb / 1024:>7.1f} {run_streamed / (1 << 20):>8.1f}")
        for k in totals:
            totals[k] += prof[k]
        walk_total += walk_s or 0.0
        peak_rss_kb = max(peak_rss_kb, rss_kb)
        streamed += run_streamed
        reason = prof.get("fallback_reason")
        if reason:
            fallbacks.append(f"  {app}/{system_name}: {reason}")
    lines.append(
        f"{'total':<12} {'':<14} {'':<15} {totals['references']:>9} "
        f"{totals['fast']:>9} {totals['demoted']:>8} "
        f"{totals['residual']:>9} {totals['wall_s']:>8.3f} "
        f"{walk_total:>8.3f} "
        f"{peak_rss_kb / 1024:>7.1f} {streamed / (1 << 20):>8.1f}")
    if fallbacks:
        lines.append("kernel fallbacks:")
        lines += fallbacks
    return "\n".join(lines)


def _run_exp(args: argparse.Namespace, name: str):
    """Execute a scenario with the axis overrides given on the CLI.

    Returns ``(result_set, profile_text)``; the profile text is ``None``
    unless ``--profile`` was given.
    """
    policy = getattr(args, "policy", None)
    configs = (_policy_configs(SCENARIOS.resolve(name), policy)
               if policy else None)
    with _make_runner(args) as runner:
        rs = run_scenario(
            name,
            apps=getattr(args, "apps", None),
            systems=getattr(args, "systems", None),
            configs=configs,
            scale=getattr(args, "scale", None),
            seed=getattr(args, "seed", None),
            runner=runner,
        )
        profile = (_render_profile(runner, rs)
                   if getattr(args, "profile", False) else None)
    return rs, profile


def _cmd_clean_shm(args: argparse.Namespace) -> int:
    from repro.workloads.trace_io import cleanup_orphan_segments
    names = cleanup_orphan_segments(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for name in names:
        print(f"{verb} /dev/shm/{name}")
    print(f"{verb} {len(names)} orphaned segment(s)")
    return 0


def _store_path(args: argparse.Namespace) -> Optional[str]:
    """The existing store a ``repro store`` subcommand reads, or None.

    Unlike ``repro exp --store``, these subcommands never create a
    store: a mistyped path would otherwise read as an empty one.
    """
    path = _default_store(args)
    if not path:
        print("error: no store given (use --store PATH or set "
              f"{STORE_ENV_VAR})", file=sys.stderr)
        return None
    if not os.path.exists(path):
        print(f"error: no store at {path}", file=sys.stderr)
        return None
    return path


def _cmd_store(args: argparse.Namespace) -> int:
    path = _store_path(args)
    if not path:
        return 2
    try:
        store = ResultStore(path)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.store_cmd == "ls":
            rows = store.rows()
            if getattr(args, "json", False):
                print(_json.dumps(rows, indent=2))
                return 0
            header = (f"{'digest':<16} {'system':<14} {'engine_used':<11} "
                      f"{'workload':<12} {'exec_time':>12} {'bytes':>9} "
                      f"{'wall_s':>7}")
            print(header)
            print("-" * len(header))
            for row in rows:
                print(f"{str(row['digest'])[:16]:<16} {row['system']:<14} "
                      f"{row['engine_used'] or '-':<11} "
                      f"{str(row['workload']):<12} "
                      f"{row['execution_time']:>12} "
                      f"{row['payload_bytes']:>9} "
                      f"{(row['wall_s'] or 0):>7.2f}")
            print(f"{len(rows)} row(s) in {path}")
        elif args.store_cmd == "verify":
            report = store.verify()
            for key in report["corrupt"]:
                print(f"corrupt: {describe_key(key)}")
            print(f"{report['ok']}/{report['rows']} row(s) ok")
            return 0 if not report["corrupt"] else 1
        elif args.store_cmd == "gc":
            try:
                removed = store.gc(max_age_s=args.max_age,
                                   digests=args.digest or None,
                                   everything=args.all,
                                   dry_run=args.dry_run)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            verb = "would remove" if args.dry_run else "removed"
            for key in removed:
                print(f"{verb}: {describe_key(key)}")
            print(f"{verb} {len(removed)} row(s)")
        else:   # export
            text = dumps_export(store)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text)
                print(f"wrote {args.out}")
            else:
                print(text)
    finally:
        store.close()
    return 0


def _cmd_exp(args: argparse.Namespace) -> int:
    try:
        scenario = SCENARIOS.resolve(args.scenario)
        rs, profile = _run_exp(args, scenario.name)
    except UnknownNameError as exc:
        # unknown scenario, or an unknown name in --apps/--systems
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # e.g. --policy on a scenario that already compares policies
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_render_scenario(scenario, rs))
    if profile is not None:
        print()
        print(profile)
    if args.chart and rs.series and rs.baseline is not None:
        print()
        print(render_resultset(rs, "chart"))
    written = export_resultset(rs, csv_path=args.csv, json_path=args.json,
                               markdown_path=args.markdown)
    for path in written:
        print(f"wrote {path}")
    return 0


# -- legacy figure/table commands (delegate to the scenario machinery) ------


def _figure_command(figure_fn: Callable, renderer: Callable,
                    value_name: str = "normalized_time") -> Callable:
    def cmd(args: argparse.Namespace) -> int:
        kwargs = {"scale": args.scale, "seed": args.seed}
        if args.apps:
            kwargs["apps"] = args.apps
        with _make_runner(args) as runner:
            data = figure_fn(runner=runner, **kwargs)
        print(renderer(data))
        if getattr(args, "chart", False):
            systems = sorted({s for times in data.values() for s in times})
            print()
            print(grouped_bar_chart(data, systems,
                                    title="normalized execution time"))
        _export(args, figure_to_rows(data, value_name=value_name), data)
        return 0
    return cmd


def _cmd_table1(args: argparse.Namespace) -> int:
    matrix = table1.run_table1(scale=max(0.3, args.scale), seed=args.seed)
    print(table1.render_table1(matrix))
    rows = [{"mechanism": mech, "scenario": scen,
             "reduces_misses": cell.reduces_misses}
            for mech, cells in matrix.items() for scen, cell in cells.items()]
    _export(args, rows, rows)
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    rows = table2.run_table2()
    print(table2.render_table2(rows))
    _export(args, [vars(r) for r in rows], [vars(r) for r in rows])
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    rows = table3.run_table3()
    print(table3.render_table3(rows))
    _export(args, [vars(r) for r in rows], [vars(r) for r in rows])
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    kwargs = {"scale": args.scale, "seed": args.seed}
    if args.apps:
        kwargs["apps"] = args.apps
    with _make_runner(args) as runner:
        rows = table4.run_table4(runner=runner, **kwargs)
    print(table4.render_table4(rows))
    flat = [{
        "app": r.app,
        "migrations_per_node": r.migrations_per_node,
        "replications_per_node": r.replications_per_node,
        "relocations_per_node": r.relocations_per_node,
        **{f"misses_{k}": v for k, v in r.misses.items()},
        **{f"capacity_conflict_{k}": v for k, v in r.capacity_conflict.items()},
    } for r in rows]
    _export(args, flat, flat)
    return 0


_SWEEPS: Dict[str, Callable[..., SweepResult]] = {
    "rnuma-threshold": rnuma_threshold_sweep,
    "migrep-threshold": migrep_threshold_sweep,
    "network-latency": network_latency_sweep,
    "page-cache": page_cache_sweep,
    "placement": placement_sweep,
    "policy": policy_sweep,
}

_SWEEP_DEFAULT_VALUES: Dict[str, List[object]] = {
    "rnuma-threshold": [8, 16, 32, 64, 128],
    "migrep-threshold": [200, 400, 800, 1600, 3200],
    "network-latency": [1.0, 2.0, 4.0, 8.0],
    "page-cache": [0.25, 0.5, 1.0, 2.0],
    "placement": None,  # resolved from the live placement registry
    "policy": None,     # resolved from the live policy registry
}


def _parse_sweep_value(sweep: str, text: str) -> object:
    if sweep in ("placement", "policy"):
        return text
    if sweep in ("network-latency", "page-cache"):
        return float(text)
    return int(text)


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep_fn = _SWEEPS[args.sweep]
    apps = args.apps or ["barnes", "lu", "radix"]
    if _SWEEP_DEFAULT_VALUES[args.sweep] is not None:
        default_values = _SWEEP_DEFAULT_VALUES[args.sweep]
    elif args.sweep == "policy":
        default_values = list(POLICY_NAMES)
    else:
        default_values = list(PLACEMENT_NAMES)
    values = ([_parse_sweep_value(args.sweep, v) for v in args.values]
              if args.values else default_values)
    with _make_runner(args) as runner:
        result = sweep_fn(values, apps=apps, scale=args.scale, seed=args.seed,
                          runner=runner)
    rows = result.rows()
    header = f"{result.parameter:<20} {'app':<10} {'system':<10} normalized"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{str(row['value']):<20} {row['app']:<10} {row['system']:<10} "
              f"{row['normalized_time']:.3f}")
    _export(args, rows, rows)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.traces import (
        TraceFileError,
        TraceImportError,
        import_trace_file,
        trace_file_info,
        verify_trace_file,
    )

    try:
        if args.trace_cmd == "gen":
            from repro.workloads.generator import TraceGenerator
            from repro.workloads.splash2.registry import get_spec
            cfg = base_config(seed=args.seed)
            gen = TraceGenerator(get_spec(args.app), cfg.machine,
                                 access_scale=args.scale,
                                 page_scale=args.page_scale, seed=args.seed)
            kwargs = {}
            if args.chunk_refs:
                kwargs["chunk_refs"] = args.chunk_refs
            path = gen.generate_to_file(args.out, **kwargs)
            info = trace_file_info(path)
        elif args.trace_cmd == "import":
            path = import_trace_file(
                args.src, args.out, fmt=args.format, name=args.name,
                block_size=args.block_size, page_size=args.page_size,
                phase_refs=args.phase_refs,
                include_instr=args.include_instr)
            info = trace_file_info(path)
        elif args.trace_cmd == "verify":
            info = verify_trace_file(args.path)
            print(f"ok: {info['path']} ({info['accesses']} refs, "
                  f"{info['chunks']} chunks, digest {info['digest']})")
            return 0
        else:   # info
            info = trace_file_info(args.path)
    except (TraceFileError, TraceImportError, UnknownNameError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "json", False):
        print(_json.dumps(info, indent=2))
        return 0
    width = max(len(k) for k in info)
    for key, value in info.items():
        print(f"{key:<{width}}  {value}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    cfg = base_config(seed=args.seed)
    trace = get_workload(args.app, machine=cfg.machine, scale=args.scale,
                         seed=args.seed)
    report = analyze_trace(trace, cfg.machine)
    summary = report.summary()
    width = max(len(k) for k in summary)
    for key, value in summary.items():
        print(f"{key:<{width}}  {value}")
    _export(args, [summary], summary)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser.

    Built at invocation time so every ``choices=`` list reflects the
    *current* registries — systems/workloads/scenarios registered by user
    code before calling :func:`main` are accepted.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DSM cluster simulator reproducing Lai & Falsafi (SPAA 2000)")
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser(
        "list",
        help="list workloads, systems, placements, policies and scenarios")
    list_p.add_argument("--json", action="store_true",
                        help="print the listing as JSON")

    run_p = sub.add_parser("run", help="run one (workload, system) pair")
    run_p.add_argument("app", choices=list_workloads())
    run_p.add_argument("system", choices=SYSTEM_NAMES)
    run_p.add_argument("--placement", choices=PLACEMENT_NAMES,
                       default="first-touch")
    run_p.add_argument("--policy", choices=POLICY_NAMES, default=None,
                       help="decision policy for page operations "
                            "(default: static-threshold)")
    _add_common(run_p, apps=False)

    exp_p = sub.add_parser(
        "exp", help="run a registered scenario (see `repro list`)")
    exp_p.add_argument("scenario",
                       help="scenario name, e.g. figure5 or sweep-page-cache")
    exp_p.add_argument("--scale", type=float, default=None,
                       help="workload scale factor (default: the scenario's)")
    exp_p.add_argument("--seed", type=int, default=None, help="random seed")
    exp_p.add_argument("--apps", type=_csv_list, default=None,
                       help="comma-separated application axis override")
    exp_p.add_argument("--systems", type=_csv_list, default=None,
                       help="comma-separated system axis override")
    exp_p.add_argument("--policy", choices=POLICY_NAMES, default=None,
                       help="run every config of the scenario under this "
                            "decision policy")
    exp_p.add_argument("--jobs", "-j", type=int, default=None,
                       help="worker processes (default: REPRO_JOBS or 1)")
    exp_p.add_argument("--engine", choices=ENGINE_NAMES, default=None,
                       help="simulation engine (default: kernel)")
    exp_p.add_argument("--retries", type=int, default=None,
                       help="retry budget per run for crashed/hung/failed "
                            "workers (default: REPRO_RETRIES or 3)")
    exp_p.add_argument("--run-timeout", type=float, default=None,
                       help="per-run wall-clock timeout in seconds "
                            "(default: REPRO_RUN_TIMEOUT or none)")
    exp_p.add_argument("--store", type=str, default=None,
                       help="durable result store (SQLite): completed runs "
                            "are checkpointed into it and future sweeps — "
                            "in any process, on any engine, after a kill — "
                            "replay from it (default: REPRO_STORE if set)")
    exp_p.add_argument("--csv", type=str, default=None,
                       help="write the flat result rows to this CSV file")
    exp_p.add_argument("--json", type=str, default=None,
                       help="write the full ResultSet to this JSON file")
    exp_p.add_argument("--markdown", type=str, default=None,
                       help="write the rows as a Markdown table to this file")
    exp_p.add_argument("--chart", action="store_true",
                       help="also render an ASCII bar chart")
    exp_p.add_argument("--profile", action="store_true",
                       help="print the engine's per-lane breakdown (fast/"
                            "demoted/residual reference counts and wall "
                            "time), the kernel's bails back to Python by "
                            "kind and the runner's cache counters; on "
                            "kernel rows fast is 0 and residual counts "
                            "every reference, and page operations the "
                            "walk performs itself count as no bail")

    for name in ("figure5", "figure6", "figure7", "figure8",
                 "table1", "table2", "table3", "table4"):
        p = sub.add_parser(name, help=f"regenerate the paper's {name}")
        # table1 drives bespoke scenario specs and tables 2/3 are static,
        # so only table4 goes through the SweepRunner
        _add_common(p, apps=name not in ("table1", "table2", "table3"),
                    runner=name not in ("table1", "table2", "table3"))

    sweep_p = sub.add_parser("sweep", help="run a predefined parameter sweep")
    sweep_p.add_argument("sweep", choices=sorted(_SWEEPS))
    sweep_p.add_argument("--values", nargs="*", default=None,
                         help="override the swept values")
    _add_common(sweep_p)

    analyze_p = sub.add_parser("analyze", help="sharing-pattern analysis of a workload")
    analyze_p.add_argument("app", choices=list_workloads())
    _add_common(analyze_p, apps=False)

    trace_p = sub.add_parser(
        "trace", help="generate, import, inspect and verify on-disk "
                      "trace files")
    tsub = trace_p.add_subparsers(dest="trace_cmd", required=True)

    gen_p = tsub.add_parser(
        "gen", help="generate a workload straight into a trace file "
                    "(out-of-core: one phase in memory at a time)")
    gen_p.add_argument("app", choices=list_workloads())
    gen_p.add_argument("out", help="output trace file path (*.rpt)")
    gen_p.add_argument("--scale", type=float, default=0.5,
                       help="workload scale factor (default 0.5)")
    gen_p.add_argument("--page-scale", type=float, default=1.0,
                       help="page-count scale factor (default 1.0)")
    gen_p.add_argument("--seed", type=int, default=0, help="random seed")
    gen_p.add_argument("--chunk-refs", type=int, default=None,
                       help="references per written chunk (default 1M)")

    imp_p = tsub.add_parser(
        "import", help="convert an external recording (tab-separated "
                       "'addr is_write [proc]' or valgrind-lackey "
                       "--trace-mem output) into a trace file")
    imp_p.add_argument("src", help="input text file")
    imp_p.add_argument("out", help="output trace file path (*.rpt)")
    imp_p.add_argument("--format", choices=("tsv", "lackey"), default=None,
                       help="input format (default: sniffed from the input)")
    imp_p.add_argument("--name", type=str, default=None,
                       help="trace name (default: the input's stem)")
    imp_p.add_argument("--block-size", type=int, default=64,
                       help="bytes per block of the recorded addresses "
                            "(default 64)")
    imp_p.add_argument("--page-size", type=int, default=4096,
                       help="bytes per page of the recorded addresses "
                            "(default 4096)")
    imp_p.add_argument("--phase-refs", type=int, default=1_000_000,
                       help="references per synthesized phase/barrier "
                            "(default 1M)")
    imp_p.add_argument("--include-instr", action="store_true",
                       help="lackey: import instruction fetches as reads")

    info_p = tsub.add_parser("info", help="print a trace file's header")
    info_p.add_argument("path")
    info_p.add_argument("--json", action="store_true",
                        help="print the header as JSON")

    verify_p = tsub.add_parser(
        "verify", help="fully scan a trace file, checking every chunk "
                       "digest and the whole-trace digest")
    verify_p.add_argument("path")

    clean_p = sub.add_parser(
        "clean-shm",
        help="unlink shared-memory trace segments orphaned by dead "
             "repro processes")
    clean_p.add_argument("--dry-run", action="store_true",
                         help="list the orphans without removing them")

    store_p = sub.add_parser(
        "store", help="inspect or prune a durable result store")
    store_p.add_argument("--store", type=str, default=None,
                         help=f"store file (default: {STORE_ENV_VAR})")
    ssub = store_p.add_subparsers(dest="store_cmd", required=True)
    ls_p = ssub.add_parser("ls", help="list stored runs (metadata only)")
    ls_p.add_argument("--json", action="store_true",
                      help="print the rows as JSON")
    ssub.add_parser(
        "verify", help="recompute every checksum and unpickle every "
                       "payload; exit 1 if any row is corrupt")
    gc_p = ssub.add_parser("gc", help="delete rows by age or digest prefix")
    gc_p.add_argument("--max-age", type=float, default=None,
                      metavar="SECONDS",
                      help="delete rows older than this many seconds "
                           "(>= 0)")
    gc_p.add_argument("--digest", action="append", default=None,
                      metavar="PREFIX",
                      help="delete rows whose trace digest starts with "
                           "this lowercase hex prefix (repeatable)")
    gc_p.add_argument("--all", action="store_true",
                      help="delete every row")
    gc_p.add_argument("--dry-run", action="store_true",
                      help="report what would be deleted without deleting")
    exp_store_p = ssub.add_parser(
        "export", help="full-fidelity JSON export (metadata + base64 "
                       "payloads)")
    exp_store_p.add_argument("--out", type=str, default=None,
                             help="write to this file instead of stdout")

    return parser


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "list": _cmd_list,
    "run": _cmd_run,
    "exp": _cmd_exp,
    "figure5": _figure_command(figure5.run_figure5, figure5.render_figure5),
    "figure6": _figure_command(figure6.run_figure6, figure6.render_figure6),
    "figure7": _figure_command(figure7.run_figure7, figure7.render_figure7),
    "figure8": _figure_command(figure8.run_figure8, figure8.render_figure8),
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "trace": _cmd_trace,
    "clean-shm": _cmd_clean_shm,
    "store": _cmd_store,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
