"""Tests for the command-line interface (repro.cli / python -m repro)."""

from __future__ import annotations

import csv
import io
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.core.factory import SYSTEM_NAMES
from repro.experiments.store import ResultStore
from repro.kernel.placement import PLACEMENT_NAMES
from repro.workloads import list_workloads

from helpers import require_c_backend


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "lu", "rnuma", "--scale", "0.1", "--seed", "3",
             "--placement", "interleaved"])
        assert args.app == "lu" and args.system == "rnuma"
        assert args.scale == 0.1 and args.seed == 3
        assert args.placement == "interleaved"

    def test_run_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "lu", "not-a-system"])

    @pytest.mark.parametrize("command", [["run", "lu", "ccnuma"],
                                         ["figure5"], ["exp", "figure5"]])
    def test_engine_help_names_the_kernel_default(self, command, capsys):
        with pytest.raises(SystemExit):
            main(command[:1] + ["--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "simulation engine (default: kernel" in out

    def test_apps_are_comma_separated(self):
        args = build_parser().parse_args(["figure5", "--apps", "lu, radix"])
        assert args.apps == ["lu", "radix"]

    def test_sweep_choices(self):
        args = build_parser().parse_args(["sweep", "placement"])
        assert args.sweep == "placement"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "nonexistent"])


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for workload in list_workloads():
            assert workload in out
        for system in SYSTEM_NAMES:
            assert system in out
        for placement in PLACEMENT_NAMES:
            assert placement in out

    def test_run_command_prints_summary_and_writes_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "run.csv"
        code = main(["run", "lu", "rnuma", "--scale", "0.05",
                     "--csv", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "normalized_time" in out
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        assert len(rows) == 1
        assert rows[0]["system"] == "rnuma"
        assert float(rows[0]["normalized_time"]) >= 0.99

    def test_run_with_placement_override(self, capsys):
        assert main(["run", "ocean", "ccnuma", "--scale", "0.05",
                     "--placement", "round-robin"]) == 0
        assert "remote_misses" in capsys.readouterr().out

    def test_figure5_subset_with_json_export(self, capsys, tmp_path):
        json_path = tmp_path / "fig5.json"
        code = main(["figure5", "--apps", "lu", "--scale", "0.05",
                     "--json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        data = json.loads(json_path.read_text())
        assert "lu" in data
        assert "rnuma" in data["lu"]

    def test_figure7_with_ascii_chart(self, capsys):
        code = main(["figure7", "--apps", "lu", "--scale", "0.05", "--chart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "normalized execution time" in out
        assert "#" in out

    def test_table2_and_table3_need_no_simulation(self, capsys):
        assert main(["table2"]) == 0
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "barnes" in out
        assert "soft trap" in out.lower() or "soft_trap" in out.lower()

    def test_table4_subset(self, capsys, tmp_path):
        csv_path = tmp_path / "t4.csv"
        assert main(["table4", "--apps", "lu", "--scale", "0.05",
                     "--csv", str(csv_path)]) == 0
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        assert rows[0]["app"] == "lu"
        assert "relocations_per_node" in rows[0]

    def test_analyze_command(self, capsys):
        assert main(["analyze", "lu", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "opportunity_rnuma" in out

    def test_sweep_command_with_values(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code = main(["sweep", "network-latency", "--apps", "lu",
                     "--scale", "0.05", "--values", "1.0", "4.0",
                     "--csv", str(csv_path)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        # 2 values x 1 app x 3 default systems
        assert len(rows) == 6
        assert {r["system"] for r in rows} == {"ccnuma", "migrep", "rnuma"}


class TestListJson:
    def test_list_json_enumerates_registries(self, capsys):
        assert main(["list", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"workloads", "systems", "placements",
                             "policies", "scenarios", "engines"}
        assert "figure5" in data["scenarios"]
        assert "sweep-page-cache" in data["scenarios"]
        assert "policy-adaptivity" in data["scenarios"]
        assert data["systems"] == list(SYSTEM_NAMES)
        assert "static-threshold" in data["policies"]
        assert "competitive" in data["policies"]

    def test_plain_list_shows_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "scenarios:" in out and "table4" in out


class TestExpCommand:
    def test_exp_runs_a_figure_scenario(self, capsys, tmp_path):
        json_path = tmp_path / "exp.json"
        code = main(["exp", "figure5", "--apps", "lu", "--scale", "0.05",
                     "--json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        data = json.loads(json_path.read_text())
        assert data["scenario"] == "figure5"
        systems = {r["system"] for r in data["rows"]}
        assert "rnuma" in systems and "perfect" in systems

    def test_exp_profile_surfaces_bail_kinds_and_reasons(self, capsys,
                                                         monkeypatch):
        """--profile prints the stable bail-kind counters and the full
        (possibly multi-condition) fallback reason per ineligible run."""
        require_c_backend()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        code = main(["exp", "figure5", "--apps", "lu", "--scale", "0.03",
                     "--systems", "rnuma,scoma", "--engine", "kernel",
                     "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        header = next(l for l in out.splitlines() if l.startswith("app "))
        assert header.split() == ["app", "system", "engine", "refs", "fast",
                                  "demoted", "residual", "wall_s", "walk_s",
                                  "rss_mb", "strm_mb"]
        bails_line = next(l for l in out.splitlines()
                          if l.startswith("bails:"))
        for kind in ("fault", "collapse", "replicate", "migrate",
                     "relocate", "decide", "pagecache"):
            assert f"{kind}=" in bails_line
        # every system rides the kernel, the perfect baseline included
        assert re.search(r" perfect +kernel:c ", out), out
        assert "kernel fallbacks:" not in out

    def test_exp_profile_default_engine_is_the_kernel(self, capsys,
                                                      monkeypatch):
        """With no --engine and no REPRO_ENGINE every run rides the C
        walk: no batched rows and no fallback section."""
        require_c_backend()
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        code = main(["exp", "figure5", "--apps", "lu", "--scale", "0.03",
                     "--systems", "ccnuma,migrep", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        for system in ("perfect", "ccnuma", "migrep"):
            assert re.search(rf" {system} +kernel:c ", out), out
        assert " batched " not in out
        assert "kernel fallbacks:" not in out

    def test_exp_axis_overrides_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "exp.csv"
        code = main(["exp", "figure5", "--apps", "lu", "--systems",
                     "ccnuma,rnuma", "--scale", "0.05",
                     "--csv", str(csv_path)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        assert {r["system"] for r in rows} == {"perfect", "ccnuma", "rnuma"}

    def test_exp_matches_legacy_figure_command_data(self, capsys, tmp_path):
        legacy_path = tmp_path / "legacy.json"
        exp_path = tmp_path / "exp.json"
        assert main(["figure8", "--apps", "lu", "--scale", "0.05",
                     "--json", str(legacy_path)]) == 0
        assert main(["exp", "figure8", "--apps", "lu", "--scale", "0.05",
                     "--json", str(exp_path)]) == 0
        capsys.readouterr()
        legacy = json.loads(legacy_path.read_text())
        exp = json.loads(exp_path.read_text())
        pivot = {r["series"]: r["normalized_time"] for r in exp["rows"]
                 if not r["is_baseline"]}
        assert pivot == legacy["lu"]

    def test_exp_static_scenario(self, capsys, tmp_path):
        md_path = tmp_path / "t3.md"
        assert main(["exp", "table3", "--markdown", str(md_path)]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert md_path.read_text().startswith("|")

    def test_exp_unknown_scenario_suggests(self, capsys):
        assert main(["exp", "figure55"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "figure5" in err

    def test_exp_unknown_app_or_system_is_a_clean_error(self, capsys):
        assert main(["exp", "figure5", "--apps", "luu",
                     "--scale", "0.05"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err and "did you mean 'lu'" in err
        assert main(["exp", "figure5", "--apps", "lu", "--systems", "rnmua",
                     "--scale", "0.05"]) == 2
        assert "unknown system" in capsys.readouterr().err

    def test_exp_policy_rejected_on_policy_scenarios(self, capsys):
        for scenario in ("policy-adaptivity", "sweep-policy"):
            assert main(["exp", scenario, "--policy", "competitive",
                         "--apps", "lu", "--scale", "0.05"]) == 2
            err = capsys.readouterr().err
            assert "already compares decision policies" in err

    def test_exp_table1_rejects_foreign_apps_cleanly(self, capsys):
        assert main(["exp", "table1", "--apps", "lu", "--scale", "0.05"]) == 2
        err = capsys.readouterr().err
        assert "sharing scenario" in err and "read_only" in err

    def test_exp_chart_skipped_without_baseline(self, capsys):
        # table4 has no normalisation baseline; --chart must not crash
        assert main(["exp", "table4", "--apps", "lu", "--scale", "0.05",
                     "--chart"]) == 0
        assert "Table 4" in capsys.readouterr().out

    def test_exp_renderer_degrades_on_axis_subset(self, capsys):
        # table4's custom renderer needs all three systems; a --systems
        # subset must fall back to the generic rendering, not crash
        assert main(["exp", "table4", "--apps", "lu", "--systems", "ccnuma",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out and "ccnuma" in out

    def test_exp_runs_user_registered_scenario(self, capsys):
        from repro.experiments.scenario import Scenario
        from repro.registry import SCENARIOS, register_scenario

        register_scenario(Scenario(
            name="cli-test-scn", title="CLI test scenario",
            apps=("lu",), systems=("ccnuma",), default_scale=0.05))
        try:
            assert main(["exp", "cli-test-scn"]) == 0
            assert "CLI test scenario" in capsys.readouterr().out
        finally:
            SCENARIOS.unregister("cli-test-scn")


class TestRobustnessCli:
    """--store re-runs, --retries/--run-timeout and clean-shm."""

    def test_exp_store_rerun_on_another_engine_recomputes_nothing(
            self, capsys, tmp_path):
        store = tmp_path / "sweep.sqlite"
        first_json = tmp_path / "first.json"
        second_json = tmp_path / "second.json"
        assert main(["exp", "figure5", "--apps", "lu", "--scale", "0.05",
                     "--engine", "legacy", "--store", str(store),
                     "--json", str(first_json)]) == 0
        assert store.exists()
        assert main(["exp", "figure5", "--apps", "lu", "--scale", "0.05",
                     "--store", str(store),
                     "--json", str(second_json)]) == 0
        capsys.readouterr()
        first = json.loads(first_json.read_text())
        second = json.loads(second_json.read_text())
        assert second["rows"] == first["rows"]
        assert second["runner"]["runs"] == 0
        assert second["runner"]["store_hits"] == len(second["rows"])

    def test_exp_retry_and_timeout_flags_reach_the_runner(self):
        parser = build_parser()
        args = parser.parse_args(["exp", "figure5", "--retries", "5",
                                  "--run-timeout", "2.5"])
        from repro.cli import _make_runner
        runner = _make_runner(args)
        try:
            assert runner.retries == 5
            assert runner.run_timeout == 2.5
        finally:
            runner.close()

    def test_clean_shm_dry_run(self, capsys):
        assert main(["clean-shm", "--dry-run"]) == 0
        assert "would remove" in capsys.readouterr().out

    def test_clean_shm_removes_orphan(self, capsys):
        import subprocess
        from multiprocessing import resource_tracker, shared_memory

        proc = subprocess.Popen(["sleep", "0"])
        proc.wait()
        name = f"repro_{'cd' * 8}_{proc.pid}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=32)
        shm.close()
        resource_tracker.unregister(shm._name, "shared_memory")
        try:
            assert main(["clean-shm"]) == 0
            assert name in capsys.readouterr().out
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        finally:
            try:
                shared_memory.SharedMemory(name=name).unlink()
            except FileNotFoundError:
                pass


class TestStoreCli:
    """repro exp --store and the repro store subcommands."""

    def _populate(self, tmp_path):
        store = tmp_path / "results.sqlite"
        out = tmp_path / "first.json"
        assert main(["exp", "figure5", "--apps", "lu", "--scale", "0.05",
                     "--store", str(store), "--json", str(out)]) == 0
        return store, json.loads(out.read_text())

    def test_exp_store_rerun_is_all_store_hits(self, capsys, tmp_path):
        store, first = self._populate(tmp_path)
        second_json = tmp_path / "second.json"
        assert main(["exp", "figure5", "--apps", "lu", "--scale", "0.05",
                     "--store", str(store),
                     "--json", str(second_json)]) == 0
        capsys.readouterr()
        second = json.loads(second_json.read_text())
        assert second["rows"] == first["rows"]
        assert second["runner"]["runs"] == 0
        assert second["runner"]["store_hits"] == len(second["rows"])

    def test_store_env_var_is_the_default(self, capsys, tmp_path,
                                          monkeypatch):
        store = tmp_path / "env.sqlite"
        monkeypatch.setenv("REPRO_STORE", str(store))
        assert main(["exp", "figure5", "--apps", "lu",
                     "--scale", "0.05"]) == 0
        capsys.readouterr()
        assert store.exists()
        assert main(["store", "verify"]) == 0
        assert "row(s) ok" in capsys.readouterr().out

    def test_store_ls_verify_gc_export(self, capsys, tmp_path):
        store, first = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "--store", str(store), "ls"]) == 0
        out = capsys.readouterr().out
        assert f"{len(first['rows'])} row(s)" in out
        assert "lu" in out
        assert main(["store", "--store", str(store), "verify"]) == 0
        assert "row(s) ok" in capsys.readouterr().out
        assert main(["store", "--store", str(store), "gc",
                     "--all", "--dry-run"]) == 0
        assert "would remove" in capsys.readouterr().out
        export = tmp_path / "export.json"
        assert main(["store", "--store", str(store), "export",
                     "--out", str(export)]) == 0
        capsys.readouterr()
        doc = json.loads(export.read_text())
        assert len(doc["rows"]) == len(first["rows"])
        assert main(["store", "--store", str(store), "gc", "--all"]) == 0
        capsys.readouterr()
        assert main(["store", "--store", str(store), "ls"]) == 0
        assert "0 row(s)" in capsys.readouterr().out

    def test_store_ls_json(self, capsys, tmp_path):
        store, first = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "--store", str(store), "ls", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == len(first["rows"])
        assert all(r["engine_used"] for r in rows)

    def test_store_requires_a_path(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert main(["store", "ls"]) == 2
        assert "REPRO_STORE" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["ls"], ["verify"], ["gc", "--all"],
                                         ["export"]])
    def test_store_refuses_a_missing_path(self, capsys, tmp_path, command):
        missing = tmp_path / "nodir" / "typo.sqlite"
        assert main(["store", "--store", str(missing), *command]) == 2
        captured = capsys.readouterr()
        assert str(missing) in captured.err
        assert "row(s)" not in captured.out
        assert not missing.exists()
        assert not missing.parent.exists()

    def test_store_refuses_a_missing_env_path(self, capsys, tmp_path,
                                              monkeypatch):
        missing = tmp_path / "typo.sqlite"
        monkeypatch.setenv("REPRO_STORE", str(missing))
        assert main(["store", "verify"]) == 2
        assert str(missing) in capsys.readouterr().err
        assert not missing.exists()

    def test_exp_store_still_creates_a_new_store(self, capsys, tmp_path):
        fresh = tmp_path / "new" / "fresh.sqlite"
        assert main(["exp", "figure5", "--apps", "lu", "--scale", "0.05",
                     "--systems", "ccnuma", "--store", str(fresh)]) == 0
        capsys.readouterr()
        assert fresh.exists()
        assert main(["store", "--store", str(fresh), "verify"]) == 0
        assert "2/2 row(s) ok" in capsys.readouterr().out

    def test_store_ls_names_the_engine_that_ran(self, capsys, tmp_path):
        store = tmp_path / "legacy.sqlite"
        assert main(["exp", "figure5", "--apps", "lu", "--scale", "0.05",
                     "--systems", "ccnuma", "--engine", "legacy",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["store", "--store", str(store), "ls"]) == 0
        header, _, *lines = capsys.readouterr().out.splitlines()
        assert "engine_used" in header.split()
        assert [line.split()[2] for line in lines[:-1]] == ["legacy"] * 2

    @pytest.mark.parametrize("criterion", [["--digest", ""],
                                           ["--digest", "_"],
                                           ["--digest", "%"],
                                           ["--digest", "AB"],
                                           ["--max-age", "-1"]])
    def test_store_gc_rejects_bad_criteria(self, capsys, tmp_path,
                                           criterion):
        store, first = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "--store", str(store), "gc",
                     *criterion]) == 2
        assert "error:" in capsys.readouterr().err
        with ResultStore(store) as opened:
            assert len(opened) == len(first["rows"])

    def test_store_gc_by_digest_prefix(self, capsys, tmp_path):
        store, first = self._populate(tmp_path)
        with ResultStore(store) as opened:
            digest = next(opened.keys())[0]
        capsys.readouterr()
        assert main(["store", "--store", str(store), "gc", "--dry-run",
                     "--digest", digest[:6]]) == 0
        out = capsys.readouterr().out
        assert f"would remove {len(first['rows'])} row(s)" in out
        flipped = "0" if digest[0] != "0" else "1"
        assert main(["store", "--store", str(store), "gc",
                     "--digest", flipped + digest[1:6]]) == 0
        assert "removed 0 row(s)" in capsys.readouterr().out
