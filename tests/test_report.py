"""Tests for the EXPERIMENTS.md report builder (repro.experiments.report)."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.experiments.report import ExperimentReport, build_report


@pytest.fixture(scope="module")
def tiny_report() -> ExperimentReport:
    """A minimal report run: one application at a very small scale.

    Shape checks calibrated for the full seven-application run are not
    expected to pass here; these tests verify the report machinery
    (sections, tables, check plumbing), not the science.
    """
    progress_log: list[str] = []
    report = build_report(scale=0.05, seed=0, apps=["lu"],
                          progress=progress_log.append)
    report._progress_log = progress_log  # type: ignore[attr-defined]
    return report


class TestBuildReport:
    def test_all_paper_artifacts_have_sections(self, tiny_report):
        text = tiny_report.to_markdown()
        for artifact in ("Table 1", "Table 2", "Table 3", "Table 4",
                         "Figure 5", "Figure 6", "Figure 7", "Figure 8"):
            assert f"## {artifact}" in text
        assert "## Ablations beyond the paper" in text
        assert "## Shape-check summary" in text

    def test_progress_callback_called_per_stage(self, tiny_report):
        log = tiny_report._progress_log
        for stage in ("table 1", "figure 5", "figure 8", "ablations"):
            assert stage in log

    def test_checks_collected_per_figure(self, tiny_report):
        assert set(tiny_report.checks) >= {"figure5", "table4", "figure6",
                                           "figure7", "figure8"}
        assert tiny_report.all_checks()
        # every check renders into the markdown
        text = tiny_report.to_markdown()
        for check in tiny_report.all_checks():
            assert check.claim in text

    def test_markdown_tables_are_well_formed(self, tiny_report):
        lines = tiny_report.to_markdown().splitlines()
        table_header_indices = [i for i, line in enumerate(lines)
                                if line.startswith("| ") and i + 1 < len(lines)
                                and lines[i + 1].startswith("| ---")]
        assert table_header_indices, "expected at least one markdown table"
        for i in table_header_indices:
            width = lines[i].count("|")
            assert lines[i + 1].count("|") == width

    def test_elapsed_and_metadata(self, tiny_report):
        assert tiny_report.elapsed_seconds > 0
        assert tiny_report.scale == 0.05
        assert "scale 0.05" in tiny_report.to_markdown()


class TestCommittedReport:
    """The committed EXPERIMENTS.md: ``scripts/make_experiments_md.py``
    at its defaults (scale 0.5, seed 0), which CI regenerates."""

    @pytest.fixture(scope="class")
    def text(self) -> str:
        path = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
        return path.read_text(encoding="utf-8")

    def test_every_codified_claim_holds(self, text):
        m = re.search(r"(\d+) of (\d+) codified claims", text)
        assert m, "no shape-check summary line"
        held, total = int(m.group(1)), int(m.group(2))
        assert held == total > 0
        # the summary counts the per-figure check tables' rows
        assert len(re.findall(r"^\| .+ \| pass \| ", text, re.M)) == total
        assert not re.search(r"^\| .+ \| FAIL \| ", text, re.M)

    def test_full_run_at_script_defaults(self, text):
        assert "(workload scale 0.5, seed 0)" in text
        for artifact in ("Table 1", "Table 2", "Table 3", "Table 4",
                         "Figure 5", "Figure 6", "Figure 7", "Figure 8"):
            assert f"## {artifact}" in text
        # all seven applications, not a smoke-run subset
        for app in ("barnes", "cholesky", "fmm", "lu", "ocean", "radix",
                    "raytrace"):
            assert f"| {app} |" in text
