"""Tests of the benchmark's own code, at tiny scale.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))
os.environ.setdefault("REPRO_KERNEL_CACHE", str(BENCH / ".work" / "kernel-cache"))

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402


# -- medians, quartiles, failed share -----------------------------------------


def test_median_odd_and_even():
    assert measure.median([3.0, 1.0, 2.0]) == 2.0
    assert measure.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        measure.median([])


def test_spread_uses_exclusive_quartiles_over_median():
    values = [float(v) for v in range(1, 11)]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (q1, q3) == (2.75, 8.25)
    assert measure.spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert measure.spread([7.0]) == 0.0
    assert measure.spread([2.0, 2.0, 2.0]) == 0.0


def test_fastest_parts_takes_each_simulation_at_its_fastest():
    samples = [(10.0, [3.0, 4.0]),    # rest 3.0
               (9.0, [4.0, 3.0]),     # rest 2.0
               (12.0, [5.0, 5.0])]    # rest 2.0
    assert measure.fastest_parts(samples) == pytest.approx(2.0 + 3.0 + 3.0)
    # never slower than the fastest whole sample
    assert measure.fastest_parts(samples) <= min(w for w, _ in samples)


def test_fastest_parts_falls_back_to_whole_samples():
    assert measure.fastest_parts([(5.0, []), (4.0, [])]) == 4.0
    assert measure.fastest_parts([(5.0, [1.0]), (4.0, [1.0, 2.0])]) == 4.0
    with pytest.raises(ValueError):
        measure.fastest_parts([])


def test_host_speed_is_relative_to_the_reference_probe():
    ref = measure.CAL_REF_S
    # the lower quartile: one freak fast probe does not move it
    assert measure.host_speed([ref / 2] + [ref] * 8) == pytest.approx(1.0)
    # a host that stayed twice as slow all run halves the speed
    assert measure.host_speed([2 * ref] * 5) == pytest.approx(0.5)
    assert measure.host_speed([2 * ref]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        measure.host_speed([])


def test_calibrate_returns_a_positive_time():
    assert 0.0 < measure.calibrate(reps=2, n=1000) < 1.0


def test_failed_share():
    assert measure.failed_share(0, 49) == 0.0
    assert measure.failed_share(7, 49) == pytest.approx(1 / 7)
    assert measure.failed_share(0, 0) == 1.0


# -- output digests ------------------------------------------------------------


def _rows():
    base = {col: 1000 + i for i, col in enumerate(measure.SIMULATED_COLUMNS)}
    return [dict(base, app=app, system=system, config="base",
                 normalized_time=1.0)
            for app in ("lu", "ocean") for system in ("perfect", "rnuma")]


def test_digest_catches_a_single_changed_counter():
    rows = _rows()
    reference = measure.row_hashes(rows)
    changed = [dict(r) for r in rows]
    changed[3]["network_messages"] += 1
    observed = measure.row_hashes(changed)
    assert measure.mismatched(observed, reference) == ["ocean|rnuma|base"]


def test_digest_ignores_derived_columns_and_trace_paths():
    rows = _rows()
    moved = [dict(r, normalized_time=2.0,
                  app=f"file:/elsewhere/{r['app']}.rpt") for r in rows]
    assert measure.mismatched(measure.row_hashes(moved),
                              measure.row_hashes(rows)) == []


def test_missing_rows_are_mismatches():
    reference = measure.row_hashes(_rows())
    observed = dict(reference)
    observed.pop("lu|perfect|base")
    assert measure.mismatched(observed, reference) == ["lu|perfect|base"]


# -- spans and self time ---------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layers, "perf_counter", clock)
    rec = layers.Recorder("demo")
    outer = rec.begin("outer", "lu/rnuma")
    clock.now = 2.0
    child = rec.begin("child")
    clock.now = 3.0
    grandchild = rec.begin("grandchild")
    clock.now = 4.5
    rec.end(grandchild)
    clock.now = 5.0
    rec.end(child)
    clock.now = 6.0
    second = rec.begin("child")
    clock.now = 7.0
    rec.end(second)
    clock.now = 10.0
    rec.end(outer)
    assert rec.total("outer") == 10.0
    assert rec.self_time("outer") == 10.0 - 3.0 - 1.0
    assert rec.calls("child") == 2
    assert rec.self_time("child") == pytest.approx(4.0 - 1.5)
    # every span inherits the cell of its ancestors
    assert {s[5] for s in rec.spans} == {"lu/rnuma"}
    events = rec.chrome_trace(0.0)["traceEvents"]
    assert {e["ph"] for e in events} == {"X"}
    outer_ev = next(e for e in events if e["name"] == "outer")
    assert outer_ev["dur"] == 10.0e6 and outer_ev["args"]["parent"] == 0


def test_recorder_keeps_a_bounded_number_of_spans():
    rec = layers.Recorder("demo", keep=3)
    for _ in range(10):
        rec.end(rec.begin("hot"))
    assert rec.calls("hot") == 10
    assert len(rec.spans) == 3 and rec.dropped == 7


# -- wrappers on the real simulator --------------------------------------------


def _tiny_figure5(jobs=1):
    from repro.experiments.runner import SweepRunner
    from repro.experiments.scenario import run_scenario

    with SweepRunner(jobs=jobs, engine="kernel") as runner:
        return run_scenario("figure5", apps=("lu",), scale=0.02, seed=0,
                            runner=runner)


def test_install_records_every_layer_and_restores():
    from repro.cluster.machine import Machine
    from repro.core.protocol import DSMProtocol

    original_run = Machine.run
    original_miss = DSMProtocol.handle_miss
    reference = measure.row_hashes(_tiny_figure5().rows)
    rec = layers.Recorder("figure5")
    inst = layers.install(rec)
    try:
        assert inst.absent == []
        rs = _tiny_figure5()
    finally:
        inst.restore()
    assert Machine.run is original_run
    assert DSMProtocol.handle_miss is original_miss
    # tracing changes no simulated result
    assert measure.row_hashes(rs.rows) == reference
    assert rec.calls("engine.kernel") == 6 and rec.calls("engine.batched") == 1
    assert rec.calls("engine.walk") > 0 and rec.calls("engine.classify") > 0
    metrics = layers.span_metrics(rec, inst.installed, wall_s=1.0, jobs=1)
    assert metrics["engine.kernel.s"][0] > 0
    assert metrics["store.put_calls"] == (0, "count")


def test_absent_target_is_reported_not_zero(monkeypatch):
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + (
        ("engine.gone", "repro.engine.kernel", "no_such_stage"),
        ("engine.flush", "repro.engine.kernel.state", "KernelState.gone"),
    ))
    rec = layers.Recorder("figure5")
    inst = layers.install(rec)
    try:
        rs = _tiny_figure5()
    finally:
        inst.restore()
    assert len(rs.rows) == 7
    assert any("no_such_stage" in a for a in inst.absent)
    # engine.flush still has its real target, so it stays present
    metrics = layers.span_metrics(rec, inst.installed, wall_s=1.0, jobs=1)
    assert "engine.flush_s" in metrics
    without = [n for n in inst.installed if n != "engine.flush"]
    assert "engine.flush_s" not in layers.span_metrics(
        rec, without, wall_s=1.0, jobs=1)


def test_forked_worker_spans_are_merged(tmp_path):
    rec = layers.Recorder("figure5", sink=tmp_path / "spans")
    inst = layers.install(rec)
    try:
        rs = _tiny_figure5(jobs=2)
    finally:
        inst.restore()
    assert rec.merge_sink() >= 1
    assert rec.calls("engine.kernel") + rec.calls("engine.batched") == len(rs.rows)


def test_profile_metrics_count_fallbacks_and_bails():
    profiles = [
        {"engine": "kernel", "references": 10, "fast": 6, "residual": 4,
         "demoted": 1, "bail_kinds": {"relocate": 3}},
        {"engine": "batched", "requested_engine": "kernel",
         "fallback_reason": "infinite block cache", "references": 5,
         "fast": 5, "residual": 0, "demoted": 0},
    ]
    out = layers.profile_metrics(profiles, {"runs": 2, "store_hits": 0})
    assert out["engine.kernel.fallbacks"] == (1, "count")
    assert out["engine.bails.relocate"] == (3, "count")
    assert out["workloads.refs"] == (15, "count")
    assert out["runner.runs"] == (2, "count")
    assert "runner.crashes" not in out     # not reported: absent, not zero


# -- the orchestrator -----------------------------------------------------------


def test_refuses_a_checkout_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "figure5", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
