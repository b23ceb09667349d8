"""Supervised sweep execution under injected faults.

These tests drive :mod:`repro.experiments.faults` against the
supervised :class:`~repro.experiments.runner.SweepRunner` to prove the
robustness invariant: a parallel sweep whose workers crash, hang or
raise still completes with results bit-identical to a fault-free run,
and a killed sweep resumes from its result store without recomputing
anything, leaving no orphaned worker behind.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.config import base_config
from repro.experiments.faults import FaultPlan, InjectedFault
from repro.experiments.runner import (
    SweepRunner,
    default_retries,
    default_run_timeout,
    ensure_runner,
)
from repro.experiments.scenario import run_scenario
from repro.workloads import get_workload

SYSTEMS = ("perfect", "ccnuma", "migrep", "rnuma")


@pytest.fixture(scope="module")
def cfg():
    return base_config(seed=0)


@pytest.fixture(scope="module")
def lu_trace(cfg):
    return get_workload("lu", machine=cfg.machine, scale=0.05, seed=0)


@pytest.fixture(scope="module")
def clean_results(cfg, lu_trace):
    """Fault-free serial reference results for the standard item set."""
    with SweepRunner(jobs=1) as runner:
        return runner.map_runs([(lu_trace, s, cfg) for s in SYSTEMS])


def _assert_bit_identical(results, reference):
    assert len(results) == len(reference)
    for got, want in zip(results, reference):
        assert got.summary() == want.summary()
        assert got.stats.stall_breakdown == want.stats.stall_breakdown


class TestFaultPlan:
    def test_unconfigured_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultPlan.from_env() is None

    def test_parsing_and_clamping(self):
        plan = FaultPlan.from_env({"REPRO_FAULTS": "crash=0.3, hang=2.0",
                                   "REPRO_FAULTS_SEED": "7",
                                   "REPRO_FAULTS_ATTEMPTS": "2"})
        assert plan.rates == {"crash": 0.3, "hang": 1.0}
        assert plan.seed == "7" and plan.attempts == 2

    def test_malformed_entries_ignored(self):
        plan = FaultPlan.from_env({"REPRO_FAULTS":
                                   "bogus=0.5,crash=oops,,error=0.4"})
        assert plan is not None and plan.rates == {"error": 0.4}
        assert FaultPlan.from_env({"REPRO_FAULTS": "crash=0.0"}) is None
        assert FaultPlan.from_env({"REPRO_FAULTS": "nonsense"}) is None

    def test_decision_is_deterministic(self):
        plan = FaultPlan(rates={"crash": 0.5, "error": 0.5})
        kinds = {plan.decide(f"digest{i}", "ccnuma") for i in range(32)}
        assert kinds <= {"crash", "error"}
        for i in range(32):
            assert (plan.decide(f"digest{i}", "ccnuma")
                    == plan.decide(f"digest{i}", "ccnuma"))

    def test_seed_moves_the_faults(self):
        a = FaultPlan(rates={"crash": 0.5}, seed="0")
        b = FaultPlan(rates={"crash": 0.5}, seed="1")
        picks_a = [a.decide(f"d{i}", "s") for i in range(64)]
        picks_b = [b.decide(f"d{i}", "s") for i in range(64)]
        assert picks_a != picks_b

    def test_attempts_gate(self):
        plan = FaultPlan(rates={"crash": 1.0}, attempts=2)
        assert plan.fault_for("d", "s", 0) == "crash"
        assert plan.fault_for("d", "s", 1) == "crash"
        assert plan.fault_for("d", "s", 2) is None

    def test_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
        assert default_retries() == 3
        assert default_run_timeout() is None
        monkeypatch.setenv("REPRO_RETRIES", "5")
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "2.5")
        assert default_retries() == 5
        assert default_run_timeout() == 2.5


class TestSupervisedRecovery:
    """jobs=2 sweeps under injection stay bit-identical to fault-free."""

    def test_worker_crashes_recovered(self, cfg, lu_trace, clean_results,
                                      monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash=1.0")
        with SweepRunner(jobs=2, backoff=0.01) as runner:
            results = runner.map_runs([(lu_trace, s, cfg) for s in SYSTEMS])
            assert runner.stats.crashes >= 1
            assert runner.stats.retries >= len(SYSTEMS)
        _assert_bit_identical(results, clean_results)

    def test_run_errors_recovered(self, cfg, lu_trace, clean_results,
                                  monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error=1.0")
        with SweepRunner(jobs=2, backoff=0.01) as runner:
            results = runner.map_runs([(lu_trace, s, cfg) for s in SYSTEMS])
            assert runner.stats.run_errors == len(SYSTEMS)
            assert runner.stats.retries == len(SYSTEMS)
        _assert_bit_identical(results, clean_results)

    def test_hung_workers_timed_out_and_recovered(self, cfg, lu_trace,
                                                  clean_results, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang=1.0")
        monkeypatch.setenv("REPRO_FAULTS_HANG_S", "60")
        with SweepRunner(jobs=2, run_timeout=2.0, backoff=0.01) as runner:
            results = runner.map_runs([(lu_trace, s, cfg)
                                       for s in SYSTEMS[:2]])
            assert runner.stats.timeouts >= 1
        _assert_bit_identical(results, clean_results[:2])

    def test_persistent_crashes_degrade_to_inline(self, cfg, lu_trace,
                                                  clean_results, monkeypatch):
        # every pool attempt faults -> the ladder must land each run on
        # the inline lane, which is never injected
        monkeypatch.setenv("REPRO_FAULTS", "crash=1.0")
        monkeypatch.setenv("REPRO_FAULTS_ATTEMPTS", "10")
        with SweepRunner(jobs=2, retries=2, backoff=0.01) as runner:
            results = runner.map_runs([(lu_trace, s, cfg)
                                       for s in SYSTEMS[:2]])
            assert runner.stats.degradations >= 2
            assert runner.stats.crashes >= 2
        _assert_bit_identical(results, clean_results[:2])

    def test_mixed_fault_scenario_bit_identical(self, monkeypatch):
        clean = run_scenario("figure5", apps=["lu"], scale=0.05)
        monkeypatch.setenv("REPRO_FAULTS", "crash=0.3,hang=0.1,error=0.1")
        monkeypatch.setenv("REPRO_FAULTS_HANG_S", "60")
        with SweepRunner(jobs=2, run_timeout=5.0, backoff=0.01) as runner:
            faulted = run_scenario("figure5", apps=["lu"], scale=0.05,
                                   runner=runner)
        assert faulted.rows == clean.rows

    def test_faults_across_streamed_traces_bit_identical(self, monkeypatch):
        kwargs = {"apps": ["lu", "ocean", "radix"], "scale": 0.05}
        clean = run_scenario("figure5", **kwargs)
        monkeypatch.setenv("REPRO_FAULTS", "crash=0.3,error=0.2")
        with SweepRunner(jobs=2, backoff=0.01) as runner:
            faulted = run_scenario("figure5", runner=runner, **kwargs)
            assert runner.stats.crashes >= 1
            assert runner.stats.run_errors >= 1
        assert faulted.rows == clean.rows

    def test_pool_breaking_mid_stream_still_runs_later_items(
            self, cfg, lu_trace, monkeypatch):
        # every first attempt kills its worker; the second trace's items
        # arrive only once the pool is seen broken, so they reach a
        # first wave whose pool already died
        ocean = get_workload("ocean", machine=cfg.machine, scale=0.05,
                             seed=0)
        first = [(lu_trace, system, cfg) for system in SYSTEMS[:2]]
        later = [(ocean, system, cfg) for system in SYSTEMS[:2]]
        broken_on_arrival = []

        def items(runner):
            yield from first
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline and not getattr(
                    runner._pool, "_broken", False):
                time.sleep(0.02)
            broken_on_arrival.append(
                bool(getattr(runner._pool, "_broken", False)))
            yield from later

        monkeypatch.setenv("REPRO_FAULTS", "crash=1.0")
        with SweepRunner(jobs=2, backoff=0.01) as runner:
            results = runner.map_runs(items(runner))
            assert runner.stats.crashes >= 1
        assert broken_on_arrival == [True]
        monkeypatch.delenv("REPRO_FAULTS")
        with SweepRunner(jobs=1) as serial:
            reference = serial.map_runs(first + later)
        _assert_bit_identical(results, reference)

    def test_pool_broken_between_batches_is_replaced(self, cfg, lu_trace,
                                                     clean_results):
        import threading

        with SweepRunner(jobs=2, backoff=0.01) as runner:
            runner.map_runs([(lu_trace, s, cfg) for s in SYSTEMS[:2]])
            for proc in list(runner._pool._processes.values()):
                os.kill(proc.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while (not runner._pool._broken
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert runner._pool._broken
            # the next batch's first submit meets the dead pool; run it
            # on a thread so a runner that keeps resubmitting fails the
            # test instead of hanging it
            done = []
            worker = threading.Thread(daemon=True, target=lambda: done.append(
                runner.map_runs([(lu_trace, s, cfg) for s in SYSTEMS[2:]])))
            worker.start()
            worker.join(30)
            assert done, "the batch never finished on a broken pool"
            assert runner.stats.crashes == 0
        _assert_bit_identical(done[0], clean_results[2:])

    def test_genuine_error_propagates_after_ladder(self, cfg, lu_trace):
        # an unregistered system fails deterministically on every lane,
        # including inline — the error must surface, not loop forever
        with SweepRunner(jobs=2, retries=1, backoff=0.01) as runner:
            with pytest.raises(Exception) as excinfo:
                runner.map_runs([(lu_trace, "no-such-system", cfg),
                                 (lu_trace, "perfect", cfg)])
        assert "no-such-system" in str(excinfo.value)

    def test_inline_lane_is_never_injected(self, cfg, lu_trace,
                                           clean_results, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash=1.0")
        monkeypatch.setenv("REPRO_FAULTS_ATTEMPTS", "10")
        # retries=0: everything runs inline from the start
        with SweepRunner(jobs=2, retries=0) as runner:
            results = runner.map_runs([(lu_trace, s, cfg)
                                       for s in SYSTEMS[:2]])
            assert runner.stats.parallel_runs == 0
        _assert_bit_identical(results, clean_results[:2])


class TestStoreResume:
    def test_resume_recomputes_nothing(self, cfg, lu_trace, clean_results,
                                       tmp_path):
        store = tmp_path / "sweep.sqlite"
        items = [(lu_trace, s, cfg) for s in SYSTEMS]
        with SweepRunner(jobs=1, store=store) as first:
            first.map_runs(items)
            assert first.stats.runs == len(SYSTEMS)
        with SweepRunner(jobs=1, store=store) as second:
            results = second.map_runs(items)
            assert second.stats.runs == 0
            assert second.stats.store_hits == len(SYSTEMS)
        _assert_bit_identical(results, clean_results)

    def test_partial_store_resumes_the_rest(self, cfg, lu_trace, tmp_path):
        store = tmp_path / "sweep.sqlite"
        with SweepRunner(jobs=1, store=store) as first:
            first.map_runs([(lu_trace, s, cfg) for s in SYSTEMS[:2]])
        with SweepRunner(jobs=1, store=store) as second:
            second.map_runs([(lu_trace, s, cfg) for s in SYSTEMS])
            assert second.stats.store_hits == 2
            assert second.stats.runs == len(SYSTEMS) - 2

    def test_checkpointing_survives_crashing_workers(self, cfg, lu_trace,
                                                     clean_results, tmp_path,
                                                     monkeypatch):
        store = tmp_path / "sweep.sqlite"
        monkeypatch.setenv("REPRO_FAULTS", "crash=1.0")
        with SweepRunner(jobs=2, store=store, backoff=0.01) as first:
            first.map_runs([(lu_trace, s, cfg) for s in SYSTEMS])
        monkeypatch.delenv("REPRO_FAULTS")
        with SweepRunner(jobs=1, store=store) as second:
            results = second.map_runs([(lu_trace, s, cfg) for s in SYSTEMS])
            assert second.stats.runs == 0
        _assert_bit_identical(results, clean_results)

    def test_run_scenario_store_round_trip(self, tmp_path):
        store = tmp_path / "scenario.sqlite"
        first = run_scenario("figure5", apps=["lu"], scale=0.05, store=store)
        second = run_scenario("figure5", apps=["lu"], scale=0.05, store=store)
        assert second.rows == first.rows
        assert second.runner_stats["runs"] == 0
        assert second.runner_stats["store_hits"] == len(second.rows)

    def test_ensure_runner_rejects_conflicting_kwargs(self, tmp_path):
        with SweepRunner() as mine:
            with pytest.raises(ValueError):
                ensure_runner(mine, store=tmp_path / "s.sqlite")
            same, owned = ensure_runner(mine, store=None)
            assert same is mine and not owned


def _proc_stat(pid):
    """``(state, ppid)`` of ``pid`` from ``/proc``, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def _child_pids(pid):
    """Pids of ``pid``'s live children (read from ``/proc``)."""
    return [int(entry) for entry in os.listdir("/proc")
            if entry.isdigit()
            and (_proc_stat(int(entry)) or ("Z", 0))[1] == pid]


def _live(pids):
    """The pids in ``pids`` still running (neither gone nor zombies)."""
    return [pid for pid in pids
            if (_proc_stat(pid) or ("Z",))[0] != "Z"]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the process tree from /proc")
class TestKillResume:
    def test_sigkilled_sweep_leaves_no_orphans_and_resumes(self, tmp_path):
        """SIGKILL a ``-j2`` store sweep whose workers are mid-run.

        The store already holds lu's runs; every ocean run hangs in a
        worker when the sweep is killed.  The workers and the resource
        tracker must exit with it, and the re-run must serve lu from the
        store and execute only ocean.
        """
        import repro

        store = tmp_path / "sweep.sqlite"
        kwargs = {"apps": ["lu", "ocean"], "scale": 0.05}
        run_scenario("figure5", apps=["lu"], scale=0.05, store=store)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ, REPRO_FAULTS="hang=1.0",
                   PYTHONPATH=os.pathsep.join(
                       [src] + os.environ.get("PYTHONPATH", "").split(
                           os.pathsep)))
        sweep = subprocess.Popen(
            [sys.executable, "-m", "repro", "exp", "figure5",
             "--apps", "lu,ocean", "--scale", "0.05", "--jobs", "2",
             "--store", str(store)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            end = time.monotonic() + 60
            while len(_child_pids(sweep.pid)) < 2:
                assert sweep.poll() is None, "sweep exited before the kill"
                assert time.monotonic() < end, "no pool workers appeared"
                time.sleep(0.05)
            time.sleep(0.5)   # let the workers take their hanging runs
            children = _child_pids(sweep.pid)
            sweep.kill()
            sweep.wait(timeout=10)
        finally:
            if sweep.poll() is None:
                sweep.kill()
        # reparented to init, the pool and its resource tracker would
        # otherwise hang for the injector's full hour
        end = time.monotonic() + 10
        while _live(children) and time.monotonic() < end:
            time.sleep(0.2)
        orphans = _live(children)
        for pid in orphans:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        assert not orphans, f"orphaned sweep children: {orphans}"

        resumed = run_scenario("figure5", store=store, **kwargs)
        lu_rows = sum(row["app"] == "lu" for row in resumed.rows)
        assert resumed.runner_stats["store_hits"] == lu_rows
        assert resumed.runner_stats["runs"] == len(resumed.rows) - lu_rows
        assert resumed.rows == run_scenario("figure5", **kwargs).rows
