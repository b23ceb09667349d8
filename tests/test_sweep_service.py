"""Concurrency and crash tests for the persistent sweep service.

The three load-bearing properties:

* two clients submitting an identical scenario share **one** execution
  (``inflight_joins``) and receive bit-identical ResultSets;
* a daemon SIGKILLed mid-sweep restarts against the same store and
  recomputes **zero** completed runs on resubmission, and its pool
  workers and resource tracker exit with it;
* a service sweep executed under injected worker faults
  (``REPRO_FAULTS``) returns results bit-identical to a fault-free
  direct :func:`run_scenario`.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments.scenario import run_scenario
from repro.experiments.service import (
    PROGRESS_INTERVAL_S,
    ServiceClient,
    ServiceError,
    SweepService,
    request_key,
    wait_for_service,
)
from repro.experiments.store import ResultStore

SCENARIO_KW = {"apps": ["lu"], "scale": 0.05}


@pytest.fixture()
def sock(tmp_path):
    return str(tmp_path / "svc.sock")


def _start(service):
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    wait_for_service(service.socket_path)
    return thread


def _rows_pickle(rs):
    return pickle.dumps(rs.rows, protocol=4)


class TestRequestKey:
    def test_insensitive_to_kwarg_order_and_none(self):
        a = request_key("figure5", {"apps": ["lu"], "scale": 0.05})
        b = request_key("figure5", {"scale": 0.05, "apps": ["lu"],
                                    "seed": None})
        assert a == b

    def test_distinct_requests_distinct_keys(self):
        base = request_key("figure5", {"apps": ["lu"]})
        assert request_key("figure6", {"apps": ["lu"]}) != base
        assert request_key("figure5", {"apps": ["ocean"]}) != base
        assert request_key("figure5", {"apps": ["lu"], "seed": 1}) != base

    def test_list_order_is_significant(self):
        # axis order decides row order, so it must not be canonicalized away
        assert (request_key("figure5", {"apps": ["lu", "ocean"]})
                != request_key("figure5", {"apps": ["ocean", "lu"]}))


class TestProtocolBasics:
    def test_ping_and_stats(self, sock, tmp_path):
        service = SweepService(sock, store=tmp_path / "s.sqlite", jobs=1)
        _start(service)
        client = ServiceClient(sock)
        try:
            pong = client.ping()
            assert pong["pid"] == os.getpid()
            stats = client.stats()
            assert stats["service"]["submissions"] == 0
            assert stats["service"]["store_rows"] == 0
            assert "runs" in stats["runner"]
        finally:
            client.shutdown()

    def test_unknown_scenario_is_an_error_event(self, sock):
        service = SweepService(sock, jobs=1)
        _start(service)
        client = ServiceClient(sock)
        try:
            with pytest.raises(ServiceError, match="no-such-scenario"):
                client.submit("no-such-scenario")
        finally:
            client.shutdown()

    def test_unsupported_submit_option_rejected(self, sock):
        service = SweepService(sock, jobs=1)
        _start(service)
        client = ServiceClient(sock)
        try:
            event = client._request({"op": "submit", "scenario": "figure5",
                                     "kwargs": {"bogus": 1}})
            assert event["event"] == "error"
            assert "unsupported" in event["message"]
        finally:
            client.shutdown()

    def test_stale_socket_is_reclaimed(self, sock, tmp_path):
        # a dead daemon's leftover socket file must not block a restart
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(sock)
        stale.close()   # file remains, nothing accepts on it
        service = SweepService(sock, jobs=1)
        _start(service)
        ServiceClient(sock).shutdown()

    def test_live_socket_is_not_hijacked(self, sock):
        first = SweepService(sock, jobs=1)
        _start(first)
        try:
            second = SweepService(sock, jobs=1)
            with pytest.raises(ServiceError, match="already listening"):
                second._claim_socket()
            second.runner.close()
        finally:
            ServiceClient(sock).shutdown()


class TestInflightDedupe:
    def test_two_clients_one_execution(self, sock, tmp_path):
        store_path = tmp_path / "dedupe.sqlite"
        service = SweepService(sock, store=store_path, jobs=2)
        _start(service)
        results, accepted = {}, {}

        def submit(idx, delay):
            time.sleep(delay)
            client = ServiceClient(sock)

            def on_event(event):
                if event.get("event") == "accepted":
                    accepted[idx] = event

            results[idx] = client.submit("figure5", on_event=on_event,
                                         **SCENARIO_KW)

        threads = [threading.Thread(target=submit, args=(0, 0.0)),
                   threading.Thread(target=submit, args=(1, 0.05))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        client = ServiceClient(sock)
        try:
            stats = client.stats()
            # exactly one execution: cells ran once, the second submission
            # joined the first one's in-flight task
            assert stats["runner"]["runs"] == len(results[0].rows)
            assert stats["runner"]["inflight_joins"] == 1
            assert stats["service"]["submissions"] == 2
            assert stats["service"]["inflight_joins"] == 1
            assert accepted[0]["joined"] is False
            assert accepted[1]["joined"] is True
            assert accepted[0]["request"] == accepted[1]["request"]
            # both clients got the same rows, and the store holds exactly
            # the executed cells — no duplicate work reached it
            assert _rows_pickle(results[0]) == _rows_pickle(results[1])
            with ResultStore(store_path) as store:
                assert len(store) == len(results[0].rows)
        finally:
            client.shutdown()

    def test_sequential_resubmission_hits_memo(self, sock, tmp_path):
        service = SweepService(sock, store=tmp_path / "memo.sqlite", jobs=1)
        _start(service)
        client = ServiceClient(sock)
        try:
            first = client.submit("figure5", **SCENARIO_KW)
            assert first.runner_stats["runs"] == len(first.rows)
            second = client.submit("figure5", **SCENARIO_KW)
            assert second.runner_stats["runs"] == 0
            assert _rows_pickle(first) == _rows_pickle(second)
        finally:
            client.shutdown()

    def test_progress_events_stream(self, sock):
        # pinned to the batched engine: the kernel finishes this sweep
        # in about one progress interval, too soon to stream progress
        service = SweepService(sock, jobs=1, engine="batched")
        _start(service)
        client = ServiceClient(sock)
        events = []
        try:
            client.submit("figure5", on_event=lambda e: events.append(e),
                          **SCENARIO_KW)
        finally:
            client.shutdown()
        kinds = [e["event"] for e in events]
        assert kinds[0] == "accepted"
        assert kinds[-1] == "result"
        progress = [e for e in events if e["event"] == "progress"]
        # figure5 at this scale runs for ~1.3s on batched, several
        # progress intervals
        assert progress, "no progress events for a multi-second sweep"
        assert all("runs" in e["runner"] for e in progress)


class TestServiceMatchesDirect:
    def test_resultset_bit_identical_to_run_scenario(self, sock, tmp_path):
        service = SweepService(sock, store=tmp_path / "eq.sqlite", jobs=2)
        _start(service)
        client = ServiceClient(sock)
        try:
            served = client.submit("figure5", **SCENARIO_KW)
        finally:
            client.shutdown()
        direct = run_scenario("figure5", **SCENARIO_KW)
        assert _rows_pickle(served) == _rows_pickle(direct)
        assert served.baseline == direct.baseline
        assert served.series == direct.series

    def test_faulty_service_sweep_bit_identical(self, sock, tmp_path,
                                                monkeypatch):
        """REPRO_FAULTS workers crash/raise; the results must not change."""
        direct = run_scenario("figure5", **SCENARIO_KW)
        monkeypatch.setenv("REPRO_FAULTS", "crash=0.3,error=0.2")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "11")
        service = SweepService(sock, store=tmp_path / "faults.sqlite",
                               jobs=2, retries=6)
        _start(service)
        client = ServiceClient(sock)
        try:
            served = client.submit("figure5", **SCENARIO_KW)
            stats = client.stats()
            injected = (stats["runner"]["crashes"]
                        + stats["runner"]["run_errors"])
        finally:
            client.shutdown()
        assert _rows_pickle(served) == _rows_pickle(direct)
        assert injected > 0, "fault plan injected nothing; rates too low?"


def _proc_stat(pid):
    """``(state, ppid)`` of ``pid`` from ``/proc``, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def _child_pids(pid):
    """Pids of ``pid``'s children, or None where ``/proc`` is unavailable."""
    if not sys.platform.startswith("linux"):
        return None
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[1] == pid:
                kids.append(int(entry))
    return kids


def _live(pids):
    """The pids in ``pids`` still running (neither gone nor zombies)."""
    return [pid for pid in pids
            if (_proc_stat(pid) or ("Z",))[0] != "Z"]


class TestKillRestartResume:
    def _spawn_daemon(self, sock, store_path):
        import repro
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       [src] + os.environ.get("PYTHONPATH", "").split(
                           os.pathsep)))
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--store", str(store_path), "--jobs", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)

    def test_sigkill_restart_resumes_from_store(self, sock, tmp_path):
        store_path = tmp_path / "resume.sqlite"
        daemon = self._spawn_daemon(sock, store_path)
        try:
            wait_for_service(sock, timeout=60)
            # submit a sweep from a background thread and kill the daemon
            # once the store proves at least one run completed
            kwargs = {"apps": ["lu", "ocean"], "scale": 0.05}
            submitted = threading.Thread(
                target=lambda: self._swallow(ServiceClient(sock).submit,
                                             "figure5", **kwargs),
                daemon=True)
            submitted.start()
            rows_at_kill = self._wait_for_rows(store_path, deadline=120)
            children = _child_pids(daemon.pid)
            daemon.kill()
            daemon.wait(timeout=10)
        finally:
            if daemon.poll() is None:
                daemon.kill()
        if children is not None:
            # the -j2 pool and its resource tracker must not outlive the
            # daemon (reparented to init, they would run forever)
            assert children, "expected pool workers under the daemon"
            end = time.monotonic() + 10
            while _live(children) and time.monotonic() < end:
                time.sleep(0.2)
            orphans = _live(children)
            for pid in orphans:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            assert not orphans, f"orphaned daemon children: {orphans}"
        # restart against the same socket path and store
        daemon = self._spawn_daemon(sock, store_path)
        try:
            wait_for_service(sock, timeout=60)
            client = ServiceClient(sock)
            rs = client.submit("figure5", apps=["lu", "ocean"], scale=0.05)
            stats = rs.runner_stats
            client.shutdown()
            daemon.wait(timeout=10)
        finally:
            if daemon.poll() is None:
                daemon.kill()
        # every run completed before the kill was served from the store;
        # only the remainder executed (zero recomputation)
        assert stats["store_hits"] >= rows_at_kill
        assert stats["runs"] + stats["store_hits"] == len(rs.rows)
        assert stats["runs"] < len(rs.rows)
        # and the reassembled ResultSet matches a direct run
        direct = run_scenario("figure5", apps=["lu", "ocean"], scale=0.05)
        assert _rows_pickle(rs) == _rows_pickle(direct)

    @staticmethod
    def _swallow(fn, *args, **kwargs):
        try:
            fn(*args, **kwargs)
        except Exception:
            pass   # the daemon dies mid-request by design

    @staticmethod
    def _wait_for_rows(store_path, *, deadline):
        """Poll the store until a completed run lands; return the count."""
        import sqlite3
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            if store_path.exists():
                try:
                    conn = sqlite3.connect(str(store_path), timeout=5)
                    (count,) = conn.execute(
                        "SELECT COUNT(*) FROM results").fetchone()
                    conn.close()
                    if count:
                        return count
                except sqlite3.Error:
                    pass
            time.sleep(PROGRESS_INTERVAL_S / 2)
        raise AssertionError("no run reached the store before the deadline")
