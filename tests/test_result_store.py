"""Tests for the durable content-addressed ResultStore.

Covers the property that makes the store trustworthy — arbitrary
results survive a store/load round trip bit-identically — plus key
separation (and the engine's absence from the key), the v1/v2 -> v3
schema migrations, corruption self-healing, garbage collection, export
and concurrent multi-connection access (WAL mode).
"""

from __future__ import annotations

import base64
import json
import pickle
import sqlite3
import threading
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import base_config
from repro.experiments.runner import ExperimentResult, SweepRunner
from repro.experiments.store import (
    SCHEMA_VERSION,
    ResultStore,
    StoreError,
    describe_key,
    dumps_export,
)
from repro.stats.counters import MachineStats, MissClass
from repro.workloads import get_workload


# ---------------------------------------------------------------------------
# helpers: hand-built results and keys
# ---------------------------------------------------------------------------


def make_result(workload="lu", system="ccnuma", seed=0, execution_time=1000,
                remote=(1, 2, 3), network_messages=10, network_bytes=640,
                accesses=100):
    stats = MachineStats.for_nodes(2)
    stats.execution_time = execution_time
    stats.network_messages = network_messages
    stats.network_bytes = network_bytes
    for node in stats.nodes:
        node.accesses = accesses
        for cause, count in zip(MissClass, remote):
            for _ in range(count):
                node.record_remote_miss(cause)
    return ExperimentResult(workload=workload, system=system,
                            config=base_config(seed=seed), stats=stats)


def make_key(digest="aa" * 8, system="ccnuma", config="cfg0"):
    return (digest, system, config)


@pytest.fixture()
def store(tmp_path):
    with ResultStore(tmp_path / "results.sqlite") as s:
        yield s


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_simple_round_trip(self, store):
        result = make_result()
        key = make_key()
        store.put(key, result)
        loaded = store.get(key)
        assert loaded == result
        assert key in store
        assert len(store) == 1

    def test_round_trip_is_bit_identical(self, store):
        result = make_result(execution_time=123456)
        store.put(make_key(), result)
        loaded = store.get(make_key())
        assert pickle.dumps(loaded, protocol=4) == pickle.dumps(
            result, protocol=4)

    def test_missing_key_is_none(self, store):
        assert store.get(make_key()) is None
        assert make_key() not in store

    def test_reput_replaces(self, store):
        store.put(make_key(), make_result(execution_time=1))
        store.put(make_key(), make_result(execution_time=2))
        assert len(store) == 1
        assert store.get(make_key()).stats.execution_time == 2

    @settings(max_examples=25, deadline=None)
    @given(execution_time=st.integers(min_value=0, max_value=2**40),
           remote=st.tuples(*[st.integers(min_value=0, max_value=50)] * 3),
           network_messages=st.integers(min_value=0, max_value=2**30),
           network_bytes=st.integers(min_value=0, max_value=2**40),
           accesses=st.integers(min_value=0, max_value=2**30),
           system=st.sampled_from(["ccnuma", "migrep", "rnuma", "perfect"]),
           seed=st.integers(min_value=0, max_value=3))
    def test_arbitrary_results_survive(self, execution_time, remote,
                                       network_messages, network_bytes,
                                       accesses, system, seed):
        import tempfile
        result = make_result(system=system, seed=seed,
                             execution_time=execution_time, remote=remote,
                             network_messages=network_messages,
                             network_bytes=network_bytes, accesses=accesses)
        with tempfile.TemporaryDirectory() as tmp:
            with ResultStore(f"{tmp}/prop.sqlite") as s:
                key = make_key(system=system, config=f"cfg{seed}")
                s.put(key, result)
                loaded = s.get(key)
        assert loaded == result
        assert pickle.dumps(loaded, protocol=4) == pickle.dumps(
            result, protocol=4)

    def test_persists_across_connections(self, tmp_path):
        path = tmp_path / "r.sqlite"
        result = make_result()
        with ResultStore(path) as s:
            s.put(make_key(), result)
        with ResultStore(path) as s:
            assert s.get(make_key()) == result


# ---------------------------------------------------------------------------
# key separation
# ---------------------------------------------------------------------------


class TestKeySeparation:
    def test_legacy_filled_store_serves_a_kernel_runner(self, tmp_path):
        """The engine is provenance, not key: any engine's rows serve all."""
        cfg = base_config(seed=0)
        trace = get_workload("lu", machine=cfg.machine, scale=0.05, seed=0)
        items = [(trace, system, cfg) for system in ("perfect", "rnuma")]
        path = tmp_path / "results.sqlite"
        with SweepRunner(engine="legacy", store=path) as legacy:
            legacy.map_runs(items)
        with ResultStore(path) as filled:
            assert [r["engine_used"] for r in filled.rows()] == ["legacy"] * 2
        with SweepRunner(engine="kernel", store=path) as kernel:
            served = kernel.map_runs(items)
            assert kernel.stats.runs == 0
            assert kernel.stats.store_hits == len(items)
        with SweepRunner(engine="kernel") as direct:
            fresh = direct.map_runs(items)
        for got, want in zip(served, fresh):
            assert got.summary() == want.summary()
            assert got.stats.stall_breakdown == want.stats.stall_breakdown

    def test_systems_configs_digests_are_separate(self, store):
        keys = [make_key(digest="11" * 8), make_key(system="rnuma"),
                make_key(config="cfg1"), make_key()]
        for i, key in enumerate(keys):
            store.put(key, make_result(execution_time=i))
        assert len(store) == 4
        for i, key in enumerate(keys):
            assert store.get(key).stats.execution_time == i
        assert sorted(store.keys()) == sorted(keys)


# ---------------------------------------------------------------------------
# schema versioning / migration
# ---------------------------------------------------------------------------


_V1_RESULTS_DDL = """
CREATE TABLE results (
    digest           TEXT NOT NULL,
    system           TEXT NOT NULL,
    config           TEXT NOT NULL,
    engine           TEXT NOT NULL,
    workload         TEXT NOT NULL,
    execution_time   INTEGER NOT NULL,
    remote_misses    INTEGER NOT NULL,
    network_messages INTEGER NOT NULL,
    network_bytes    INTEGER NOT NULL,
    payload          BLOB NOT NULL,
    checksum         TEXT NOT NULL,
    PRIMARY KEY (digest, system, config, engine)
)
"""


_V2_COLUMNS_DDL = ("engine_used TEXT", "backend TEXT",
                   "package_version TEXT", "wall_s REAL", "created_at REAL")


def _write_old_store(path, version, entries):
    """Create a store file exactly as schema ``version`` (1 or 2) wrote it.

    ``entries`` are ``(engine, result, created_at)``, all under
    :func:`make_key` plus the old ``engine`` key column; v1 files drop
    the timestamp (v1 had no provenance columns).
    """
    import hashlib

    ddl = _V1_RESULTS_DDL
    if version == 2:
        ddl = ddl.replace("    PRIMARY KEY", "".join(
            f"    {column},\n" for column in _V2_COLUMNS_DDL)
            + "    PRIMARY KEY")
    conn = sqlite3.connect(str(path))
    with conn:
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, "
                     "value TEXT NOT NULL)")
        conn.execute("INSERT INTO meta VALUES ('schema_version', ?)",
                     (str(version),))
        conn.execute(ddl)
        for engine, result, created_at in entries:
            payload = zlib.compress(
                pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
            checksum = hashlib.blake2b(payload, digest_size=16).hexdigest()
            row = (*make_key(), engine, result.workload,
                   int(result.stats.execution_time),
                   int(result.stats.total_remote_misses),
                   int(result.stats.network_messages),
                   int(result.stats.network_bytes), payload, checksum)
            if version == 2:
                row += (engine, None, "1.8.0", 0.5, created_at)
            conn.execute(f"INSERT INTO results VALUES "
                         f"({', '.join('?' * len(row))})", row)
    conn.close()


def _write_v1_store(path, result):
    _write_old_store(path, 1, [("batched", result, None)])


class TestSchemaMigration:
    def test_v1_store_opens_and_migrates(self, tmp_path):
        path = tmp_path / "v1.sqlite"
        result = make_result(execution_time=777)
        _write_v1_store(path, result)
        with ResultStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION
            # the v1 row survives the migration and reads back intact
            assert store.get(make_key()) == result
            (row,) = store.rows()
            # pre-migration rows carry no provenance beyond the engine
            # their old key named
            assert row["engine_used"] == "batched"
            assert row["package_version"] is None
            # new rows written post-migration do
            store.put(make_key(config="cfg1"), make_result())
            new_row = [r for r in store.rows() if r["config"] == "cfg1"][0]
            assert new_row["package_version"] is not None

    def test_v2_run_under_two_engines_collapses_to_the_newest(self,
                                                              tmp_path):
        path = tmp_path / "v2.sqlite"
        newer = make_result(execution_time=2)
        _write_old_store(path, 2, [
            ("legacy", newer, 200.0),
            ("batched", make_result(execution_time=1), 100.0)])
        with ResultStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION
            assert list(store.keys()) == [make_key()]
            assert store.get(make_key()) == newer
            (row,) = store.rows()
            assert row["engine_used"] == "legacy"
            assert row["created_at"] == 200.0
            assert row["package_version"] == "1.8.0"
            columns = {r[1] for r in store._conn.execute(
                "PRAGMA table_info(results)")}
            assert "engine" not in columns

    def test_migration_is_persistent(self, tmp_path):
        path = tmp_path / "v1.sqlite"
        _write_v1_store(path, make_result())
        ResultStore(path).close()
        conn = sqlite3.connect(str(path))
        (version,) = conn.execute(
            "SELECT value FROM meta WHERE key='schema_version'").fetchone()
        conn.close()
        assert int(version) == SCHEMA_VERSION

    def test_future_schema_is_rejected(self, tmp_path):
        path = tmp_path / "future.sqlite"
        conn = sqlite3.connect(str(path))
        with conn:
            conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, "
                         "value TEXT NOT NULL)")
            conn.execute("INSERT INTO meta VALUES ('schema_version', ?)",
                         (str(SCHEMA_VERSION + 1),))
        conn.close()
        with pytest.raises(StoreError, match="newer"):
            ResultStore(path)

    def test_foreign_database_is_rejected(self, tmp_path):
        path = tmp_path / "foreign.sqlite"
        conn = sqlite3.connect(str(path))
        with conn:
            conn.execute("CREATE TABLE results (x INTEGER)")
        conn.close()
        with pytest.raises(StoreError, match="schema_version"):
            ResultStore(path)


# ---------------------------------------------------------------------------
# corruption self-healing
# ---------------------------------------------------------------------------


class TestCorruption:
    def _corrupt(self, store, key):
        with store._lock, store._conn:
            store._conn.execute(
                "UPDATE results SET payload = ? WHERE digest = ?",
                (b"garbage", key[0]))

    def test_corrupt_payload_reads_as_miss(self, store):
        store.put(make_key(), make_result())
        self._corrupt(store, make_key())
        assert store.get(make_key()) is None
        assert store.corrupt_reads == 1

    def test_verify_reports_corrupt_rows(self, store):
        store.put(make_key(), make_result())
        store.put(make_key(config="cfg1"), make_result())
        self._corrupt(store, make_key())
        report = store.verify()
        assert report["rows"] == 2
        assert report["ok"] == 0   # both rows share the digest: both hit
        assert len(report["corrupt"]) == 2

    def test_reput_heals_corrupt_row(self, store):
        store.put(make_key(), make_result())
        self._corrupt(store, make_key())
        store.put(make_key(), make_result(execution_time=5))
        assert store.get(make_key()).stats.execution_time == 5
        assert store.verify()["corrupt"] == []


# ---------------------------------------------------------------------------
# gc / ls / export
# ---------------------------------------------------------------------------


class TestInspection:
    def test_rows_never_unpickle(self, store):
        store.put(make_key(), make_result(execution_time=42))
        (row,) = store.rows()
        assert row["execution_time"] == 42
        assert row["workload"] == "lu"
        assert row["payload_bytes"] > 0
        assert "payload" not in row

    def test_gc_requires_a_criterion(self, store):
        store.put(make_key(), make_result())
        assert store.gc() == []
        assert len(store) == 1

    def test_gc_everything(self, store):
        store.put(make_key(), make_result())
        store.put(make_key(config="cfg1"), make_result())
        removed = store.gc(everything=True, dry_run=True)
        assert len(removed) == 2 and len(store) == 2
        removed = store.gc(everything=True)
        assert len(removed) == 2 and len(store) == 0

    def test_gc_by_digest_prefix(self, store):
        store.put(make_key(digest="11" * 8), make_result())
        store.put(make_key(digest="22" * 8), make_result())
        removed = store.gc(digests=["11"])
        assert [k[0] for k in removed] == ["11" * 8]
        assert len(store) == 1

    def test_gc_by_age(self, store):
        store.put(make_key(), make_result())
        assert store.gc(max_age_s=3600.0) == []
        with store._lock, store._conn:
            store._conn.execute(
                "UPDATE results SET created_at = created_at - 7200")
        removed = store.gc(max_age_s=3600.0)
        assert len(removed) == 1 and len(store) == 0

    @pytest.mark.parametrize("criterion", [
        {"digests": [""]}, {"digests": ["_"]}, {"digests": ["%"]},
        {"digests": ["1_"]}, {"digests": ["AA"]}, {"digests": ["11", "g"]},
        {"max_age_s": -1.0}])
    def test_gc_rejects_invalid_criteria(self, store, criterion):
        store.put(make_key(), make_result())
        with pytest.raises(ValueError):
            store.gc(**criterion)
        assert len(store) == 1

    def test_export_is_full_fidelity(self, store):
        result = make_result()
        store.put(make_key(), result)
        doc = json.loads(dumps_export(store))
        assert doc["schema"] == SCHEMA_VERSION
        (row,) = doc["rows"]
        restored = pickle.loads(zlib.decompress(
            base64.b64decode(row["payload"])))
        assert restored == result

    def test_describe_key(self):
        assert describe_key(make_key()) == {
            "digest": "aa" * 8, "system": "ccnuma", "config": "cfg0"}


# ---------------------------------------------------------------------------
# concurrency (WAL mode)
# ---------------------------------------------------------------------------


class TestConcurrency:
    def test_wal_mode_is_active(self, store):
        (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"

    def test_concurrent_writers_and_readers(self, tmp_path):
        path = tmp_path / "conc.sqlite"
        writer = ResultStore(path)
        reader = ResultStore(path)
        errors = []

        def write(start):
            try:
                for i in range(start, start + 10):
                    writer.put(make_key(config=f"cfg{i}"),
                               make_result(execution_time=i))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def read():
            try:
                for _ in range(30):
                    for key in reader.keys():
                        reader.get(key)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(0,)),
                   threading.Thread(target=write, args=(10,)),
                   threading.Thread(target=read)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(writer) == 20
        for i in range(20):
            assert reader.get(
                make_key(config=f"cfg{i}")).stats.execution_time == i
        writer.close()
        reader.close()


# ---------------------------------------------------------------------------
# runner integration: the headline acceptance property
# ---------------------------------------------------------------------------


class TestRunnerIntegration:
    def test_second_process_is_all_store_hits(self, tmp_path):
        """A sweep re-run against the same store executes zero runs."""
        from repro.experiments.scenario import run_scenario

        spath = tmp_path / "results.sqlite"
        first = run_scenario("figure5", apps=["lu"], scale=0.05, store=spath)
        assert first.runner_stats["store_misses"] == len(first.rows)
        assert first.runner_stats["runs"] == len(first.rows)
        # a fresh runner simulates a process restart: nothing in memory
        second = run_scenario("figure5", apps=["lu"], scale=0.05, store=spath)
        assert second.runner_stats["runs"] == 0
        assert second.runner_stats["store_hits"] == len(second.rows)
        assert second.rows == first.rows
        # and matches a storeless run bit-identically
        direct = run_scenario("figure5", apps=["lu"], scale=0.05)
        assert pickle.dumps(second.rows, protocol=4) == pickle.dumps(
            direct.rows, protocol=4)
