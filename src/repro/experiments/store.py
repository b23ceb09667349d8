"""Durable, content-addressed result store (``ResultStore``, SQLite).

The :class:`~repro.experiments.runner.SweepRunner` memoizes results by a
content-addressed key — ``(trace digest, system, canonical config)`` —
but its memo table dies with the process.  This module promotes that
table to a *durable* store: a single SQLite file holding one row per
completed run under the same key, so a key computed for the memo
addresses the same run in the store.  The engine is not part of the
key: the engines are bit-identical by contract, so a row filled by one
engine serves every other.

Each row carries the full pickled :class:`~repro.experiments.runner.
ExperimentResult` (zlib-compressed, blake2b-checksummed) plus extracted
headline metrics (execution time, remote misses, network traffic — so
``repro store ls``/``export`` never unpickle anything) and provenance:
the engine that produced the run, the kernel backend if any, the
``repro`` package version and the run's wall time.

Durability and concurrency come from SQLite itself: the store opens in
WAL mode (concurrent readers never block the writer and vice versa),
every upsert is one atomic transaction, and a schema-version row in the
``meta`` table lets newer code open and migrate older stores in place
(:data:`SCHEMA_VERSION`, :meth:`ResultStore._migrate`).

A store is wired into sweeps through ``SweepRunner(store=...)``,
``run_scenario(store=...)`` or ``repro exp --store PATH``: pending runs
consult the store before executing (``RunnerStats.store_hits`` /
``store_misses``) and every completed run is committed to it as soon as
it is harvested, so a sweep killed at any instant loses at most its
in-flight runs and a re-run — in a fresh process — executes only the
runs the store does not hold.

.. note:: rows embed pickled :class:`ExperimentResult` objects; open
   stores only from paths you trust, like any pickle.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
import re
import sqlite3
import threading
import time
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle (runner imports us)
    from repro.experiments.runner import ExperimentResult, RunKey

#: Environment variable naming the default store file for the CLI.
STORE_ENV_VAR = "REPRO_STORE"

#: Current store schema version.  v1 held key + metrics + payload only;
#: v2 added the provenance columns (``engine_used``, ``backend``,
#: ``package_version``, ``wall_s``, ``created_at``); v3 dropped the
#: ``engine`` key column.  Opening a v1 or v2 store migrates it in place.
SCHEMA_VERSION = 3

#: Provenance columns added by schema v2 (name -> SQL type), in the
#: order the migration adds them.
_V2_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("engine_used", "TEXT"),
    ("backend", "TEXT"),
    ("package_version", "TEXT"),
    ("wall_s", "REAL"),
    ("created_at", "REAL"),
)

#: Every column of a v3 row, key columns first, in table order.
_COLUMNS: Tuple[str, ...] = (
    "digest", "system", "config", "workload", "execution_time",
    "remote_misses", "network_messages", "network_bytes", "payload",
    "checksum") + tuple(name for name, _ in _V2_COLUMNS)

_UPSERT = (f"INSERT OR REPLACE INTO results ({', '.join(_COLUMNS)}) "
           f"VALUES ({', '.join('?' * len(_COLUMNS))})")

_CREATE_META = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
)
"""

_CREATE_RESULTS = """
CREATE TABLE IF NOT EXISTS {table} (
    digest           TEXT NOT NULL,
    system           TEXT NOT NULL,
    config           TEXT NOT NULL,
    workload         TEXT NOT NULL,
    execution_time   INTEGER NOT NULL,
    remote_misses    INTEGER NOT NULL,
    network_messages INTEGER NOT NULL,
    network_bytes    INTEGER NOT NULL,
    payload          BLOB NOT NULL,
    checksum         TEXT NOT NULL,
    engine_used      TEXT,
    backend          TEXT,
    package_version  TEXT,
    wall_s           REAL,
    created_at       REAL,
    PRIMARY KEY (digest, system, config)
)
"""

#: A ``gc`` digest prefix: non-empty lowercase hex, matched literally.
_HEX_PREFIX = re.compile(r"[0-9a-f]+")


class StoreError(RuntimeError):
    """Raised for unusable store files (bad schema, future version)."""


def _checksum(payload: bytes) -> str:
    """Content checksum of one pickled result blob."""
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _encode(result: "ExperimentResult") -> Tuple[bytes, str]:
    payload = zlib.compress(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    return payload, _checksum(payload)


class ResultStore:
    """SQLite-backed, content-addressed store of completed run results.

    Parameters
    ----------
    path:
        The store file.  Created (with parent directories) if missing;
        an existing store of an older schema version is migrated in
        place on open, and a store written by a *newer* ``repro``
        raises :class:`StoreError` instead of guessing.

    The store is safe for concurrent use from multiple processes (WAL
    mode, atomic upserts, a generous busy timeout) and from multiple
    threads of one process (an internal lock serializes the shared
    connection).  Use as a context manager or call :meth:`close`.

    Examples
    --------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "results.sqlite")
    >>> store = ResultStore(path)
    >>> len(store)
    0
    >>> store.close()
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        #: number of rows served as misses because their payload was corrupt
        self.corrupt_reads = 0
        self._conn = sqlite3.connect(str(self.path), timeout=30.0,
                                     check_same_thread=False)
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._init_schema()
        except Exception:
            self._conn.close()
            raise

    # -- schema -------------------------------------------------------------

    def _init_schema(self) -> None:
        with self._conn:
            self._conn.execute(_CREATE_META)
            version = self._stored_version()
            if version is None:
                has_results = self._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table' "
                    "AND name='results'").fetchone()
                if has_results:
                    raise StoreError(
                        f"{self.path}: results table without a "
                        "schema_version row — not a repro result store")
                self._conn.execute(_CREATE_RESULTS.format(table="results"))
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES "
                    "('schema_version', ?)", (str(SCHEMA_VERSION),))
                return
            if version > SCHEMA_VERSION:
                raise StoreError(
                    f"{self.path}: store schema v{version} is newer than "
                    f"this repro (v{SCHEMA_VERSION}); upgrade the package")
            if version < SCHEMA_VERSION:
                # take the write lock, then look again: another process
                # may have migrated the file while this one waited
                self._conn.execute("BEGIN IMMEDIATE")
                version = self._stored_version()
                if version < SCHEMA_VERSION:
                    self._migrate(version)

    def _stored_version(self) -> Optional[int]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'").fetchone()
        return None if row is None else int(row[0])

    def _migrate(self, version: int) -> None:
        """Migrate an older store to :data:`SCHEMA_VERSION` in place.

        Runs inside the caller's transaction.  v1 → v2 adds the
        provenance columns (NULL for pre-migration rows — their runs
        genuinely carry no recorded provenance).  v2 → v3 rebuilds
        the table without the ``engine`` key column: rows that differ
        only by engine collapse to the one with the newest
        ``created_at``, and a row with no ``engine_used`` keeps the
        engine its old key named.
        """
        if version == 1:
            existing = {r[1] for r in self._conn.execute(
                "PRAGMA table_info(results)")}
            for name, sql_type in _V2_COLUMNS:
                if name not in existing:
                    self._conn.execute(
                        f"ALTER TABLE results ADD COLUMN {name} {sql_type}")
        self._conn.execute(_CREATE_RESULTS.format(table="results_v3"))
        picked = ", ".join("COALESCE(engine_used, engine)"
                           if name == "engine_used" else name
                           for name in _COLUMNS)
        self._conn.execute(
            f"INSERT INTO results_v3 ({', '.join(_COLUMNS)}) "
            f"SELECT {picked} FROM results AS r WHERE r.rowid = ("
            "SELECT s.rowid FROM results AS s WHERE s.digest = r.digest "
            "AND s.system = r.system AND s.config = r.config "
            "ORDER BY s.created_at IS NULL, s.created_at DESC, "
            "s.rowid DESC LIMIT 1)")
        self._conn.execute("DROP TABLE results")
        self._conn.execute("ALTER TABLE results_v3 RENAME TO results")
        self._conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION),))

    @property
    def schema_version(self) -> int:
        """Schema version of the open store (always the current one)."""
        with self._lock:
            return int(self._stored_version())

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the underlying connection (flushes the WAL)."""
        with self._lock:
            self._conn.close()

    # -- core mapping -------------------------------------------------------

    def put(self, key: "RunKey", result: "ExperimentResult", *,
            engine: Optional[str] = None) -> None:
        """Atomically upsert one completed run under its memo key.

        Provenance (executing engine, kernel backend, wall time) is
        read from the result's ``engine_profile`` when present;
        ``engine`` names the engine that ran a result without a
        profile (a ``legacy`` run).  The package version and a
        wall-clock timestamp are stamped at insert time.  Re-putting an
        existing key replaces the row — the simulator is deterministic,
        so a replacement is byte-identical content refreshed with
        current provenance.
        """
        from repro import __version__

        payload, checksum = _encode(result)
        profile = getattr(result.stats, "engine_profile", None) or {}
        values = (*key, result.workload,
                  int(result.stats.execution_time),
                  int(result.stats.total_remote_misses),
                  int(result.stats.network_messages),
                  int(result.stats.network_bytes),
                  payload, checksum,
                  profile.get("engine") or engine,
                  profile.get("backend"),
                  __version__,
                  profile.get("wall_s"),
                  time.time())
        with self._lock, self._conn:
            self._conn.execute(_UPSERT, values)

    def get(self, key: "RunKey") -> Optional["ExperimentResult"]:
        """The stored result for ``key``, or ``None``.

        A row whose payload fails its checksum or does not unpickle is
        treated as a miss — the caller recomputes and the next
        :meth:`put` overwrites the corrupt row, so torn writes from a
        killed process self-heal (:attr:`corrupt_reads` counts them;
        :meth:`verify` lists them without recomputing).
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT payload, checksum FROM results WHERE digest = ? "
                "AND system = ? AND config = ?", key).fetchone()
        if row is None:
            return None
        payload, checksum = row
        try:
            if _checksum(payload) != checksum:
                raise StoreError("checksum mismatch")
            result = pickle.loads(zlib.decompress(payload))
        except Exception:
            self.corrupt_reads += 1
            return None
        return result

    def __contains__(self, key: "RunKey") -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE digest = ? AND system = ? "
                "AND config = ?", key).fetchone()
        return row is not None

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()
        return int(count)

    def keys(self) -> Iterator[Tuple[str, str, str]]:
        """All stored run keys, in insertion-independent sorted order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT digest, system, config FROM results "
                "ORDER BY digest, system, config").fetchall()
        return iter([tuple(r) for r in rows])

    # -- inspection (``repro store ls`` / ``export``) ------------------------

    def rows(self) -> List[Dict[str, object]]:
        """Metadata of every stored run — no payload is unpickled.

        One JSON-ready dictionary per row: the three key columns, the
        workload name, the extracted headline metrics and the
        provenance columns (``None`` where a migrated v1 row has none).
        """
        with self._lock:
            cur = self._conn.execute(
                "SELECT digest, system, config, workload, "
                "execution_time, remote_misses, network_messages, "
                "network_bytes, length(payload), engine_used, backend, "
                "package_version, wall_s, created_at FROM results "
                "ORDER BY created_at IS NULL, created_at, digest, system")
            names = [d[0] for d in cur.description]
            names[names.index("length(payload)")] = "payload_bytes"
            return [dict(zip(names, row)) for row in cur.fetchall()]

    def verify(self) -> Dict[str, object]:
        """Recompute every row's checksum and unpickle every payload.

        Returns ``{"rows": total, "ok": good, "corrupt": [keys...]}``;
        a non-empty ``corrupt`` list means those rows will read as
        misses (and be recomputed/overwritten) rather than poison a
        sweep.
        """
        corrupt: List[Tuple[str, str, str]] = []
        total = 0
        with self._lock:
            cur = self._conn.execute(
                "SELECT digest, system, config, payload, checksum "
                "FROM results")
            for digest, system, config, payload, checksum in cur:
                total += 1
                try:
                    if _checksum(payload) != checksum:
                        raise StoreError("checksum mismatch")
                    pickle.loads(zlib.decompress(payload))
                except Exception:
                    corrupt.append((digest, system, config))
        return {"rows": total, "ok": total - len(corrupt),
                "corrupt": corrupt}

    def export_rows(self) -> List[Dict[str, object]]:
        """:meth:`rows` plus each payload as base64 (full fidelity export).

        The export is self-contained: importing a row elsewhere only
        needs ``pickle.loads(zlib.decompress(base64.b64decode(...)))``.
        """
        with self._lock:
            cur = self._conn.execute(
                "SELECT digest, system, config, payload FROM results")
            payloads = {tuple(row[:3]): base64.b64encode(row[3]).decode()
                        for row in cur.fetchall()}
        out = []
        for row in self.rows():
            row = dict(row)
            row["payload"] = payloads[
                (row["digest"], row["system"], row["config"])]
            del row["payload_bytes"]
            out.append(row)
        return out

    # -- garbage collection --------------------------------------------------

    def gc(self, *, max_age_s: Optional[float] = None,
           digests: Optional[List[str]] = None,
           everything: bool = False,
           dry_run: bool = False) -> List[Tuple[str, str, str]]:
        """Delete rows by age or digest prefix; return the affected keys.

        Parameters
        ----------
        max_age_s:
            Delete rows whose ``created_at`` is older than this many
            seconds (rows without a timestamp — migrated v1 rows —
            count as infinitely old).  Must not be negative.
        digests:
            Delete rows whose trace digest starts with any of these
            prefixes — e.g. after deleting the trace files of a
            retired workload.  Each prefix must be non-empty lowercase
            hex and is matched literally.
        everything:
            Delete all rows (``repro store gc --all``).
        dry_run:
            Only report what would be deleted.

        With no criterion the call is a no-op — an accidental bare
        ``gc`` must never empty the store — and an invalid criterion
        raises :class:`ValueError` before anything is read.  Deletions
        are followed by a ``VACUUM`` so the file actually shrinks.
        """
        if max_age_s is not None and not max_age_s >= 0:
            raise ValueError(f"max age must be >= 0 seconds, got {max_age_s}")
        for prefix in digests or ():
            if not _HEX_PREFIX.fullmatch(prefix):
                raise ValueError(
                    f"digest prefix {prefix!r} is not non-empty lowercase hex")
        clauses: List[str] = []
        params: List[object] = []
        if everything:
            clauses.append("1=1")
        if max_age_s is not None:
            clauses.append("(created_at IS NULL OR created_at < ?)")
            params.append(time.time() - max_age_s)
        for prefix in digests or ():
            clauses.append("substr(digest, 1, ?) = ?")
            params += [len(prefix), prefix]
        if not clauses:
            return []
        where = " OR ".join(clauses)
        with self._lock:
            victims = [tuple(r) for r in self._conn.execute(
                "SELECT digest, system, config FROM results "
                f"WHERE {where}", params).fetchall()]
            if victims and not dry_run:
                with self._conn:
                    self._conn.execute(
                        f"DELETE FROM results WHERE {where}", params)
                self._conn.execute("VACUUM")
        return victims

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r}, {len(self)} rows)"


def describe_key(key: "RunKey") -> Dict[str, str]:
    """JSON-ready view of one run key (``repro store ls --json``)."""
    digest, system, config = key
    return {"digest": digest, "system": system, "config": config}


def dumps_export(store: ResultStore) -> str:
    """Full-fidelity JSON export of a store (``repro store export``)."""
    return json.dumps({"schema": SCHEMA_VERSION,
                       "rows": store.export_rows()}, indent=2)
