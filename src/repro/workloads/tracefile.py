"""Out-of-core trace files: a versioned, mmap-able flat-array format.

The npz archives of :mod:`repro.workloads.trace_io` round-trip traces
exactly, but loading one materializes every stream — fine for the
synthetic workloads, useless for the "billions of references" regime the
ROADMAP targets.  This module provides the on-disk substrate for that
regime:

* :class:`TraceFileWriter` streams a trace *out* chunk by chunk — the
  producer (a generator phase loop, an external-format importer) never
  holds more than one chunk of one stream in memory, and the finished
  file appears atomically (``*.tmp`` + ``os.replace``).
* :class:`StreamingTrace` streams a trace back *in*: it mmaps the file
  read-only and serves :class:`~repro.workloads.trace.PhaseTrace` views
  lazily, phase by phase, without ever materializing the run.  Its
  ``.phases`` is a real sequence (``len``/iteration/indexing), so the
  engines consume it exactly like an in-memory :class:`Trace` and
  produce bit-identical counters.

File layout (version 1)
-----------------------

::

    offset 0   magic ``b"REPROTRC"``            (8 bytes)
    offset 8   format version                   (u32 little-endian)
    offset 12  flags (reserved, 0)              (u32)
    offset 16  footer offset                    (u64; 0 = unfinalized)
    offset 24  footer length                    (u64)
    offset 32  data chunks, 8-byte aligned: per chunk the ``int64``
               block ids then the ``bool`` write flags
    footer     UTF-8 JSON: name, num_procs, metadata, per-phase chunk
               tables (offsets, lengths, per-chunk digests) and the
               whole-trace content digest

Digests
-------

The whole-file digest in the footer is computed with *exactly* the
scheme of the sweep memo key (:func:`trace_digest`, re-exported by the
runner), so a :class:`StreamingTrace` plugs into :class:`SweepRunner`
memoization and the result store without hashing a single stream byte —
the digest rides in the header.  Each chunk additionally carries its own
short blake2b digest so ``repro trace verify`` can pinpoint corruption.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.workloads.trace import PhaseTrace, Trace
from repro.workloads.trace_io import _jsonable

#: Leading magic bytes of every trace file.
MAGIC = b"REPROTRC"

#: On-disk format version (bump on incompatible change).
TRACE_FILE_VERSION = 1

#: Preamble layout: magic, version, flags, footer offset, footer length.
_PREAMBLE = struct.Struct("<8sIIQQ")
_PREAMBLE_SIZE = _PREAMBLE.size   # 32 bytes

#: Default references per written chunk (1M refs = 9 MB of streams).
DEFAULT_CHUNK_REFS = 1 << 20

#: Conventional filename suffix (``get_workload`` recognizes it).
TRACE_FILE_SUFFIX = ".rpt"

#: Phase views pinned by :class:`StreamingTrace` when ``cache_phases=True``.
#: Each pinned view also carries the engine's per-phase classification
#: static (tens of bytes per reference), so the bound caps memory on
#: arbitrarily long traces while small traces still get full cross-run
#: reuse.
DEFAULT_CACHED_PHASES = 8

#: Read-buffer size of the digest/verify scan passes.
_SCAN_BUFFER = 4 << 20


class TraceFileError(ValueError):
    """A trace file is missing, torn, corrupt or of an unsupported version."""


def trace_digest(trace) -> str:
    """Content digest of a trace (streams, geometry and phase costs).

    This is the canonical scheme behind every sweep memo/store key
    (:class:`repro.experiments.runner.SweepRunner`) **and** the
    whole-file digest stored in a trace file's footer — the two must
    stay byte-identical so file-backed and in-memory copies of the same
    trace memoize as one.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{trace.name}|{trace.num_procs}|{len(trace.phases)}".encode())
    for phase in trace.phases:
        h.update(f"|{phase.name}|{phase.compute_per_access}".encode())
        for blocks, writes in zip(phase.blocks, phase.writes):
            # frame each stream with its length so identical bytes split
            # differently across processors cannot collide
            h.update(f"#{len(blocks)}".encode())
            h.update(np.ascontiguousarray(np.asarray(blocks, dtype=np.int64)))
            h.update(np.ascontiguousarray(np.asarray(writes, dtype=np.int8)))
    return h.hexdigest()


def _chunk_digest(blocks: np.ndarray, writes: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=8)
    h.update(blocks)
    h.update(writes.view(np.uint8))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class TraceFileWriter:
    """Stream a trace into an on-disk trace file, chunk by chunk.

    Usage::

        with TraceFileWriter(path, name="lu", num_procs=32) as w:
            for phase in phases:           # or begin_phase/append/end_phase
                w.add_phase(phase)
        digest = w.digest                  # available after close

    The writer targets ``<path>.<pid>.tmp`` and renames the finished,
    fsynced file into place on :meth:`close`, so a crash mid-write can
    never leave a torn file under the final name.  Leaving the ``with``
    body via an exception aborts: the temporary file is removed and
    ``path`` is untouched.

    ``num_procs=None`` lets the processor count grow with the appends
    (importers discover it from the input); phases written before a new
    maximum are padded with empty streams at close.
    """

    def __init__(self, path: Union[str, Path], *, name: str,
                 num_procs: Optional[int] = None,
                 metadata: Optional[Dict[str, object]] = None,
                 chunk_refs: int = DEFAULT_CHUNK_REFS) -> None:
        if num_procs is not None and num_procs <= 0:
            raise ValueError("num_procs must be positive")
        if chunk_refs <= 0:
            raise ValueError("chunk_refs must be positive")
        self.path = Path(path)
        self.name = str(name)
        self.num_procs = num_procs
        self.metadata = dict(metadata or {})
        self.chunk_refs = int(chunk_refs)
        self.digest: Optional[str] = None
        self.accesses = 0
        self._max_proc = -1
        self._phases: List[Dict[str, object]] = []
        self._cur: Optional[Dict[str, object]] = None
        self._closed = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        self._fh = open(self._tmp, "wb")
        self._fh.write(_PREAMBLE.pack(MAGIC, TRACE_FILE_VERSION, 0, 0, 0))
        self._pos = _PREAMBLE_SIZE

    # -- phase protocol -----------------------------------------------------

    def begin_phase(self, name: str, compute_per_access: int = 0) -> None:
        """Open a new phase; follow with :meth:`append` calls per stream."""
        self._check_open()
        if self._cur is not None:
            raise TraceFileError("previous phase not closed (call end_phase)")
        if compute_per_access < 0:
            raise ValueError("compute_per_access must be non-negative")
        self._cur = {"name": str(name),
                     "compute_per_access": int(compute_per_access),
                     "chunks": {}, "lens": {}}

    def append(self, proc: int, blocks, writes) -> None:
        """Append one chunk of processor ``proc``'s stream to the open phase.

        ``blocks``/``writes`` are normalized to ``int64``/``bool`` and
        written immediately; chunks larger than ``chunk_refs`` are split.
        A processor may be appended to any number of times per phase —
        the reader concatenates its chunks in append order.
        """
        self._check_open()
        if self._cur is None:
            raise TraceFileError("no open phase (call begin_phase first)")
        if proc < 0 or (self.num_procs is not None and proc >= self.num_procs):
            raise ValueError(f"processor {proc} out of range")
        blocks = np.ascontiguousarray(blocks, dtype=np.int64)
        writes = np.ascontiguousarray(writes, dtype=np.bool_)
        if blocks.ndim != 1 or writes.shape != blocks.shape:
            raise ValueError("blocks and writes must be equal-length 1-D arrays")
        self._max_proc = max(self._max_proc, proc)
        chunks = self._cur["chunks"].setdefault(proc, [])
        for lo in range(0, len(blocks), self.chunk_refs):
            b = blocks[lo:lo + self.chunk_refs]
            w = writes[lo:lo + self.chunk_refs]
            if not len(b):
                continue
            pad = (-self._pos) % 8
            if pad:
                self._fh.write(b"\0" * pad)
                self._pos += pad
            ob = self._pos
            self._fh.write(b.data)
            self._pos += b.nbytes
            ow = self._pos
            self._fh.write(w.view(np.uint8).data)
            self._pos += w.nbytes
            chunks.append([ob, ow, len(b), _chunk_digest(b, w)])
        self._cur["lens"][proc] = (self._cur["lens"].get(proc, 0)
                                   + len(blocks))
        self.accesses += len(blocks)

    def end_phase(self) -> None:
        """Seal the open phase."""
        self._check_open()
        if self._cur is None:
            raise TraceFileError("no open phase to end")
        self._phases.append(self._cur)
        self._cur = None

    def add_phase(self, phase: PhaseTrace) -> None:
        """Write one complete :class:`PhaseTrace` as a phase."""
        self.begin_phase(phase.name, phase.compute_per_access)
        for proc, (blocks, writes) in enumerate(zip(phase.blocks,
                                                    phase.writes)):
            self.append(proc, blocks, writes)
        self.end_phase()

    # -- finalize -----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise TraceFileError("writer is closed")

    def _resolved_procs(self) -> int:
        if self.num_procs is not None:
            return self.num_procs
        return max(1, self._max_proc + 1)

    def _phase_records(self, num_procs: int) -> List[Dict[str, object]]:
        records = []
        for rec in self._phases:
            records.append({
                "name": rec["name"],
                "compute_per_access": rec["compute_per_access"],
                "lens": [int(rec["lens"].get(p, 0))
                         for p in range(num_procs)],
                "streams": [list(rec["chunks"].get(p, []))
                            for p in range(num_procs)],
            })
        return records

    def _finalize_digest(self, records: List[Dict[str, object]],
                         num_procs: int) -> str:
        """Whole-file digest via one bounded re-read pass over the chunks.

        Replays :func:`trace_digest` exactly — per stream a ``#len``
        frame, then all block bytes, then the write flags as ``int8`` —
        reading the just-written chunks back in digest order so the
        writer never has to buffer a whole stream.
        """
        self._fh.flush()
        h = hashlib.blake2b(digest_size=16)
        h.update(f"{self.name}|{num_procs}|{len(records)}".encode())
        with open(self._tmp, "rb") as rd:
            def feed(offset: int, length: int) -> None:
                rd.seek(offset)
                remaining = length
                while remaining:
                    data = rd.read(min(_SCAN_BUFFER, remaining))
                    if not data:
                        raise TraceFileError(
                            f"{self._tmp}: short read while digesting")
                    h.update(data)
                    remaining -= len(data)

            for rec in records:
                h.update(f"|{rec['name']}|{rec['compute_per_access']}"
                         .encode())
                for chunks, n in zip(rec["streams"], rec["lens"]):
                    h.update(f"#{n}".encode())
                    for ob, _ow, cn, _d in chunks:
                        feed(ob, cn * 8)
                    for _ob, ow, cn, _d in chunks:
                        feed(ow, cn)
        return h.hexdigest()

    def close(self) -> Path:
        """Finalize the file: digest, footer, preamble patch, atomic rename."""
        if self._closed:
            return self.path
        if self._cur is not None:
            raise TraceFileError("cannot close with an open phase")
        num_procs = self._resolved_procs()
        records = self._phase_records(num_procs)
        self.digest = self._finalize_digest(records, num_procs)
        footer = {
            "format": "repro-trace",
            "version": TRACE_FILE_VERSION,
            "name": self.name,
            "num_procs": num_procs,
            "metadata": _jsonable(self.metadata),
            "digest": self.digest,
            "accesses": self.accesses,
            "phases": records,
        }
        payload = json.dumps(footer).encode("utf-8")
        footer_off = self._pos
        self._fh.write(payload)
        self._fh.seek(16)
        self._fh.write(struct.pack("<QQ", footer_off, len(payload)))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        os.replace(self._tmp, self.path)
        self.num_procs = num_procs
        self._closed = True
        return self.path

    def abort(self) -> None:
        """Discard the in-progress file; the target path is untouched."""
        if self._closed:
            return
        self._closed = True
        try:
            self._fh.close()
        finally:
            self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> "TraceFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def write_trace_file(trace: Trace, path: Union[str, Path], *,
                     chunk_refs: int = DEFAULT_CHUNK_REFS) -> Path:
    """Write an in-memory :class:`Trace` as a trace file; returns the path."""
    with TraceFileWriter(path, name=trace.name, num_procs=trace.num_procs,
                         metadata=trace.metadata,
                         chunk_refs=chunk_refs) as writer:
        for phase in trace.phases:
            writer.add_phase(phase)
    return Path(path)


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


def read_trace_header(path: Union[str, Path]) -> Dict[str, object]:
    """Parse and validate a trace file's preamble + footer (no stream I/O).

    Raises :class:`TraceFileError` for anything that is not a complete,
    well-formed trace file of the supported version: wrong magic, a
    future format version, an unfinalized (crashed-writer) file, a
    truncated footer, or chunk tables pointing past the end of file.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            head = fh.read(_PREAMBLE_SIZE)
            if len(head) < _PREAMBLE_SIZE:
                raise TraceFileError(f"{path}: truncated preamble "
                                     f"({len(head)} bytes)")
            magic, version, _flags, f_off, f_len = _PREAMBLE.unpack(head)
            if magic != MAGIC:
                raise TraceFileError(f"{path} is not a repro trace file "
                                     f"(bad magic {magic!r})")
            if version != TRACE_FILE_VERSION:
                raise TraceFileError(
                    f"{path}: unsupported trace file version {version} "
                    f"(this build reads version {TRACE_FILE_VERSION})")
            if f_off == 0 or f_len == 0:
                raise TraceFileError(
                    f"{path}: unfinalized trace file (writer crashed "
                    "before close?)")
            if f_off + f_len > size:
                raise TraceFileError(f"{path}: truncated trace file "
                                     f"(footer extends past end of file)")
            fh.seek(f_off)
            payload = fh.read(f_len)
    except OSError as exc:
        raise TraceFileError(f"{path}: {exc}") from exc
    try:
        footer = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFileError(f"{path}: corrupt footer ({exc})") from exc
    for field in ("name", "num_procs", "digest", "phases"):
        if field not in footer:
            raise TraceFileError(f"{path}: footer missing {field!r}")
    for rec in footer["phases"]:
        for chunks, n in zip(rec["streams"], rec["lens"]):
            if sum(c[2] for c in chunks) != n:
                raise TraceFileError(
                    f"{path}: phase {rec['name']!r} chunk table "
                    "disagrees with its stream length")
            for ob, ow, cn, _d in chunks:
                if ob + cn * 8 > f_off or ow + cn > f_off:
                    raise TraceFileError(
                        f"{path}: chunk extends past the data region")
    footer["path"] = str(path)
    footer["file_bytes"] = size
    return footer


class _PhaseSequence(Sequence):
    """Lazy ``trace.phases``: length, iteration and indexing over a file.

    Each access serves a fresh-or-cached :class:`PhaseTrace` whose
    streams are zero-copy views into the file mapping; the engines'
    ``for phase in trace.phases`` / ``len(trace.phases)`` contract works
    unchanged.
    """

    def __init__(self, owner: "StreamingTrace") -> None:
        self._owner = owner

    def __len__(self) -> int:
        return len(self._owner._phase_meta)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self._owner.phase(index)

    def __iter__(self) -> Iterator[PhaseTrace]:
        for i in range(len(self)):
            yield self._owner.phase(i)


class StreamingTrace:
    """A trace served lazily from an on-disk trace file.

    Drop-in for :class:`~repro.workloads.trace.Trace` wherever the
    consumer honours the streaming contract — iterate ``.phases``
    (a sequence: ``len``/index/iterate), read ``.name``, ``.num_procs``
    and ``.metadata`` — which covers all three engines, the runner and
    the analysis passes.  Streams are ``np.frombuffer`` views over one
    read-only mmap of the file, so a phase costs page-cache traffic, not
    heap: the process's writable footprint stays bounded by one phase's
    working set no matter how large the trace is.

    Parameters
    ----------
    path:
        The trace file (see :class:`TraceFileWriter`).
    cache_phases:
        Keep constructed :class:`PhaseTrace` view objects for the first
        N phases — ``True`` (default) pins :data:`DEFAULT_CACHED_PHASES`
        of them, an ``int`` pins that many, ``False``/``0`` none.  The
        views themselves are cheap (mmap-backed), but a stable object
        per phase also accumulates the classifier's per-phase schedule
        cache (tens of bytes per reference), so an unbounded cache would
        grow with trace length and defeat out-of-core streaming.
        Pinning a fixed prefix keeps memory bounded while still giving
        repeated passes — e.g. a sweep running many systems over the
        same file — full reuse on traces of at most N phases, without
        the thrashing an LRU suffers under strictly sequential scans.

    Attributes
    ----------
    digest:
        The whole-trace content digest from the footer — identical to
        :func:`trace_digest` of the materialized trace, so the sweep
        memo key needs no stream hashing.
    bytes_streamed:
        Logical stream bytes served to consumers so far (a phase's
        blocks + writes count each time it is served; repeat serves may
        hit the page cache rather than the disk).
    """

    def __init__(self, path: Union[str, Path], *,
                 cache_phases: Union[bool, int] = True) -> None:
        header = read_trace_header(path)
        self.path = Path(path)
        self.name = str(header["name"])
        self.num_procs = int(header["num_procs"])
        self.metadata: Dict[str, object] = dict(header.get("metadata") or {})
        self.digest = str(header["digest"])
        self.accesses = int(header.get("accesses", 0))
        self.bytes_streamed = 0
        self._phase_meta: List[Dict[str, object]] = list(header["phases"])
        self._phases = _PhaseSequence(self)
        if cache_phases is True:
            self._cache_limit = DEFAULT_CACHED_PHASES
        else:
            self._cache_limit = int(cache_phases)
        self._cache: Dict[int, PhaseTrace] = {}
        self._mm: Optional[np.ndarray] = None

    # -- Trace protocol -----------------------------------------------------

    @property
    def phases(self) -> _PhaseSequence:
        return self._phases

    def total_accesses(self) -> int:
        """Total references across every phase and processor."""
        return self.accesses

    def summary(self) -> Dict[str, object]:
        """Headline numbers (mirrors :meth:`Trace.summary`, minus the
        distinct-block count, which would require a full scan)."""
        return {
            "name": self.name,
            "num_procs": self.num_procs,
            "phases": len(self._phase_meta),
            "accesses": self.accesses,
            "path": str(self.path),
            "digest": self.digest,
        }

    # -- phase construction -------------------------------------------------

    def _mapping(self) -> np.ndarray:
        if self._mm is None:
            self._mm = np.memmap(self.path, dtype=np.uint8, mode="r")
        return self._mm

    def phase(self, index: int) -> PhaseTrace:
        """The :class:`PhaseTrace` view of phase ``index``."""
        rec = self._phase_meta[index]
        self.bytes_streamed += 9 * sum(rec["lens"])
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        phase = self._build_phase(rec)
        if index < self._cache_limit:
            self._cache[index] = phase
        return phase

    def _build_phase(self, rec: Dict[str, object]) -> PhaseTrace:
        mm = self._mapping()
        blocks: List[np.ndarray] = []
        writes: List[np.ndarray] = []
        for chunks, n in zip(rec["streams"], rec["lens"]):
            if len(chunks) == 1 and chunks[0][2] == n:
                ob, ow, cn, _d = chunks[0]
                b = np.frombuffer(mm, dtype=np.int64, count=cn, offset=ob)
                w = np.frombuffer(mm, dtype=np.bool_, count=cn, offset=ow)
            else:
                # multi-chunk stream: concatenate into fresh arrays
                b = np.empty(n, dtype=np.int64)
                w = np.empty(n, dtype=np.bool_)
                at = 0
                for ob, ow, cn, _d in chunks:
                    b[at:at + cn] = np.frombuffer(mm, dtype=np.int64,
                                                  count=cn, offset=ob)
                    w[at:at + cn] = np.frombuffer(mm, dtype=np.bool_,
                                                  count=cn, offset=ow)
                    at += cn
            blocks.append(b)
            writes.append(w)
        return PhaseTrace(name=str(rec["name"]),
                          compute_per_access=int(rec["compute_per_access"]),
                          blocks=blocks, writes=writes)

    def materialize(self) -> Trace:
        """Load the whole trace into memory as a plain :class:`Trace`.

        Copies every stream out of the mapping — only sensible for
        traces that actually fit in RAM (tests, analysis extracts).
        """
        phases = []
        for i, rec in enumerate(self._phase_meta):
            view = self.phase(i)
            phases.append(PhaseTrace(
                name=view.name,
                compute_per_access=view.compute_per_access,
                blocks=[np.array(b, copy=True) for b in view.blocks],
                writes=[np.array(w, copy=True) for w in view.writes]))
        return Trace(name=self.name, num_procs=self.num_procs,
                     phases=phases, metadata=dict(self.metadata))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StreamingTrace({str(self.path)!r}, name={self.name!r}, "
                f"procs={self.num_procs}, phases={len(self._phase_meta)}, "
                f"accesses={self.accesses})")


def open_trace(path: Union[str, Path], *,
               cache_phases: Union[bool, int] = True) -> StreamingTrace:
    """Open a trace file for lazy streaming (see :class:`StreamingTrace`)."""
    return StreamingTrace(path, cache_phases=cache_phases)


# ---------------------------------------------------------------------------
# Inspection and verification
# ---------------------------------------------------------------------------


def trace_file_info(path: Union[str, Path]) -> Dict[str, object]:
    """Header-level summary of a trace file (no stream I/O)."""
    header = read_trace_header(path)
    chunks = sum(len(s) for rec in header["phases"] for s in rec["streams"])
    return {
        "path": header["path"],
        "name": header["name"],
        "version": header.get("version", TRACE_FILE_VERSION),
        "num_procs": header["num_procs"],
        "phases": len(header["phases"]),
        "accesses": header.get("accesses", 0),
        "chunks": chunks,
        "file_bytes": header["file_bytes"],
        "logical_bytes": 9 * int(header.get("accesses", 0)),
        "digest": header["digest"],
        "metadata": header.get("metadata") or {},
    }


def verify_trace_file(path: Union[str, Path]) -> Dict[str, object]:
    """Fully scan a trace file, checking every digest; returns its info.

    Verifies each chunk against its stored digest and recomputes the
    whole-trace digest from the stream bytes, comparing it with the
    footer's.  Raises :class:`TraceFileError` on the first mismatch —
    a torn or bit-flipped file can never silently feed a sweep.
    """
    header = read_trace_header(path)
    whole = hashlib.blake2b(digest_size=16)
    whole.update(f"{header['name']}|{header['num_procs']}|"
                 f"{len(header['phases'])}".encode())
    mm = np.memmap(path, dtype=np.uint8, mode="r")
    try:
        for rec in header["phases"]:
            whole.update(f"|{rec['name']}|{rec['compute_per_access']}"
                         .encode())
            for chunks, n in zip(rec["streams"], rec["lens"]):
                whole.update(f"#{n}".encode())
                for ob, ow, cn, digest in chunks:
                    b = np.frombuffer(mm, dtype=np.int64, count=cn, offset=ob)
                    w = np.frombuffer(mm, dtype=np.uint8, count=cn, offset=ow)
                    if _chunk_digest(b, w.view(np.bool_)) != digest:
                        raise TraceFileError(
                            f"{path}: chunk at offset {ob} of phase "
                            f"{rec['name']!r} fails its digest "
                            "(corrupt data)")
                for ob, _ow, cn, _d in chunks:
                    whole.update(np.frombuffer(mm, dtype=np.uint8,
                                               count=cn * 8, offset=ob))
                for _ob, ow, cn, _d in chunks:
                    whole.update(np.frombuffer(mm, dtype=np.uint8,
                                               count=cn, offset=ow))
    finally:
        del mm
    if whole.hexdigest() != header["digest"]:
        raise TraceFileError(
            f"{path}: whole-trace digest mismatch (footer "
            f"{header['digest']}, streams {whole.hexdigest()})")
    info = trace_file_info(path)
    info["ok"] = True
    return info


# ---------------------------------------------------------------------------
# Registry integration: trace files as first-class workloads
# ---------------------------------------------------------------------------


class TraceFileWorkload:
    """A registered workload backed by an on-disk trace file.

    Instances carry a ``.name`` so they can be handed directly to
    :func:`repro.registry.register_workload`;
    :func:`repro.workloads.splash2.registry.get_workload` recognizes
    them and opens the file for streaming instead of generating a
    synthetic trace (scale/seed parameters do not apply to recorded
    traces and are ignored).
    """

    def __init__(self, path: Union[str, Path],
                 name: Optional[str] = None) -> None:
        self.path = Path(path)
        if name is None:
            name = read_trace_header(self.path)["name"]
        self.name = str(name)

    def open(self, *, cache_phases: Union[bool, int] = True) -> StreamingTrace:
        """Open the backing file as a :class:`StreamingTrace`."""
        return StreamingTrace(self.path, cache_phases=cache_phases)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceFileWorkload({str(self.path)!r}, name={self.name!r})"


def as_trace_file_path(name: str) -> Optional[Path]:
    """Interpret a workload name as a trace file path, if it is one.

    ``file:PATH`` always names a trace file (missing files raise
    :class:`TraceFileError`); a bare name ending in ``.rpt`` that exists
    on disk is also accepted, so ``repro exp figure5 --apps
    file:/data/app.rpt`` and ``--apps traces/app.rpt`` both stream from
    files.  Anything else returns ``None`` (a registry name).
    """
    if name.startswith("file:"):
        path = Path(name[5:])
        if not path.exists():
            raise TraceFileError(f"trace file not found: {path}")
        return path
    path = Path(name)
    if path.suffix == TRACE_FILE_SUFFIX and path.exists():
        return path
    return None
