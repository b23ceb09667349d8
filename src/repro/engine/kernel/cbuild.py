"""On-demand build and binding of the kernel's C backend.

``cwalk.c`` needs no Python headers — it is a single translation unit of
plain C99 operating on raw array pointers — so any C compiler can build
it: ``cc -O2 -ffp-contract=off -shared -fPIC`` and nothing else.  The
translation unit is generated: the layout constants of
:mod:`repro.engine.kernel.state`
(:data:`~repro.engine.kernel.state.LAYOUT`) as ``#define`` s, then
``cwalk.c``.  The shared object is cached next to the package (or under
``$REPRO_KERNEL_CACHE`` / the system temp dir when the package directory
is read-only) keyed by a hash of that whole generated source and the
compile flags, so each revision of the walk, of its layout or of its
flags compiles at most once per machine; a build removes the shared
objects of every other revision from its cache directory.

Everything degrades gracefully: no compiler, a failed compile or a
failed ``dlopen`` all yield ``None`` from :func:`load_cwalk` and the
engine falls back to the batched engine.  Set ``REPRO_KERNEL_CC`` (or
the conventional ``CC``) to pick a specific compiler.  An explicit
``REPRO_KERNEL_CC`` that does not resolve turns the C walk off, even
when a built walk is cached.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.engine.kernel.state import LAYOUT

_SOURCE = Path(__file__).with_name("cwalk.c")
_N_ARGS = 54

#: ``-ffp-contract=off``: the walk's float updates (``old * decay + 1.0``)
#: must round twice, as CPython does.  GCC contracts them into one fused
#: multiply-add by default in GNU C mode wherever FMA is native, which
#: aarch64 has as baseline.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_loaded = False
_caller: Optional[Callable] = None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE", "").strip()
    if override:
        path = Path(override)
        path.mkdir(parents=True, exist_ok=True)
        return path
    path = _SOURCE.parent / "_build"
    try:
        path.mkdir(exist_ok=True)
        probe = path / ".writable"
        probe.touch()
        probe.unlink()
        return path
    except OSError:
        pass  # read-only install: fall through to the temp dir
    path = Path(tempfile.gettempdir()) / f"repro-kernel-{os.getuid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _compiler() -> Optional[str]:
    # an explicit override is authoritative: if it does not resolve, the
    # build is off — never silently substitute a different compiler
    override = os.environ.get("REPRO_KERNEL_CC")
    if override is not None:
        return override if shutil.which(override) else None
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _source() -> bytes:
    """The generated translation unit: layout ``#define`` s + ``cwalk.c``."""
    defines = "".join(f"#define {name} {value}\n"
                      for name, value in LAYOUT.items())
    # diagnostics keep pointing at cwalk.c's own line numbers
    return (defines + '#line 1 "cwalk.c"\n').encode() + _SOURCE.read_bytes()


def _command(cc: str, out: Path, src: Path) -> list:
    """The compile command building ``src`` into the shared object ``out``."""
    return [cc, *_CFLAGS, "-o", str(out), str(src)]


def _digest(source: bytes) -> str:
    """The cache key of a build: its generated source and compile flags."""
    return hashlib.sha256(
        "\0".join(_CFLAGS).encode() + b"\0" + source).hexdigest()[:16]


def _prune(cache: Path, keep: Path) -> None:
    """Unlink every walk in ``cache`` but ``keep``: superseded revisions.

    A process that has one of them loaded keeps its own mapping."""
    for old in cache.glob("cwalk-*.so"):
        if old != keep:
            try:
                old.unlink()
            except OSError:
                pass


def _build() -> Optional[ctypes.CDLL]:
    cc = _compiler()
    if cc is None and os.environ.get("REPRO_KERNEL_CC") is not None:
        return None   # the explicit compiler is authoritative, cache or not
    try:
        source = _source()
    except OSError:
        return None
    digest = _digest(source)
    try:
        cache = _cache_dir()
    except OSError:
        return None
    so_path = cache / f"cwalk-{digest}.so"
    if not so_path.exists():
        if cc is None:
            return None
        tmp = so_path.with_name(f".{so_path.name}.{os.getpid()}.tmp")
        src = tmp.with_suffix(".c")
        try:
            src.write_bytes(source)
            proc = subprocess.run(_command(cc, tmp, src), capture_output=True,
                                  timeout=120)
            if proc.returncode != 0:
                return None
            os.replace(tmp, so_path)   # atomic: concurrent builds race safely
        except (OSError, subprocess.SubprocessError):
            return None
        finally:
            for leftover in (tmp, src):
                try:
                    leftover.unlink(missing_ok=True)
                except OSError:
                    pass
        _prune(cache, so_path)
    try:
        return ctypes.CDLL(str(so_path))
    except OSError:
        return None


#: a zero-length ``char`` array type: ``from_buffer`` over an array is
#: an address read holding the array's buffer export
_Anchor = ctypes.c_char * 0


def _address(array: np.ndarray, pins: list) -> int:
    """The data address of a contiguous ``array``; ``pins`` keeps it valid.

    A writable array's address comes through a ``from_buffer`` anchor,
    several times cheaper than ``ndarray.ctypes``.  ``from_buffer``
    refuses read-only buffers, such as the streams of an ``.rpt``
    mmap, which take the ``ndarray.ctypes`` route.
    """
    try:
        anchor = _Anchor.from_buffer(array)
    except TypeError:
        pins.append(array)
        return array.ctypes.data
    pins.append(anchor)
    return ctypes.addressof(anchor)


def load_cwalk() -> Optional[Callable]:
    """The C walk as ``bind(args) -> runner``, or ``None`` if unbuildable.

    ``args`` holds the arrays of ``repro_kernel_walk``'s parameter list,
    in order (built by
    :meth:`~repro.engine.kernel.state.KernelState.bind_walk`).  ``bind``
    flattens the list-of-array arguments into pointer tables once per
    binding; ``runner() -> rc`` (re-)enters the walk with those
    pointers, which stay valid while the runner lives: nothing replaces
    an argument array between re-entries.
    """
    global _loaded, _caller
    if _loaded:
        return _caller
    _loaded = True
    lib = _build()
    if lib is None:
        return None
    try:
        fn = lib.repro_kernel_walk
    except AttributeError:
        return None
    fn.argtypes = [ctypes.c_void_p] * _N_ARGS
    fn.restype = ctypes.c_int64

    def bind(args) -> Callable[[], int]:
        if len(args) != _N_ARGS:  # pragma: no cover - internal contract
            raise ValueError("kernel walk argument count mismatch")
        pins = []   # buffer exports and tables, kept alive by the runner
        c_args = []
        for a in args:
            if isinstance(a, list):
                tab = np.fromiter((_address(x, pins) for x in a),
                                  dtype=np.uint64, count=len(a))
                c_args.append(_address(tab, pins))
            else:
                c_args.append(_address(a, pins))

        def runner() -> int:
            return fn(*c_args)

        # the raw pointers in c_args are only valid while the tables and
        # argument arrays are alive — pin them to the runner's lifetime
        runner.keepalive = (args, pins)
        return runner

    _caller = bind
    return _caller
