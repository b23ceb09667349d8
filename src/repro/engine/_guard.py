"""Shared run-scoped guard for the batched and kernel engines.

Both engines pause the garbage collector for the duration of a run (the
batched walk allocates large bursts of small tuples that survive exactly
one phase — the worst case for generational collection).  The batched
engine also arms the L1 caches' ``watch``/``fill_watch`` hooks
so out-of-band line drops and fills during protocol calls demote its
pre-classified fast references.  A hook records the (processor, cache
set) it dropped or filled in the engine's ``events`` dict (``True`` for
a whole-cache drop); the classifier's occupancy proof is per set, so
only that set's pending fast references are demoted.  The kernel
classifies nothing ahead of its walk, so it arms no hook.  Neither
effect may outlive the run: a leaked GC pause slows everything after the
run, and leaked hooks corrupt the next engine (or user code) touching
the same caches.

:func:`engine_run_guard` owns that save/arm/restore dance in one place so
an exception anywhere in an engine's phase loop cannot leak either
effect.

:func:`backend_crash_guard` wraps the kernel engine's calls into its C
walk (the bind and every re-entry): an exception escaping
there — a marshalling bug, a broken C build — is re-raised as
:class:`KernelBackendError`, which :func:`repro.engine.kernel.run_kernel`
catches to re-run the trace on the batched engine from a pristine
machine (the crashed walk may have half-mutated the array stores), with
the crash surfaced as the run's ``fallback_reason``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence


class KernelBackendError(RuntimeError):
    """The kernel's compiled walk crashed mid-run.

    Carries the backend name and the original exception (as
    ``__cause__``); the message is the user-facing fallback reason.
    """

    def __init__(self, backend: str, original: BaseException) -> None:
        super().__init__(
            f"kernel backend {backend!r} crashed: "
            f"{type(original).__name__}: {original}")
        self.backend = backend
        self.original = original


@contextmanager
def backend_crash_guard(backend: str) -> Iterator[None]:
    """Translate exceptions escaping a call into the compiled walk.

    Anything raised inside the block (except an already-translated
    :class:`KernelBackendError`) is chained into a
    :class:`KernelBackendError` so the kernel driver can distinguish
    "the backend broke" (recoverable by batched fallback) from "the
    simulation is invalid" (a driver/protocol exception raised outside
    the guarded backend call, which propagates normally).
    """
    try:
        yield
    except KernelBackendError:
        raise
    except Exception as exc:
        raise KernelBackendError(backend, exc) from exc


def _mk_watch(events: dict, p: int, nl: int) -> Callable[[int], None]:
    """Cache ``p``'s hook: record the flushed set ``block % nl`` (or all)."""
    def _watch(block: int = -1) -> None:
        flushed = events.get(p)
        if flushed is True:
            return
        if block < 0:
            events[p] = True
        elif flushed is None:
            events[p] = {block % nl}
        else:
            flushed.add(block % nl)
    return _watch


@contextmanager
def engine_run_guard(caches: Sequence = (),
                     events: Optional[dict] = None) -> Iterator[None]:
    """Pause the GC and arm per-cache shootdown hooks for one engine run.

    Cache ``p``'s ``watch`` and ``fill_watch`` hooks record into
    ``events[p]`` (see the module docstring); with no ``caches`` only
    the GC is paused.  On exit — normal or exceptional — the original
    hooks are restored and the GC is re-enabled iff it was enabled on
    entry.
    """
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    saved = [(c.watch, c.fill_watch) for c in caches]
    for p, c in enumerate(caches):
        hook = _mk_watch(events, p, c.num_lines)
        c.watch = hook
        c.fill_watch = hook
    try:
        yield
    finally:
        if gc_was_enabled:
            gc.enable()
        for c, (watch, fill_watch) in zip(caches, saved):
            c.watch = watch
            c.fill_watch = fill_watch
