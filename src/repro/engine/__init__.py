"""Simulation execution engines.

The machine/trace substrate defines *what* is simulated; this subsystem
defines *how* the reference stream is executed:

``legacy``
    The reference interpreter — one Python-level step per reference
    (:mod:`repro.engine.legacy`).  It is the semantic ground truth.
``batched``
    The two-tier engine (:mod:`repro.engine.batched`): a vectorised numpy
    fast path resolves guaranteed L1 hits in bulk, and only the residual
    stream (possible hits, upgrades, misses) is interpreted, through the
    unchanged protocol machinery; the kernel's pure-Python fallback.
    Statistics and execution times are bit-identical to the interpreter.
``kernel``
    The compiled kernel (:mod:`repro.engine.kernel`): the interpreter's
    loop transcribed to flat arrays in C (``cwalk.c``, built on demand
    with the system compiler), walking each phase's raw streams and
    probing every reference, bailing to Python only for the page
    operations and mapping faults it cannot express and for the
    evaluations of decision policies it does not know.  Every stock
    system runs on it; shapes it cannot
    express (user protocol subclasses, exotic or heterogeneous caches),
    and every run on a host with no working C compiler, transparently
    fall back to ``batched`` for the run, recording the reason in
    ``engine_profile``.  Results are bit-identical to both other
    engines; the default engine.

Select an engine per run (``machine.run(trace, engine="legacy")``) or
globally through the ``REPRO_ENGINE`` environment variable.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.engine.batched import run_batched
from repro.engine.kernel import run_kernel
from repro.engine.legacy import run_legacy

#: Engines selectable by name.
ENGINE_NAMES = ("batched", "kernel", "legacy")

#: Environment variable overriding the default engine.
ENGINE_ENV_VAR = "REPRO_ENGINE"

_RUNNERS = {
    "batched": run_batched,
    "kernel": run_kernel,
    "legacy": run_legacy,
}


def default_engine() -> str:
    """The engine used when none is requested explicitly."""
    name = os.environ.get(ENGINE_ENV_VAR, "").strip().lower()
    return name if name in _RUNNERS else "kernel"


def resolve_engine(engine: Optional[str] = None):
    """Map an engine name (or None for the default) to its run function."""
    name = (engine or default_engine()).strip().lower()
    runner = _RUNNERS.get(name)
    if runner is None:
        raise ValueError(
            f"unknown engine {engine!r}; valid engines: {', '.join(ENGINE_NAMES)}")
    return runner


def run_trace(machine, trace, engine: Optional[str] = None):
    """Run ``trace`` on ``machine`` with the selected engine."""
    return resolve_engine(engine)(machine, trace)


__all__ = [
    "ENGINE_NAMES",
    "ENGINE_ENV_VAR",
    "default_engine",
    "resolve_engine",
    "run_trace",
    "run_batched",
    "run_kernel",
    "run_legacy",
]
