"""The compiled kernel — ``engine=kernel``.

The kernel runs the interpreter's reference loop against flat
index-addressed array stores instead of Python objects: once per run
it reserves the simulator's stores for the whole trace, marshals them
into zero-copy numpy views (:mod:`repro.engine.kernel.state`) and hands
every phase's own ``blocks``/``writes`` streams to its one compiled
walk, ``cwalk.c``, built on demand by :mod:`repro.engine.kernel.cbuild`
with the system C compiler.  (A trace with more than
:data:`SEGMENT_BYTES` of streams takes those steps once per segment of
phases.)  The walk visits each phase's references in the interpreter's
round-robin ``(i, p)`` order and probes every one, then runs the
phase's barrier; nothing is classified ahead of it, so a page
operation's L1 shootdown needs no repair — the next probe of a flushed
line misses.

The walk runs the probe/upgrade/local-fill/block-cache lanes — plus
the page-cache probe lane for S-COMA-family systems, the home-side
MigRep counter bumps and the requester-side R-NUMA refetch counters,
each with its decision test — entirely in compiled code.  Every stock
decision policy is evaluated there: the static-threshold, competitive
and cost-model rules as the integer thresholds
:func:`~repro.engine.kernel.state.lower_policy` lowers them to, the
hysteresis rules by transcription.  So are the page operations those
decisions fire: a relocation into a page cache with a free frame, a
replication, and a migration of an unreplicated page.
It *bails* back to the Python loop of :func:`run_kernel` for the
events that need real protocol machinery: mapping faults under a
placement policy, writes to replicated pages (``collapse``),
relocations that must first evict a page-cache victim (``relocate``),
a fired migration of a replicated page, which ``vm.migrate`` refuses
(``migrate``), S-COMA first-touch allocations (``pagecache``), and
evaluations of a policy the walk does not know, such as a user
subclass or registration (``decide``).  That loop services
the bail with ordinary protocol calls and re-enters the walk at its
phase and interleave cursors, just past the bailed reference; the walk
is entered once per run plus once per bail, and the delta mirrors and
the run's stall totals are folded after its last entry.  Under the
stock policies bails are rare: ``repro exp figure5 --scale 0.5`` bails
36 times in 10.8 million references, all of them replica collapses, and
``repro exp policy-adaptivity --scale 0.15`` 280 times, so the walk's
speed dominates.

Only systems whose whole walk the kernel can express run on
the kernel: the exact stock protocol family (``ccnuma``, ``perfect``,
``migrep``, ``rnuma``, ``scoma``, ``rnuma-migrep``, ``ccnuma-dram`` and
their capacity variants) with homogeneous block caches and stock base
machinery.  An infinite block cache rides the CC-NUMA lane: its frames
are indexed by block id (``CON_BC_CAP`` exceeds every block id).
Any decision policy rides the compiled walk: one the walk does not
know bails ``decide`` at each of its evaluations.  Everything else —
user-registered protocol subclasses, exotic or heterogeneous caches —
transparently falls back to the batched engine
for the whole run, recording *every* failing condition in
``engine_profile["fallback_reason"]``.  So does every run on a host
where the C walk cannot be built.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import TYPE_CHECKING, Optional

from repro.core.ccnuma import CCNUMAProtocol
from repro.core.dram_cache import DRAMBlockCacheProtocol
from repro.core.migrep import MigRepProtocol
from repro.core.protocol import DSMProtocol
from repro.core.rnuma import RNUMAProtocol
from repro.core.rnuma_migrep import RNUMAMigRepProtocol
from repro.core.scoma import SCOMAProtocol
from repro.engine._guard import (
    KernelBackendError,
    backend_crash_guard,
    engine_run_guard,
)
from repro.engine.kernel.state import (
    KernelState,
    OUT_BLOCK, OUT_CLOCK, OUT_EVAL, OUT_FAULT, OUT_HOME, OUT_MODE, OUT_P,
    OUT_PAGE, OUT_SERVICE, OUT_START, OUT_VERSION, OUT_WAIT, OUT_WRITE,
    PP_ACC_BARRIER, PP_ACC_COMPUTE, PP_ACC_CONT, PP_ACC_FAULT, PP_ACC_LOCAL,
    PP_ACC_PAGEOP, PP_ACC_REMOTE, PP_ACC_UPGRADE, PP_CLOCK, PP_EVICT,
    PP_HITS, PP_INVAL, PP_MISS, PP_UPG,
    RC_BAIL_COLLAPSE, RC_BAIL_DECIDE, RC_BAIL_FAULT, RC_BAIL_MIGRATE,
    RC_BAIL_PAGECACHE, RC_BAIL_RELOCATE, RC_DONE, schedule_arrays,
)
from repro.mem.page_table import MODES_BY_CODE
from repro.stats.counters import MachineStats
from repro.stats.timing import StallKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.machine import Machine

#: Environment variable selecting the kernel backend: unset (or
#: ``auto``) and ``c`` run the C walk; ``none`` disables the kernel, so
#: every run falls back to the batched engine.  Any other value falls
#: back with an "unknown" reason.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

_BAIL_NAMES = {RC_BAIL_FAULT: "fault", RC_BAIL_COLLAPSE: "collapse",
               RC_BAIL_MIGRATE: "migrate", RC_BAIL_RELOCATE: "relocate",
               RC_BAIL_DECIDE: "decide", RC_BAIL_PAGECACHE: "pagecache"}

#: stable key set of the ``bail_kinds`` dict in ``engine_profile``; the
#: walk replicates in place, so ``replicate`` always reads 0
BAIL_KIND_NAMES = ("fault", "collapse", "replicate", "migrate",
                   "relocate", "decide", "pagecache")

#: stream bytes (block ids and write flags) one binding of the walk
#: holds at most, plus one phase: a trace with more is walked in segments
#: of phases, each reserved, viewed and bound on its own.  Every phase of
#: the paper's traces fits one segment; the bound keeps a streamed trace
#: whose phases are served as fresh arrays (multi-chunk ``.rpt`` streams)
#: from being held whole.
SEGMENT_BYTES = 64 << 20

#: exact protocol types whose protocol lanes the C walk transcribes
_KERNEL_PROTOCOLS = (CCNUMAProtocol, MigRepProtocol, RNUMAProtocol,
                     SCOMAProtocol, RNUMAMigRepProtocol,
                     DRAMBlockCacheProtocol)


def kernel_eligibility(machine: "Machine", trace) -> Optional[str]:
    """Why ``machine`` cannot run on the kernel, or ``None`` if it can.

    The kernel's compiled lanes are transcriptions of the *stock*
    protocol family, so any override — a subclass, exotic or
    heterogeneous cache geometry — disqualifies the whole run
    (per-reference fallback would cost more than it saves).  Finite and
    infinite block caches alike are eligible.  *Every*
    failing condition is collected and ``"; "``-joined into the
    user-facing fallback reason, so fixing one does not merely surface
    the next.
    """
    protocol = machine.protocol
    ptype = type(protocol)
    reasons = []
    procs = machine.processors[:trace.num_procs]
    if any(not hasattr(p.cache, "line_state") for p in procs):
        reasons.append("exotic L1 cache (no line_state)")
    elif len({p.cache.num_lines for p in procs}) > 1:
        reasons.append("heterogeneous L1 geometry")
    if len(machine.nodes) > 62:
        reasons.append("more than 62 nodes (sharer masks exceed int64)")
    if len({bc.modulus for bc in machine.block_caches}) > 1:
        reasons.append("heterogeneous block-cache capacity")
    if not (ptype.handle_miss is DSMProtocol.handle_miss
            and ptype._directory_read is DSMProtocol._directory_read
            and ptype._directory_write is DSMProtocol._directory_write
            and ptype.handle_upgrade is DSMProtocol.handle_upgrade
            and ptype.note_l1_eviction is DSMProtocol.note_l1_eviction
            and ptype._remote_fetch is DSMProtocol._remote_fetch
            and ptype._remote_fill is DSMProtocol._remote_fill):
        reasons.append(f"protocol {ptype.__name__} overrides base machinery")
    if ptype not in _KERNEL_PROTOCOLS:
        reasons.append(f"unsupported protocol {ptype.__name__}")
    elif isinstance(protocol, RNUMAProtocol):
        # the page-cache probe lane needs a cache to probe on every node
        if any(pc is None for pc in machine.page_caches):
            reasons.append("page-cache protocol with a cache-less node")
    elif any(pc is not None for pc in machine.page_caches):
        reasons.append(
            f"page cache present on non-page-cache protocol "
            f"{ptype.__name__}")
    return "; ".join(reasons) if reasons else None


def _resolve_backend(forced: str):
    """Resolve ``(bind, name)`` for the requested backend.

    ``bind(args) -> runner`` takes the walk's argument tuple once per
    run (per segment of a long trace) and returns a zero-argument
    ``runner() -> rc`` that (re-)enters the walk — binding once lets the
    C binding cache its argument marshalling across the bails.  Returns
    ``(None, reason)`` when the request is unknown or the C walk cannot
    be built.
    """
    if forced not in ("", "auto", "c"):
        return None, f"unknown {BACKEND_ENV_VAR}={forced!r}"
    from repro.engine.kernel.cbuild import load_cwalk
    bind = load_cwalk()
    if bind is None:
        return None, "C backend build failed (no working compiler?)"
    return bind, "c"


def run_kernel(machine: "Machine", trace) -> MachineStats:
    """Run ``trace`` on ``machine`` with the compiled kernel.

    Ineligible systems and an unbuildable C walk fall back to the batched
    engine for the whole run; the resulting ``engine_profile`` carries
    ``requested_engine="kernel"`` and the ``fallback_reason``.
    """
    reason = kernel_eligibility(machine, trace)
    bind = None
    backend_name = ""
    forced = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if forced in ("none", "off", "0"):
        reason = reason or f"kernel disabled via {BACKEND_ENV_VAR}"
    elif reason is None:
        bind, backend_name = _resolve_backend(forced)
        if bind is None:
            reason = backend_name
    if reason is None:
        try:
            return _run(machine, trace, bind, backend_name)
        except KernelBackendError as exc:
            # the crashed walk may have half-mutated the array stores, so
            # the batched re-run needs a pristine machine; the caller's
            # machine adopts its results to stay consistent
            from repro.cluster.machine import Machine
            fresh = Machine(machine.cfg, machine.system)
            stats = fresh.run(trace, engine="batched")
            machine.stats = fresh.stats
            machine.timing = fresh.timing
            reason = str(exc)
            profile = stats.engine_profile
            if isinstance(profile, dict):
                profile["requested_engine"] = "kernel"
                profile["fallback_reason"] = reason
            return stats
    from repro.engine.batched import run_batched
    stats = run_batched(machine, trace)
    profile = stats.engine_profile
    if isinstance(profile, dict):
        profile["requested_engine"] = "kernel"
        profile["fallback_reason"] = reason
    return stats


def _run(machine: "Machine", trace, bind, backend_name: str) -> MachineStats:
    costs = machine.cfg.costs
    protocol = machine.protocol
    num_procs = trace.num_procs
    procs = machine.processors
    caches = [procs[p].cache for p in range(num_procs)]
    node_of = [procs[p].node_id for p in range(num_procs)]
    lines_of = [c.num_lines for c in caches]
    handle_miss = protocol.handle_miss
    service_remote = protocol._service_remote_page
    note_l1_eviction = protocol.note_l1_eviction
    maybe_relocate = getattr(protocol, "_maybe_relocate", None)
    perform_relocation = getattr(protocol, "_perform_relocation", None)
    evaluate_migrep = (getattr(protocol, "_evaluate_migrep", None)
                       or getattr(protocol, "_evaluate_policy", None))
    l1_hit_cost = costs.l1_hit
    node_stats = machine.stats.nodes
    timing_procs = machine.timing.processors

    P = num_procs
    st = KernelState(machine, num_procs, caches, node_of)
    pp = st.pp
    out = st.out

    n_phases = 0
    accesses = [0] * P
    bails = 0
    bail_kinds = {name: 0 for name in BAIL_KIND_NAMES}
    walk_s = 0.0
    run_t0 = perf_counter()

    with engine_run_guard():
        for p in range(P):
            pp[PP_CLOCK * P + p] = timing_procs[p].clock
        st.load_absolutes()
        phases = iter(trace.phases)
        while True:
            # one pass over a segment's streams builds the walk's
            # phase-major tables and finds their largest block; a segment
            # ends after the phase that brings its streams to
            # SEGMENT_BYTES, so the phases a streamed trace serves as
            # fresh arrays never pile up past that
            blocks, writes, lengths, compute = [], [], [], []
            max_block = -1
            held = 0
            for phase in phases:
                if len(phase.blocks) != num_procs:
                    raise ValueError(
                        "phase stream count does not match trace.num_procs")
                for arr in phase.blocks:
                    if len(arr):
                        m = int(arr.max())
                        if m > max_block:
                            max_block = m
                columns = schedule_arrays(phase)
                blocks += columns[0]
                writes += columns[1]
                lengths += map(len, columns[0])
                compute.append(phase.compute_per_access)
                held += sum(a.nbytes for a in columns[0] + columns[1])
                if held >= SEGMENT_BYTES:
                    break
            if not compute:
                break   # every phase is walked
            n_phases += len(compute)
            for p in range(P):
                accesses[p] += sum(lengths[p::P])
            st.reserve(max_block)

            st.marshal_phase()
            with backend_crash_guard(backend_name):
                st.bind_walk(bind, blocks, writes, lengths, compute)

            while True:
                with backend_crash_guard(backend_name):
                    t0 = perf_counter()
                    rc = st.runner()
                    walk_s += perf_counter() - t0
                if rc == RC_DONE:
                    break
                bails += 1
                bail_kinds[_BAIL_NAMES[rc]] += 1
                # the bail handlers read/advance the live NICs; every other
                # mirror is either a shared view (already exact) or a
                # pure-increment delta (folded after the walk)
                st.sync_nics_out()
                p = int(out[OUT_P])
                block = int(out[OUT_BLOCK])
                page = int(out[OUT_PAGE])
                is_write = bool(out[OUT_WRITE])
                start = int(out[OUT_START])
                wait = int(out[OUT_WAIT])
                clock = int(out[OUT_CLOCK])
                node = node_of[p]
                if rc == RC_BAIL_FAULT:
                    service, pageop, fault, version, remote = handle_miss(
                        node, p, page, block, is_write, start)
                elif rc == RC_BAIL_COLLAPSE or rc == RC_BAIL_PAGECACHE:
                    mode = MODES_BY_CODE[int(out[OUT_MODE])]
                    service, pageop, version, remote = service_remote(
                        node, p, page, block, is_write, start,
                        int(out[OUT_HOME]), mode)
                    fault = int(out[OUT_FAULT])
                elif rc == RC_BAIL_DECIDE:
                    # the walk completed the fill; run the evaluations of the
                    # policies it does not know, in batched order
                    service = int(out[OUT_SERVICE])
                    version = int(out[OUT_VERSION])
                    remote = True
                    fault = int(out[OUT_FAULT])
                    flags = int(out[OUT_EVAL])
                    pageop = 0
                    if flags & 1:
                        pageop += maybe_relocate(node, page, start)
                    if flags & 2:
                        pageop += evaluate_migrep(
                            page, node, int(out[OUT_HOME]), start)
                else:
                    # the walk completed the fill; run the page operation it
                    # could not: a relocation that must evict first, or a
                    # migration vm.migrate refuses
                    service = int(out[OUT_SERVICE])
                    version = int(out[OUT_VERSION])
                    remote = True
                    fault = int(out[OUT_FAULT])
                    if rc == RC_BAIL_MIGRATE:
                        pageop = protocol._perform_migration(page, node, start)
                    else:
                        pageop = perform_relocation(node, page, start)
                # generic tail: L1 fill + eviction notification
                cb_p = st.cb[p]
                cv_p = st.cv[p]
                cd_p = st.cd[p]
                idx = block % lines_of[p]
                old = int(cb_p[idx])
                if old >= 0 and old != block:
                    victim_dirty = bool(cd_p[idx])
                    pp[PP_EVICT * P + p] += 1
                    cb_p[idx] = block
                    cv_p[idx] = version
                    cd_p[idx] = is_write
                    note_l1_eviction(node, old, victim_dirty)
                else:
                    cb_p[idx] = block
                    cv_p[idx] = version
                    cd_p[idx] = is_write
                pp[PP_ACC_CONT * P + p] += wait
                if remote:
                    pp[PP_ACC_REMOTE * P + p] += service
                else:
                    pp[PP_ACC_LOCAL * P + p] += service
                pp[PP_ACC_PAGEOP * P + p] += pageop
                pp[PP_ACC_FAULT * P + p] += fault
                pp[PP_CLOCK * P + p] = clock + wait + service + pageop + fault
                # protocol calls may have advanced the NICs
                st.load_nics()

            st.release()

        st.flush()
        # the run's statistics, folded once: advancing a clock by a sum
        # of stall cycles equals advancing it by each in turn
        for p in range(P):
            n_hits = int(pp[PP_HITS * P + p])
            pt = timing_procs[p]
            for kind, cycles in (
                    (StallKind.COMPUTE, int(pp[PP_ACC_COMPUTE * P + p])),
                    (StallKind.L1_HIT, l1_hit_cost * n_hits),
                    (StallKind.LOCAL_MISS, int(pp[PP_ACC_LOCAL * P + p])),
                    (StallKind.REMOTE_MISS, int(pp[PP_ACC_REMOTE * P + p])),
                    (StallKind.UPGRADE, int(pp[PP_ACC_UPGRADE * P + p])),
                    (StallKind.PAGE_OP, int(pp[PP_ACC_PAGEOP * P + p])),
                    (StallKind.MAPPING_FAULT, int(pp[PP_ACC_FAULT * P + p])),
                    (StallKind.CONTENTION, int(pp[PP_ACC_CONT * P + p])),
                    (StallKind.BARRIER, int(pp[PP_ACC_BARRIER * P + p]))):
                pt.advance(kind, cycles)
            ns = node_stats[node_of[p]]
            ns.accesses += accesses[p]
            ns.l1_hits += n_hits
            caches[p].credit_batch(
                hits=n_hits + int(pp[PP_UPG * P + p]),
                misses=int(pp[PP_MISS * P + p]),
                evictions=int(pp[PP_EVICT * P + p]),
                invalidations=int(pp[PP_INVAL * P + p]))
        if n_phases:
            # the processors without a stream wait at every barrier, and
            # the last one leaves them at the streams' common clock
            target = int(pp[PP_CLOCK * P])
            for pt in timing_procs[P:]:
                pt.advance(StallKind.BARRIER, target - pt.clock)
        machine.timing.barriers += n_phases
        machine.stats.barrier_count += n_phases

    machine.stats.execution_time = machine.timing.max_clock()
    machine.stats.proc_finish_times = [
        timing_procs[p].clock for p in range(num_procs)
    ]
    machine.stats.network_messages = machine.network.total_messages()
    machine.stats.network_bytes = machine.network.total_bytes()
    machine.stats.message_stats = machine.network.stats
    machine.stats.stall_breakdown = dict(machine.timing.aggregate_stalls())
    machine.stats.engine_profile = {
        "engine": "kernel",
        "backend": backend_name,
        # every reference is walked: nothing is resolved ahead of the
        # walk, so nothing can be demoted back into it
        "references": sum(accesses),
        "fast": 0,
        "demoted": 0,
        "residual": sum(accesses),
        "phases": n_phases,
        "bails": bails,
        "bail_kinds": bail_kinds,
        "wall_s": round(perf_counter() - run_t0, 6),
        # the time inside the walk's entries; the rest of wall_s is the
        # driver's: marshalling, bail service and the statistics fold
        "walk_s": round(walk_s, 6),
    }
    return machine.stats
