"""Two-tier batched execution engine.

Tier 1 (the **fast path**) never executes guaranteed L1 read hits
individually: :mod:`repro.engine.classify` proves, per phase and with
numpy array passes, which references must hit, and the engine resolves
them in bulk — their cycle cost is closed-form (``compute + l1_hit`` per
reference), their only side effect a hit-counter credit.

Tier 2 (the **slow path**) walks the *residual* references — possible
hits, upgrades and misses — in exactly the interpreter's round-robin
order and feeds them through the unmodified :class:`~repro.core.protocol.
DSMProtocol` machinery (directory, network, page operations).  The
probe/fill/bus micro-steps that the interpreter performs through method
calls are inlined here on the substrate's flat state arrays — the L1 line
lists, the directory's sharer/owner/version columns, the page tables'
mode-code bytearrays and the block caches' frame arrays — and when a
protocol uses the *base* implementations of ``handle_miss`` /
``_local_fill`` / ``note_l1_eviction`` (checked by ``type``, so every
subclass override still goes through its method) their bodies are inlined
as well.  For the plain CC-NUMA service path (``ccnuma``/``perfect`` with
no overrides) the residual lane goes further and inlines the whole
block-cache fetch / remote fetch / NIC contention sequence, so a
miss-dense residual walk performs no Python method dispatch at all; the
semantics are unchanged either way.

Soundness of the classification is argued in :mod:`repro.engine.classify`.
The one runtime hazard is page-operation *shootdowns* (migration,
replication, relocation and collapse flush L1 lines from outside the
reference stream); the engine arms the caches' ``watch`` hooks (and the
mirror-image ``fill_watch`` hooks, which catch out-of-band L1 *fills* by
exotic protocol code) and, when one fires during a protocol call, demotes
every not-yet-consumed fast reference of the flushed cache sets that is
ordered after the current one to the probe class.  Demotion operates on
the :class:`~repro.engine.classify.ResidualSchedule`'s flat
per-processor slot arrays: a first touch that the live cache state
proved fast is re-demoted with an O(1) mask flip (it never left the walk
order), while statically-fast references join per-processor demoted
queues that the walk merges by interleave position — no global re-sort.
Demotions are exact: a demoted reference takes the ordinary probe path,
and fast references ordered *before* the shootdown were unaffected by it
(a fast reference performs no state mutation that later references could
observe).

The engine reproduces the reference interpreter bit for bit — every
counter, stall category, clock and message statistic; the equivalence
regression suite (``tests/test_engine_equivalence.py``) asserts this for
every buildable system.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.core.ccnuma import CCNUMAProtocol
from repro.core.protocol import (
    DSMProtocol,
    _DEPARTED_EVICTED,
    _DEPARTED_INVALIDATED,
)
from repro.engine._guard import engine_run_guard
from repro.engine.classify import CLS_FAST, CLS_PROBE, classify_phase
from repro.interconnect.message import MessageType
from repro.mem.page_table import LOCAL_HOME_CODE, MODES_BY_CODE
from repro.stats.counters import MachineStats
from repro.stats.timing import StallKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.machine import Machine

def run_batched(machine: "Machine", trace) -> MachineStats:
    """Run ``trace`` on ``machine`` with the two-tier batched engine."""
    if any(not hasattr(p.cache, "line_state")
           for p in machine.processors[:trace.num_procs]):
        # the classifier's occupancy argument needs direct-mapped caches;
        # exotic processor caches fall back to the reference interpreter
        from repro.engine.legacy import run_legacy
        return run_legacy(machine, trace)
    costs = machine.cfg.costs
    protocol = machine.protocol
    addr_bpp = machine.addr.blocks_per_page
    directory = machine.directory
    dir_sharers = directory._sharers
    dir_owner = directory._owner
    dir_versions = directory._version
    dir_tracked = directory._tracked
    dir_reserve = directory.reserve
    version_of = directory.version
    node_stats = machine.stats.nodes
    procs = machine.processors
    num_procs = trace.num_procs

    l1_hit_cost = costs.l1_hit
    bus_occ = costs.bus_occupancy
    bus_enabled = machine.cfg.model_contention

    # Engine-side dispatch of the base handle_miss body (mapping fast path
    # + local/remote split).  Only when the protocol has not overridden the
    # corresponding base implementation; bound methods keep polymorphism.
    ptype = type(protocol)
    inline_dispatch = ptype.handle_miss is DSMProtocol.handle_miss
    inline_directory = (
        ptype._directory_read is DSMProtocol._directory_read
        and ptype._directory_write is DSMProtocol._directory_write)
    inline_local = (inline_dispatch and inline_directory
                    and ptype._local_fill is DSMProtocol._local_fill)
    inline_evict = ptype.note_l1_eviction is DSMProtocol.note_l1_eviction
    # The stock write-upgrade service (directory write + control-message
    # round trip) is inlined below; its round-trip contention is exactly
    # the four-point NIC sequence of the remote lane.
    inline_upgrade = (inline_directory
                      and ptype.handle_upgrade is DSMProtocol.handle_upgrade)
    # The plain CC-NUMA remote-page service (block-cache lookup -> remote
    # fetch -> directory update -> fill) is inlined wholesale below; every
    # helper on that path must be the stock implementation, otherwise the
    # subclass's methods are used as usual.
    inline_bc_remote = (
        inline_dispatch
        and inline_directory
        and isinstance(protocol, CCNUMAProtocol)
        and ptype._service_remote_page is CCNUMAProtocol._service_remote_page
        and ptype._block_cache_fetch is CCNUMAProtocol._block_cache_fetch
        and ptype._remote_fetch is DSMProtocol._remote_fetch
        and ptype._remote_fill is DSMProtocol._remote_fill)
    handle_miss = protocol.handle_miss
    handle_upgrade = protocol.handle_upgrade
    note_l1_eviction = protocol.note_l1_eviction
    local_fill = protocol._local_fill
    service_remote = protocol._service_remote_page
    departed = protocol._departed
    local_miss_cost = costs.local_miss
    remote_miss_cost = costs.remote_miss
    inval_cost = costs.invalidation_per_sharer

    vm_home = machine.vm._home
    vm_reserve = machine.vm.reserve
    pt_modes = [pt._modes for pt in machine.page_tables]
    block_caches = machine.block_caches
    bc_caps = [bc.modulus for bc in block_caches]
    bc_blocks = [bc._blocks for bc in block_caches]
    bc_versions = [bc._versions for bc in block_caches]
    bc_dirty = [bc._dirty for bc in block_caches]
    bc_stats_of = [bc.stats for bc in block_caches]
    page_caches = machine.page_caches
    pc_res_of = [pc._resident if pc is not None else None for pc in page_caches]

    # network internals for the inlined remote-fetch lane
    net = machine.network
    net_stats = net.stats
    net_enabled = net.enabled
    net_latency = net.latency
    nic_occ = net.nic_occupancy
    nics = net._nics
    msg_counts = net_stats._counts
    msg_sizes = net_stats._sizes
    _READ_I = MessageType.READ_REQUEST.index
    _WRITE_I = MessageType.WRITE_REQUEST.index
    _DATA_I = MessageType.DATA_REPLY.index
    _WB_I = MessageType.WRITEBACK.index
    _INV_I = MessageType.INVALIDATION.index
    _ACK_I = MessageType.INVALIDATION_ACK.index
    sz_read_pair = msg_sizes[_READ_I] + msg_sizes[_DATA_I]
    sz_write_pair = msg_sizes[_WRITE_I] + msg_sizes[_DATA_I]
    sz_wb = msg_sizes[_WB_I]
    sz_inv_pair = msg_sizes[_INV_I] + msg_sizes[_ACK_I]

    caches = [procs[p].cache for p in range(num_procs)]
    node_of = [procs[p].node_id for p in range(num_procs)]
    line_blocks = []
    line_versions = []
    line_dirty = []
    lines_of = []
    for c in caches:
        blocks_l, versions_l, dirty_l = c.line_state()
        line_blocks.append(blocks_l)
        line_versions.append(versions_l)
        line_dirty.append(dirty_l)
        lines_of.append(c.num_lines)

    # local (flushed-per-phase) bus state, indexed by node id
    buses = [n.bus for n in machine.nodes]
    num_nodes = len(buses)
    bus_free = [b.next_free for b in buses]
    bus_txn = [0] * num_nodes
    bus_wait = [0] * num_nodes

    # shootdown records, filled by engine_run_guard's cache hooks
    events: dict = {}

    clocks = [machine.timing.processors[p].clock for p in range(num_procs)]

    # per-lane profile accumulators
    prof_total = 0
    prof_residual = 0
    prof_demoted = 0
    run_t0 = perf_counter()

    # The guard pauses the cyclic GC for the duration of the run (the
    # engine allocates large bursts of small schedule tuples that survive
    # exactly one phase — the worst case for generational collection;
    # nothing the engine allocates forms cycles, so the pause only defers
    # collection) and arms the shootdown watch hooks, restoring both on
    # exit even when a phase raises.
    with engine_run_guard(caches, events):
        page_tables = machine.page_tables
        for phase in trace.phases:
            blocks_np = phase.blocks    # normalized int64 arrays (PhaseTrace)
            writes_np = phase.writes    # normalized bool arrays (PhaseTrace)
            if len(blocks_np) != num_procs:
                raise ValueError("phase stream count does not match trace.num_procs")
            lengths = [len(seq) for seq in blocks_np]
            compute = phase.compute_per_access
            fast_unit = compute + l1_hit_cost

            # Pre-reserve the directory, page-table and (infinite) block-
            # cache arrays to cover this phase's largest block/page id:
            # within the loop, every stream-derived index is then in range
            # and needs no growth check.  (reserve() is a no-op when
            # already large enough, and growth is in place, so the aliases
            # above stay valid.)
            max_block = -1
            for arr in blocks_np:
                if len(arr):
                    m = int(arr.max())
                    if m > max_block:
                        max_block = m
            if max_block >= 0:
                dir_reserve(max_block + 1)
                for bc in block_caches:
                    bc.reserve(max_block + 1)
                max_page = max_block // addr_bpp
                vm_reserve(max_page + 1)
                for pt_obj in page_tables:
                    pt_obj.reserve(max_page + 1)

            cls, sched = classify_phase(blocks_np, writes_np, caches,
                                        version_of, phase=phase)
            entries = sched.entries
            keys = sched.keys
            n_sched = len(entries)
            status = sched.status
            slot_of = sched.slot_of
            prof_total += sum(lengths)

            ptr = [0] * num_procs            # next own index not yet accounted
            fast_total = [0] * num_procs     # fast references consumed
            hits_rt = [0] * num_procs        # runtime read/owned probe hits
            upg_rt = [0] * num_procs         # runtime shared-write probe hits
            miss_rt = [0] * num_procs
            inval_rt = [0] * num_procs
            evict_rt = [0] * num_procs

            acc_local = [0] * num_procs
            acc_remote = [0] * num_procs
            acc_upgrade = [0] * num_procs
            acc_pageop = [0] * num_procs
            acc_fault = [0] * num_procs
            acc_contention = [0] * num_procs

            # demoted statically-fast references: per-proc parallel queues
            # (own index, block), merged into the walk by interleave key
            q_idx: list = [[] for _ in range(num_procs)]
            q_blk: list = [[] for _ in range(num_procs)]
            q_cur = [0] * num_procs
            # heap of (interleave key, proc) queue heads, invalidated
            # lazily: an entry is live only while it matches the proc's
            # current head, so stale keys pushed before a merge or an
            # earlier consumption simply pop through
            dem_heap: list = []
            k = 0

            def demote_pending(i: int, p: int) -> None:
                """Demote pending fast refs after a page-op L1 shootdown.

                Called only when a ``watch``/``fill_watch`` hook fired
                during a protocol call (rare), so the closure-call cost is
                off the hot path.  Affected processors' fast references
                of the flushed sets ordered after (i, p) become probes
                again: first-touch schedule slots are re-demoted with an
                O(1) status-mask flip (they never left the walk order),
                while statically-fast references join the per-proc
                demoted queues.
                """
                nonlocal prof_demoted
                for p2, flushed in events.items():
                    if p2 >= num_procs:
                        continue
                    bound = i + 1 if p2 <= p else i
                    if bound < ptr[p2]:
                        bound = ptr[p2]
                    seg = cls[p2][bound:]
                    mask = seg == CLS_FAST
                    if flushed is not True:
                        # line-precise: only the flushed sets lose their
                        # occupancy proof
                        seg_lines = (blocks_np[p2][bound:] % lines_of[p2])
                        mask &= np.isin(seg_lines,
                                        np.fromiter(flushed, dtype=np.int64))
                    pend = np.flatnonzero(mask)
                    if not len(pend):
                        continue
                    seg[pend] = CLS_PROBE
                    prof_demoted += len(pend)
                    own = pend.astype(np.int64) + bound
                    slots = slot_of[p2][own]
                    in_sched = slots >= 0
                    st = status[p2]
                    for s2 in slots[in_sched].tolist():
                        st[s2] = 0       # re-demotion: O(1) mask flip
                    fresh = own[~in_sched]
                    if not len(fresh):
                        continue
                    idxs = fresh.tolist()
                    blks = blocks_np[p2][fresh].tolist()
                    c = q_cur[p2]
                    if c < len(q_idx[p2]):
                        # merge with the unconsumed queue tail
                        merged = sorted(zip(q_idx[p2][c:] + idxs,
                                            q_blk[p2][c:] + blks))
                        idxs = [e[0] for e in merged]
                        blks = [e[1] for e in merged]
                    q_idx[p2] = idxs
                    q_blk[p2] = blks
                    q_cur[p2] = 0
                    heappush(dem_heap, (idxs[0] * num_procs + p2, p2))
                events.clear()

            while True:
                nk = -1
                if dem_heap:
                    # validate the heap head (lazily invalidated)
                    while True:
                        nk0, pq = dem_heap[0]
                        c = q_cur[pq]
                        qi = q_idx[pq]
                        if c < len(qi) and qi[c] * num_procs + pq == nk0:
                            nk = nk0
                            break
                        heappop(dem_heap)
                        if not dem_heap:
                            break
                if nk >= 0 and (k >= n_sched or nk < keys[k]):
                    # earliest pending reference is a demoted one
                    heappop(dem_heap)
                    q_cur[pq] = c + 1
                    if c + 1 < len(qi):
                        heappush(dem_heap,
                                 (qi[c + 1] * num_procs + pq, pq))
                    p = pq
                    i = qi[c]
                    block = q_blk[pq][c]
                    probe = True
                    is_write = False
                elif k < n_sched:
                    i, p, probe, block, is_write, slot = entries[k]
                    k += 1
                    if status[p][slot]:
                        continue     # proven-fast first touch: via ptr
                else:
                    break
                prof_residual += 1

                # consume the guaranteed hits since this proc's last residual
                n_fast = i - ptr[p]
                base = clocks[p]
                if n_fast:
                    base += n_fast * fast_unit
                    fast_total[p] += n_fast
                ptr[p] = i + 1
                clock = base + compute
                node = node_of[p]
                cb = line_blocks[p]
                idx = block % lines_of[p]

                if probe and cb[idx] == block:
                    # inlined DirectMappedCache.probe (block is in range:
                    # the phase preamble reserved past the streams' maxima)
                    version = dir_versions[block]
                    cv = line_versions[p]
                    if cv[idx] >= version:
                        if not is_write:
                            hits_rt[p] += 1
                            clocks[p] = clock + l1_hit_cost
                            continue
                        cd = line_dirty[p]
                        if cd[idx]:
                            hits_rt[p] += 1
                            clocks[p] = clock + l1_hit_cost
                            continue
                        # write upgrade: invalidate other sharers
                        upg_rt[p] += 1
                        page = block // addr_bpp
                        if bus_enabled:
                            free = bus_free[node]
                            start = clock if clock >= free else free
                            bus_wait[node] += start - clock
                            bus_free[node] = start + bus_occ
                        else:
                            start = clock
                        bus_txn[node] += 1
                        wait = start - clock
                        if inline_upgrade:
                            # inlined base handle_upgrade: directory write
                            # plus a control round trip when the home is
                            # remote (contention identical to the remote
                            # lane's four NIC serialisation points)
                            node_stats[node].upgrades += 1
                            home = vm_home[page]
                            # inlined _directory_write
                            dir_tracked[block] = 1
                            bit = 1 << node
                            others = dir_sharers[block] & ~bit
                            o = dir_owner[block]
                            if o >= 0 and o != node:
                                directory.writebacks += 1
                            dir_sharers[block] = bit
                            dir_owner[block] = node
                            new_version = dir_versions[block] + 1
                            dir_versions[block] = new_version
                            extra = 0
                            if others:
                                invals = others.bit_count()
                                directory.invalidations_sent += invals
                                extra = invals * inval_cost
                                msg_counts[_INV_I] += invals
                                msg_counts[_ACK_I] += invals
                                net_stats.bytes_total += invals * sz_inv_pair
                                while others:
                                    low = others & -others
                                    others ^= low
                                    departed[low.bit_length() - 1][block] = \
                                        _DEPARTED_INVALIDATED
                            if home < 0 or home == node:
                                latency = local_miss_cost + extra
                            else:
                                msg_counts[_WRITE_I] += 1
                                msg_counts[_DATA_I] += 1
                                net_stats.bytes_total += sz_write_pair
                                req_nic = nics[node]
                                home_nic = nics[home]
                                occ2 = nic_occ + nic_occ
                                if not net_enabled:
                                    req_nic.messages += 2
                                    home_nic.messages += 2
                                    req_nic.busy_cycles += occ2
                                    home_nic.busy_cycles += occ2
                                    contention = 0
                                else:
                                    free = req_nic.next_free
                                    s1 = start if start >= free else free
                                    w1 = s1 - start
                                    req_nic.next_free = s1 + nic_occ
                                    t = s1 + nic_occ + net_latency
                                    free = home_nic.next_free
                                    s2 = t if t >= free else free
                                    w2 = s2 - t
                                    home_nic.next_free = s2 + nic_occ
                                    t2 = s2 + nic_occ
                                    free = home_nic.next_free
                                    s3 = t2 if t2 >= free else free
                                    w3 = s3 - t2
                                    home_nic.next_free = s3 + nic_occ
                                    t3 = s3 + nic_occ + net_latency
                                    free = req_nic.next_free
                                    s4 = t3 if t3 >= free else free
                                    w4 = s4 - t3
                                    req_nic.next_free = s4 + nic_occ
                                    req_nic.messages += 2
                                    home_nic.messages += 2
                                    req_nic.busy_cycles += occ2
                                    home_nic.busy_cycles += occ2
                                    req_nic.wait_cycles += w1 + w4
                                    home_nic.wait_cycles += w2 + w3
                                    contention = w1 + w2 + w3 + w4
                                latency = (remote_miss_cost + contention
                                           + extra)
                        else:
                            latency, new_version = handle_upgrade(
                                node, p, page, block, start)
                        # inlined touch_write (the probed line holds `block`)
                        cd[idx] = True
                        if new_version > cv[idx]:
                            cv[idx] = new_version
                        acc_contention[p] += wait
                        acc_upgrade[p] += latency
                        clocks[p] = clock + wait + latency
                        if events:
                            demote_pending(i, p)
                        continue
                    # stale copy: drop it so the fill below refreshes it
                    cb[idx] = -1
                    line_dirty[p][idx] = False
                    inval_rt[p] += 1

                # miss path (classified miss, absent line, or stale drop)
                miss_rt[p] += 1
                page = block // addr_bpp
                if bus_enabled:
                    free = bus_free[node]
                    start = clock if clock >= free else free
                    bus_wait[node] += start - clock
                    bus_free[node] = start + bus_occ
                else:
                    start = clock
                bus_txn[node] += 1
                wait = start - clock

                # inlined base handle_miss dispatch (mapping fast path)
                if inline_dispatch:
                    home = vm_home[page]
                    mode_c = pt_modes[node][page] if home >= 0 else 0
                    if mode_c == 0:
                        service, pageop, fault, version, remote = handle_miss(
                            node, p, page, block, is_write, start)
                    else:
                        fault = 0
                        if mode_c == LOCAL_HOME_CODE or home == node:
                            # Local fill, inlined (stock protocol) or via
                            # the subclass's method; both continue into the
                            # specialised (no pageop/fault) local tail.
                            if inline_local:
                                # inlined base _local_fill
                                node_stats[node].local_misses += 1
                                if is_write:
                                    # inlined _directory_write
                                    dir_tracked[block] = 1
                                    bit = 1 << node
                                    others = dir_sharers[block] & ~bit
                                    o = dir_owner[block]
                                    if o >= 0 and o != node:
                                        directory.writebacks += 1
                                    dir_sharers[block] = bit
                                    dir_owner[block] = node
                                    version = dir_versions[block] + 1
                                    dir_versions[block] = version
                                    extra = 0
                                    if others:
                                        invals = others.bit_count()
                                        directory.invalidations_sent += invals
                                        extra = invals * inval_cost
                                        msg_counts[_INV_I] += invals
                                        msg_counts[_ACK_I] += invals
                                        net_stats.bytes_total += \
                                            invals * sz_inv_pair
                                        while others:
                                            low = others & -others
                                            others ^= low
                                            departed[low.bit_length() - 1][
                                                block] = _DEPARTED_INVALIDATED
                                    service = local_miss_cost + extra
                                else:
                                    # inlined _directory_read
                                    dir_tracked[block] = 1
                                    dir_sharers[block] |= 1 << node
                                    version = dir_versions[block]
                                    service = local_miss_cost
                            else:
                                service, version = local_fill(
                                    node, block, is_write)
                                if events:
                                    demote_pending(i, p)
                            # inlined fill + eviction notification
                            # NOTE: the eviction block below is a copy of
                            # DSMProtocol.note_l1_eviction — as is its twin
                            # on the general miss path further down; keep
                            # both in sync
                            cv = line_versions[p]
                            cd = line_dirty[p]
                            old = cb[idx]
                            cb[idx] = block
                            if old >= 0 and old != block:
                                victim_dirty = cd[idx]
                                evict_rt[p] += 1
                                cv[idx] = version
                                cd[idx] = is_write
                                if inline_evict:
                                    if (bc_blocks[node][old % bc_caps[node]]
                                            != old):
                                        pcp = pc_res_of[node]
                                        vpage = old // addr_bpp
                                        if (pcp is None
                                                or vpage >= len(pcp)
                                                or not pcp[vpage]):
                                            vh = (vm_home[vpage]
                                                  if vpage < len(vm_home)
                                                  else -1)
                                            if vh >= 0 and vh != node:
                                                departed[node][old] = \
                                                    _DEPARTED_EVICTED
                                else:
                                    note_l1_eviction(node, old, victim_dirty)
                            else:
                                cv[idx] = version
                                cd[idx] = is_write
                            acc_contention[p] += wait
                            acc_local[p] += service
                            clocks[p] = clock + wait + service
                            continue
                        elif inline_bc_remote:
                            # ---- fully inlined CC-NUMA remote lane ----
                            # (_block_cache_fetch + _remote_fetch +
                            # Network.fetch_contention on flat arrays; see
                            # their docstrings for the semantics)
                            pageop = 0
                            version = dir_versions[block]
                            bcs = bc_stats_of[node]
                            hit = False
                            bidx = block % bc_caps[node]
                            bb = bc_blocks[node]
                            bv = bc_versions[node]
                            bd = bc_dirty[node]
                            if bb[bidx] == block:
                                if bv[bidx] >= version:
                                    hit = True
                                else:
                                    bb[bidx] = -1
                                    bd[bidx] = False
                                    bcs.invalidations += 1
                            if hit:
                                bcs.hits += 1
                                node_stats[node].block_cache_hits += 1
                                remote = False
                                if is_write:
                                    # inlined _directory_write
                                    dir_tracked[block] = 1
                                    bit = 1 << node
                                    others = dir_sharers[block] & ~bit
                                    o = dir_owner[block]
                                    if o >= 0 and o != node:
                                        directory.writebacks += 1
                                    dir_sharers[block] = bit
                                    dir_owner[block] = node
                                    version = dir_versions[block] + 1
                                    dir_versions[block] = version
                                    extra = 0
                                    if others:
                                        invals = others.bit_count()
                                        directory.invalidations_sent += invals
                                        extra = invals * inval_cost
                                        msg_counts[_INV_I] += invals
                                        msg_counts[_ACK_I] += invals
                                        net_stats.bytes_total += \
                                            invals * sz_inv_pair
                                        while others:
                                            low = others & -others
                                            others ^= low
                                            departed[low.bit_length() - 1][
                                                block] = _DEPARTED_INVALIDATED
                                    if version > bv[bidx]:
                                        bv[bidx] = version
                                    bd[bidx] = True
                                    service = local_miss_cost + extra
                                else:
                                    service = local_miss_cost
                            else:
                                bcs.misses += 1
                                remote = True
                                # miss classification (reason doubles as
                                # the MissClass counter index)
                                ns = node_stats[node]
                                # read+clear the departure byte (block is
                                # covered by the pre-phase dir reserve)
                                dep = departed[node]
                                reason = dep[block]
                                if reason:
                                    dep[block] = 0
                                ns.remote_misses += 1
                                ns.remote_by_cause[reason] += 1
                                # request/reply traffic + NIC contention
                                if is_write:
                                    msg_counts[_WRITE_I] += 1
                                    msg_counts[_DATA_I] += 1
                                    net_stats.bytes_total += sz_write_pair
                                else:
                                    msg_counts[_READ_I] += 1
                                    msg_counts[_DATA_I] += 1
                                    net_stats.bytes_total += sz_read_pair
                                req_nic = nics[node]
                                home_nic = nics[home]
                                occ2 = nic_occ + nic_occ
                                if not net_enabled:
                                    req_nic.messages += 2
                                    home_nic.messages += 2
                                    req_nic.busy_cycles += occ2
                                    home_nic.busy_cycles += occ2
                                    contention = 0
                                else:
                                    free = req_nic.next_free
                                    s1 = start if start >= free else free
                                    w1 = s1 - start
                                    req_nic.next_free = s1 + nic_occ
                                    t = s1 + nic_occ + net_latency
                                    free = home_nic.next_free
                                    s2 = t if t >= free else free
                                    w2 = s2 - t
                                    home_nic.next_free = s2 + nic_occ
                                    t2 = s2 + nic_occ
                                    free = home_nic.next_free
                                    s3 = t2 if t2 >= free else free
                                    w3 = s3 - t2
                                    home_nic.next_free = s3 + nic_occ
                                    t3 = s3 + nic_occ + net_latency
                                    free = req_nic.next_free
                                    s4 = t3 if t3 >= free else free
                                    w4 = s4 - t3
                                    req_nic.next_free = s4 + nic_occ
                                    req_nic.messages += 2
                                    home_nic.messages += 2
                                    req_nic.busy_cycles += occ2
                                    home_nic.busy_cycles += occ2
                                    req_nic.wait_cycles += w1 + w4
                                    home_nic.wait_cycles += w2 + w3
                                    contention = w1 + w2 + w3 + w4
                                # directory side of the fill
                                if is_write:
                                    # inlined _directory_write
                                    dir_tracked[block] = 1
                                    bit = 1 << node
                                    others = dir_sharers[block] & ~bit
                                    o = dir_owner[block]
                                    if o >= 0 and o != node:
                                        directory.writebacks += 1
                                    dir_sharers[block] = bit
                                    dir_owner[block] = node
                                    version = dir_versions[block] + 1
                                    dir_versions[block] = version
                                    extra = 0
                                    if others:
                                        invals = others.bit_count()
                                        directory.invalidations_sent += invals
                                        extra = invals * inval_cost
                                        msg_counts[_INV_I] += invals
                                        msg_counts[_ACK_I] += invals
                                        net_stats.bytes_total += \
                                            invals * sz_inv_pair
                                        dep2 = departed
                                        while others:
                                            low = others & -others
                                            others ^= low
                                            dep2[low.bit_length() - 1][
                                                block] = _DEPARTED_INVALIDATED
                                else:
                                    # inlined _directory_read
                                    dir_tracked[block] = 1
                                    dir_sharers[block] |= 1 << node
                                    version = dir_versions[block]
                                    extra = 0
                                service = remote_miss_cost + contention + extra
                                # inlined BlockCache.fill
                                old = bb[bidx]
                                old_dirty = bd[bidx]
                                bb[bidx] = block
                                bv[bidx] = version
                                bd[bidx] = is_write
                                if old >= 0 and old != block:
                                    bcs.evictions += 1
                                    departed[node][old] = _DEPARTED_EVICTED
                                    if (old < len(dir_sharers)
                                            and dir_tracked[old]):
                                        dir_sharers[old] &= ~(1 << node)
                                        if dir_owner[old] == node:
                                            dir_owner[old] = -1
                                            directory.writebacks += 1
                                    if old_dirty:
                                        vpage = old // addr_bpp
                                        vh = (vm_home[vpage]
                                              if vpage < len(vm_home)
                                              else -1)
                                        if vh >= 0 and vh != node:
                                            msg_counts[_WB_I] += 1
                                            net_stats.bytes_total += sz_wb
                        else:
                            service, pageop, version, remote = service_remote(
                                node, p, page, block, is_write, start,
                                home, MODES_BY_CODE[mode_c])
                else:
                    service, pageop, fault, version, remote = handle_miss(
                        node, p, page, block, is_write, start)

                if events:
                    # a page operation flushed L1 lines: demote the affected
                    # procs' pending fast refs ordered after (i, p)
                    demote_pending(i, p)

                # inlined DirectMappedCache.fill + eviction notification
                cv = line_versions[p]
                cd = line_dirty[p]
                old = cb[idx]
                if old >= 0 and old != block:
                    victim_dirty = cd[idx]
                    evict_rt[p] += 1
                    cb[idx] = block
                    cv[idx] = version
                    cd[idx] = is_write
                    if inline_evict:
                        # inlined base note_l1_eviction (deliberate copy —
                        # a helper call costs ~10% of the miss path; its
                        # twin lives on the local-fill path above; keep
                        # both in sync with DSMProtocol.note_l1_eviction)
                        if bc_blocks[node][old % bc_caps[node]] != old:
                            pcp = pc_res_of[node]
                            vpage = old // addr_bpp
                            if (pcp is None or vpage >= len(pcp)
                                    or not pcp[vpage]):
                                vh = (vm_home[vpage]
                                      if vpage < len(vm_home) else -1)
                                if vh >= 0 and vh != node:
                                    departed[node][old] = _DEPARTED_EVICTED
                    else:
                        note_l1_eviction(node, old, victim_dirty)
                else:
                    cb[idx] = block
                    cv[idx] = version
                    cd[idx] = is_write

                acc_contention[p] += wait
                if remote:
                    acc_remote[p] += service
                else:
                    acc_local[p] += service
                acc_pageop[p] += pageop
                acc_fault[p] += fault
                clocks[p] = clock + wait + service + pageop + fault

            # consume the trailing guaranteed hits of every processor
            for p in range(num_procs):
                tail = lengths[p] - ptr[p]
                if tail:
                    clocks[p] += tail * fast_unit
                    fast_total[p] += tail
                ptr[p] = lengths[p]

            # flush per-phase accumulators into the timing/statistics objects
            for p in range(num_procs):
                n_hits = fast_total[p] + hits_rt[p]
                pt = machine.timing.processors[p]
                pt.advance(StallKind.COMPUTE, compute * lengths[p])
                pt.advance(StallKind.L1_HIT, l1_hit_cost * n_hits)
                pt.advance(StallKind.LOCAL_MISS, acc_local[p])
                pt.advance(StallKind.REMOTE_MISS, acc_remote[p])
                pt.advance(StallKind.UPGRADE, acc_upgrade[p])
                pt.advance(StallKind.PAGE_OP, acc_pageop[p])
                pt.advance(StallKind.MAPPING_FAULT, acc_fault[p])
                pt.advance(StallKind.CONTENTION, acc_contention[p])
                ns = node_stats[node_of[p]]
                ns.accesses += lengths[p]
                ns.l1_hits += n_hits
                caches[p].credit_batch(hits=n_hits + upg_rt[p],
                                       misses=miss_rt[p],
                                       evictions=evict_rt[p],
                                       invalidations=inval_rt[p])

            # flush the local bus state (busy cycles are txns * occupancy,
            # so they need no per-transaction accumulation in the loop)
            for n in range(num_nodes):
                b = buses[n]
                b.next_free = bus_free[n]
                b.transactions += bus_txn[n]
                b.busy_cycles += bus_txn[n] * bus_occ
                b.wait_cycles += bus_wait[n]
                bus_txn[n] = 0
                bus_wait[n] = 0

            # barrier at the end of the phase
            post_barrier = machine.timing.barrier(costs.barrier_cost)
            clocks = [post_barrier] * num_procs
            machine.stats.barrier_count += 1

    # final bookkeeping
    machine.stats.execution_time = machine.timing.max_clock()
    machine.stats.proc_finish_times = [
        machine.timing.processors[p].clock for p in range(num_procs)
    ]
    machine.stats.network_messages = machine.network.total_messages()
    machine.stats.network_bytes = machine.network.total_bytes()
    machine.stats.message_stats = machine.network.stats
    machine.stats.stall_breakdown = dict(machine.timing.aggregate_stalls())
    machine.stats.engine_profile = {
        "engine": "batched",
        "references": prof_total,
        "fast": prof_total - prof_residual,
        "demoted": prof_demoted,
        "residual": prof_residual,
        "phases": len(trace.phases),
        "wall_s": round(perf_counter() - run_t0, 6),
    }
    return machine.stats
