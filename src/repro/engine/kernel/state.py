"""State marshalling between the simulator's stores and the kernel walk.

The compiled kernel walks every phase's reference streams (see
:func:`schedule_arrays`) against flat integer arrays, in one entry per
segment of phases plus one per bail; a segment is the whole run unless
its streams exceed :data:`repro.engine.kernel.SEGMENT_BYTES`.  This
module builds those arrays — **views, not copies** — over
the simulator's live buffer-backed stores (the directory columns, the
page map, the page tables' mode bytes, the block-cache frames, the L1
line stores and the MigRep counter columns), together with the small
engine-owned arrays the walk scribbles its bookkeeping into (per-proc
accumulators, per-node bus/NIC/statistics mirrors, the bail "out"
record).

Marshalling contract
--------------------
* **Shared stores are zero-copy.**  Every store view is an
  ``np.frombuffer`` over the owning object's ``array``/``bytearray``
  buffer, so a write on either side is immediately visible to the other.
  While the views exist the buffers are *export-locked*: any in-place
  growth would raise ``BufferError`` instead of silently leaving the
  kernel with dangling pointers.  :meth:`KernelState.reserve` therefore
  pre-reserves every store past the segment's maxima (whole pages,
  since a page operation, in the walk or in a bail, touches every block
  of its page) *before* the views are taken, and the views stay for the
  whole segment.  The walk's bound runner (:meth:`KernelState.bind_walk`)
  pins the views too, so it lives on the state and :meth:`release`
  drops it with them before the next segment's reserve.
* **Python-object state is mirrored as deltas.**  Counters that live in
  plain Python attributes (``NodeStats`` fields, cache statistics, the
  directory's scalar counters, message counts, and what the walk's own
  page operations count: the engines' per-node lists, the fault logs,
  page-cache allocations and the VM's totals) accumulate in int64 delta
  arrays that :meth:`flush` folds into the owning objects at the end of
  the run.  Bail-time protocol code only ever *increments* these
  counters, and addition commutes — so the deltas can stay parked
  across bails and phase barriers without any observable difference.
  Everything else a page operation writes (VM columns, page-table rows,
  page-cache residency and occupancy) is a shared store, so the walk
  writes it in place and nothing is replayed afterwards.
* **Serialising resources are mirrored as absolutes.**  NIC and bus
  ``next_free`` times are copied in at run start
  (:meth:`load_absolutes`) and written back by ``flush``.  NICs are the
  one mirror bail-time protocol code *reads and advances* (network
  contention), so :meth:`sync_nics_out` writes them through before each
  bail and :meth:`load_nics` re-reads them after; buses are untouched by
  protocol code and stay in the mirror for the whole run.

This module is the single source of the kernel's memory layout: the
index constants (``CON_*``, ``FCON_*``, ``PP_*``, ``NN_*``, ``MUT_*``,
``OUT_*``) and return codes (``RC_*``) collected in :data:`LAYOUT`, which
:mod:`repro.engine.kernel.cbuild` emits as ``#define`` s ahead of
``cwalk.c`` at build time.  It also decides which decision lane the walk
runs: :func:`lower_policy` turns each stock policy, by exact type, into
the integer thresholds or hysteresis parameters the walk tests, and the
hysteresis policies' dense score columns are views like any other store.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.decisions import (
    CompetitiveMigRepPolicy,
    CompetitiveRelocationPolicy,
    CostModelMigRepPolicy,
    CostModelRelocationPolicy,
    HysteresisMigRepPolicy,
    HysteresisRelocationPolicy,
    MigRepPolicy,
    RNUMAPolicy,
)
from repro.interconnect.message import MessageType
from repro.kernel.faults import FaultKind
from repro.mem.page_table import MODE_CODES, PageMode

# ---------------------------------------------------------------------------
# layout constants (emitted as cwalk.c's #defines, see LAYOUT)
# ---------------------------------------------------------------------------

#: CON — immutable run constants (int64).  The threshold lanes test
#: ``count > CON_MR_REP_THRESHOLD`` / ``CON_MR_MIG_THRESHOLD`` /
#: ``CON_RN_THRESHOLD`` (see :func:`lower_policy`).  ``CON_IDLE_CLOCK``
#: is the largest clock at run start of the processors without a stream,
#: which take part in every phase barrier.
(CON_NUM_PROCS, CON_NUM_NODES, CON_BPP, CON_NUM_PHASES, CON_L1_HIT,
 CON_IDLE_CLOCK, CON_BUS_OCC, CON_BUS_ENABLED, CON_LOCAL_MISS,
 CON_REMOTE_MISS, CON_INVAL_COST, CON_NET_ENABLED, CON_NET_LATENCY,
 CON_NIC_OCC, CON_SZ_READ_PAIR, CON_SZ_WRITE_PAIR, CON_SZ_WB,
 CON_SZ_INV_PAIR, CON_MSG_READ, CON_MSG_WRITE, CON_MSG_DATA, CON_MSG_WB,
 CON_MSG_INV, CON_MSG_ACK, CON_HAS_MIGREP, CON_MR_REP_THRESHOLD,
 CON_MR_MIG_THRESHOLD, CON_MR_MIN_SAMPLES, CON_MR_MIG,
 CON_MR_REP, CON_MR_RESET, CON_DIR_CAP, CON_VM_LEN,
 CON_BC_CAP, CON_NUM_LINES, CON_MODE_REPLICA, CON_MODE_LOCAL_HOME,
 CON_DEP_EVICTED, CON_DEP_INVALIDATED, CON_SOFT_TRAP, CON_MSG_MAP_REQ,
 CON_MSG_MAP_REPLY, CON_SZ_MAP_PAIR, CON_MODE_CCNUMA_REMOTE,
 CON_FIRST_TOUCH, CON_HAS_RNUMA, CON_RN_STATIC, CON_RN_THRESHOLD,
 CON_RN_DELAY, CON_RN_HYST, CON_HAS_PAGECACHE, CON_SCOMA_ALLOC,
 CON_HYBRID, CON_MR_STATIC, CON_BC_PENALTY, CON_MR_HYST, CON_MODE_SCOMA,
 CON_TLB_SHOOTDOWN, CON_COPY_PAGE, CON_MSG_FLUSH_REQ, CON_MSG_FLUSH_DONE,
 CON_MSG_PAGE_DATA, CON_SZ_FLUSH_REQ, CON_SZ_FLUSH_DONE,
 CON_SZ_PAGE_DATA, CON_BARRIER_COST) = range(66)
CON_SIZE = 66

#: FCON — float64 run constants (the int64 ``con`` array cannot carry
#: the hysteresis policies' fractional thresholds and decay factors).
(FCON_HY_THRESHOLD, FCON_HY_DECAY, FCON_RN_HY_THRESHOLD,
 FCON_RN_HY_DECAY) = range(4)
FCON_SIZE = 4

#: PP — per-processor bookkeeping rows of the flat ``pp`` array
#: (``pp[row * num_procs + p]``): run totals of the L1 counts and of
#: each stall kind (``PP_ACC_*``), the clock and the node.
(PP_HITS, PP_UPG, PP_MISS, PP_INVAL, PP_EVICT, PP_ACC_COMPUTE,
 PP_ACC_LOCAL, PP_ACC_REMOTE, PP_ACC_UPGRADE, PP_ACC_PAGEOP, PP_ACC_FAULT,
 PP_ACC_CONT, PP_ACC_BARRIER, PP_CLOCK, PP_NODE) = range(15)
PP_ROWS = 15

#: NN — per-node mirror rows of the flat ``nn`` array
#: (``nn[row * num_nodes + n]``).  ``*_FREE`` rows are absolute times;
#: every other row is a delta folded into its owner by ``flush``.  The
#: page-operation rows count the relocations, replications and
#: migrations the walk performed for a node and sum their cycles.
(NN_BUS_FREE, NN_BUS_TXN, NN_BUS_WAIT, NN_NIC_FREE, NN_NIC_MSGS,
 NN_NIC_BUSY, NN_NIC_WAIT, NN_NS_LOCAL, NN_NS_REMOTE, NN_NS_UPGRADES,
 NN_NS_BCHITS, NN_NS_CAUSE0, NN_NS_CAUSE1, NN_NS_CAUSE2, NN_BCS_HITS,
 NN_BCS_MISSES, NN_BCS_INVAL, NN_BCS_EVICT, NN_MAPFAULT, NN_NS_PCHITS,
 NN_PCS_HITS, NN_PCS_MISSES, NN_PCS_FILLS, NN_PCS_INVAL,
 NN_RF_TOTAL, NN_RELOCATIONS, NN_RELOCATION_CYC, NN_REPLICATIONS,
 NN_REPLICATION_CYC, NN_MIGRATIONS, NN_MIGRATION_CYC) = range(31)
NN_ROWS = 31

#: MUT — mutable walk scalars surviving across bails; ``MUT_PHASE`` is
#: the phase cursor and ``MUT_K`` the interleave cursor
#: ``i * num_procs + p`` within that phase.
(MUT_PHASE, MUT_K, MUT_BYTES, MUT_DIR_INV, MUT_DIR_WB, MUT_CTR_RESETS,
 MUT_FIRST_TOUCHES) = range(7)
MUT_SIZE = 7

#: OUT — the bail record the walk fills before returning.
(OUT_KIND, OUT_P, OUT_BLOCK, OUT_PAGE, OUT_WRITE, OUT_START,
 OUT_WAIT, OUT_CLOCK, OUT_HOME, OUT_MODE, OUT_SERVICE,
 OUT_VERSION, OUT_FAULT, OUT_EVAL) = range(14)
OUT_SIZE = 14

#: Walk return codes.
RC_DONE = 0            #: every phase walked
RC_BAIL_FAULT = 1      #: mapping fault — execute via ``handle_miss``
RC_BAIL_COLLAPSE = 2   #: write to a replicated page — via ``_service_remote_page``
RC_BAIL_MIGRATE = 3    #: fired migration of a replicated page (``vm.migrate`` raises)
RC_BAIL_RELOCATE = 4   #: fired relocation on a full page cache (needs an eviction)
RC_BAIL_DECIDE = 5     #: evaluation of a policy the walk does not know (``OUT_EVAL`` mask)
RC_BAIL_PAGECACHE = 6  #: S-COMA first-touch allocation — via ``_service_remote_page``

#: Every layout constant by name: the C walk's ``#define`` s.
LAYOUT = {name: value for name, value in sorted(globals().items())
          if name.startswith(("CON_", "FCON_", "PP_", "NN_", "MUT_", "OUT_",
                              "RC_"))}


def _i64(buf) -> np.ndarray:
    """Writable int64 view of a buffer-backed store (zero-copy)."""
    return np.frombuffer(buf, dtype=np.int64)


def _u8(buf) -> np.ndarray:
    """Writable uint8 view of a ``bytearray``-backed store (zero-copy)."""
    return np.frombuffer(buf, dtype=np.uint8)


def _f64(buf) -> np.ndarray:
    """Writable float64 view of a buffer-backed store (zero-copy)."""
    return np.frombuffer(buf, dtype=np.float64)


#: the int64 maximum: a threshold lowered past it never fires
INT64_MAX = 2 ** 63 - 1


def _limit(value, per: int = 1) -> int:
    """The ``L`` with ``x * per > value`` iff ``x > L`` for every integer
    ``x`` (``per`` a positive integer): ``floor(value / per)``, taken
    exactly as ``floor(value) // per`` (a float division could round up
    to the next integer) and clamped to :data:`INT64_MAX`.  A non-finite
    float compares false with every count, so it lowers to the clamp."""
    if isinstance(value, float) and not math.isfinite(value):
        return INT64_MAX
    return min(math.floor(value) // per, INT64_MAX)


def lower_policy(policy):
    """The walk's lane for a stock decision policy, keyed by exact type.

    A subclass may override its rule, so only the stock classes
    themselves lower; ``None`` means the walk does not know the policy
    and bails ``decide`` at each of its evaluations.  The stateless
    rules lower to ``("threshold", limits)``, integer limits the walk
    tests with a strict ``>``.  A MigRep rule gives ``(R, M, S)``:
    replicate when the page has no remote write misses and
    ``reads[requester] > R``, migrate when ``requester - home > M``
    (total misses), either only when the page's misses over all nodes
    number at least ``S``.  An R-NUMA rule gives ``(A,)``: relocate when
    ``refetches > A``, behind the policy's ``relocation_delay`` gate.
    The hysteresis policies lower to ``("hysteresis", (threshold,
    decay))``: the walk transcribes their ``evaluate`` /
    ``should_relocate`` over their dense score columns.
    """
    ptype = type(policy)
    if ptype is MigRepPolicy:
        limit = _limit(policy.threshold)
        return "threshold", (limit, limit, 0)
    if ptype is CompetitiveMigRepPolicy:
        # its tests are >=
        return "threshold", (_limit(policy.replication_threshold - 1),
                             _limit(policy.migration_threshold - 1), 0)
    if ptype is CostModelMigRepPolicy:
        # ``count * benefit > margin * cost``, the product as Python forms it
        benefit = policy.miss_benefit
        return "threshold", (
            _limit(policy.margin * policy.replication_cost, benefit),
            _limit(policy.margin * policy.migration_cost, benefit),
            min(policy.min_samples, INT64_MAX))
    if ptype is RNUMAPolicy:
        return "threshold", (_limit(policy.threshold),)
    if ptype is CompetitiveRelocationPolicy:
        return "threshold", (_limit(policy.threshold - 1),)
    if ptype is CostModelRelocationPolicy:
        return "threshold", (max(
            _limit(policy.min_samples - 1),
            _limit(policy.margin * policy.relocation_cost,
                   policy.miss_benefit)),)
    if ptype is HysteresisMigRepPolicy or ptype is HysteresisRelocationPolicy:
        return "hysteresis", (policy.threshold, policy.decay)
    return None


def schedule_arrays(phase):
    """One phase's walk columns: ``(blocks, writes)``, one array per proc.

    The driver calls it for every phase of a run and concatenates the
    columns into the walk's phase-major tables.

    Zero-copy for every :class:`~repro.workloads.trace.PhaseTrace`, whose
    streams are C-contiguous int64 block ids and bool write flags: the
    blocks are the phase's own arrays and the flags are viewed as uint8,
    so a phase of an ``.rpt`` file is walked straight off its mmap.
    """
    blocks = [np.ascontiguousarray(b, dtype=np.int64) for b in phase.blocks]
    writes = [np.ascontiguousarray(w, dtype=np.bool_).view(np.uint8)
              for w in phase.writes]
    return blocks, writes


class KernelState:
    """One run's marshalled state: store views and mirrors.

    The views are taken once per segment of phases (the whole run,
    unless its streams are long), after :meth:`reserve` has grown every
    store for the segment, and they hold the stores' export locks until
    :meth:`release` drops them together with the bound :attr:`runner`.
    The mirrors stay for the whole run.
    """

    def __init__(self, machine, num_procs, caches, node_of):
        self.machine = machine
        self.num_procs = num_procs
        self.num_nodes = len(machine.nodes)
        self.caches = caches
        cfg = machine.cfg
        costs = cfg.costs
        net = machine.network
        sizes = net.stats._sizes
        protocol = machine.protocol

        con = np.zeros(CON_SIZE, dtype=np.int64)
        con[CON_NUM_PROCS] = num_procs
        con[CON_NUM_NODES] = self.num_nodes
        con[CON_BPP] = machine.addr.blocks_per_page
        con[CON_L1_HIT] = costs.l1_hit
        con[CON_BUS_OCC] = costs.bus_occupancy
        con[CON_BUS_ENABLED] = int(cfg.model_contention)
        con[CON_LOCAL_MISS] = costs.local_miss
        con[CON_REMOTE_MISS] = costs.remote_miss
        con[CON_INVAL_COST] = costs.invalidation_per_sharer
        con[CON_BARRIER_COST] = costs.barrier_cost
        # clocks are non-negative, so 0 stands in when every processor
        # has a stream
        con[CON_IDLE_CLOCK] = max(
            (pt.clock for pt in machine.timing.processors[num_procs:]),
            default=0)
        con[CON_NET_ENABLED] = int(net.enabled)
        con[CON_NET_LATENCY] = net.latency
        con[CON_NIC_OCC] = net.nic_occupancy
        ri = MessageType.READ_REQUEST.index
        wi = MessageType.WRITE_REQUEST.index
        di = MessageType.DATA_REPLY.index
        bi = MessageType.WRITEBACK.index
        ii = MessageType.INVALIDATION.index
        ai = MessageType.INVALIDATION_ACK.index
        con[CON_SZ_READ_PAIR] = sizes[ri] + sizes[di]
        con[CON_SZ_WRITE_PAIR] = sizes[wi] + sizes[di]
        con[CON_SZ_WB] = sizes[bi]
        con[CON_SZ_INV_PAIR] = sizes[ii] + sizes[ai]
        con[CON_MSG_READ] = ri
        con[CON_MSG_WRITE] = wi
        con[CON_MSG_DATA] = di
        con[CON_MSG_WB] = bi
        con[CON_MSG_INV] = ii
        con[CON_MSG_ACK] = ai
        # an infinite cache's modulus exceeds every block id, so the
        # direct-mapped lane indexes its frames by block id
        con[CON_BC_CAP] = machine.block_caches[0].modulus
        con[CON_NUM_LINES] = caches[0].num_lines
        con[CON_MODE_REPLICA] = MODE_CODES[PageMode.REPLICA]
        con[CON_MODE_LOCAL_HOME] = MODE_CODES[PageMode.LOCAL_HOME]
        con[CON_MODE_CCNUMA_REMOTE] = MODE_CODES[PageMode.CCNUMA_REMOTE]
        from repro.core.protocol import (
            _DEPARTED_EVICTED, _DEPARTED_INVALIDATED)
        con[CON_DEP_EVICTED] = _DEPARTED_EVICTED
        con[CON_DEP_INVALIDATED] = _DEPARTED_INVALIDATED
        con[CON_SOFT_TRAP] = costs.soft_trap
        con[CON_MODE_SCOMA] = MODE_CODES[PageMode.SCOMA]
        # page-operation costs: the fixed parts here, the flushed-block
        # interpolations as exact per-count tables (the walk never
        # rounds a float)
        bpp = machine.addr.blocks_per_page
        con[CON_TLB_SHOOTDOWN] = costs.tlb_shootdown
        con[CON_COPY_PAGE] = costs.copy_cost(bpp, bpp)
        self.alloc_cost = np.array(
            [costs.page_alloc_cost(n, bpp) for n in range(bpp + 1)],
            dtype=np.int64)
        self.gather_cost = np.array(
            [costs.gather_cost(n, bpp) for n in range(bpp + 1)],
            dtype=np.int64)
        for con_i, con_sz, mtype in (
                (CON_MSG_FLUSH_REQ, CON_SZ_FLUSH_REQ,
                 MessageType.PAGE_FLUSH_REQUEST),
                (CON_MSG_FLUSH_DONE, CON_SZ_FLUSH_DONE,
                 MessageType.PAGE_FLUSH_DONE),
                (CON_MSG_PAGE_DATA, CON_SZ_PAGE_DATA, MessageType.PAGE_DATA)):
            con[con_i] = mtype.index
            con[con_sz] = sizes[mtype.index]
        mri = MessageType.PAGE_MAP_REQUEST.index
        mpi = MessageType.PAGE_MAP_REPLY.index
        con[CON_MSG_MAP_REQ] = mri
        con[CON_MSG_MAP_REPLY] = mpi
        con[CON_SZ_MAP_PAIR] = sizes[mri] + sizes[mpi]
        # first-touch placement can run inside the walk; any configured
        # placement policy is Python code, so those faults bail instead
        con[CON_FIRST_TOUCH] = int(machine.vm._placement is None)
        # exact-type protocol dispatch (kernel_eligibility admitted the
        # type, so this enumeration is exhaustive); the hybrid keeps its
        # MigRep half under different attribute names than plain MigRep
        from repro.core.dram_cache import DRAMBlockCacheProtocol
        from repro.core.migrep import MigRepProtocol
        from repro.core.rnuma import RNUMAProtocol
        from repro.core.rnuma_migrep import RNUMAMigRepProtocol
        from repro.core.scoma import SCOMAProtocol
        ptype = type(protocol)
        counters = None
        mr_policy = None
        #: the engines whose per-node operation counters the walk's
        #: page operations feed
        self.migration_engine = self.relocation_engine = None
        if ptype is MigRepProtocol:
            counters = protocol.counters
            mr_policy = protocol.policy
            self.migration_engine = protocol.engine
        elif ptype is RNUMAMigRepProtocol:
            counters = protocol.migrep_counters
            mr_policy = protocol.migrep_policy
            self.migration_engine = protocol.migration_engine
            con[CON_HYBRID] = 1
        fcon = self.fcon = np.zeros(FCON_SIZE, dtype=np.float64)
        # a policy the walk knows is evaluated in it (see lower_policy);
        # any other one leaves its lane flag at 0 and bails ``decide``
        self.hy_policy = self.rn_hy_policy = None
        if counters is not None:
            con[CON_HAS_MIGREP] = 1
            con[CON_MR_RESET] = counters.reset_interval
            lowered = lower_policy(mr_policy)
            if lowered is not None:
                lane, params = lowered
                con[CON_MR_MIG] = int(mr_policy.enable_migration)
                con[CON_MR_REP] = int(mr_policy.enable_replication)
                if lane == "threshold":
                    con[CON_MR_STATIC] = 1
                    (con[CON_MR_REP_THRESHOLD], con[CON_MR_MIG_THRESHOLD],
                     con[CON_MR_MIN_SAMPLES]) = params
                else:
                    con[CON_MR_HYST] = 1
                    fcon[FCON_HY_THRESHOLD], fcon[FCON_HY_DECAY] = params
                    self.hy_policy = mr_policy
        self.rnuma = protocol if isinstance(protocol, RNUMAProtocol) else None
        # per-node page-cache capacity, -1 when unbounded: the walk
        # relocates only into a cache with a free frame
        self.pc_cap = np.array(
            [-1 if pc is None or pc.capacity_pages is None
             else pc.capacity_pages for pc in machine.page_caches],
            dtype=np.int64)
        if self.rnuma is not None:
            # eligibility requires a page cache on every node here
            self.relocation_engine = protocol.engine
            con[CON_HAS_PAGECACHE] = 1
            if ptype is SCOMAProtocol:
                con[CON_SCOMA_ALLOC] = 1
            else:
                con[CON_HAS_RNUMA] = 1
                rn_policy = protocol.policy
                lowered = lower_policy(rn_policy)
                if lowered is not None:
                    lane, params = lowered
                    con[CON_RN_DELAY] = rn_policy.relocation_delay
                    if lane == "threshold":
                        con[CON_RN_STATIC] = 1
                        (con[CON_RN_THRESHOLD],) = params
                    else:
                        con[CON_RN_HYST] = 1
                        (fcon[FCON_RN_HY_THRESHOLD],
                         fcon[FCON_RN_HY_DECAY]) = params
                        self.rn_hy_policy = rn_policy
        elif ptype is DRAMBlockCacheProtocol:
            con[CON_BC_PENALTY] = protocol.hit_penalty
        self.con = con
        self.counters = counters

        self.mut = np.zeros(MUT_SIZE, dtype=np.int64)
        self.pp = np.zeros(PP_ROWS * num_procs, dtype=np.int64)
        self.pp[PP_NODE * num_procs:(PP_NODE + 1) * num_procs] = node_of
        self.nn = np.zeros(NN_ROWS * self.num_nodes, dtype=np.int64)
        self.msg_delta = np.zeros(len(net.stats._counts), dtype=np.int64)
        self.out = np.zeros(OUT_SIZE, dtype=np.int64)

        # store views — taken once per segment (see marshal_phase) — and
        # the backend runner bound over them (see bind_walk)
        self.runner = None

    # -- store views ----------------------------------------------------------

    def reserve(self, max_block: int) -> None:
        """Pre-reserve every growable store past a segment's maxima.

        Reservation covers *whole pages* (``(max_page + 1) * bpp``
        blocks): a page operation touches every block of its page, and
        nothing a segment can do reaches beyond its pages — so no
        in-place growth can happen while the views below hold the
        buffers' export locks.
        """
        if max_block < 0:
            return
        machine = self.machine
        bpp = int(self.con[CON_BPP])
        max_page = max_block // bpp
        machine.directory.reserve((max_page + 1) * bpp)
        for bc in machine.block_caches:
            bc.reserve((max_page + 1) * bpp)
        machine.vm.reserve(max_page + 1)
        for pt in machine.page_tables:
            pt.reserve(max_page + 1)
        if self.counters is not None:
            self.counters.reserve(max_page + 1)
        if self.hy_policy is not None:
            self.hy_policy.reserve(max_page + 1, num_nodes=self.num_nodes)
        if self.rn_hy_policy is not None:
            self.rn_hy_policy.reserve(max_page + 1, num_nodes=self.num_nodes)
        if self.rnuma is not None:
            self.rnuma._reserve_totals(max_page + 1)
            for rc in self.rnuma.refetch_counters:
                rc.reserve(max_page + 1)
            for pc in machine.page_caches:
                if pc is not None:
                    pc.reserve(max_page + 1)

    def marshal_phase(self) -> None:
        """Take the zero-copy store views for a segment's walk."""
        machine = self.machine
        directory = machine.directory
        vm = machine.vm
        self.dir_sharers = _i64(directory._sharers)   # bitmask fits int64:
        self.dir_owner = _i64(directory._owner)       # eligibility caps nodes
        self.dir_versions = _i64(directory._version)
        self.dir_tracked = _u8(directory._tracked)
        self.departed = [_u8(d) for d in directory._departed]
        self.vm_home = _i64(vm._home)
        self.vm_first = _i64(vm._first_toucher)
        self.vm_migrations = _i64(vm._migrations)
        self.vm_replicated = _u8(vm._replicated)
        self.vm_replica_mask = _i64(vm._replica_mask)
        pts = machine.page_tables
        self.pt_modes = [_u8(pt._modes) for pt in pts]
        self.pt_tracked = [_u8(pt._tracked) for pt in pts]
        self.pt_faults = [_i64(pt._faults) for pt in pts]
        self.pt_writable = [_u8(pt._writable) for pt in pts]
        self.pt_remaps = [_i64(pt._remaps) for pt in pts]
        self.bc_blocks = [_i64(bc._blocks) for bc in machine.block_caches]
        self.bc_versions = [_i64(bc._versions) for bc in machine.block_caches]
        self.bc_dirty = [_u8(bc._dirty) for bc in machine.block_caches]
        self.cb = []
        self.cv = []
        self.cd = []
        for c in self.caches:
            blocks_l, versions_l, dirty_l = c.line_state()
            self.cb.append(_i64(blocks_l))
            self.cv.append(_i64(versions_l))
            self.cd.append(_u8(dirty_l))
        if self.counters is not None:
            c = self.counters
            self.ctr_read = _i64(c._read)
            self.ctr_write = _i64(c._write)
            self.ctr_since = _i64(c._since)
            self.ctr_live_r = _u8(c._live_r)
            self.ctr_live_w = _u8(c._live_w)
        else:
            e64 = np.empty(0, dtype=np.int64)
            e8 = np.empty(0, dtype=np.uint8)
            self.ctr_read = self.ctr_write = self.ctr_since = e64
            self.ctr_live_r = self.ctr_live_w = e8
        if self.hy_policy is not None:
            self.hy_scores = _f64(self.hy_policy._scores)
            self.hy_seen = _i64(self.hy_policy._home_seen)
        else:
            # valid (never dereferenced) placeholders gated on CON_MR_HYST
            self.hy_scores = np.empty(0, dtype=np.float64)
            self.hy_seen = np.empty(0, dtype=np.int64)
        N = self.num_nodes
        if self.rn_hy_policy is not None:
            self.rn_scores = [_f64(col) for col in self.rn_hy_policy._scores]
        else:
            # placeholders gated on CON_RN_HYST
            self.rn_scores = [np.empty(0, dtype=np.float64)] * N
        if self.rnuma is not None:
            proto = self.rnuma
            pcs = machine.page_caches
            self.rf_counts = [_i64(rc._counts)
                              for rc in proto.refetch_counters]
            self.pg_totals = _i64(proto._page_miss_totals)
            self.pc_res = [_u8(pc._resident) for pc in pcs]
            self.pc_version = [_i64(pc._version) for pc in pcs]
            self.pc_dirty = [_u8(pc._dirty) for pc in pcs]
            self.pc_stamp = [_i64(pc._stamp) for pc in pcs]
            self.pc_clock = [_i64(pc._clock) for pc in pcs]
            self.pc_nvalid = [_i64(pc._nvalid) for pc in pcs]
            self.pc_ndirty = [_i64(pc._ndirty) for pc in pcs]
            self.pc_fills = [_i64(pc._fills) for pc in pcs]
            self.pc_count = [_i64(pc._count) for pc in pcs]
        else:
            # valid (never dereferenced) placeholders: the walk's page
            # cache and R-NUMA accesses are gated on the CON flags
            e64 = np.empty(0, dtype=np.int64)
            e8 = np.empty(0, dtype=np.uint8)
            self.rf_counts = [e64] * N
            self.pg_totals = e64
            self.pc_res = [e8] * N
            self.pc_version = [e64] * N
            self.pc_dirty = [e8] * N
            self.pc_stamp = [e64] * N
            self.pc_clock = [e64] * N
            self.pc_nvalid = [e64] * N
            self.pc_ndirty = [e64] * N
            self.pc_fills = [e64] * N
            self.pc_count = [e64] * N
        self.con[CON_DIR_CAP] = len(self.dir_sharers)
        self.con[CON_VM_LEN] = len(self.vm_home)

    def bind_walk(self, bind, blocks, writes, lengths, compute) -> None:
        """Bind the C walk to the views and a segment's streams as
        :attr:`runner`.

        ``bind`` is :func:`repro.engine.kernel.cbuild.load_cwalk`'s
        binder.  ``blocks`` and ``writes`` are the phase-major tables of
        every phase's :func:`schedule_arrays` streams (``num_phases *
        num_procs`` arrays each), ``lengths`` the streams' lengths in the
        same order and ``compute`` the phases' compute cycles per access;
        the tuple passed is ``repro_kernel_walk``'s parameter list.  The
        runner pins every argument (the walk holds raw pointers into
        them), so it lives here and :meth:`release` drops it together
        with the views.
        """
        self.con[CON_NUM_PHASES] = len(compute)
        # the cursors start at the tables' first reference
        self.mut[MUT_PHASE] = self.mut[MUT_K] = 0
        ph_len = np.asarray(lengths, dtype=np.int64)
        ph_compute = np.asarray(compute, dtype=np.int64)
        self.runner = bind((
            self.con, self.fcon, self.mut, self.pp, self.nn, self.msg_delta,
            self.out,
            self.dir_sharers, self.dir_owner, self.dir_versions,
            self.dir_tracked,
            self.vm_home, self.vm_first, self.vm_migrations,
            self.vm_replicated, self.vm_replica_mask,
            self.ctr_read, self.ctr_write, self.ctr_since,
            self.ctr_live_r, self.ctr_live_w,
            self.hy_scores, self.hy_seen,
            self.departed, self.pt_modes, self.pt_tracked, self.pt_faults,
            self.pt_writable, self.pt_remaps,
            self.bc_blocks, self.bc_versions, self.bc_dirty,
            self.cb, self.cv, self.cd, blocks, writes, ph_len, ph_compute,
            self.rf_counts, self.pg_totals, self.rn_scores,
            self.pc_res, self.pc_version,
            self.pc_dirty, self.pc_stamp, self.pc_clock, self.pc_nvalid,
            self.pc_ndirty, self.pc_fills, self.pc_count, self.pc_cap,
            self.alloc_cost, self.gather_cost))

    def release(self) -> None:
        """Drop the runner and the store views (their export locks)."""
        self.runner = None
        self.dir_sharers = self.dir_owner = self.dir_versions = None
        self.dir_tracked = self.departed = None
        self.vm_home = self.vm_first = self.vm_migrations = None
        self.vm_replicated = self.vm_replica_mask = None
        self.pt_modes = self.pt_tracked = self.pt_faults = None
        self.pt_writable = self.pt_remaps = None
        self.bc_blocks = self.bc_versions = None
        self.bc_dirty = self.cb = self.cv = self.cd = None
        self.ctr_read = self.ctr_write = self.ctr_since = None
        self.ctr_live_r = self.ctr_live_w = None
        self.hy_scores = self.hy_seen = None
        self.rf_counts = self.pg_totals = self.rn_scores = None
        self.pc_res = self.pc_version = self.pc_dirty = None
        self.pc_stamp = self.pc_clock = self.pc_nvalid = None
        self.pc_ndirty = self.pc_fills = self.pc_count = None

    # -- mirror synchronisation ---------------------------------------------

    def load_absolutes(self) -> None:
        """Copy the serialising resources' state into the mirrors."""
        machine = self.machine
        nn = self.nn
        N = self.num_nodes
        for n in range(N):
            nn[NN_BUS_FREE * N + n] = machine.nodes[n].bus.next_free
            nn[NN_NIC_FREE * N + n] = machine.network._nics[n].next_free

    def sync_nics_out(self) -> None:
        """Write the NIC ``next_free`` mirror through to the NIC objects.

        Called before each bail: the protocol code servicing the bail
        computes network contention from (and advances) the live NICs.
        The bus mirror needs no write-through — protocol code never
        touches buses — and the delta mirrors stay parked (bail-time
        code only increments the owning counters, which commutes).
        """
        nics = self.machine.network._nics
        nn = self.nn
        N = self.num_nodes
        for n in range(N):
            nics[n].next_free = int(nn[NN_NIC_FREE * N + n])

    def load_nics(self) -> None:
        """Re-read the NIC ``next_free`` times after a bail."""
        nics = self.machine.network._nics
        nn = self.nn
        N = self.num_nodes
        for n in range(N):
            nn[NN_NIC_FREE * N + n] = nics[n].next_free

    def flush(self) -> None:
        """Fold the delta mirrors into their owners; write back absolutes.

        Runs once, after the run's last walk entry.  Delta rows are
        zeroed as they are folded; absolute rows are written through.
        """
        machine = self.machine
        nn = self.nn
        N = self.num_nodes
        bus_occ = int(self.con[CON_BUS_OCC])
        soft_trap = int(self.con[CON_SOFT_TRAP])
        protocol = machine.protocol
        for n in range(N):
            bus = machine.nodes[n].bus
            txn = int(nn[NN_BUS_TXN * N + n])
            bus.next_free = int(nn[NN_BUS_FREE * N + n])
            bus.transactions += txn
            bus.busy_cycles += txn * bus_occ
            bus.wait_cycles += int(nn[NN_BUS_WAIT * N + n])
            nn[NN_BUS_TXN * N + n] = 0
            nn[NN_BUS_WAIT * N + n] = 0
            nic = machine.network._nics[n]
            nic.next_free = int(nn[NN_NIC_FREE * N + n])
            nic.messages += int(nn[NN_NIC_MSGS * N + n])
            nic.busy_cycles += int(nn[NN_NIC_BUSY * N + n])
            nic.wait_cycles += int(nn[NN_NIC_WAIT * N + n])
            nn[NN_NIC_MSGS * N + n] = 0
            nn[NN_NIC_BUSY * N + n] = 0
            nn[NN_NIC_WAIT * N + n] = 0
            ns = machine.stats.nodes[n]
            ns.local_misses += int(nn[NN_NS_LOCAL * N + n])
            ns.remote_misses += int(nn[NN_NS_REMOTE * N + n])
            ns.upgrades += int(nn[NN_NS_UPGRADES * N + n])
            ns.block_cache_hits += int(nn[NN_NS_BCHITS * N + n])
            ns.remote_by_cause[0] += int(nn[NN_NS_CAUSE0 * N + n])
            ns.remote_by_cause[1] += int(nn[NN_NS_CAUSE1 * N + n])
            ns.remote_by_cause[2] += int(nn[NN_NS_CAUSE2 * N + n])
            bcs = machine.block_caches[n].stats
            bcs.hits += int(nn[NN_BCS_HITS * N + n])
            bcs.misses += int(nn[NN_BCS_MISSES * N + n])
            bcs.invalidations += int(nn[NN_BCS_INVAL * N + n])
            bcs.evictions += int(nn[NN_BCS_EVICT * N + n])
            mf = int(nn[NN_MAPFAULT * N + n])
            if mf:
                # one mapping fault = NodeStats count + page-table soft
                # fault + a FaultLog record of soft_trap cycles
                ns.mapping_faults += mf
                machine.page_tables[n].soft_faults += mf
                _fold_faults(protocol.fault_logs[n], FaultKind.MAPPING_FAULT,
                             mf, mf * soft_trap)
            if self.rnuma is not None:
                ns.page_cache_hits += int(nn[NN_NS_PCHITS * N + n])
                pc = machine.page_caches[n]
                if pc is not None:
                    pcs = pc.stats
                    pcs.block_hits += int(nn[NN_PCS_HITS * N + n])
                    pcs.block_misses += int(nn[NN_PCS_MISSES * N + n])
                    pcs.block_fills += int(nn[NN_PCS_FILLS * N + n])
                    pcs.block_invalidations += int(nn[NN_PCS_INVAL * N + n])
                rc = self.rnuma.refetch_counters[n]
                rc.total_recorded += int(nn[NN_RF_TOTAL * N + n])
            # page operations the walk performed: one count row feeds
            # the node statistics, the engine's per-node list, the fault
            # log (and, for a relocation, the page-cache allocation
            # count); the VM's totals take the sum
            reloc = int(nn[NN_RELOCATIONS * N + n])
            if reloc:
                ns.relocations += reloc
                self.relocation_engine.relocations_by_node[n] += reloc
                machine.page_caches[n].stats.allocations += reloc
                _fold_faults(protocol.fault_logs[n],
                             FaultKind.RELOCATION_INTERRUPT, reloc,
                             int(nn[NN_RELOCATION_CYC * N + n]))
            rep = int(nn[NN_REPLICATIONS * N + n])
            if rep:
                ns.replications += rep
                self.migration_engine.replications_by_node[n] += rep
                machine.vm.replications += rep
                _fold_faults(protocol.fault_logs[n],
                             FaultKind.REPLICATION_TRAP, rep,
                             int(nn[NN_REPLICATION_CYC * N + n]))
            mig = int(nn[NN_MIGRATIONS * N + n])
            if mig:
                ns.migrations += mig
                self.migration_engine.migrations_by_node[n] += mig
                machine.vm.migrations += mig
                _fold_faults(protocol.fault_logs[n],
                             FaultKind.MIGRATION_TRAP, mig,
                             int(nn[NN_MIGRATION_CYC * N + n]))
            for row in (NN_NS_LOCAL, NN_NS_REMOTE, NN_NS_UPGRADES,
                        NN_NS_BCHITS, NN_NS_CAUSE0, NN_NS_CAUSE1,
                        NN_NS_CAUSE2, NN_BCS_HITS, NN_BCS_MISSES,
                        NN_BCS_INVAL, NN_BCS_EVICT, NN_MAPFAULT,
                        NN_NS_PCHITS, NN_PCS_HITS, NN_PCS_MISSES,
                        NN_PCS_FILLS, NN_PCS_INVAL, NN_RF_TOTAL,
                        NN_RELOCATIONS, NN_RELOCATION_CYC, NN_REPLICATIONS,
                        NN_REPLICATION_CYC, NN_MIGRATIONS, NN_MIGRATION_CYC):
                nn[row * N + n] = 0
        net_stats = machine.network.stats
        counts = net_stats._counts
        msg_delta = self.msg_delta
        for idx in range(len(counts)):
            if msg_delta[idx]:
                counts[idx] += int(msg_delta[idx])
                msg_delta[idx] = 0
        mut = self.mut
        net_stats.bytes_total += int(mut[MUT_BYTES])
        mut[MUT_BYTES] = 0
        machine.directory.invalidations_sent += int(mut[MUT_DIR_INV])
        machine.directory.writebacks += int(mut[MUT_DIR_WB])
        mut[MUT_DIR_INV] = 0
        mut[MUT_DIR_WB] = 0
        machine.vm.first_touches += int(mut[MUT_FIRST_TOUCHES])
        mut[MUT_FIRST_TOUCHES] = 0
        if self.counters is not None:
            self.counters.resets += int(mut[MUT_CTR_RESETS])
            mut[MUT_CTR_RESETS] = 0


def _fold_faults(log, kind, count: int, cycles: int) -> None:
    """Add ``count`` faults of ``kind`` costing ``cycles`` to ``log``."""
    log.counts[kind] = log.counts.get(kind, 0) + count
    log.cycles[kind] = log.cycles.get(kind, 0) + cycles


__all__ = [*LAYOUT, "LAYOUT", "KernelState", "schedule_arrays"]
