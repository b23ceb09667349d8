/* The compiled kernel's walk.
 *
 * The reference loop of repro/engine/legacy.py with every Python object
 * access replaced by flat-array access on the views built by
 * repro/engine/kernel/state.py.  It walks every phase of the run: each
 * phase's own blocks/writes streams in legacy's round-robin (i, p) order,
 * probing every reference (a hit touches no shared state, and a page
 * operation's L1 flush needs no repair, since the next probe of a flushed
 * line misses), then the phase's barrier.  The stall cycles accumulate
 * per processor over the whole run, one pp row per stall kind.
 *
 * Every stock decision policy is evaluated here too: the stateless ones
 * as integer thresholds state.py lowers them to, the hysteresis ones by
 * transcription over their dense score columns.  The page operations
 * they fire run here as well: each is a flush, a transfer and a remap on
 * the same arrays (see the page operations below), so the walk keeps
 * walking.
 *
 * The walk returns RC_DONE when every phase is walked, or bails with
 * an RC_BAIL_* code, filling the `out` record, whenever an access needs
 * protocol machinery that only exists in Python: a mapping fault under a
 * placement policy, a write to a replicated page (collapse), a fired
 * relocation on a full page cache (it needs an eviction), a fired
 * migration of a replicated page (vm.migrate raises), an S-COMA
 * first-touch allocation, or the evaluation of a policy state.py does not
 * know (a user subclass or registration).  All
 * bookkeeping lives in the caller-owned arrays, so the caller services
 * the bail with ordinary protocol calls and re-enters; the walk resumes
 * at the phase cursor mut[MUT_PHASE] and the interleave cursor mut[MUT_K],
 * which has already moved past the bailed reference.
 *
 * The layout constants (CON_*, FCON_*, PP_*, NN_*, MUT_*, OUT_*, RC_*)
 * are not defined here: cbuild.py generates them from state.py and
 * prepends them at build time.  It builds on demand (plain
 * `cc -O2 -shared -fPIC`, no Python headers needed) and calls through
 * ctypes; every argument is a raw array base pointer obtained from the
 * numpy views, so the walk mutates the simulator's stores in place.
 */

#include <stdint.h>

#define BAIL(code) do { \
    mut[MUT_PHASE] = phase; \
    mut[MUT_K] = k; \
    out[OUT_KIND] = (code); \
    out[OUT_P] = p; \
    out[OUT_BLOCK] = block; \
    out[OUT_PAGE] = page; \
    out[OUT_WRITE] = is_write; \
    out[OUT_START] = start; \
    out[OUT_WAIT] = wait; \
    out[OUT_CLOCK] = clock; \
    out[OUT_HOME] = home; \
    out[OUT_MODE] = mode_c; \
    out[OUT_FAULT] = fault; \
    return (code); \
} while (0)

/* inlined _directory_write: sets version/extra, marks departures,
 * accumulates invalidation traffic */
#define DIR_WRITE() do { \
    dir_tracked[block] = 1; \
    int64_t bit = (int64_t)1 << node; \
    int64_t others = dir_sharers[block] & ~bit; \
    int64_t o = dir_owner[block]; \
    if (o >= 0 && o != node) mut[MUT_DIR_WB] += 1; \
    dir_sharers[block] = bit; \
    dir_owner[block] = node; \
    version = dir_versions[block] + 1; \
    dir_versions[block] = version; \
    extra = 0; \
    if (others) { \
        int64_t invals = 0, tmp = others; \
        while (tmp) { tmp &= tmp - 1; invals += 1; } \
        mut[MUT_DIR_INV] += invals; \
        extra = invals * inval_cost; \
        msg_delta[inv_i] += invals; \
        msg_delta[ack_i] += invals; \
        mut[MUT_BYTES] += invals * sz_inv_pair; \
        int64_t nidx = 0; \
        while (others) { \
            if (others & 1) departed[nidx][block] = (uint8_t)dep_invalidated; \
            others >>= 1; \
            nidx += 1; \
        } \
    } \
} while (0)

/* four-point NIC serialisation of a request/reply round trip */
#define NIC_ROUND_TRIP() do { \
    int64_t occ2 = nic_occ + nic_occ; \
    if (!net_enabled) { \
        nn[NN_NIC_MSGS * N + node] += 2; \
        nn[NN_NIC_MSGS * N + home] += 2; \
        nn[NN_NIC_BUSY * N + node] += occ2; \
        nn[NN_NIC_BUSY * N + home] += occ2; \
        contention = 0; \
    } else { \
        int64_t free_, s1, w1, t, s2, w2, t2, s3, w3, t3, s4, w4; \
        free_ = nn[NN_NIC_FREE * N + node]; \
        s1 = start >= free_ ? start : free_; \
        w1 = s1 - start; \
        nn[NN_NIC_FREE * N + node] = s1 + nic_occ; \
        t = s1 + nic_occ + net_latency; \
        free_ = nn[NN_NIC_FREE * N + home]; \
        s2 = t >= free_ ? t : free_; \
        w2 = s2 - t; \
        nn[NN_NIC_FREE * N + home] = s2 + nic_occ; \
        t2 = s2 + nic_occ; \
        free_ = nn[NN_NIC_FREE * N + home]; \
        s3 = t2 >= free_ ? t2 : free_; \
        w3 = s3 - t2; \
        nn[NN_NIC_FREE * N + home] = s3 + nic_occ; \
        t3 = s3 + nic_occ + net_latency; \
        free_ = nn[NN_NIC_FREE * N + node]; \
        s4 = t3 >= free_ ? t3 : free_; \
        w4 = s4 - t3; \
        nn[NN_NIC_FREE * N + node] = s4 + nic_occ; \
        nn[NN_NIC_MSGS * N + node] += 2; \
        nn[NN_NIC_MSGS * N + home] += 2; \
        nn[NN_NIC_BUSY * N + node] += occ2; \
        nn[NN_NIC_BUSY * N + home] += occ2; \
        nn[NN_NIC_WAIT * N + node] += w1 + w4; \
        nn[NN_NIC_WAIT * N + home] += w2 + w3; \
        contention = w1 + w2 + w3 + w4; \
    } \
} while (0)

/* home-side MigRep counter bump (record_miss + reset-interval check) */
#define CTR_BUMP() do { \
    int64_t cbase = page * N; \
    if (is_write) { \
        ctr_live_w[page] = 1; \
        ctr_write[cbase + node] += 1; \
    } else { \
        ctr_live_r[page] = 1; \
        ctr_read[cbase + node] += 1; \
    } \
    int64_t total = ctr_since[page] + 1; \
    if (total >= mr_reset) { \
        for (int64_t nx = 0; nx < N; nx++) { \
            ctr_read[cbase + nx] = 0; \
            ctr_write[cbase + nx] = 0; \
        } \
        ctr_since[page] = 0; \
        ctr_live_r[page] = 0; \
        ctr_live_w[page] = 0; \
        mut[MUT_CTR_RESETS] += 1; \
    } else { \
        ctr_since[page] = total; \
    } \
} while (0)

/* a page's MigRep misses over all nodes (CostModelMigRepPolicy's total) */
static int64_t page_misses(const int64_t* ctr_read, const int64_t* ctr_write,
                           int64_t cbase, int64_t N)
{
    int64_t total = 0;
    for (int64_t nx = 0; nx < N; nx++)
        total += ctr_read[cbase + nx] + ctr_write[cbase + nx];
    return total;
}

/* inlined base note_l1_eviction for an evicted L1 victim `old`
 * (page-cache-resident victims are still locally backed: no departure) */
#define L1_EVICT_NOTE() do { \
    if (bc_blocks[node][old % bc_cap] != old) { \
        int64_t vpage = old / bpp; \
        if (!has_pagecache || !pc_res[node][vpage]) { \
            int64_t vh = vm_home[vpage]; \
            if (vh >= 0 && vh != node) \
                departed[node][old] = (uint8_t)dep_evicted; \
        } \
    } \
} while (0)

/* ---- page operations ----
 *
 * The state a page operation touches, bundled for the routines below.
 * Each routine transcribes its Python counterpart step for step, so the
 * arrays and the delta rows end exactly where the Python operation
 * leaves the objects. */
typedef struct {
    const int64_t* con;
    int64_t *mut, *pp, *nn, *msg_delta;
    int64_t *dir_sharers, *dir_owner;
    int64_t *vm_home, *vm_migrations, *vm_replica_mask;
    uint8_t* vm_replicated;
    int64_t *ctr_read, *ctr_write, *ctr_since;
    uint8_t *ctr_live_r, *ctr_live_w;
    uint8_t **pt_modes, **pt_tracked, **pt_writable;
    int64_t** pt_remaps;
    int64_t** bc_blocks;
    uint8_t** bc_dirty;
    int64_t** cb;
    uint8_t** cd;
    int64_t **rf_counts, **pc_stamp, **pc_clock, **pc_count;
    uint8_t** pc_res;
    const int64_t *alloc_cost, *gather_cost;
} PageOps;

/* _Nic.acquire on the NIC mirror: returns the start time at `n` */
static int64_t nic_acquire(const PageOps* o, int64_t n, int64_t now)
{
    const int64_t N = o->con[CON_NUM_NODES];
    const int64_t occ = o->con[CON_NIC_OCC];
    int64_t* nn = o->nn;
    nn[NN_NIC_MSGS * N + n] += 1;
    nn[NN_NIC_BUSY * N + n] += occ;
    if (!o->con[CON_NET_ENABLED])
        return now;
    int64_t free_ = nn[NN_NIC_FREE * N + n];
    int64_t start = now >= free_ ? now : free_;
    nn[NN_NIC_WAIT * N + n] += start - now;
    nn[NN_NIC_FREE * N + n] = start + occ;
    return start;
}

/* Network.one_way: one message of counter index `msg_i` and `size`
 * bytes from src to dst, sent at `now`; returns its delivery time */
static int64_t one_way(const PageOps* o, int64_t src, int64_t dst,
                       int64_t now, int64_t msg_i, int64_t size)
{
    const int64_t occ = o->con[CON_NIC_OCC];
    o->msg_delta[msg_i] += 1;
    o->mut[MUT_BYTES] += size;
    if (src == dst)
        return now;
    int64_t t = nic_acquire(o, src, now) + occ + o->con[CON_NET_LATENCY];
    return nic_acquire(o, dst, t) + occ;
}

/* repro.kernel.flush.flush_node_page: for each block of `page`, `node`'s
 * block-cache frame first, then each of the node's L1 lines; then the
 * node leaves the page's sharer sets, and an owned block is written
 * back.  Returns the number of copies dropped. */
static int64_t flush_node_page(const PageOps* o, int64_t node, int64_t page)
{
    const int64_t P = o->con[CON_NUM_PROCS];
    const int64_t N = o->con[CON_NUM_NODES];
    const int64_t bpp = o->con[CON_BPP];
    const int64_t bc_cap = o->con[CON_BC_CAP];
    const int64_t num_lines = o->con[CON_NUM_LINES];
    const int64_t first = page * bpp;
    int64_t* bb = o->bc_blocks[node];
    uint8_t* bd = o->bc_dirty[node];
    int64_t flushed = 0;
    for (int64_t block = first; block < first + bpp; block++) {
        int64_t bidx = block % bc_cap;
        if (bb[bidx] == block) {
            bb[bidx] = -1;
            bd[bidx] = 0;
            o->nn[NN_BCS_INVAL * N + node] += 1;
            flushed += 1;
        }
        int64_t idx = block % num_lines;
        for (int64_t p = 0; p < P; p++) {
            if (o->pp[PP_NODE * P + p] == node && o->cb[p][idx] == block) {
                o->cb[p][idx] = -1;
                o->cd[p][idx] = 0;
                o->pp[PP_INVAL * P + p] += 1;
                flushed += 1;
            }
        }
    }
    const int64_t bit = (int64_t)1 << node;
    for (int64_t block = first; block < first + bpp; block++) {
        o->dir_sharers[block] &= ~bit;
        if (o->dir_owner[block] == node) {
            o->dir_owner[block] = -1;
            o->mut[MUT_DIR_WB] += 1;
        }
    }
    return flushed;
}

/* PageTable.map_page(count_fault=False) */
static void map_page(const PageOps* o, int64_t node, int64_t page,
                     int64_t code, int64_t writable)
{
    uint8_t* modes = o->pt_modes[node];
    o->pt_tracked[node][page] = 1;
    if (modes[page] != 0 && modes[page] != code)
        o->pt_remaps[node][page] += 1;
    modes[page] = (uint8_t)code;
    o->pt_writable[node][page] = (uint8_t)writable;
}

/* PageTable.unmap */
static void unmap_page(const PageOps* o, int64_t node, int64_t page)
{
    if (o->pt_tracked[node][page] && o->pt_modes[node][page] != 0) {
        o->pt_modes[node][page] = 0;
        o->pt_writable[node][page] = 1;
        o->pt_remaps[node][page] += 1;
    }
}

/* MigrationEngine._gather: the home asks every other node caching a
 * block of `page` (ascending id, `exclude` skipped) to flush it and drop
 * its mapping.  Returns the copies dropped; *done is the last flush-done
 * arrival (at least `now`). */
static int64_t gather(const PageOps* o, int64_t page, int64_t home,
                      int64_t now, int64_t exclude, int64_t* done)
{
    const int64_t N = o->con[CON_NUM_NODES];
    const int64_t bpp = o->con[CON_BPP];
    int64_t mask = 0;
    for (int64_t block = page * bpp; block < (page + 1) * bpp; block++)
        mask |= o->dir_sharers[block];
    int64_t flushed = 0;
    *done = now;
    for (int64_t n = 0; n < N; n++) {
        if (n == home || n == exclude || !((mask >> n) & 1))
            continue;
        int64_t t = one_way(o, home, n, now, o->con[CON_MSG_FLUSH_REQ],
                            o->con[CON_SZ_FLUSH_REQ]);
        flushed += flush_node_page(o, n, page);
        t = one_way(o, n, home, t, o->con[CON_MSG_FLUSH_DONE],
                    o->con[CON_SZ_FLUSH_DONE]);
        if (t > *done)
            *done = t;
        unmap_page(o, n, page);
    }
    return flushed;
}

/* the per-count cost tables cover 0..bpp flushed blocks */
static int64_t clamp_blocks(const PageOps* o, int64_t flushed)
{
    const int64_t bpp = o->con[CON_BPP];
    return flushed < bpp ? flushed : bpp;
}

/* RelocationEngine.relocate into a page cache with a free frame, plus
 * RNUMAProtocol._perform_relocation's bookkeeping; returns the cost */
static int64_t relocate(const PageOps* o, int64_t node, int64_t page)
{
    const int64_t N = o->con[CON_NUM_NODES];
    int64_t flushed = flush_node_page(o, node, page);
    int64_t cost = o->con[CON_SOFT_TRAP]
                   + o->alloc_cost[clamp_blocks(o, flushed)]
                   + o->con[CON_TLB_SHOOTDOWN];
    /* PageCache.allocate */
    o->pc_res[node][page] = 1;
    o->pc_count[node][0] += 1;
    o->pc_clock[node][0] += 1;
    o->pc_stamp[node][page] = o->pc_clock[node][0];
    map_page(o, node, page, o->con[CON_MODE_SCOMA], 1);
    o->rf_counts[node][page] = 0;
    o->nn[NN_RELOCATIONS * N + node] += 1;
    o->nn[NN_RELOCATION_CYC * N + node] += cost;
    return cost;
}

/* MigrationEngine.replicate at a node holding no replica yet, plus
 * _perform_replication's bookkeeping; returns the cost */
static int64_t replicate(const PageOps* o, int64_t page, int64_t node,
                         int64_t now)
{
    const int64_t N = o->con[CON_NUM_NODES];
    const int64_t home = o->vm_home[page];
    int64_t cost = o->con[CON_SOFT_TRAP];
    if (!o->vm_replicated[page]) {
        /* first replica: gather the page so the home holds a clean copy */
        int64_t done;
        int64_t flushed = gather(o, page, home, now, node, &done);
        cost += o->gather_cost[clamp_blocks(o, flushed)]
                + o->con[CON_TLB_SHOOTDOWN] + (done - now);
    }
    cost += o->con[CON_COPY_PAGE];
    one_way(o, home, node, now, o->con[CON_MSG_PAGE_DATA],
            o->con[CON_SZ_PAGE_DATA]);
    o->vm_replicated[page] = 1;
    o->vm_replica_mask[page] |= (int64_t)1 << node;
    map_page(o, node, page, o->con[CON_MODE_REPLICA], 0);
    o->nn[NN_REPLICATIONS * N + node] += 1;
    o->nn[NN_REPLICATION_CYC * N + node] += cost;
    return cost;
}

/* MigrationEngine.migrate of an unreplicated page, plus
 * _perform_migration's bookkeeping and counter reset; returns the cost */
static int64_t migrate(const PageOps* o, int64_t page, int64_t new_home,
                       int64_t now)
{
    const int64_t N = o->con[CON_NUM_NODES];
    const int64_t old_home = o->vm_home[page];
    int64_t done;
    int64_t flushed = gather(o, page, old_home, now, new_home, &done);
    /* the new home's remote-cached copies are about to become local */
    flushed += flush_node_page(o, new_home, page);
    int64_t cost = o->con[CON_SOFT_TRAP]
                   + o->gather_cost[clamp_blocks(o, flushed)]
                   + o->con[CON_COPY_PAGE] + o->con[CON_TLB_SHOOTDOWN]
                   + (done - now);
    one_way(o, old_home, new_home, now, o->con[CON_MSG_PAGE_DATA],
            o->con[CON_SZ_PAGE_DATA]);
    o->vm_home[page] = new_home;
    o->vm_migrations[page] += 1;
    map_page(o, old_home, page, o->con[CON_MODE_CCNUMA_REMOTE], 1);
    map_page(o, new_home, page, o->con[CON_MODE_LOCAL_HOME], 1);
    o->nn[NN_MIGRATIONS * N + new_home] += 1;
    o->nn[NN_MIGRATION_CYC * N + new_home] += cost;
    /* MigRepCounters.reset_page */
    for (int64_t nx = 0; nx < N; nx++) {
        o->ctr_read[page * N + nx] = 0;
        o->ctr_write[page * N + nx] = 0;
    }
    o->ctr_since[page] = 0;
    o->ctr_live_r[page] = 0;
    o->ctr_live_w[page] = 0;
    o->mut[MUT_CTR_RESETS] += 1;
    return cost;
}

int64_t repro_kernel_walk(
    int64_t* con, double* fcon, int64_t* mut, int64_t* pp, int64_t* nn,
    int64_t* msg_delta, int64_t* out,
    int64_t* dir_sharers, int64_t* dir_owner, int64_t* dir_versions,
    uint8_t* dir_tracked,
    int64_t* vm_home, int64_t* vm_first, int64_t* vm_migrations,
    uint8_t* vm_replicated, int64_t* vm_replica_mask,
    int64_t* ctr_read, int64_t* ctr_write, int64_t* ctr_since,
    uint8_t* ctr_live_r, uint8_t* ctr_live_w,
    double* hy_scores, int64_t* hy_seen,
    uint8_t** departed, uint8_t** pt_modes,
    uint8_t** pt_tracked, int64_t** pt_faults,
    uint8_t** pt_writable, int64_t** pt_remaps,
    int64_t** bc_blocks, int64_t** bc_versions, uint8_t** bc_dirty,
    int64_t** cb, int64_t** cv, uint8_t** cd,
    int64_t** blocks, uint8_t** writes, int64_t* ph_len, int64_t* ph_compute,
    int64_t** rf_counts, int64_t* pg_totals, double** rn_scores,
    uint8_t** pc_res, int64_t** pc_version, uint8_t** pc_dirty,
    int64_t** pc_stamp, int64_t** pc_clock, int64_t** pc_nvalid,
    int64_t** pc_ndirty, int64_t** pc_fills, int64_t** pc_count,
    int64_t* pc_cap, int64_t* alloc_cost, int64_t* gather_cost)
{
    const int64_t P = con[CON_NUM_PROCS];
    const int64_t N = con[CON_NUM_NODES];
    const int64_t bpp = con[CON_BPP];
    const int64_t l1_hit_cost = con[CON_L1_HIT];
    const int64_t n_phases = con[CON_NUM_PHASES];
    const int64_t idle_clock = con[CON_IDLE_CLOCK];
    const int64_t barrier_cost = con[CON_BARRIER_COST];
    const int64_t bus_occ = con[CON_BUS_OCC];
    const int64_t bus_enabled = con[CON_BUS_ENABLED];
    const int64_t local_miss_cost = con[CON_LOCAL_MISS];
    const int64_t remote_miss_cost = con[CON_REMOTE_MISS];
    const int64_t inval_cost = con[CON_INVAL_COST];
    const int64_t net_enabled = con[CON_NET_ENABLED];
    const int64_t net_latency = con[CON_NET_LATENCY];
    const int64_t nic_occ = con[CON_NIC_OCC];
    const int64_t sz_read_pair = con[CON_SZ_READ_PAIR];
    const int64_t sz_write_pair = con[CON_SZ_WRITE_PAIR];
    const int64_t sz_wb = con[CON_SZ_WB];
    const int64_t sz_inv_pair = con[CON_SZ_INV_PAIR];
    const int64_t read_i = con[CON_MSG_READ];
    const int64_t write_i = con[CON_MSG_WRITE];
    const int64_t data_i = con[CON_MSG_DATA];
    const int64_t wb_i = con[CON_MSG_WB];
    const int64_t inv_i = con[CON_MSG_INV];
    const int64_t ack_i = con[CON_MSG_ACK];
    const int64_t has_migrep = con[CON_HAS_MIGREP];
    const int64_t mr_rep_threshold = con[CON_MR_REP_THRESHOLD];
    const int64_t mr_mig_threshold = con[CON_MR_MIG_THRESHOLD];
    const int64_t mr_min_samples = con[CON_MR_MIN_SAMPLES];
    const int64_t mr_migration = con[CON_MR_MIG];
    const int64_t mr_replication = con[CON_MR_REP];
    const int64_t mr_reset = con[CON_MR_RESET];
    const int64_t bc_cap = con[CON_BC_CAP];
    const int64_t num_lines = con[CON_NUM_LINES];
    const int64_t replica_code = con[CON_MODE_REPLICA];
    const int64_t local_home_code = con[CON_MODE_LOCAL_HOME];
    const int64_t ccnuma_remote_code = con[CON_MODE_CCNUMA_REMOTE];
    const int64_t dep_evicted = con[CON_DEP_EVICTED];
    const int64_t dep_invalidated = con[CON_DEP_INVALIDATED];
    const int64_t soft_trap = con[CON_SOFT_TRAP];
    const int64_t map_req_i = con[CON_MSG_MAP_REQ];
    const int64_t map_reply_i = con[CON_MSG_MAP_REPLY];
    const int64_t sz_map_pair = con[CON_SZ_MAP_PAIR];
    const int64_t first_touch_ok = con[CON_FIRST_TOUCH];
    const int64_t has_rnuma = con[CON_HAS_RNUMA];
    const int64_t rn_static = con[CON_RN_STATIC];
    const int64_t rn_threshold = con[CON_RN_THRESHOLD];
    const int64_t rn_delay = con[CON_RN_DELAY];
    const int64_t rn_hyst = con[CON_RN_HYST];
    const int64_t has_pagecache = con[CON_HAS_PAGECACHE];
    const int64_t scoma_alloc = con[CON_SCOMA_ALLOC];
    const int64_t hybrid = con[CON_HYBRID];
    const int64_t mr_static = con[CON_MR_STATIC];
    const int64_t bc_penalty = con[CON_BC_PENALTY];
    const int64_t mr_hyst = con[CON_MR_HYST];
    const double hy_threshold = fcon[FCON_HY_THRESHOLD];
    const double hy_decay = fcon[FCON_HY_DECAY];
    const double rn_hy_threshold = fcon[FCON_RN_HY_THRESHOLD];
    const double rn_hy_decay = fcon[FCON_RN_HY_DECAY];
    const PageOps ops = {
        con, mut, pp, nn, msg_delta, dir_sharers, dir_owner,
        vm_home, vm_migrations, vm_replica_mask, vm_replicated,
        ctr_read, ctr_write, ctr_since, ctr_live_r, ctr_live_w,
        pt_modes, pt_tracked, pt_writable, pt_remaps, bc_blocks, bc_dirty,
        cb, cd, rf_counts, pc_stamp, pc_clock, pc_count, pc_res,
        alloc_cost, gather_cost};

    /* the phase cursor, and the interleave cursor k = i * P + p within
     * the phase; a bail has already moved k past its reference, so only
     * a phase's first entry runs its prologue */
    int64_t phase = mut[MUT_PHASE];
    int64_t k = mut[MUT_K];

    for (; phase < n_phases; phase++, k = 0) {
        int64_t** const ph_blocks = blocks + phase * P;
        uint8_t** const ph_writes = writes + phase * P;
        const int64_t* const lens = ph_len + phase * P;
        const int64_t compute = ph_compute[phase];
        int64_t max_len = 0;
        for (int64_t p = 0; p < P; p++)
            if (lens[p] > max_len)
                max_len = lens[p];
        const int64_t n_keys = max_len * P;
        if (k == 0) {
            /* phase prologue: every reference's compute, charged up front */
            for (int64_t p = 0; p < P; p++)
                pp[PP_ACC_COMPUTE * P + p] += compute * lens[p];
        }
        /* (ni, np_) is the reference k points at */
        int64_t ni = k / P, np_ = k % P;
        while (k < n_keys) {
            const int64_t i = ni, p = np_;
            /* move past this reference before it can bail */
            k += 1;
            if (++np_ == P) { np_ = 0; ni += 1; }
            if (i >= lens[p])
                continue;
            const int64_t block = ph_blocks[p][i];
            const int64_t is_write = ph_writes[p][i];
            int64_t clock = pp[PP_CLOCK * P + p] + compute;
            int64_t node = pp[PP_NODE * P + p];
            int64_t* cb_p = cb[p];
            int64_t* cv_p = cv[p];
            uint8_t* cd_p = cd[p];
            int64_t idx = block % num_lines;
            int64_t version, service, extra, contention;

            if (cb_p[idx] == block) {
                version = dir_versions[block];
                if (cv_p[idx] >= version) {
                    if (!is_write) {
                        pp[PP_HITS * P + p] += 1;
                        pp[PP_CLOCK * P + p] = clock + l1_hit_cost;
                        continue;
                    }
                    if (cd_p[idx]) {
                        pp[PP_HITS * P + p] += 1;
                        pp[PP_CLOCK * P + p] = clock + l1_hit_cost;
                        continue;
                    }
                    /* write upgrade: invalidate other sharers */
                    pp[PP_UPG * P + p] += 1;
                    int64_t page = block / bpp;
                    int64_t start, wait;
                    if (bus_enabled) {
                        int64_t free_ = nn[NN_BUS_FREE * N + node];
                        start = clock >= free_ ? clock : free_;
                        nn[NN_BUS_WAIT * N + node] += start - clock;
                        nn[NN_BUS_FREE * N + node] = start + bus_occ;
                    } else {
                        start = clock;
                    }
                    nn[NN_BUS_TXN * N + node] += 1;
                    wait = start - clock;
                    /* inlined base handle_upgrade */
                    nn[NN_NS_UPGRADES * N + node] += 1;
                    int64_t home = vm_home[page];
                    DIR_WRITE();
                    int64_t new_version = version;
                    int64_t latency;
                    if (home < 0 || home == node) {
                        latency = local_miss_cost + extra;
                    } else {
                        msg_delta[write_i] += 1;
                        msg_delta[data_i] += 1;
                        mut[MUT_BYTES] += sz_write_pair;
                        NIC_ROUND_TRIP();
                        latency = remote_miss_cost + contention + extra;
                    }
                    /* inlined touch_write (the probed line holds `block`) */
                    cd_p[idx] = 1;
                    if (new_version > cv_p[idx])
                        cv_p[idx] = new_version;
                    pp[PP_ACC_CONT * P + p] += wait;
                    pp[PP_ACC_UPGRADE * P + p] += latency;
                    pp[PP_CLOCK * P + p] = clock + wait + latency;
                    continue;
                }
                /* stale copy: drop it so the fill below refreshes it */
                cb_p[idx] = -1;
                cd_p[idx] = 0;
                pp[PP_INVAL * P + p] += 1;
            }

            /* miss path (absent line or stale drop) */
            pp[PP_MISS * P + p] += 1;
            int64_t page = block / bpp;
            int64_t start, wait;
            if (bus_enabled) {
                int64_t free_ = nn[NN_BUS_FREE * N + node];
                start = clock >= free_ ? clock : free_;
                nn[NN_BUS_WAIT * N + node] += start - clock;
                nn[NN_BUS_FREE * N + node] = start + bus_occ;
            } else {
                start = clock;
            }
            nn[NN_BUS_TXN * N + node] += 1;
            wait = start - clock;

            int64_t home = vm_home[page];
            int64_t mode_c = home >= 0 ? (int64_t)pt_modes[node][page] : 0;
            int64_t fault = 0;
            if (mode_c == 0) {
                /* mapping fault (inlined ensure_mapped).  First touches under
                 * a configured placement policy bail — only Python knows the
                 * policy; first-touch placement itself and remap faults on
                 * already-placed pages run right here. */
                if (home < 0 && !first_touch_ok)
                    BAIL(RC_BAIL_FAULT);
                if (home < 0) {
                    /* first touch: home the page at the requester */
                    home = node;
                    vm_home[page] = node;
                    vm_first[page] = node;
                    mut[MUT_FIRST_TOUCHES] += 1;
                }
                fault = soft_trap;
                nn[NN_MAPFAULT * N + node] += 1;
                pt_faults[node][page] += 1;
                pt_tracked[node][page] = 1;
                if (home == node) {
                    mode_c = local_home_code;
                } else {
                    /* map request/reply, both one-way messages sent at t=0 */
                    mode_c = ccnuma_remote_code;
                    msg_delta[map_req_i] += 1;
                    msg_delta[map_reply_i] += 1;
                    mut[MUT_BYTES] += sz_map_pair;
                    int64_t occ2 = nic_occ + nic_occ;
                    if (!net_enabled) {
                        nn[NN_NIC_MSGS * N + node] += 2;
                        nn[NN_NIC_MSGS * N + home] += 2;
                        nn[NN_NIC_BUSY * N + node] += occ2;
                        nn[NN_NIC_BUSY * N + home] += occ2;
                    } else {
                        int64_t free_, s1, t, s2, s3, t3, s4;
                        free_ = nn[NN_NIC_FREE * N + node];
                        s1 = 0 >= free_ ? 0 : free_;
                        nn[NN_NIC_WAIT * N + node] += s1;
                        nn[NN_NIC_FREE * N + node] = s1 + nic_occ;
                        t = s1 + nic_occ + net_latency;
                        free_ = nn[NN_NIC_FREE * N + home];
                        s2 = t >= free_ ? t : free_;
                        nn[NN_NIC_WAIT * N + home] += s2 - t;
                        nn[NN_NIC_FREE * N + home] = s2 + nic_occ;
                        free_ = nn[NN_NIC_FREE * N + home];
                        s3 = 0 >= free_ ? 0 : free_;
                        nn[NN_NIC_WAIT * N + home] += s3;
                        nn[NN_NIC_FREE * N + home] = s3 + nic_occ;
                        t3 = s3 + nic_occ + net_latency;
                        free_ = nn[NN_NIC_FREE * N + node];
                        s4 = t3 >= free_ ? t3 : free_;
                        nn[NN_NIC_WAIT * N + node] += s4 - t3;
                        nn[NN_NIC_FREE * N + node] = s4 + nic_occ;
                        nn[NN_NIC_MSGS * N + node] += 2;
                        nn[NN_NIC_MSGS * N + home] += 2;
                        nn[NN_NIC_BUSY * N + node] += occ2;
                        nn[NN_NIC_BUSY * N + home] += occ2;
                    }
                }
                pt_modes[node][page] = (uint8_t)mode_c;
            }

            if (mode_c == local_home_code || home == node) {
                /* local fill (base body + MigRep home-side counter bump) */
                nn[NN_NS_LOCAL * N + node] += 1;
                if (is_write) {
                    DIR_WRITE();
                    service = local_miss_cost + extra;
                } else {
                    dir_tracked[block] = 1;
                    dir_sharers[block] |= (int64_t)1 << node;
                    version = dir_versions[block];
                    service = local_miss_cost;
                }
                if (has_migrep && home == node)
                    CTR_BUMP();
                /* inlined fill + eviction notification (local tail) */
                int64_t old = cb_p[idx];
                cb_p[idx] = block;
                cv_p[idx] = version;
                if (old >= 0 && old != block) {
                    pp[PP_EVICT * P + p] += 1;
                    cd_p[idx] = (uint8_t)is_write;
                    L1_EVICT_NOTE();
                } else {
                    cd_p[idx] = (uint8_t)is_write;
                }
                pp[PP_ACC_CONT * P + p] += wait;
                pp[PP_ACC_LOCAL * P + p] += service;
                pp[PP_ACC_FAULT * P + p] += fault;
                pp[PP_CLOCK * P + p] = clock + wait + service + fault;
                continue;
            }

            /* ---- remote lane ---- */
            if (has_migrep) {
                if (is_write && vm_replicated[page])
                    BAIL(RC_BAIL_COLLAPSE);   /* collapse via the protocol */
                if (!is_write && mode_c == replica_code) {
                    /* read served by a local replica */
                    nn[NN_NS_LOCAL * N + node] += 1;
                    dir_tracked[block] = 1;
                    dir_sharers[block] |= (int64_t)1 << node;
                    version = dir_versions[block];
                    service = local_miss_cost;
                    int64_t old = cb_p[idx];
                    if (old >= 0 && old != block) {
                        pp[PP_EVICT * P + p] += 1;
                        cb_p[idx] = block;
                        cv_p[idx] = version;
                        cd_p[idx] = (uint8_t)is_write;
                        L1_EVICT_NOTE();
                    } else {
                        cb_p[idx] = block;
                        cv_p[idx] = version;
                        cd_p[idx] = (uint8_t)is_write;
                    }
                    pp[PP_ACC_CONT * P + p] += wait;
                    pp[PP_ACC_LOCAL * P + p] += service;
                    pp[PP_ACC_FAULT * P + p] += fault;
                    pp[PP_CLOCK * P + p] = clock + wait + service + fault;
                    continue;
                }
            }

            /* ---- page-cache probe lane ---- */
            if (has_pagecache) {
                if (pc_res[node][page]) {
                    /* transcription of RNUMAProtocol._scoma_fetch on the
                     * flat page-cache arrays (block tags live at the global
                     * block index); residency changes only by relocation
                     * and eviction */
                    pc_clock[node][0] += 1;
                    pc_stamp[node][page] = pc_clock[node][0];
                    version = dir_versions[block];
                    int64_t* pcv_n = pc_version[node];
                    uint8_t* pcd_n = pc_dirty[node];
                    int64_t stored = pcv_n[block];
                    int64_t pc_hit = 0;
                    if (stored >= 0) {
                        if (stored >= version) {
                            pc_hit = 1;
                        } else {
                            /* stale block: invalidate and refetch below */
                            pcv_n[block] = -1;
                            pc_nvalid[node][page] -= 1;
                            if (pcd_n[block]) {
                                pcd_n[block] = 0;
                                pc_ndirty[node][page] -= 1;
                            }
                            nn[NN_PCS_INVAL * N + node] += 1;
                        }
                    }
                    int64_t remote;
                    if (pc_hit) {
                        nn[NN_PCS_HITS * N + node] += 1;
                        nn[NN_NS_PCHITS * N + node] += 1;
                        remote = 0;
                        if (is_write) {
                            DIR_WRITE();
                            /* inlined PageCache.write_block (tag is valid) */
                            if (version > stored)
                                pcv_n[block] = version;
                            if (!pcd_n[block]) {
                                pcd_n[block] = 1;
                                pc_ndirty[node][page] += 1;
                            }
                            service = local_miss_cost + extra;
                        } else {
                            service = local_miss_cost;
                        }
                    } else {
                        nn[NN_PCS_MISSES * N + node] += 1;
                        remote = 1;
                        /* inlined _remote_fill: classification, traffic,
                         * NIC contention and the directory fill */
                        int64_t reason = departed[node][block];
                        if (reason)
                            departed[node][block] = 0;
                        nn[NN_NS_REMOTE * N + node] += 1;
                        nn[(NN_NS_CAUSE0 + reason) * N + node] += 1;
                        if (is_write) {
                            msg_delta[write_i] += 1;
                            msg_delta[data_i] += 1;
                            mut[MUT_BYTES] += sz_write_pair;
                        } else {
                            msg_delta[read_i] += 1;
                            msg_delta[data_i] += 1;
                            mut[MUT_BYTES] += sz_read_pair;
                        }
                        NIC_ROUND_TRIP();
                        if (is_write) {
                            DIR_WRITE();
                        } else {
                            dir_tracked[block] = 1;
                            dir_sharers[block] |= (int64_t)1 << node;
                            version = dir_versions[block];
                            extra = 0;
                        }
                        service = remote_miss_cost + contention + extra;
                        /* inlined PageCache.fill_block */
                        if (pcv_n[block] < 0)
                            pc_nvalid[node][page] += 1;
                        pcv_n[block] = version;
                        if (is_write && !pcd_n[block]) {
                            pcd_n[block] = 1;
                            pc_ndirty[node][page] += 1;
                        }
                        pc_fills[node][page] += 1;
                        nn[NN_PCS_FILLS * N + node] += 1;
                        /* requester-side R-NUMA miss total; the hybrid also
                         * bumps the home-side MigRep counters (its policy
                         * evaluation returns NONE for resident pages) */
                        pg_totals[page] += 1;
                        if (has_migrep)
                            CTR_BUMP();
                    }
                    /* generic tail (page-cache lane copy) */
                    int64_t old = cb_p[idx];
                    if (old >= 0 && old != block) {
                        pp[PP_EVICT * P + p] += 1;
                        cb_p[idx] = block;
                        cv_p[idx] = version;
                        cd_p[idx] = (uint8_t)is_write;
                        L1_EVICT_NOTE();
                    } else {
                        cb_p[idx] = block;
                        cv_p[idx] = version;
                        cd_p[idx] = (uint8_t)is_write;
                    }
                    pp[PP_ACC_CONT * P + p] += wait;
                    if (remote)
                        pp[PP_ACC_REMOTE * P + p] += service;
                    else
                        pp[PP_ACC_LOCAL * P + p] += service;
                    pp[PP_ACC_FAULT * P + p] += fault;
                    pp[PP_CLOCK * P + p] = clock + wait + service + fault;
                    continue;
                }
                if (scoma_alloc) {
                    /* S-COMA allocates a local frame on the first remote
                     * miss; allocation and service both live in Python —
                     * bail before any accounting so the driver can run
                     * _service_remote_page */
                    BAIL(RC_BAIL_PAGECACHE);
                }
            }

            /* inlined CC-NUMA block-cache / remote-fetch lane */
            version = dir_versions[block];
            int64_t bidx = block % bc_cap;
            int64_t* bb = bc_blocks[node];
            int64_t* bv = bc_versions[node];
            uint8_t* bd = bc_dirty[node];
            int64_t hit = 0;
            if (bb[bidx] == block) {
                if (bv[bidx] >= version) {
                    hit = 1;
                } else {
                    bb[bidx] = -1;
                    bd[bidx] = 0;
                    nn[NN_BCS_INVAL * N + node] += 1;
                }
            }
            int64_t remote, pageop = 0;
            if (hit) {
                nn[NN_BCS_HITS * N + node] += 1;
                nn[NN_NS_BCHITS * N + node] += 1;
                remote = 0;
                if (is_write) {
                    DIR_WRITE();
                    if (version > bv[bidx])
                        bv[bidx] = version;
                    bd[bidx] = 1;
                    service = local_miss_cost + extra + bc_penalty;
                } else {
                    service = local_miss_cost + bc_penalty;
                }
            } else {
                nn[NN_BCS_MISSES * N + node] += 1;
                remote = 1;
                /* miss classification (reason doubles as counter index) */
                int64_t reason = departed[node][block];
                if (reason)
                    departed[node][block] = 0;
                nn[NN_NS_REMOTE * N + node] += 1;
                nn[(NN_NS_CAUSE0 + reason) * N + node] += 1;
                /* request/reply traffic + NIC contention */
                if (is_write) {
                    msg_delta[write_i] += 1;
                    msg_delta[data_i] += 1;
                    mut[MUT_BYTES] += sz_write_pair;
                } else {
                    msg_delta[read_i] += 1;
                    msg_delta[data_i] += 1;
                    mut[MUT_BYTES] += sz_read_pair;
                }
                NIC_ROUND_TRIP();
                /* directory side of the fill */
                if (is_write) {
                    DIR_WRITE();
                } else {
                    dir_tracked[block] = 1;
                    dir_sharers[block] |= (int64_t)1 << node;
                    version = dir_versions[block];
                    extra = 0;
                }
                service = remote_miss_cost + contention + extra + bc_penalty;
                /* inlined BlockCache.fill */
                int64_t old = bb[bidx];
                int64_t old_dirty = bd[bidx];
                bb[bidx] = block;
                bv[bidx] = version;
                bd[bidx] = (uint8_t)is_write;
                if (old >= 0 && old != block) {
                    nn[NN_BCS_EVICT * N + node] += 1;
                    departed[node][old] = (uint8_t)dep_evicted;
                    if (dir_tracked[old]) {
                        dir_sharers[old] &= ~((int64_t)1 << node);
                        if (dir_owner[old] == node) {
                            dir_owner[old] = -1;
                            mut[MUT_DIR_WB] += 1;
                        }
                    }
                    if (old_dirty) {
                        int64_t vpage = old / bpp;
                        int64_t vh = vm_home[vpage];
                        if (vh >= 0 && vh != node) {
                            msg_delta[wb_i] += 1;
                            mut[MUT_BYTES] += sz_wb;
                        }
                    }
                }
                int64_t reloc = 0, eval_mask = 0, replicate_it = 0, migrate_it = 0;
                if (has_rnuma) {
                    /* requester-side R-NUMA accounting: the per-page miss
                     * total always, the refetch counter only when this fetch
                     * re-acquired a block lost to capacity replacement */
                    pg_totals[page] += 1;
                    if (reason == dep_evicted) {
                        int64_t* rfn = rf_counts[node];
                        int64_t rfc = rfn[page] + 1;
                        rfn[page] = rfc;
                        nn[NN_RF_TOTAL * N + node] += 1;
                        const int64_t gated = rn_delay != 0
                                              && pg_totals[page] < rn_delay;
                        if (rn_static) {
                            if (!gated && rfc > rn_threshold)
                                reloc = 1;
                        } else if (rn_hyst) {
                            /* inlined HysteresisRelocationPolicy.should_relocate
                             * on the node's dense score column: a fired score
                             * is zeroed, which reads as a never-scored page */
                            double score = rn_scores[node][page] * rn_hy_decay
                                           + 1.0;
                            if (!gated && score > rn_hy_threshold) {
                                score = 0.0;
                                reloc = 1;
                            }
                            rn_scores[node][page] = score;
                        } else {
                            eval_mask = 1;
                        }
                    }
                }
                if (has_migrep) {
                    /* home-side counter bump + policy decision */
                    CTR_BUMP();
                    if (!reloc) {
                        if (mr_static && !eval_mask) {
                            /* a stateless rule lowered to integer thresholds,
                             * behind the cost model's evidence gate */
                            int64_t cbase = page * N;
                            if (((vm_replica_mask[page] >> node) & 1) == 0
                                    && (mr_min_samples == 0
                                        || page_misses(ctr_read, ctr_write, cbase,
                                                       N) >= mr_min_samples)) {
                                if (mr_replication) {
                                    int64_t remote_writes = -ctr_write[cbase + home];
                                    for (int64_t nx = 0; nx < N; nx++)
                                        remote_writes += ctr_write[cbase + nx];
                                    if (remote_writes == 0
                                            && ctr_read[cbase + node]
                                               > mr_rep_threshold)
                                        replicate_it = 1;
                                }
                                if (!replicate_it && mr_migration) {
                                    int64_t req_m = ctr_read[cbase + node]
                                                    + ctr_write[cbase + node];
                                    int64_t home_m = ctr_read[cbase + home]
                                                     + ctr_write[cbase + home];
                                    if (req_m - home_m > mr_mig_threshold)
                                        migrate_it = 1;
                                }
                            }
                        } else if (mr_hyst && !eval_mask) {
                            /* inlined HysteresisMigRepPolicy.evaluate on the
                             * shared dense score rows (requester != home on
                             * this path; zero rows read identically to rows
                             * the Python side has never touched) */
                            if (((vm_replica_mask[page] >> node) & 1) == 0) {
                                int64_t cbase = page * N;
                                for (int64_t nx = 0; nx < N; nx++)
                                    hy_scores[cbase + nx] *= hy_decay;
                                hy_scores[cbase + node] += 1.0;
                                int64_t home_total = ctr_read[cbase + home]
                                                     + ctr_write[cbase + home];
                                int64_t hdelta = home_total - hy_seen[page];
                                if (hdelta != 0) {
                                    if (hdelta < 0)
                                        hy_scores[cbase + home] += (double)home_total;
                                    else
                                        hy_scores[cbase + home] += (double)hdelta;
                                    hy_seen[page] = home_total;
                                }
                                if (mr_replication) {
                                    int64_t remote_writes = -ctr_write[cbase + home];
                                    for (int64_t nx = 0; nx < N; nx++)
                                        remote_writes += ctr_write[cbase + nx];
                                    if (remote_writes == 0
                                            && hy_scores[cbase + node] > hy_threshold)
                                        replicate_it = 1;
                                }
                                if (!replicate_it && mr_migration) {
                                    if (hy_scores[cbase + node]
                                            - hy_scores[cbase + home] > hy_threshold)
                                        migrate_it = 1;
                                }
                                if (replicate_it || migrate_it) {
                                    /* the policy forgets the page before the
                                     * fired decision runs */
                                    for (int64_t nx = 0; nx < N; nx++)
                                        hy_scores[cbase + nx] = 0.0;
                                    hy_seen[page] = 0;
                                }
                            }
                        } else if (hybrid
                                   || ((vm_replica_mask[page] >> node) & 1) == 0) {
                            /* a MigRep policy the walk does not know — or a
                             * known one in the hybrid with such an R-NUMA
                             * evaluation pending (a relocation would change
                             * its answer): defer to the Python evaluation */
                            eval_mask |= 2;
                        }
                    }
                }
                /* a fired decision runs its page operation after the fill and
                 * before the L1 fill below; the two that need Python bail */
                if (reloc) {
                    if (pc_cap[node] >= 0 && pc_count[node][0] >= pc_cap[node]) {
                        /* full page cache: the eviction runs in Python */
                        out[OUT_SERVICE] = service;
                        out[OUT_VERSION] = version;
                        BAIL(RC_BAIL_RELOCATE);
                    }
                    pageop = relocate(&ops, node, page);
                } else if (replicate_it) {
                    pageop = replicate(&ops, page, node, start);
                } else if (migrate_it) {
                    if (vm_replicated[page]) {
                        /* vm.migrate refuses a replicated page: let it raise */
                        out[OUT_SERVICE] = service;
                        out[OUT_VERSION] = version;
                        BAIL(RC_BAIL_MIGRATE);
                    }
                    pageop = migrate(&ops, page, node, start);
                }
                if (eval_mask) {
                    /* unknown-policy evaluation point: the fill is accounted;
                     * Python evaluates the decisions named by the mask
                     * (1 = R-NUMA, 2 = MigRep) */
                    out[OUT_SERVICE] = service;
                    out[OUT_VERSION] = version;
                    out[OUT_EVAL] = eval_mask;
                    BAIL(RC_BAIL_DECIDE);
                }
            }

            /* generic tail: L1 fill + eviction notification */
            int64_t old = cb_p[idx];
            if (old >= 0 && old != block) {
                pp[PP_EVICT * P + p] += 1;
                cb_p[idx] = block;
                cv_p[idx] = version;
                cd_p[idx] = (uint8_t)is_write;
                L1_EVICT_NOTE();
            } else {
                cb_p[idx] = block;
                cv_p[idx] = version;
                cd_p[idx] = (uint8_t)is_write;
            }
            pp[PP_ACC_CONT * P + p] += wait;
            if (remote)
                pp[PP_ACC_REMOTE * P + p] += service;
            else
                pp[PP_ACC_LOCAL * P + p] += service;
            pp[PP_ACC_PAGEOP * P + p] += pageop;
            pp[PP_ACC_FAULT * P + p] += fault;
            pp[PP_CLOCK * P + p] = clock + wait + service + pageop + fault;
        }

        /* the phase barrier (TimingStats.barrier): every processor waits
         * for the latest clock plus the barrier cost.  Processors without
         * a stream take part through their largest clock at run start;
         * after the first barrier none of them is ahead. */
        int64_t target = idle_clock;
        for (int64_t p = 0; p < P; p++)
            if (pp[PP_CLOCK * P + p] > target)
                target = pp[PP_CLOCK * P + p];
        target += barrier_cost;
        for (int64_t p = 0; p < P; p++) {
            pp[PP_ACC_BARRIER * P + p] += target - pp[PP_CLOCK * P + p];
            pp[PP_CLOCK * P + p] = target;
        }
    }

    mut[MUT_PHASE] = phase;
    mut[MUT_K] = 0;
    return RC_DONE;
}
