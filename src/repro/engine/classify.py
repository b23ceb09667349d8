"""Vectorised per-phase reference classification for the batched engine.

The batched engine splits each phase's references into three classes:

``CLS_FAST``
    *Guaranteed* L1 read hits.  They are never executed individually: the
    engine resolves them in bulk (their cycle costs are pure array
    arithmetic, their only side effect is the cache hit counter).
``CLS_PROBE``
    References that *might* hit (the line may hold the block, but the
    outcome depends on runtime state such as version freshness or the
    dirty bit).  The engine performs the exact single-reference probe.
``CLS_MISS``
    References whose line provably cannot hold the block — the engine
    skips the probe entirely and goes straight to the miss path.

The classification is *sound* with respect to the reference interpreter
(:mod:`repro.engine.legacy`): a ``CLS_FAST`` reference resolves to a read
hit under the interpreter, and a ``CLS_MISS`` reference to a plain miss
(no stale-line invalidation).  The argument, in terms of the simulator's
lazy-invalidation model:

1.  **Occupancy is self-determined.**  After a processor references block
    ``B``, its direct-mapped line ``B % lines`` holds ``B`` — on a hit it
    already did, on a stale hit or miss the subsequent fill installs it.
    Hence "the previous own reference to this line was the same block"
    (an *occupancy hit*) and "it was a different block" (an *occupancy
    miss*) are computable per processor without simulating other
    processors.  External page-operation shootdowns can only *drop*
    lines, so they can turn an occupancy hit into a miss but never the
    reverse — ``CLS_MISS`` is unconditionally sound, while ``CLS_FAST``
    is revalidated through the cache ``watch`` hook (the engine demotes
    pending fast references to ``CLS_PROBE`` when a shootdown fires).

2.  **Freshness is bounded by writes.**  A cached copy only goes stale
    when the block's directory version is bumped, and versions are bumped
    exclusively by *writes* (write fills and upgrades).  A processor's own
    accesses always leave its copy fresh (fills record the current
    version, upgrades record the bumped one), so an occupancy-hit *read*
    with **no interleaved write to the same block by any processor** since
    the previous own reference is fresh — a guaranteed hit.  Writes are
    never classified fast (a shared-line write needs an upgrade).

3.  **Phase-boundary carry-over.**  The first reference a processor makes
    to a line in a phase is checked against the cache's current line state
    (:meth:`DirectMappedCache.line_state`); it is fast only if it would
    read-hit *now* and no write to the block precedes it in the phase.

The interleaving order used for "since the previous own reference" is the
interpreter's round-robin order: reference ``i`` of processor ``p`` has
global position ``i * num_procs + p``.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

#: Classification codes (values chosen so ``cls != CLS_FAST`` selects the
#: residual stream).
CLS_MISS = 0
CLS_FAST = 1
CLS_PROBE = 2


class ResidualSchedule:
    """One phase's residual references, in the walk's order.

    The walk order is the pre-merged ``entries`` list — ``(round, proc,
    probe?, block, is_write, slot)`` tuples in the reference
    interpreter's round-robin order — with ``keys`` carrying each
    entry's interleave position for cheap merging against demoted
    references.  Per processor:

    ``status[p]``
        The skip mask: ``status[p][s]`` is 1 when slot ``s`` (``p``'s
        ``s``-th residual reference) is a phase-boundary first touch that
        the live cache state proves fast, so the walk skips it; a
        shootdown demotes it again by clearing the byte.
    ``slot_of[p]``
        The slot holding each of ``p``'s references (-1 for statically
        fast ones): a shootdown demotes in-schedule references through
        ``status`` and queues the statically-fast ones.
    """

    __slots__ = ("entries", "keys", "status", "slot_of")

    def __init__(self, num_procs: int) -> None:
        self.entries: list = []
        self.keys: List[int] = []
        self.status: List[bytearray] = [bytearray() for _ in range(num_procs)]
        self.slot_of: List[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(num_procs)]


class _StaticSchedule:
    """Stream-derived classification of one phase, shared across runs.

    Everything here depends only on the reference streams and the cache
    *geometry* — not on the caches' contents, the directory, or any other
    run state — so it is computed once per (phase, geometry) and reused
    by every subsequent run of the same trace in the process (sweeps run
    the same trace under many systems; warm workers keep traces, and
    therefore these, alive across runs).  The one cache-state-dependent
    step — resolving the phase-boundary first touches against the live
    line state — happens per run in :func:`classify_phase`: first-touch
    references are *statically* residual probes, and a run marks the
    ones its cache state proves fast in the ``status`` mask.
    """

    __slots__ = ("out", "entries", "keys", "slot_of", "seg_counts",
                 "ft_prc", "ft_own", "ft_line", "ft_blk", "ft_wrt",
                 "ft_pw", "ft_slot")


def _build_static(blocks: Sequence[np.ndarray], writes: Sequence[np.ndarray],
                  lens: Sequence[int], num_procs: int,
                  num_lines: Sequence[int]) -> _StaticSchedule:
    """Build the stream-derived part of the classification (see above)."""
    total = sum(lens)

    # PhaseTrace normalizes streams at construction (int64 blocks, bool
    # writes), so concatenation involves no per-stream re-wrapping.
    blk = np.concatenate(blocks)
    wrt = np.concatenate(writes)
    prc = np.concatenate([np.full(n, p, dtype=np.int64)
                          for p, n in enumerate(lens)])
    own = np.concatenate([np.arange(n, dtype=np.int64) for n in lens])
    gpos = own * num_procs + prc

    # ---- last write to each block before each reference ------------------
    # One sort groups the references by (block, interleave position); a
    # running maximum over "write positions, floored per block" then gives
    # every reference the interleave position of the last write to its
    # block strictly before it (or -1 when there is none).  gpos needs
    # bits(total * num_procs); block ids get the rest of the int64.
    shift = max(int(total * num_procs).bit_length() + 1, 28)
    if int(blk.max(initial=0)).bit_length() + shift < 63:
        blk_keys = blk << shift
    else:  # pragma: no cover - astronomically large block ids
        # compress block ids to dense ranks so the composite key fits
        _, ranks = np.unique(blk, return_inverse=True)
        blk_keys = ranks.astype(np.int64) << shift
    self_keys = blk_keys | gpos
    by = np.argsort(self_keys)     # keys are unique: no stability needed
    bk_sorted = blk_keys[by]
    # a write contributes its own key; a read contributes a sentinel that
    # is larger than every smaller block's key but smaller than every key
    # of its own block, so the running maximum never crosses block groups
    vals = np.where(wrt[by], self_keys[by], bk_sorted - 1)
    run = np.maximum.accumulate(vals)
    pw_sorted = np.empty(total, dtype=np.int64)
    pw_sorted[0] = -1
    np.subtract(run[:-1], bk_sorted[1:], out=pw_sorted[1:])
    # now pw_sorted >= 0 iff the previous max is a write of the same block
    # (its key >= my block key); the value is then that write's gpos
    np.clip(pw_sorted, -1, None, out=pw_sorted)
    pw = np.empty(total, dtype=np.int64)
    pw[by] = pw_sorted             # last write to my block before me, or -1

    # ---- occupancy: previous reference to the same (proc, line) ----------
    # Composite (proc, line) keys are small ints: when they fit in int16
    # the single stable argsort is a cheap radix sort.  Each processor's
    # segment of the concatenated arrays is already in interleave order,
    # which the stable sort preserves within each (proc, line) group.
    # All caches share one geometry (Processor.create sizes them equally),
    # but compute the line per proc anyway to stay general.
    max_lines = max(num_lines)
    if num_lines.count(num_lines[0]) == num_procs:
        lines = blk % num_lines[0]
    else:  # pragma: no cover - heterogeneous cache geometries
        lines = np.empty(total, dtype=np.int64)
        off = 0
        for p, n in enumerate(lens):
            if n:
                lines[off:off + n] = blk[off:off + n] % num_lines[p]
            off += n
    key = prc * max_lines + lines
    if max_lines * num_procs < 2 ** 15:
        key = key.astype(np.int16)
    elif max_lines * num_procs < 2 ** 31:  # pragma: no cover - huge caches
        key = key.astype(np.int32)
    order = np.argsort(key, kind="stable")
    kk = key[order]
    same = kk[1:] == kk[:-1]
    tgt = order[1:][same]
    src = order[:-1][same]
    prev_line_blk = np.full(total, -1, dtype=np.int64)
    prev_line_blk[tgt] = blk[src]
    occ_hit = prev_line_blk == blk

    # ---- guaranteed hits --------------------------------------------------
    # For a direct-mapped cache, an occupancy hit means the previous
    # same-line reference *is* the previous own reference to this block
    # (all own references to a block share its line).  The reference is a
    # guaranteed read hit when no write to its block lies between that
    # previous own reference and itself: last-write-before-me <= prev-own.
    prev_own = np.full(total, -2, dtype=np.int64)
    prev_own[tgt] = gpos[src]
    fast = occ_hit & ~wrt
    fast &= pw <= prev_own
    probe = occ_hit & ~fast

    out = np.zeros(total, dtype=np.int8)
    out[probe] = CLS_PROBE
    out[fast] = CLS_FAST

    # ---- phase-boundary carry-over: first touch of each line -------------
    # The first reference a processor makes to a line in the phase can
    # only be resolved against the *live* cache state, which this static
    # pass must not see.  First touches are therefore statically residual
    # probes (exact: the engine's probe path reproduces the reference
    # interpreter's probe for resident, stale and absent lines alike),
    # and :func:`classify_phase` marks fast, per run, the ones the run's
    # line state proves to be guaranteed hits.
    st = _StaticSchedule()
    first_touch = np.ones(total, dtype=bool)
    first_touch[tgt] = False
    ft_idx = np.flatnonzero(first_touch)
    out[ft_idx] = CLS_PROBE
    st.ft_prc = prc[ft_idx].tolist()
    st.ft_own = own[ft_idx].tolist()
    st.ft_line = lines[ft_idx].tolist()
    st.ft_blk = blk[ft_idx].tolist()
    st.ft_wrt = wrt[ft_idx].tolist()
    st.ft_pw = pw[ft_idx].tolist()

    st.out = out
    res = np.flatnonzero(out != CLS_FAST)

    # Per-proc slot numbers: slot s of proc p is p's s-th residual ref.
    # `res` is in flat (per-proc-concatenated) order, so each processor's
    # residual entries form one contiguous, own-order segment of it.
    seg_counts = np.bincount(prc[res], minlength=num_procs)
    seg_start = np.cumsum(seg_counts) - seg_counts
    slot_global = np.full(total, -1, dtype=np.int64)
    slot_global[res] = (np.arange(len(res), dtype=np.int64)
                        - seg_start[prc[res]])
    st.seg_counts = [int(c) for c in seg_counts]
    st.ft_slot = slot_global[ft_idx].tolist()

    st.slot_of = []
    off = 0
    for n in lens:
        st.slot_of.append(slot_global[off:off + n])
        off += n

    rsel = res[np.argsort(gpos[res])]      # interleave order
    st.keys = gpos[rsel].tolist()
    st.entries = list(zip((gpos[rsel] // num_procs).tolist(),
                          prc[rsel].tolist(),
                          (out[rsel] == CLS_PROBE).tolist(),
                          blk[rsel].tolist(),
                          wrt[rsel].tolist(),
                          slot_global[rsel].tolist()))
    return st


def classify_phase(blocks: Sequence[np.ndarray], writes: Sequence[np.ndarray],
                   caches: Sequence[object],
                   version_of: Callable[[int], int], *,
                   phase: object = None):
    """Classify one phase's references for every processor.

    Parameters
    ----------
    blocks, writes:
        Per-processor reference streams (``writes`` non-zero marks writes).
    caches:
        The processors' :class:`~repro.mem.cache.DirectMappedCache` objects
        in their *current* (phase-start) state.
    version_of:
        Directory version lookup (``block -> version``).
    phase:
        The owning :class:`~repro.workloads.trace.PhaseTrace` (or any
        object with a writable ``__dict__``).  When given, the
        stream-derived part of the classification is cached on it and
        reused by every later run of the same phase with the same cache
        geometry — sweeps re-run the same trace under many systems, and
        warm workers keep traces alive across runs.

    Returns ``(cls, schedule)``: one ``int8`` array of ``CLS_*`` codes per
    processor, and the residual walk schedule as a
    :class:`ResidualSchedule` — the non-``CLS_FAST`` references in the
    reference interpreter's round-robin order (by round, then processor).
    Phase-boundary first touches that the current cache state proves to
    be guaranteed hits come back ``CLS_FAST`` in ``cls`` with their
    ``status`` byte set, rather than as a separate class.
    """
    num_procs = len(blocks)
    lens = [len(b) for b in blocks]
    total = sum(lens)
    if total == 0:
        return ([np.zeros(n, dtype=np.int8) for n in lens],
                ResidualSchedule(num_procs))

    num_lines = [c.num_lines for c in caches]
    geom = tuple(num_lines)
    cache_map = None
    if phase is not None:
        try:
            cache_map = phase.__dict__.setdefault("_classify_static", {})
        except (AttributeError, TypeError):  # pragma: no cover
            pass
    static = cache_map.get(geom) if cache_map is not None else None
    if static is None:
        static = _build_static(blocks, writes, lens, num_procs, num_lines)
        if cache_map is not None:
            cache_map[geom] = static

    # ---- per-run assembly: fresh mutable state over the shared facts -----
    out = static.out
    cls = []
    off = 0
    for n in lens:
        cls.append(out[off:off + n].copy())
        off += n
    schedule = ResidualSchedule(num_procs)
    schedule.entries = static.entries
    schedule.keys = static.keys
    schedule.slot_of = static.slot_of
    schedule.status = [bytearray(c) for c in static.seg_counts]

    # ---- first-touch resolution against the live cache state -------------
    # Few entries (at most one per processor cache line), so a plain
    # Python pass beats vectorising it.  A first touch is a guaranteed
    # hit iff it would read-hit now and no write to its block precedes it
    # in the phase; those are marked in the status mask (and are demoted
    # again by a mid-phase shootdown of their set).
    ft_prc = static.ft_prc
    if ft_prc:
        states = [c.line_state() for c in caches]
        ft_own = static.ft_own
        ft_line = static.ft_line
        ft_blk = static.ft_blk
        ft_wrt = static.ft_wrt
        ft_pw = static.ft_pw
        ft_slot = static.ft_slot
        status = schedule.status
        for k in range(len(ft_prc)):
            if ft_wrt[k] or ft_pw[k] >= 0:
                continue
            p = ft_prc[k]
            b = ft_blk[k]
            ln = ft_line[k]
            cb, cv, _cd = states[p]
            if cb[ln] == b and cv[ln] >= version_of(b):
                cls[p][ft_own[k]] = CLS_FAST
                status[p][ft_slot[k]] = 1
    return cls, schedule

