"""Unit tests for the kernel engine's zero-copy state marshalling.

The marshalling contract (:mod:`repro.engine.kernel.state`) promises
that every store view is an ``np.frombuffer`` over the owning object's
live buffer — writes on either side are immediately visible to the
other, no copies — and that the buffers are export-locked (growth
raises ``BufferError``) while the views exist.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from array import array
from pathlib import Path

import numpy as np
import pytest

from repro import base_config
from repro.cluster.machine import Machine
from repro.core.counters import MigRepCounters, RefetchCounters
from repro.core.decisions import (
    CompetitiveMigRepPolicy,
    CompetitiveRelocationPolicy,
    CostModelMigRepPolicy,
    CostModelRelocationPolicy,
    HysteresisRelocationPolicy,
    MigRepDecision,
    MigRepPolicy,
    RNUMAPolicy,
    _page_costs,
)
from repro.core.factory import build_system
from repro.engine.kernel import cbuild
from repro.engine.kernel.state import (
    CON_BPP, INT64_MAX, LAYOUT, NN_NIC_FREE, KernelState, lower_policy,
    schedule_arrays)
from repro.mem.page_table import MODE_CODES, PageMode
from repro.workloads.trace import PhaseTrace, Trace
from repro.workloads.tracefile import open_trace, write_trace_file


@pytest.fixture
def machine(small_config):
    return Machine(small_config, build_system("migrep"))


@pytest.fixture
def kstate(machine):
    num_procs = len(machine.processors)
    caches = [machine.processors[p].cache for p in range(num_procs)]
    node_of = [machine.processors[p].node_id for p in range(num_procs)]
    return KernelState(machine, num_procs, caches, node_of)


def _marshal(kstate, max_block=63):
    """Reserve and marshal one small run."""
    kstate.reserve(max_block)
    kstate.marshal_phase()


class TestZeroCopyViews:
    def test_store_views_share_memory(self, machine, kstate):
        """Every store view aliases the owner's buffer — no copies."""
        _marshal(kstate)
        vm = machine.vm
        directory = machine.directory
        pairs = [
            (kstate.vm_home, np.frombuffer(vm._home, dtype=np.int64)),
            (kstate.vm_replicated,
             np.frombuffer(vm._replicated, dtype=np.uint8)),
            (kstate.vm_first,
             np.frombuffer(vm._first_toucher, dtype=np.int64)),
            (kstate.vm_migrations,
             np.frombuffer(vm._migrations, dtype=np.int64)),
            (kstate.dir_sharers,
             np.frombuffer(directory._sharers, dtype=np.int64)),
            (kstate.dir_versions,
             np.frombuffer(directory._version, dtype=np.int64)),
            (kstate.pt_modes[0],
             np.frombuffer(machine.page_tables[0]._modes, dtype=np.uint8)),
            (kstate.pt_faults[0],
             np.frombuffer(machine.page_tables[0]._faults, dtype=np.int64)),
            (kstate.pt_writable[0],
             np.frombuffer(machine.page_tables[0]._writable, dtype=np.uint8)),
            (kstate.pt_remaps[0],
             np.frombuffer(machine.page_tables[0]._remaps, dtype=np.int64)),
            (kstate.bc_blocks[0],
             np.frombuffer(machine.block_caches[0]._blocks, dtype=np.int64)),
            (kstate.ctr_read,
             np.frombuffer(machine.protocol.counters._read, dtype=np.int64)),
        ]
        for view, owner in pairs:
            assert np.shares_memory(view, owner)

    def test_object_writes_visible_through_views(self, machine, kstate):
        _marshal(kstate)
        machine.vm.ensure_placed(3, 1)
        assert kstate.vm_home[3] == 1
        machine.page_tables[2].map_page(5, PageMode.LOCAL_HOME)
        assert kstate.pt_modes[2][5] == MODE_CODES[PageMode.LOCAL_HOME]

    def test_view_writes_visible_through_objects(self, machine, kstate):
        _marshal(kstate)
        kstate.vm_home[4] = 2
        assert machine.vm.home_of(4) == 2
        kstate.pt_modes[1][6] = MODE_CODES[PageMode.CCNUMA_REMOTE]
        assert machine.page_tables[1].mode_of(6) is PageMode.CCNUMA_REMOTE
        kstate.pt_faults[1][6] = 7
        assert machine.page_tables[1].entry(6).faults == 7

    def test_l1_line_views_share_memory(self, machine, kstate):
        _marshal(kstate)
        blocks_l, versions_l, dirty_l = kstate.caches[0].line_state()
        assert np.shares_memory(
            kstate.cb[0], np.frombuffer(blocks_l, dtype=np.int64))
        assert np.shares_memory(
            kstate.cd[0], np.frombuffer(dirty_l, dtype=np.uint8))


class TestExportLocks:
    def test_growth_raises_while_views_live(self, machine, kstate):
        """In-place store growth must fail loudly, not dangle pointers."""
        _marshal(kstate)
        with pytest.raises(BufferError):
            machine.vm.reserve(100_000)
        with pytest.raises(BufferError):
            machine.page_tables[0].reserve(100_000)

    def test_release_drops_locks(self, machine, kstate):
        _marshal(kstate)
        kstate.release()
        machine.vm.reserve(100_000)
        assert machine.vm.home_of(99_999) is None

    def test_release_drops_the_bound_runner(self, machine, kstate):
        """A runner pins the arrays it was bound over, as the C binding
        does; release must drop it with the views so growth works."""
        def bind(args):
            def runner():
                return 0
            runner.keepalive = args
            return runner

        _marshal(kstate)
        # one phase whose one stream holds 4 references
        kstate.bind_walk(bind, [np.arange(4, dtype=np.int64)],
                         [np.zeros(4, dtype=np.uint8)], [4], [2])
        # the walk's arguments after the stream tables
        ph_len, ph_compute = kstate.runner.keepalive[37:39]
        assert ph_len.tolist() == [4] and ph_compute.tolist() == [2]
        kstate.release()
        assert kstate.runner is None
        machine.vm.reserve(100_000)
        machine.directory.reserve(100_000)

    def test_reserve_covers_whole_pages(self, machine, kstate):
        """Bail-time page operations touch every block of a page, so the
        reserve must cover the trace's maxima rounded up to pages."""
        max_block = 63
        _marshal(kstate, max_block=max_block)
        bpp = int(kstate.con[CON_BPP])
        max_page = max_block // bpp
        assert len(kstate.vm_home) >= max_page + 1
        assert len(kstate.dir_sharers) >= (max_page + 1) * bpp
        for view in kstate.pt_modes:
            assert len(view) >= max_page + 1


class TestMirrors:
    def test_nic_sync_roundtrip(self, machine, kstate):
        _marshal(kstate)
        kstate.load_absolutes()
        N = kstate.num_nodes
        kstate.nn[NN_NIC_FREE * N + 1] = 1234
        kstate.sync_nics_out()
        assert machine.network._nics[1].next_free == 1234
        machine.network._nics[1].next_free = 5678
        kstate.load_nics()
        assert kstate.nn[NN_NIC_FREE * N + 1] == 5678


class TestScheduleArrays:
    def test_columns_share_the_phase_streams(self, tmp_path):
        """The walk reads each phase's own streams, also off an ``.rpt``
        mmap: the blocks as they are, the write flags as uint8."""
        phase = PhaseTrace(
            name="p", compute_per_access=1,
            blocks=[np.asarray([1, 1, 2], dtype=np.int64),
                    np.asarray([], dtype=np.int64)],
            writes=[np.asarray([True, False, True]),
                    np.asarray([], dtype=bool)])
        path = write_trace_file(
            Trace(name="t", num_procs=2, phases=[phase]), tmp_path / "t.rpt")
        for ph in (phase, open_trace(path).phases[0]):
            blocks, writes = schedule_arrays(ph)
            assert [b.dtype for b in blocks] == [np.int64] * 2
            assert [w.dtype for w in writes] == [np.uint8] * 2
            assert np.shares_memory(blocks[0], ph.blocks[0])
            assert np.shares_memory(writes[0], ph.writes[0])
            assert writes[0].tolist() == [1, 0, 1]
            assert [len(b) for b in blocks] == [3, 0]


class TestGeneratedLayout:
    """cwalk.c takes its layout constants from state.py at build time."""

    def test_every_constant_is_defined_from_state(self):
        source = cbuild._source().decode()
        for name, value in LAYOUT.items():
            assert f"#define {name} {value}\n" in source
        assert "#define CON_" not in cbuild._SOURCE.read_text()


def _migrep_rows(limits):
    """Counter rows (reads, writes) over four nodes, home 0 and requester
    1, putting each count a lowered MigRep rule tests at ``T - 1`` ..
    ``T + 2`` of its limit ``T``: the requester's reads, the migration
    advantage (negative ones too) and the page total the evidence gate
    reads.  Node 2's one write rules replication out of the migration
    rows; node 3's reads pad a page total without moving either test."""
    rep, mig, samples = limits
    rows = []
    for reads in range(rep - 1, rep + 3):
        rows.append(([0, reads, 0, 0], [0, 0, 0, 0]))
    for adv in (*range(mig - 1, mig + 3), -1, -7, -mig - 2):
        home = max(0, -adv)
        rows.append(([home, home + adv, 0, 0], [0, 0, 1, 0]))
    for total in range(samples - 1, samples + 3):
        rows.append(([0, rep + 1, 0, total - rep - 1], [0, 0, 0, 0]))
        rows.append(([0, mig + 1, 0, total - mig - 2], [0, 0, 1, 0]))
    # every cell a count the int64 counter columns can hold
    return [(r, w) for r, w in rows if all(0 <= c <= INT64_MAX for c in r + w)]


def _lowered_migrep(limits, policy, reads, writes):
    """The walk's threshold lane over one counter row (home 0, requester 1)."""
    rep, mig, samples = limits
    if samples and sum(reads) + sum(writes) < samples:
        return MigRepDecision.NONE
    if (policy.enable_replication and sum(writes) - writes[0] == 0
            and reads[1] > rep):
        return MigRepDecision.REPLICATE
    if (policy.enable_migration
            and reads[1] + writes[1] - reads[0] - writes[0] > mig):
        return MigRepDecision.MIGRATE
    return MigRepDecision.NONE


def _stock_policies():
    """Every stateless stock policy over a grid of parameters: the costs
    of both configurations, fractional payback factors, every evidence
    gate up to 9, and rules past the int64 maximum."""
    from test_kernel_lanes import _harsh_config
    factors = (0.37, 1.0, 1.5, 2.0, 3.3)
    for cfg in (base_config(), _harsh_config()):
        benefit, migration, replication, relocation = _page_costs(cfg)
        for flags in ((True, True), (True, False), (False, True)):
            mig, rep = flags
            yield MigRepPolicy(threshold=cfg.thresholds.effective_migrep_threshold,
                               enable_migration=mig, enable_replication=rep)
            for beta in (*factors, 1e20):
                yield CompetitiveMigRepPolicy(
                    benefit, migration, replication, beta=beta,
                    enable_migration=mig, enable_replication=rep)
            for margin in (*factors, 1e300, 1e306):
                for samples in range(10):
                    yield CostModelMigRepPolicy(
                        benefit, migration, replication, margin=margin,
                        min_samples=samples, enable_migration=mig,
                        enable_replication=rep)
        for delay in (0, 3):
            for threshold in (1, 2, cfg.thresholds.effective_rnuma_threshold,
                              2 ** 70):
                yield RNUMAPolicy(threshold=threshold, relocation_delay=delay)
            for beta in (*factors, 1e20):
                yield CompetitiveRelocationPolicy(
                    benefit, relocation, beta=beta, relocation_delay=delay)
            for margin in (*factors, 1e300, 1e306):
                for samples in range(10):
                    yield CostModelRelocationPolicy(
                        benefit, relocation, margin=margin,
                        min_samples=samples, relocation_delay=delay)
    yield MigRepPolicy(threshold=2 ** 70)


class TestPolicyLowering:
    """Each stateless stock policy lowers to integer strict-greater
    limits that decide exactly as its own ``evaluate`` /
    ``should_relocate`` does, at and around every limit."""

    def test_lowered_rules_agree_at_their_boundaries(self):
        clamped = set()
        checked = 0
        page = 5
        for policy in _stock_policies():
            lane, limits = lower_policy(policy)
            assert lane == "threshold", policy
            assert all(-1 <= t <= INT64_MAX for t in limits), (policy, limits)
            if INT64_MAX in limits:
                clamped.add(type(policy))
            if hasattr(policy, "evaluate"):
                for reads, writes in _migrep_rows(limits):
                    counters = MigRepCounters(4, reset_interval=1)
                    counters.reserve(page + 1)
                    counters._read[page * 4:page * 4 + 4] = array("q", reads)
                    counters._write[page * 4:page * 4 + 4] = array("q", writes)
                    counters._live_r[page] = any(reads)
                    counters._live_w[page] = any(writes)
                    assert policy.evaluate(counters, page, 1, 0) is \
                        _lowered_migrep(limits, policy, reads, writes), (
                            policy, limits, reads, writes)
                    checked += 1
                continue
            (limit,) = limits
            delay = policy.relocation_delay
            for count in range(limit - 1, limit + 3):
                if not 0 <= count <= INT64_MAX:
                    continue
                for total in {0, delay - 1, delay, delay + 1}:
                    counters = RefetchCounters()
                    counters.reserve(page + 1)
                    counters._counts[page] = count
                    fires = (not delay or total >= delay) and count > limit
                    assert policy.should_relocate(
                        counters, page, page_total_misses=total) is fires, (
                            policy, limit, count, total)
                    checked += 1
        assert checked > 5_000
        # a rule past the int64 maximum clamps there, in every family
        assert clamped == {MigRepPolicy, CompetitiveMigRepPolicy,
                           CostModelMigRepPolicy, RNUMAPolicy,
                           CompetitiveRelocationPolicy,
                           CostModelRelocationPolicy}

    def test_cost_model_limit_follows_the_float_product(self):
        """``count * benefit > margin * cost`` with the product as Python
        forms it: 2.8 * 45 is 125.99999999999999, so 63 refetches at
        benefit 2 already pay (126 > 125.99...), and the limit is 62,
        not the 63 that the decimal product 126 would give."""
        policy = CostModelRelocationPolicy(miss_benefit=2, relocation_cost=45,
                                           margin=2.8, min_samples=0)
        assert policy.margin * policy.relocation_cost < 126
        assert lower_policy(policy) == ("threshold", (62,))
        counters = RefetchCounters()
        for _ in range(63):
            counters.record_refetch(0)
        assert policy.should_relocate(counters, 0)
        # the evidence gate lifts the limit to min_samples - 1
        gated = dataclasses.replace(policy, min_samples=80)
        assert lower_policy(gated) == ("threshold", (79,))
        # the floor of the quotient is exact where a float division
        # would round up to the next integer
        product = float(2 ** 55 + 8)
        big = CostModelRelocationPolicy(miss_benefit=3, relocation_cost=1,
                                        margin=product, min_samples=0)
        limit = 12009599006321325
        assert product / 3 == limit + 1
        assert lower_policy(big) == ("threshold", (limit,))
        assert 3 * limit < product < 3 * (limit + 1)

    def test_hysteresis_and_unknown_policies(self):
        hyst = HysteresisRelocationPolicy(threshold=2.5, decay=0.9)
        assert lower_policy(hyst) == ("hysteresis", (2.5, 0.9))

        class UserRule(RNUMAPolicy):
            pass

        # a subclass may override the rule: only the exact type lowers
        assert lower_policy(UserRule(threshold=4)) is None
        assert lower_policy(object()) is None


class TestBuildCommand:
    """The walk is compiled without floating-point contraction, and the
    compile flags are part of the shared object's cache key."""

    def test_fp_contraction_is_off(self):
        cmd = cbuild._command("cc", Path("out.so"), Path("walk.c"))
        assert "-ffp-contract=off" in cmd
        assert cmd[0] == "cc" and cmd[-1] == "walk.c"

    def test_changed_flags_change_the_cache_name(self, monkeypatch):
        source = cbuild._source()
        digest = cbuild._digest(source)
        monkeypatch.setattr(cbuild, "_CFLAGS", (*cbuild._CFLAGS, "-DX"))
        assert cbuild._digest(source) != digest
        assert cbuild._digest(source + b"\n") != digest


@pytest.fixture(scope="module")
def built_walk(tmp_path_factory):
    """A walk built into a cache directory of its own, shared by the
    cache tests below, which copy it into their own caches."""
    if ("REPRO_KERNEL_CC" in os.environ) or cbuild._compiler() is None:
        pytest.skip("no working C toolchain")
    cache = tmp_path_factory.mktemp("kernel-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_KERNEL_CACHE", str(cache))
        assert cbuild._build() is not None
    (path,) = cache.glob("cwalk-*.so")
    return path


class TestBuildCache:
    """What the shared-object cache holds and when it is used."""

    def test_unresolved_compiler_override_beats_the_cache(
            self, built_walk, tmp_path, monkeypatch):
        shutil.copy(built_walk, tmp_path / built_walk.name)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_KERNEL_CC", "/nonexistent-compiler")
        assert cbuild._compiler() is None
        assert cbuild._build() is None
        # with no override a cached walk loads, compiler or not
        monkeypatch.delenv("REPRO_KERNEL_CC")
        monkeypatch.setattr(cbuild, "_compiler", lambda: None)
        assert cbuild._build().repro_kernel_walk
        assert [p.name for p in tmp_path.iterdir()] == [built_walk.name]

    def test_build_prunes_superseded_walks(self, built_walk, tmp_path,
                                           monkeypatch):
        stale = tmp_path / "cwalk-0000000000000000.so"
        stale.write_bytes(b"a walk of an older revision")
        other = tmp_path / "notes.txt"
        other.write_text("not a walk")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        assert cbuild._build().repro_kernel_walk
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            built_walk.name, "notes.txt"]
