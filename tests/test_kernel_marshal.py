"""Unit tests for the kernel engine's zero-copy state marshalling.

The marshalling contract (:mod:`repro.engine.kernel.state`) promises
that every store view is an ``np.frombuffer`` over the owning object's
live buffer — writes on either side are immediately visible to the
other, no copies — and that the buffers are export-locked (growth
raises ``BufferError``) while the views exist.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.machine import Machine
from repro.core.factory import build_system
from repro.engine.kernel import cbuild
from repro.engine.kernel.state import (
    CON_BPP, LAYOUT, NN_NIC_FREE, KernelState, schedule_arrays)
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
    """Reserve and marshal one small phase."""
    kstate.reserve_for_phase(max_block)
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
        kstate.bind_walk(bind, ())
        kstate.release()
        assert kstate.runner is None
        machine.vm.reserve(100_000)
        machine.directory.reserve(100_000)

    def test_reserve_covers_whole_pages(self, machine, kstate):
        """Bail-time page operations touch every block of a page, so the
        reserve must cover the phase's maxima rounded up to pages."""
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
