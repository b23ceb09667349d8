"""Tests for repro.workloads: specs, trace containers, generator, registry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MachineConfig, reduced_machine
from repro.workloads import (
    APPLICATIONS,
    get_spec,
    get_workload,
    list_workloads,
)
from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import PageGroup, Phase, SharingPattern, WorkloadSpec
from repro.workloads.trace import PhaseTrace, Trace

from helpers import make_simple_spec, make_trace


class TestSpecValidation:
    def test_valid_group(self):
        g = PageGroup(name="g", num_pages=4, pattern=SharingPattern.PRIVATE)
        assert g.write_fraction == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"name": "", "num_pages": 4, "pattern": SharingPattern.PRIVATE},
        {"name": "g", "num_pages": 0, "pattern": SharingPattern.PRIVATE},
        {"name": "g", "num_pages": 4, "pattern": SharingPattern.PRIVATE,
         "write_fraction": 1.5},
        {"name": "g", "num_pages": 4, "pattern": SharingPattern.PRIVATE,
         "hot_fraction": 0.0},
        {"name": "g", "num_pages": 4, "pattern": SharingPattern.PRIVATE,
         "hot_weight": 0.5},  # hot_weight < 1 requires hot_fraction < 1
        {"name": "g", "num_pages": 4, "pattern": SharingPattern.PRIVATE,
         "touches_per_page": 0},
        {"name": "g", "num_pages": 4, "pattern": SharingPattern.PRIVATE,
         "node_affinity": 1.5},
    ])
    def test_invalid_groups_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PageGroup(**kwargs)

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            Phase(name="p")                                  # no accesses
        with pytest.raises(ValueError):
            Phase(name="p", accesses_per_proc=10)            # no weights
        with pytest.raises(ValueError):
            Phase(name="p", accesses_per_proc=10, weights={"g": 0.0})
        with pytest.raises(ValueError):
            Phase(name="", accesses_per_proc=10, weights={"g": 1.0})
        with pytest.raises(ValueError):
            Phase(name="p", accesses_per_proc=10, weights={"g": 1.0},
                  write_override=2.0)
        # touch phases do not need accesses/weights
        Phase(name="init", touch_groups=("g",))

    def test_workload_spec_validation(self):
        g = PageGroup(name="g", num_pages=4, pattern=SharingPattern.PRIVATE)
        p = Phase(name="p", accesses_per_proc=10, weights={"g": 1.0})
        spec = WorkloadSpec(name="w", description="d", groups=(g,), phases=(p,))
        assert spec.group("g") is g
        assert spec.total_pages() == 4
        assert spec.total_accesses_per_proc() == 10
        with pytest.raises(KeyError):
            spec.group("missing")
        # unknown group in weights
        bad_phase = Phase(name="p", accesses_per_proc=10, weights={"x": 1.0})
        with pytest.raises(ValueError):
            WorkloadSpec(name="w", description="d", groups=(g,),
                         phases=(bad_phase,))
        # duplicate group names
        with pytest.raises(ValueError):
            WorkloadSpec(name="w", description="d", groups=(g, g), phases=(p,))
        with pytest.raises(ValueError):
            WorkloadSpec(name="w", description="d", groups=(), phases=(p,))
        with pytest.raises(ValueError):
            WorkloadSpec(name="w", description="d", groups=(g,), phases=())


class TestTraceContainers:
    def test_phase_trace_validation(self):
        blocks = [np.array([1, 2]), np.array([3])]
        writes = [np.array([0, 1]), np.array([0])]
        pt = PhaseTrace(name="p", compute_per_access=4, blocks=blocks,
                        writes=writes)
        assert pt.num_procs == 2
        assert pt.accesses() == 3
        assert pt.write_fraction() == pytest.approx(1 / 3)
        with pytest.raises(ValueError):
            PhaseTrace(name="p", compute_per_access=-1, blocks=blocks,
                       writes=writes)
        with pytest.raises(ValueError):
            PhaseTrace(name="p", compute_per_access=1, blocks=blocks,
                       writes=[np.array([0, 1])])
        with pytest.raises(ValueError):
            PhaseTrace(name="p", compute_per_access=1,
                       blocks=[np.array([1, 2])], writes=[np.array([0])])

    def test_trace_validation_and_summary(self):
        blocks = [np.array([0, 16, 32]), np.array([0])]
        writes = [np.array([0, 0, 1]), np.array([1])]
        phase = PhaseTrace(name="p", compute_per_access=4, blocks=blocks,
                           writes=writes)
        trace = Trace(name="t", num_procs=2, phases=[phase])
        assert trace.total_accesses() == 4
        assert trace.touched_blocks() == 3
        assert trace.touched_pages(blocks_per_page=16) == 3
        summary = trace.summary()
        assert summary["accesses"] == 4
        with pytest.raises(ValueError):
            Trace(name="t", num_procs=3, phases=[phase])
        with pytest.raises(ValueError):
            Trace(name="t", num_procs=0, phases=[])


class TestGenerator:
    def test_determinism(self, tiny_machine):
        spec = make_simple_spec()
        t1 = make_trace(spec, tiny_machine, seed=3)
        t2 = make_trace(spec, tiny_machine, seed=3)
        assert t1.total_accesses() == t2.total_accesses()
        for p1, p2 in zip(t1.phases, t2.phases):
            for a, b in zip(p1.blocks, p2.blocks):
                assert np.array_equal(a, b)
            for a, b in zip(p1.writes, p2.writes):
                assert np.array_equal(a, b)

    def test_different_seed_changes_trace(self, tiny_machine):
        spec = make_simple_spec()
        t1 = make_trace(spec, tiny_machine, seed=1)
        t2 = make_trace(spec, tiny_machine, seed=2)
        different = any(
            not np.array_equal(a, b)
            for p1, p2 in zip(t1.phases, t2.phases)
            for a, b in zip(p1.blocks, p2.blocks))
        assert different

    def test_invalid_scales(self, tiny_machine):
        spec = make_simple_spec()
        with pytest.raises(ValueError):
            TraceGenerator(spec, tiny_machine, access_scale=0)
        with pytest.raises(ValueError):
            TraceGenerator(spec, tiny_machine, page_scale=0)

    def test_access_scale_controls_length(self, tiny_machine):
        spec = make_simple_spec(accesses=400, phases=1)
        full = make_trace(spec, tiny_machine)
        half = TraceGenerator(spec, tiny_machine, access_scale=0.5).generate()
        # the init phase is unaffected by access scale; compare work phases
        assert len(half.phases[1].blocks[0]) == len(full.phases[1].blocks[0]) // 2

    def test_blocks_within_declared_pages(self, tiny_machine):
        spec = make_simple_spec(pages=16)
        gen = TraceGenerator(spec, tiny_machine, seed=0)
        trace = gen.generate()
        bpp = tiny_machine.blocks_per_page
        max_block = gen.total_pages() * bpp
        for phase in trace.phases:
            for arr in phase.blocks:
                if len(arr):
                    assert arr.min() >= 0
                    assert arr.max() < max_block

    def test_private_pages_partitioned_per_proc(self, tiny_machine):
        spec = make_simple_spec(pattern=SharingPattern.PRIVATE, pages=16,
                                phases=1)
        gen = TraceGenerator(spec, tiny_machine, seed=0)
        trace = gen.generate()
        bpp = tiny_machine.blocks_per_page
        work = trace.phases[1]
        page_sets = [set((np.asarray(arr) // bpp).tolist()) for arr in work.blocks]
        for i in range(len(page_sets)):
            for j in range(i + 1, len(page_sets)):
                assert not page_sets[i] & page_sets[j], \
                    "private partitions must not overlap"

    def test_migratory_shift_moves_accesses_off_owner(self, tiny_machine):
        spec_own = make_simple_spec(pattern=SharingPattern.MIGRATORY, pages=16,
                                    phases=1, shift=0)
        spec_shift = make_simple_spec(pattern=SharingPattern.MIGRATORY, pages=16,
                                      phases=1, shift=1)
        gen_own = TraceGenerator(spec_own, tiny_machine, seed=0)
        gen_shift = TraceGenerator(spec_shift, tiny_machine, seed=0)
        bpp = tiny_machine.blocks_per_page
        own_pages = set((np.asarray(gen_own.generate().phases[1].blocks[0]) // bpp).tolist())
        shift_pages = set((np.asarray(gen_shift.generate().phases[1].blocks[0]) // bpp).tolist())
        assert own_pages != shift_pages

    def test_streaming_touches_per_page_bounded(self, tiny_machine):
        spec = make_simple_spec(pattern=SharingPattern.STREAMING, pages=32,
                                phases=1, accesses=256, touches_per_page=8)
        gen = TraceGenerator(spec, tiny_machine, seed=0)
        trace = gen.generate()
        bpp = tiny_machine.blocks_per_page
        pages = np.asarray(trace.phases[1].blocks[0]) // bpp
        _, counts = np.unique(pages, return_counts=True)
        # a proc never touches one page more than ~2x the configured budget
        assert counts.max() <= 2 * 8

    def test_write_override_suppresses_writes(self, tiny_machine):
        group = PageGroup(name="data", num_pages=8,
                          pattern=SharingPattern.READ_WRITE_SHARED,
                          write_fraction=0.9)
        phase = Phase(name="read", accesses_per_proc=200, weights={"data": 1.0},
                      write_override=0.0)
        spec = WorkloadSpec(name="w", description="d", groups=(group,),
                            phases=(phase,))
        trace = make_trace(spec, tiny_machine)
        assert trace.phases[0].write_fraction() == 0.0

    def test_touch_phase_writes_by_owner_only(self, tiny_machine):
        spec = make_simple_spec(pattern=SharingPattern.PRIVATE, pages=16,
                                phases=1)
        gen = TraceGenerator(spec, tiny_machine, seed=0)
        trace = gen.generate()
        init = trace.phases[0]
        assert init.write_fraction() == 1.0
        bpp = tiny_machine.blocks_per_page
        for proc, arr in enumerate(init.blocks):
            for page in set((np.asarray(arr) // bpp).tolist()):
                assert gen.owner_proc_of_page("data", page) == proc

    def test_read_shared_homed_at_node_zero(self, tiny_machine):
        spec = make_simple_spec(pattern=SharingPattern.READ_SHARED, pages=8,
                                phases=1)
        gen = TraceGenerator(spec, tiny_machine, seed=0)
        for page in gen.pages_of_group("data"):
            assert gen.owner_proc_of_page("data", page) == 0

    def test_owner_proc_of_page_bounds(self, tiny_machine):
        spec = make_simple_spec(pages=8, phases=1)
        gen = TraceGenerator(spec, tiny_machine, seed=0)
        with pytest.raises(ValueError):
            gen.owner_proc_of_page("data", 10**6)

    def test_node_affinity_skews_distribution(self, tiny_machine):
        base = make_simple_spec(pattern=SharingPattern.READ_SHARED, pages=32,
                                phases=1, accesses=2000)
        affine_group = PageGroup(name="data", num_pages=32,
                                 pattern=SharingPattern.READ_SHARED,
                                 node_affinity=0.9)
        affine = WorkloadSpec(name="w", description="d", groups=(affine_group,),
                              phases=base.phases)
        gen = TraceGenerator(affine, tiny_machine, seed=0)
        trace = gen.generate()
        bpp = tiny_machine.blocks_per_page
        # node 1's processors should concentrate on node 1's slice
        proc_of_node1 = tiny_machine.procs_per_node  # first proc of node 1
        pages = np.asarray(trace.phases[1].blocks[proc_of_node1]) // bpp
        lo, hi = gen._node_partition(gen.layouts["data"], 1)
        in_slice = np.mean((pages >= lo) & (pages < hi))
        assert in_slice > 0.6

    @given(seed=st.integers(0, 100), pages=st.integers(4, 32),
           accesses=st.integers(50, 300))
    @settings(max_examples=15, deadline=None)
    def test_generated_traces_always_well_formed(self, seed, pages, accesses):
        machine = MachineConfig(num_nodes=2, procs_per_node=2, page_size=512,
                                l1_size=1024, block_cache_size=2048,
                                page_cache_size=4096)
        spec = make_simple_spec(pages=pages, accesses=accesses, phases=1)
        gen = TraceGenerator(spec, machine, seed=seed)
        trace = gen.generate()
        assert trace.num_procs == machine.num_processors
        for phase in trace.phases:
            assert phase.num_procs == trace.num_procs
            for blocks, writes in zip(phase.blocks, phase.writes):
                assert len(blocks) == len(writes)
                if len(blocks):
                    assert blocks.min() >= 0


class TestRegistry:
    def test_all_seven_applications_present(self):
        names = list_workloads()
        assert names == ("barnes", "cholesky", "fmm", "lu", "ocean", "radix",
                         "raytrace")
        assert set(APPLICATIONS) == set(names)

    @pytest.mark.parametrize("name", list(APPLICATIONS))
    def test_every_spec_builds_and_validates(self, name):
        spec = get_spec(name)
        assert spec.name == name
        assert spec.paper_input
        assert spec.total_pages() > 0
        assert spec.total_accesses_per_proc() > 0
        # every app starts with a first-touch initialisation phase
        assert spec.phases[0].touch_groups

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            get_spec("linpack")
        with pytest.raises(KeyError):
            get_workload("linpack")

    def test_get_workload_small_scale(self):
        trace = get_workload("ocean", scale=0.01, seed=5)
        machine = reduced_machine()
        assert trace.num_procs == machine.num_processors
        assert trace.total_accesses() > 0
        assert trace.metadata["spec"] == "ocean"
        assert trace.metadata["seed"] == 5

    def test_get_workload_respects_machine(self, tiny_machine):
        trace = get_workload("ocean", machine=tiny_machine, scale=0.01)
        assert trace.num_procs == tiny_machine.num_processors


#: ``trace_digest`` of every stock application on the experiment machine,
#: recorded before the touch phase was vectorized; any change to the
#: generator's streams or its RNG call sequence moves them.
GOLDEN_DIGESTS = {
    ("barnes", 0.15, 0): "b4857e4fb6d3dab90c47fcbe732c1e47",
    ("cholesky", 0.15, 0): "f7d6fad2641e742bea7d0d33c59d8dc4",
    ("fmm", 0.15, 0): "4ebfd581898d3928fa9e190cc37bfff1",
    ("lu", 0.15, 0): "5b5b24dadee3aef9390ed2f775458ac0",
    ("ocean", 0.15, 0): "cf15f400331cef8d8eadfcb1a088d134",
    ("radix", 0.15, 0): "1b88feeef4bd1dffd7c46f2e9cd05d4b",
    ("raytrace", 0.15, 0): "f720c1379016d11a560f85e48c8b22b9",
    ("barnes", 0.15, 1): "b4c89d3024ea0c680695ec6d73684283",
    ("cholesky", 0.15, 1): "a9bee65578d5bb101251d90655253f73",
    ("fmm", 0.15, 1): "8f549e86370fe08980bcde37c7ff9982",
    ("lu", 0.15, 1): "f87ff4bc64c5ec689ed541cfdb4db86b",
    ("ocean", 0.15, 1): "f91976433b43d03f63b467da3f2f5074",
    ("radix", 0.15, 1): "4926d293ac5eb0320f57d8a8340fd43c",
    ("raytrace", 0.15, 1): "960ac5faa9920e26c70d681c46f39c4e",
    ("barnes", 0.5, 0): "b1350db4d9f1a62c3a0bff225c71c005",
    ("cholesky", 0.5, 0): "dd1b848e212d994ed9f2658b75713383",
    ("fmm", 0.5, 0): "51f2d489cc282e0a3f369ce34dc001a0",
    ("lu", 0.5, 0): "77d2bd23c4b2354cc505c83faef2f3ce",
    ("ocean", 0.5, 0): "08ddc235ea614acfc17d6b61b3c56c0b",
    ("radix", 0.5, 0): "b55a6729fad3ac346cf43f96b5cd216a",
    ("raytrace", 0.5, 0): "3db1e0bdd5a74b7d2018d4f561e16fb0",
    ("barnes", 0.5, 1): "4b5a6904c1a029a69b9604de11a3caf3",
    ("cholesky", 0.5, 1): "45930efd0eefab22204cda24eec56edb",
    ("fmm", 0.5, 1): "de6b867f63064fd6240ab5d274e45884",
    ("lu", 0.5, 1): "3b28342efec7281126261dc653303cad",
    ("ocean", 0.5, 1): "50346c8b72b81c22b44932af589fbb2a",
    ("radix", 0.5, 1): "72cbf9ca6dadbbc0383145bcb3d4f773",
    ("raytrace", 0.5, 1): "dd8ed4484d3d2ecdac63c98f39b4c60f",
}


class TestGoldenDigests:
    """The stock traces stay bit for bit what the experiments were run on."""

    @pytest.mark.parametrize("scale,seed", [(0.15, 0), (0.15, 1),
                                            (0.5, 0), (0.5, 1)])
    def test_stock_trace_digests(self, scale, seed):
        from repro.config import base_config
        from repro.workloads.tracefile import trace_digest

        machine = base_config(seed=seed).machine
        got = {(app, scale, seed): trace_digest(
                   get_workload(app, machine=machine, scale=scale, seed=seed))
               for app in list_workloads()}
        want = {key: value for key, value in GOLDEN_DIGESTS.items()
                if key[1:] == (scale, seed)}
        assert got == want
