"""Kernel lane equivalence: R-NUMA, page-cache probe and decision lanes.

The full-family kernel runs every stock system compiled, ``perfect``'s
infinite block cache included, and evaluates every stock decision
policy inside the walk.  These tests pin each lane of the C walk
against the batched engine bit-for-bit, under configurations harsh
enough to actually fire the lane: tiny block caches so capacity
refetches drive relocation storms, tiny page caches so S-COMA replaces
pages constantly, low thresholds so static, competitive, hysteresis and
cost-model decisions all trigger, and page operations flushing an
infinite block cache.  A policy the walk does not know (a user
subclass) still bails ``decide`` and matches ``legacy``.  Hypothesis
then hunts for orderings the hand-written traces miss; the store-growth
shapes pin traces whose later phases reach past the stores an earlier
phase needed, and the phase-boundary shapes pin bails on the first and
last reference of a phase, a walk split into segments, and traces with
no references at all.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.machine import Machine
from repro.config import (
    CostModel,
    MachineConfig,
    SimulationConfig,
    ThresholdConfig,
)
from repro.core.decisions import (
    POLICIES,
    CompetitiveMigRepPolicy,
    HysteresisRelocationPolicy,
    PolicySpec,
    build_policy,
)
from repro.core.factory import SYSTEM_NAMES, build_system
from repro.registry import register_policy
from repro.stats.timing import StallKind
from repro.workloads.importers import import_trace_file
from repro.workloads.spec import SharingPattern
from repro.workloads.trace import PhaseTrace, Trace
from repro.workloads.tracefile import open_trace

from helpers import (
    assert_invariants,
    make_simple_spec,
    make_trace,
    require_c_backend,
)
from test_engine_equivalence import draw_phases, fingerprint

#: adaptive / mixed-policy variants layered over the stock systems
POLICY_VARIANTS = {
    "migrep-competitive": ("migrep", {"migrep_policy": "competitive"}),
    "migrep-hysteresis": ("migrep", {"migrep_policy": "hysteresis"}),
    "rnuma-hysteresis": ("rnuma", {"rnuma_policy": "hysteresis"}),
    "rnuma-competitive": ("rnuma", {"rnuma_policy": "competitive"}),
    "hybrid-hysteresis": ("rnuma-migrep", {"migrep_policy": "hysteresis",
                                           "rnuma_policy": "hysteresis"}),
    "hybrid-mixed": ("rnuma-migrep", {"rnuma_policy": "competitive"}),
    "migrep-cost-model": ("migrep", {"migrep_policy": "cost-model"}),
    "rnuma-cost-model": ("rnuma", {"rnuma_policy": "cost-model"}),
    "hybrid-cost-model": ("rnuma-migrep", {"migrep_policy": "cost-model",
                                           "rnuma_policy": "cost-model"}),
}


def _harsh_config() -> SimulationConfig:
    """Small caches + low thresholds: every lane fires constantly."""
    return SimulationConfig(
        machine=MachineConfig(num_nodes=4, procs_per_node=2, block_size=64,
                              page_size=512, l1_size=512, l1_assoc=1,
                              block_cache_size=1024,
                              page_cache_size=4 * 512),
        costs=CostModel(),
        thresholds=ThresholdConfig(migrep_threshold=3,
                                   migrep_reset_interval=600,
                                   rnuma_threshold=2,
                                   hybrid_relocation_delay=2, scale=1.0),
        seed=1)


def _harsh_trace(cfg: SimulationConfig):
    spec = make_simple_spec(pattern=SharingPattern.MIGRATORY, pages=48,
                            accesses=1500, write_fraction=0.35, shift=1,
                            phases=3, touches_per_page=4)
    return make_trace(spec, cfg.machine, seed=23)


def _spec_for(name: str):
    if name in POLICY_VARIANTS:
        base, kwargs = POLICY_VARIANTS[name]
        return build_system(base).derive(name, **kwargs)
    if name == "migrep-infbc":
        # a page-op protocol over perfect's infinite block cache
        return build_system("migrep").derive(name, infinite_block_cache=True)
    return build_system(name)


def _op_totals(stats) -> dict:
    """Machine-wide relocation, replication and migration counts."""
    return {op: sum(getattr(n, op) for n in stats.nodes)
            for op in ("relocations", "replications", "migrations")}


def _assert_kernel_matches_batched(cfg, spec, trace, monkeypatch,
                                   expect_bails=(), expect_ops=(),
                                   with_legacy=False):
    require_c_backend()
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
    ref_machine = Machine(cfg, spec)
    ref_stats = ref_machine.run(trace, engine="batched")
    assert_invariants(ref_machine, ref_stats)
    ref = fingerprint(ref_machine, ref_stats)
    if with_legacy:
        legacy = Machine(cfg, spec)
        legacy_stats = legacy.run(trace, engine="legacy")
        assert_invariants(legacy, legacy_stats)
        assert fingerprint(legacy, legacy_stats) == ref
    machine = Machine(cfg, spec)
    stats = machine.run(trace, engine="kernel")
    assert_invariants(machine, stats)
    prof = stats.engine_profile
    assert prof["engine"] == "kernel", prof.get("fallback_reason")
    assert prof["backend"] == "c"
    assert prof["bails"] == sum(prof["bail_kinds"].values())
    for kind in expect_bails:
        assert prof["bail_kinds"][kind] > 0, (kind, prof["bail_kinds"])
    ops = _op_totals(stats)
    for op in expect_ops:
        assert ops[op] > 0, (op, ops)
    assert fingerprint(machine, stats) == ref
    return stats


class TestFullFamilyEquivalence:
    """Every stock system runs compiled, bit-identical."""

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_stock_system_bit_identical(self, system, monkeypatch):
        cfg = _harsh_config()
        _assert_kernel_matches_batched(cfg, _spec_for(system),
                                       _harsh_trace(cfg), monkeypatch)

    #: every stock policy is evaluated in the walk, and so are the page
    #: operations it fires, so none bails ``decide``; the R-NUMA variants
    #: bail ``relocate`` for each relocation that must evict from the
    #: 4-frame page cache, and writes to replicas bail ``collapse``
    EXPECT_BAILS = {
        "migrep-competitive": (),
        "migrep-hysteresis": ("collapse",),
        "migrep-cost-model": (),
        "rnuma-hysteresis": ("relocate",),
        "rnuma-competitive": ("relocate",),
        "rnuma-cost-model": ("relocate",),
        "hybrid-hysteresis": ("collapse",),
        "hybrid-mixed": ("collapse",),
        "hybrid-cost-model": ("relocate",),
    }

    #: the page operations each variant must perform, read from the stats
    EXPECT_OPS = {
        "migrep-competitive": ("migrations",),
        "migrep-hysteresis": ("replications", "migrations"),
        "migrep-cost-model": ("migrations",),
        "rnuma-hysteresis": ("relocations",),
        "rnuma-competitive": ("relocations",),
        "rnuma-cost-model": ("relocations",),
        "hybrid-hysteresis": ("relocations", "migrations"),
        "hybrid-mixed": ("replications", "migrations"),
        "hybrid-cost-model": ("relocations", "migrations"),
    }

    @pytest.mark.parametrize("variant", sorted(POLICY_VARIANTS))
    def test_adaptive_policy_bit_identical(self, variant, monkeypatch):
        """Every stock policy is evaluated in the walk: none bails."""
        cfg = _harsh_config()
        prof = _assert_kernel_matches_batched(
            cfg, _spec_for(variant), _harsh_trace(cfg), monkeypatch,
            expect_bails=self.EXPECT_BAILS[variant],
            expect_ops=self.EXPECT_OPS[variant],
            with_legacy=True).engine_profile
        assert prof["bail_kinds"]["decide"] == 0
        if variant == "migrep-hysteresis":
            # the pure-hysteresis MigRep never leaves the compiled loop,
            # neither to evaluate nor to run what it decides
            assert prof["bails"] == prof["bail_kinds"]["collapse"]


class TestLaneActivation:
    """The harsh shapes really do exercise the lane they target."""

    def test_relocation_storm(self, monkeypatch):
        """Capacity thrash drives refetches over the static threshold:
        the walk relocates in place while the 4-frame page cache has a
        free frame, and bails once a relocation must evict first."""
        cfg = _harsh_config()
        stats = _assert_kernel_matches_batched(
            cfg, build_system("rnuma"), _harsh_trace(cfg), monkeypatch,
            expect_bails=("relocate",), expect_ops=("relocations",))
        relocations = _op_totals(stats)["relocations"]
        assert relocations > 100
        evictions = sum(n.page_cache_evictions for n in stats.nodes)
        assert stats.engine_profile["bail_kinds"]["relocate"] == evictions
        assert relocations > evictions

    @pytest.mark.parametrize("system", ["scoma", "scoma-inf"])
    def test_page_cache_replacement(self, system, monkeypatch):
        """S-COMA page-cache pressure: non-resident pages bail to the
        allocator, resident pages stay in the compiled probe lane."""
        cfg = _harsh_config()
        _assert_kernel_matches_batched(
            cfg, build_system(system), _harsh_trace(cfg), monkeypatch,
            expect_bails=("pagecache",))

    def test_hybrid_fires_both_decisions(self, monkeypatch):
        """rnuma-migrep triggers relocations and migrations in one run."""
        cfg = _harsh_config()
        stats = _assert_kernel_matches_batched(
            cfg, build_system("rnuma-migrep"), _harsh_trace(cfg),
            monkeypatch, expect_ops=("relocations", "migrations"))
        assert stats.engine_profile["bail_kinds"]["migrate"] == 0


class TestInfiniteBlockCache:
    """Infinite block caches ride the CC-NUMA lane on block-id frames."""

    def test_page_op_protocol_over_infinite_frames(self, monkeypatch):
        """MigRep over an infinite block cache: migrations and
        replications flush whole pages out of the dense frames, and
        legacy, batched and kernel agree on every statistic."""
        cfg = _harsh_config()
        spec = _spec_for("migrep-infbc")
        trace = _harsh_trace(cfg)
        legacy = Machine(cfg, spec)
        assert all(bc.is_infinite for bc in legacy.block_caches)
        legacy_stats = legacy.run(trace, engine="legacy")
        assert_invariants(legacy, legacy_stats)
        ref = fingerprint(legacy, legacy_stats)
        batched = Machine(cfg, spec)
        assert fingerprint(batched, batched.run(trace,
                                                engine="batched")) == ref
        prof = _assert_kernel_matches_batched(
            cfg, spec, trace, monkeypatch,
            expect_ops=("replications", "migrations")).engine_profile
        assert prof["bail_kinds"]["replicate"] == 0
        assert prof["bail_kinds"]["migrate"] == 0


class TestRandomLaneTraces:
    """Hypothesis hunts for bail orderings the fixed traces miss."""

    SYSTEMS = ["rnuma", "rnuma-migrep", "scoma", "ccnuma-dram",
               "rnuma-hysteresis", "hybrid-mixed", "perfect",
               "migrep-infbc", "migrep-cost-model", "rnuma-cost-model",
               "hybrid-cost-model"]

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_random_streams_all_lanes(self, data):
        cfg = _harsh_config()
        num_procs = 4
        # few distinct blocks spread over many pages: high page-cache
        # pressure and recurring capacity refetches on the same pages
        num_blocks = data.draw(st.integers(16, 160))
        phases = draw_phases(data, num_procs, num_blocks, max_phases=3,
                             max_len=80)
        trace = Trace(name="random-lanes", num_procs=num_procs,
                      phases=phases)
        system = data.draw(st.sampled_from(self.SYSTEMS))
        with pytest.MonkeyPatch.context() as mp:
            _assert_kernel_matches_batched(cfg, _spec_for(system), trace,
                                           mp)


def _phase(name, streams):
    return PhaseTrace(
        name=name, compute_per_access=2,
        blocks=[np.asarray(b, dtype=np.int64) for b, _ in streams],
        writes=[np.asarray(w, dtype=np.int8) for _, w in streams])


@pytest.fixture(scope="module")
def streamed_rpt(tmp_path_factory):
    """A 4-phase imported trace whose every phase streams over new pages:
    4,000 tsv records, one fresh block each, barriers every 1,000."""
    root = tmp_path_factory.mktemp("growth")
    tsv = root / "stream.tsv"
    tsv.write_text("".join(f"{j * 64:#x}\t{int(j % 3 == 0)}\t{j % 4}\n"
                           for j in range(4000)))
    return import_trace_file(tsv, root / "stream.rpt", fmt="tsv",
                             block_size=64, page_size=512, phase_refs=1000)


def _assert_engines_agree(system, trace, monkeypatch, cfg=None):
    """legacy, batched and the C walk agree on ``trace`` under ``cfg``
    (the harsh configuration by default), and the kernel run really ran
    compiled.  ``system`` is a name or a system spec.  Returns the kernel
    run's stats."""
    require_c_backend()
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
    cfg = cfg or _harsh_config()
    spec = _spec_for(system) if isinstance(system, str) else system
    fps = {}
    for engine in ("legacy", "batched", "kernel"):
        machine = Machine(cfg, spec)
        stats = machine.run(trace, engine=engine)
        assert_invariants(machine, stats)
        fps[engine] = fingerprint(machine, stats)
    prof = stats.engine_profile
    assert prof["engine"] == "kernel", prof.get("fallback_reason")
    assert fps["batched"] == fps["legacy"]
    assert fps["kernel"] == fps["legacy"]
    return stats


class TestStoreGrowth:
    """Traces whose later phases reach past the stores of earlier ones.

    The kernel reserves every store for the largest block of the phases
    one walk entry covers (here the whole trace) before it takes the
    store views it holds while walking them; a store that had to grow
    later would raise ``BufferError`` under the views' export locks.
    Each shape runs every stock system on legacy, batched and the C walk
    and asserts all three agree.
    """

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_empty_first_phase(self, system, monkeypatch):
        """No store is reserved before the first walk, so the second
        phase grows all of them."""
        trace = Trace(name="empty-first", num_procs=4, phases=[
            _phase("empty", [([], [])] * 4),
            _phase("work", [([p * 8 + k for k in range(16)],
                             [k % 3 == 0 for k in range(16)])
                            for p in range(4)]),
        ])
        _assert_engines_agree(system, trace, monkeypatch)

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_later_phase_touches_new_pages(self, system, monkeypatch):
        """A few pages past everything the first phase touched."""
        trace = Trace(name="late-pages", num_procs=4, phases=[
            _phase("first", [([p * 8 + k % 8 for k in range(24)],
                              [k % 4 == 0 for k in range(24)])
                             for p in range(4)]),
            _phase("late", [([200 + p * 8 + k % 8 for k in range(24)],
                             [k % 5 == 0 for k in range(24)])
                            for p in range(4)]),
        ])
        _assert_engines_agree(system, trace, monkeypatch)

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_imported_trace_streams_over_new_pages(self, system,
                                                   streamed_rpt,
                                                   monkeypatch):
        """Every phase reaches past the stores' growth slack."""
        trace = open_trace(streamed_rpt)
        assert len(trace.phases) == 4
        _assert_engines_agree(system, trace, monkeypatch)


class TestPhaseBoundaries:
    """The walk runs every phase of a run in one entry, barriers included.

    Under round-robin placement only Python can place a page, so every
    first touch bails ``fault``; these shapes put such bails on the first
    and the last reference of a phase, where a re-entry must neither
    repeat the phase's prologue nor skip its barrier.  The hand-made
    traces have 4 streams on the harsh machine's 8 processors, so 4
    processors without a stream wait at every barrier.
    """

    @staticmethod
    def _round_robin():
        return dataclasses.replace(_harsh_config(), placement="round-robin")

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_first_touches_bail_on_the_harsh_trace(self, system,
                                                   monkeypatch):
        cfg = self._round_robin()
        stats = _assert_engines_agree(system, _harsh_trace(cfg),
                                      monkeypatch, cfg=cfg)
        assert stats.engine_profile["bail_kinds"]["fault"] == 48

    @staticmethod
    def _fresh_bounds():
        """Each stream of each phase opens and closes on a fresh page
        (8 blocks a page), with shared-page references between."""
        phases = []
        for ph in range(3):
            streams = []
            for p in range(4):
                fresh = 8 * (100 + ph * 8 + p * 2)
                middle = [(p * 7 + k * 3 + ph) % 48 for k in range(10)]
                streams.append(([fresh, *middle, fresh + 8],
                                [ph % 2, *(k % 3 == 0 for k in range(10)),
                                 1]))
            phases.append(_phase(f"ph{ph}", streams))
        return Trace(name="fresh-bounds", num_procs=4, phases=phases)

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_phases_begin_and_end_with_a_first_touch(self, system,
                                                     monkeypatch):
        cfg = self._round_robin()
        stats = _assert_engines_agree(system, self._fresh_bounds(),
                                      monkeypatch, cfg=cfg)
        prof = stats.engine_profile
        assert prof["bail_kinds"]["fault"] >= 3 * 4 * 2
        assert stats.barrier_count == 3

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_a_segment_per_phase(self, system, monkeypatch):
        """Past ``SEGMENT_BYTES`` of streams the run is walked in
        segments, each bound on its own: at one byte every phase is a
        segment, and the bails on its bounds still agree."""
        import repro.engine.kernel as kernel
        from repro.engine.kernel.state import KernelState

        binds = []
        bind_walk = KernelState.bind_walk

        def counted(self, *args):
            binds.append(len(args[-1]))
            return bind_walk(self, *args)

        monkeypatch.setattr(kernel, "SEGMENT_BYTES", 1)
        monkeypatch.setattr(KernelState, "bind_walk", counted)
        cfg = self._round_robin()
        stats = _assert_engines_agree(system, self._fresh_bounds(),
                                      monkeypatch, cfg=cfg)
        assert binds == [1, 1, 1]
        assert stats.engine_profile["phases"] == stats.barrier_count == 3

    @pytest.mark.parametrize("system", ["ccnuma", "migrep", "rnuma"])
    def test_an_idle_processor_ahead_sets_the_first_barrier(self, system,
                                                            monkeypatch):
        """A processor without a stream that starts ahead of the streams
        holds every processor at the first barrier until its clock."""
        require_c_backend()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        cfg = _harsh_config()
        trace = Trace(name="four-streams", num_procs=4, phases=[
            _phase(f"ph{ph}", [([(p * 7 + k * 3 + ph) % 48
                                 for k in range(24)],
                                [k % 4 == p for k in range(24)])
                               for p in range(4)])
            for ph in range(2)])
        fps = {}
        for engine in ("legacy", "kernel"):
            machine = Machine(cfg, _spec_for(system))
            assert len(machine.processors) > trace.num_procs
            machine.timing.processors[-1].advance(StallKind.COMPUTE, 10 ** 7)
            stats = machine.run(trace, engine=engine)
            assert_invariants(machine, stats)
            fps[engine] = fingerprint(machine, stats)
        assert stats.engine_profile["engine"] == "kernel"
        assert min(stats.proc_finish_times) > 10 ** 7
        assert fps["kernel"] == fps["legacy"]

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    @pytest.mark.parametrize("n_phases", [0, 3])
    def test_no_references(self, system, n_phases, monkeypatch):
        """A trace with no phases, and one whose phases are all empty:
        the empty phases' barriers still count, and cost the barrier."""
        trace = Trace(name="no-refs", num_procs=4,
                      phases=[_phase(f"empty{i}", [([], [])] * 4)
                              for i in range(n_phases)])
        stats = _assert_engines_agree(system, trace, monkeypatch)
        prof = stats.engine_profile
        assert (prof["references"], prof["bails"]) == (0, 0)
        assert stats.barrier_count == prof["phases"] == n_phases
        assert stats.execution_time == (
            n_phases * _harsh_config().costs.barrier_cost)


class TestCursorShapes:
    """Stream lengths the walk's interleave cursor must step over.

    The walk visits ``(i, p)`` in legacy's round-robin order up to the
    phase's longest stream and skips exhausted streams; these phases
    leave most of that grid empty.  A full phase follows, so the other
    processors then touch what the lone stream placed and wrote.
    """

    @staticmethod
    def _trace(name, shaped):
        full = _phase("full", [([(p * 7 + k * 3) % 48 for k in range(24)],
                                [k % 4 == p % 4 for k in range(24)])
                               for p in range(4)])
        return Trace(name=name, num_procs=4, phases=[shaped, full])

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_only_the_last_processor_has_references(self, system,
                                                    monkeypatch):
        shaped = _phase("last-only", [([], [])] * 3 + [
            ([(k * 5) % 48 for k in range(40)],
             [k % 3 == 0 for k in range(40)])])
        _assert_engines_agree(system, self._trace("last-only", shaped),
                              monkeypatch)

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_stream_lengths_0_1_2_50(self, system, monkeypatch):
        shaped = _phase("uneven", [
            ([], []),
            ([9], [1]),
            ([9, 17], [0, 1]),
            ([(k * 11) % 48 for k in range(50)],
             [k % 5 == 0 for k in range(50)])])
        _assert_engines_agree(system, self._trace("uneven", shaped),
                              monkeypatch)


class TestPageOpsInWalk:
    """Fired page operations run inside the walk: legacy, batched and the
    C walk agree, and only the operations that need Python bail."""

    def test_infinite_page_cache_relocates_without_bailing(self,
                                                           monkeypatch):
        cfg = _harsh_config()
        stats = _assert_engines_agree("rnuma-inf", _harsh_trace(cfg),
                                      monkeypatch)
        assert _op_totals(stats)["relocations"] > 0
        assert stats.engine_profile["bail_kinds"]["relocate"] == 0

    def test_walk_relocations_and_eviction_bails_share_a_phase(
            self, monkeypatch):
        """One work phase on the 4-frame page cache: the walk relocates
        while a frame is free and bails for each relocation that evicts.
        The init phase before it only places pages (it relocates
        nothing), so every relocation falls in the one work phase."""
        cfg = _harsh_config()
        harsh = _harsh_trace(cfg)
        trace = Trace(name="one-work-phase", num_procs=harsh.num_procs,
                      phases=harsh.phases[:2])
        stats = _assert_engines_agree("rnuma", trace, monkeypatch)
        bails = stats.engine_profile["bail_kinds"]["relocate"]
        assert bails > 0
        assert bails == sum(n.page_cache_evictions for n in stats.nodes)
        assert _op_totals(stats)["relocations"] > bails

    @pytest.mark.parametrize("system, ops", [
        ("mig", ("migrations",)),
        ("rep", ("replications",)),
        ("migrep", ("replications", "migrations")),
    ])
    def test_migrep_operations_run_in_the_walk(self, system, ops,
                                               monkeypatch):
        cfg = _harsh_config()
        stats = _assert_engines_agree(system, _harsh_trace(cfg),
                                      monkeypatch)
        totals = _op_totals(stats)
        for op in ops:
            assert totals[op] > 0, (op, totals)
        kinds = stats.engine_profile["bail_kinds"]
        assert kinds["replicate"] == 0 and kinds["migrate"] == 0

    def test_replicas_survive_read_only(self, monkeypatch):
        """On a read-only shared trace no write collapses the replicas
        the walk installs, so the run ends with read-only replica
        mappings for the fingerprint and the invariants to check."""
        cfg = _harsh_config()
        spec = make_simple_spec(pattern=SharingPattern.READ_SHARED,
                                pages=16, accesses=600, write_fraction=0.0)
        trace = make_trace(spec, cfg.machine, seed=3)
        stats = _assert_engines_agree("rep", trace, monkeypatch)
        assert _op_totals(stats)["replications"] > 0
        assert stats.engine_profile["bails"] == 0

    @pytest.mark.parametrize("variant", ["migrep-competitive",
                                         "migrep-cost-model"])
    def test_adaptive_replications_run_in_the_walk(self, variant,
                                                   monkeypatch):
        """The same read-only shape drives the competitive and cost-model
        replication tests: their replicas, too, are installed by the walk
        without a single bail."""
        cfg = _harsh_config()
        spec = make_simple_spec(pattern=SharingPattern.READ_SHARED,
                                pages=16, accesses=800, write_fraction=0.0)
        trace = make_trace(spec, cfg.machine, seed=3)
        stats = _assert_engines_agree(variant, trace, monkeypatch)
        assert _op_totals(stats)["replications"] > 0
        assert stats.engine_profile["bails"] == 0


class _UserCompetitiveMigRep(CompetitiveMigRepPolicy):
    """A user subclass whose rule is the stock one: the walk cannot tell,
    so it evaluates it in Python."""

    def evaluate(self, counters, page, requester, home, *,
                 is_replica_request=False):
        return super().evaluate(counters, page, requester, home,
                                is_replica_request=is_replica_request)


class _UserHysteresisRelocation(HysteresisRelocationPolicy):
    """The rnuma-role twin of :class:`_UserCompetitiveMigRep`."""

    def should_relocate(self, counters, page, *, page_total_misses=0,
                        node=0):
        return super().should_relocate(
            counters, page, page_total_misses=page_total_misses, node=node)


def _user_factory(cls, family, role):
    """Build ``family``'s stock ``role`` policy, then recast it as ``cls``."""
    def factory(config, **kwargs):
        stock = build_policy(family, role, config, **kwargs)
        return cls(**{f.name: getattr(stock, f.name)
                      for f in dataclasses.fields(stock)
                      if not f.name.startswith("_")})
    return factory


class TestUnknownPolicies:
    """A registered policy the walk does not know still runs on the
    kernel: each of its evaluations bails ``decide`` to Python."""

    @pytest.fixture
    def user_policy(self):
        register_policy(PolicySpec(
            "user-stock-copy", summary="stock rules in user subclasses",
            migrep_factory=_user_factory(_UserCompetitiveMigRep,
                                         "competitive", "migrep"),
            rnuma_factory=_user_factory(_UserHysteresisRelocation,
                                        "hysteresis", "rnuma")))
        try:
            yield "user-stock-copy"
        finally:
            POLICIES.unregister("user-stock-copy")

    @pytest.mark.parametrize("base, role, stock", [
        ("migrep", "migrep_policy", "migrep-competitive"),
        ("rnuma", "rnuma_policy", "rnuma-hysteresis"),
        # the hybrid defers its MigRep evaluation behind the unknown
        # R-NUMA one, since a relocation would change its answer
        ("rnuma-migrep", "rnuma_policy", None),
    ])
    def test_unknown_policy_bails_decide(self, base, role, stock,
                                         user_policy, monkeypatch):
        cfg = _harsh_config()
        spec = build_system(base).derive(f"{base}-user", **{role: user_policy})
        stats = _assert_engines_agree(spec, _harsh_trace(cfg), monkeypatch)
        assert stats.engine_profile["bail_kinds"]["decide"] > 0
        if stock is not None:
            # the copied rule decides exactly as the stock one in the walk
            machine = Machine(cfg, _spec_for(stock))
            assert _op_totals(machine.run(_harsh_trace(cfg),
                                          engine="kernel")) \
                == _op_totals(stats)
