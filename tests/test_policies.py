"""Tests for the decision-policy registry and the adaptive policies.

Covers the PR-4 policy axis: registration/lookup (including the
did-you-mean error contract), default-policy bit-identity with the
pre-registry implementation, engine invariance of adaptive policies,
fork-safety of user-registered policies under a parallel SweepRunner,
and the ``policy-adaptivity`` scenario's headline property — at least
one adaptive policy moves total remote traffic on at least one workload.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import (
    POLICY_NAMES,
    MigRepDecision,
    MigRepPolicy,
    PolicySpec,
    RNUMAPolicy,
    SweepRunner,
    UnknownNameError,
    base_config,
    build_policy,
    build_system,
    get_workload,
    register_policy,
    register_system,
    run_experiment,
    run_scenario,
)
from repro.analysis.sweeps import policy_sweep
from repro.cluster.machine import Machine
from repro.core.counters import MigRepCounters, RefetchCounters
from repro.core.decisions import (
    POLICIES,
    CompetitiveMigRepPolicy,
    CompetitiveRelocationPolicy,
    CostModelMigRepPolicy,
    HysteresisMigRepPolicy,
    HysteresisRelocationPolicy,
    resolve_policy,
)
from repro.registry import SYSTEMS

BUILTIN_POLICIES = ("static-threshold", "competitive", "hysteresis",
                    "cost-model")


# ---------------------------------------------------------------------------
# Registry contract
# ---------------------------------------------------------------------------


class TestPolicyRegistry:
    def test_builtins_registered(self):
        for name in BUILTIN_POLICIES:
            assert name in POLICY_NAMES
            spec = POLICIES.resolve(name)
            assert spec.supports("migrep") and spec.supports("rnuma")
            assert spec.roles() == ("migrep", "rnuma")

    def test_unknown_policy_raises_with_suggestion(self):
        with pytest.raises(UnknownNameError) as exc:
            build_policy("competitve", "migrep", base_config())
        message = str(exc.value)
        assert "competitve" in message
        assert "did you mean 'competitive'" in message
        # the unified error contract: both ValueError and KeyError
        assert isinstance(exc.value, ValueError)
        assert isinstance(exc.value, KeyError)

    def test_unsupported_role_raises(self):
        spec = PolicySpec("migrep-only-test",
                          migrep_factory=lambda cfg, **kw: MigRepPolicy(10))
        with pytest.raises(ValueError, match="no 'rnuma' variant"):
            spec.build("rnuma", base_config())
        with pytest.raises(ValueError, match="unknown policy role"):
            spec.build("bogus", base_config())

    def test_register_policy_live_in_names_and_listing(self):
        spec = PolicySpec(
            "test-tmp-policy", summary="temporary",
            migrep_factory=lambda cfg, **kw: MigRepPolicy(10))
        register_policy(spec)
        try:
            assert "test-tmp-policy" in POLICY_NAMES
            built = build_policy("test-tmp-policy", "migrep", base_config())
            assert isinstance(built, MigRepPolicy)
            from repro.cli import _registry_listing
            assert "test-tmp-policy" in _registry_listing()["policies"]
        finally:
            POLICIES.unregister("test-tmp-policy")
        assert "test-tmp-policy" not in POLICY_NAMES

    def test_policy_kwargs_forwarded(self):
        cfg = base_config()
        policy = build_policy("competitive", "migrep", cfg, beta=2.0)
        assert policy.beta == 2.0
        default = build_policy("competitive", "migrep", cfg)
        assert policy.migration_threshold > default.migration_threshold

    def test_config_carries_policy_args(self):
        cfg = base_config().with_policies(
            "competitive", "competitive", migrep_args={"beta": 3.0})
        assert cfg.thresholds.migrep_policy_kwargs == {"beta": 3.0}
        policy = resolve_policy("migrep", cfg)
        assert policy.beta == 3.0

    def test_changing_policy_name_clears_stale_args(self):
        cfg = base_config().with_policies(
            "static-threshold", migrep_args={"threshold": 500})
        switched = cfg.with_policies("competitive", "competitive")
        assert switched.thresholds.migrep_policy_kwargs == {}
        # the stale static-threshold kwarg must not reach the new factory
        policy = resolve_policy("migrep", switched)
        assert isinstance(policy, CompetitiveMigRepPolicy)
        # explicitly-passed args survive a name change
        kept = cfg.with_policies("competitive", migrep_args={"beta": 2.0})
        assert kept.thresholds.migrep_policy_kwargs == {"beta": 2.0}

    def test_config_args_not_clobbered_by_constructor_defaults(self):
        cfg = base_config().with_policies(
            migrep_args={"enable_migration": False})
        machine = Machine(cfg, build_system("migrep"))
        assert machine.protocol.policy.enable_migration is False
        assert machine.protocol.policy.enable_replication is True

    def test_explicit_system_flags_beat_config_args(self):
        # the "rep" system's identity (no migration) must survive a
        # config-level argument trying to re-enable it
        cfg = base_config().with_policies(
            migrep_args={"enable_migration": True})
        machine = Machine(cfg, build_system("rep"))
        assert machine.protocol.policy.enable_migration is False
        assert machine.protocol.policy.enable_replication is True

    def test_explicit_policy_name_bypasses_spec_args(self):
        cfg = base_config()
        spec = build_system("migrep").derive(
            "migrep-ski-args-test", migrep_policy="competitive",
            policy_args={"beta": 2.0})
        # an explicit name overrides the spec's choice AND its args —
        # competitive's beta must not leak into hysteresis's factory
        policy = resolve_policy("migrep", cfg, spec=spec, policy="hysteresis")
        assert isinstance(policy, HysteresisMigRepPolicy)

    def test_apply_policy_respects_single_role_families(self, lu_trace):
        from repro.core.decisions import apply_policy
        register_policy(PolicySpec(
            "migrep-only-tmp", summary="no rnuma variant",
            migrep_factory=lambda cfg, **kw: MigRepPolicy(10**9)))
        try:
            cfg = apply_policy(base_config(), "migrep-only-tmp")
            assert cfg.thresholds.migrep_policy == "migrep-only-tmp"
            assert cfg.thresholds.rnuma_policy == "static-threshold"
            # the rnuma system still builds and runs
            res = run_experiment(lu_trace, "rnuma", cfg)
            assert res.stats.execution_time > 0
        finally:
            POLICIES.unregister("migrep-only-tmp")

    def test_config_args_follow_their_family(self):
        # config args set for 'competitive' must not leak into another
        # family selected by a spec override or an explicit name
        cfg = base_config().with_policies(
            "competitive", migrep_args={"beta": 1.5})
        spec = build_system("migrep").derive(
            "migrep-hyst-tmp", migrep_policy="hysteresis")
        policy = resolve_policy("migrep", cfg, spec=spec)
        assert isinstance(policy, HysteresisMigRepPolicy)   # no TypeError
        policy = resolve_policy("migrep", cfg, policy="hysteresis")
        assert isinstance(policy, HysteresisMigRepPolicy)
        # ... and still apply when the config's own family is built
        assert resolve_policy("migrep", cfg).beta == 1.5

    def test_policy_args_without_override_rejected(self):
        from repro.config import ConfigError
        with pytest.raises(ConfigError, match="silently ignored"):
            build_system("migrep").derive("dead-args",
                                          policy_args={"beta": 2.0})

    def test_shared_args_over_two_families_rejected(self):
        from repro.config import ConfigError
        with pytest.raises(ConfigError, match="per-role arguments"):
            build_system("rnuma-migrep").derive(
                "hyb-mixed", migrep_policy="competitive",
                rnuma_policy="hysteresis", policy_args={"beta": 2.0})
        # same family on both roles keeps working (one bag, one factory)
        spec = build_system("rnuma-migrep").derive(
            "hyb-same", migrep_policy="competitive",
            rnuma_policy="competitive", policy_args={"beta": 2.0})
        cfg = base_config()
        assert resolve_policy("migrep", cfg, spec=spec).beta == 2.0
        assert resolve_policy("rnuma", cfg, spec=spec).beta == 2.0

    def test_duplicate_policy_args_rejected(self):
        from repro.config import ConfigError, ThresholdConfig
        with pytest.raises(ConfigError, match="duplicate policy argument"):
            ThresholdConfig(migrep_policy_args=[("beta", 1), ("beta", "x")])
        with pytest.raises(ConfigError, match="duplicate policy argument"):
            ThresholdConfig(rnuma_policy_args=(("a", 1), ("a", 2)))

    def test_hybrid_warns_on_ready_policy_without_delay(self):
        cfg = base_config()
        machine = Machine(cfg, build_system("rnuma-migrep"))
        hybrid_cls = type(machine.protocol)
        with pytest.warns(UserWarning, match="delayed-relocation"):
            hybrid_cls(machine, rnuma_policy=RNUMAPolicy(threshold=7))

    def test_hysteresis_relocation_state_is_per_node(self):
        policy = HysteresisRelocationPolicy(threshold=2.5, decay=0.9)
        counters = RefetchCounters()
        # pressure built by node 0 must not leak into node 1's decision
        assert not policy.should_relocate(counters, 5, node=0)
        assert not policy.should_relocate(counters, 5, node=0)
        assert not policy.should_relocate(counters, 5, node=1)
        assert policy.pressure(5, 0) == pytest.approx(1.9)
        assert policy.pressure(5, 1) == 1.0

    def test_ready_policy_instance_used_verbatim(self):
        cfg = base_config()
        ready = RNUMAPolicy(threshold=7, relocation_delay=3)
        assert resolve_policy("rnuma", cfg, policy=ready) is ready
        # combining an instance with constructor kwargs is an error, not
        # a silent drop
        with pytest.raises(ValueError, match="ready rnuma policy instance"):
            resolve_policy("rnuma", cfg, policy=ready, relocation_delay=9)
        # the hybrid defers to the instance's own relocation delay
        machine = Machine(cfg, build_system("rnuma-migrep"))
        hybrid_cls = type(machine.protocol)
        custom = hybrid_cls(machine, rnuma_policy=ready)
        assert custom.policy is ready
        assert custom.policy.relocation_delay == 3

    def test_spec_policy_args_validated_and_canonical(self):
        from repro.config import ConfigError
        with pytest.raises(ConfigError):
            build_system("migrep").derive(
                "bad-args", policy_args={"table": {"a": 1}})
        spec = build_system("migrep").derive(
            "tuple-args", migrep_policy="competitive",
            policy_args=(("beta", 1.0), ("alpha", 2)))
        assert spec.policy_args == (("alpha", 2), ("beta", 1.0))

    def test_spec_override_beats_config(self):
        cfg = base_config().with_policies("hysteresis", "hysteresis")
        spec = build_system("migrep").derive(
            "migrep-ski-test", migrep_policy="competitive",
            policy_args={"beta": 1.5})
        policy = resolve_policy("migrep", cfg, spec=spec)
        assert isinstance(policy, CompetitiveMigRepPolicy)
        assert policy.beta == 1.5
        # the role the spec does not override still follows the config
        rnuma = resolve_policy("rnuma", cfg, spec=spec)
        assert isinstance(rnuma, HysteresisRelocationPolicy)


# ---------------------------------------------------------------------------
# Policy decision logic (unit level)
# ---------------------------------------------------------------------------


class TestCompetitivePolicy:
    def test_thresholds_derived_from_costs(self):
        p = CompetitiveMigRepPolicy(miss_benefit=100, migration_cost=1000,
                                    replication_cost=500)
        assert p.migration_threshold == 10
        assert p.replication_threshold == 5

    def test_acts_at_break_even(self):
        p = CompetitiveMigRepPolicy(miss_benefit=100, migration_cost=1000,
                                    replication_cost=500)
        c = MigRepCounters(4, reset_interval=10**9)
        for _ in range(5):
            c.record_miss(7, 2, is_write=False)
        assert p.evaluate(c, 7, 2, 0) is MigRepDecision.REPLICATE
        # writes elsewhere kill replication; migration needs 10
        c.record_miss(7, 3, is_write=True)
        assert p.evaluate(c, 7, 2, 0) is MigRepDecision.NONE
        for _ in range(5):
            c.record_miss(7, 2, is_write=False)
        assert p.evaluate(c, 7, 2, 0) is MigRepDecision.MIGRATE

    def test_relocation_break_even(self):
        p = CompetitiveRelocationPolicy(miss_benefit=100, relocation_cost=350)
        c = RefetchCounters()
        for _ in range(3):
            c.record_refetch(9)
        assert not p.should_relocate(c, 9)
        c.record_refetch(9)
        assert p.should_relocate(c, 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            CompetitiveMigRepPolicy(miss_benefit=0, migration_cost=1,
                                    replication_cost=1)
        with pytest.raises(ValueError):
            CompetitiveRelocationPolicy(miss_benefit=1, relocation_cost=1,
                                        beta=0)


class TestHysteresisPolicy:
    def test_sustained_burst_triggers_sporadic_does_not(self):
        p = HysteresisRelocationPolicy(threshold=3.0, decay=0.8)
        c = RefetchCounters()
        # sporadic: score decays towards 1/(1-0.8)=5 but threshold 3
        # needs ~5 consecutive; 3 events cannot reach it
        for _ in range(3):
            fired = p.should_relocate(c, 1)
        assert not fired
        # sustained: keep going and it fires
        for _ in range(10):
            if p.should_relocate(c, 1):
                break
        else:
            pytest.fail("sustained refetch burst never triggered")

    def test_migrep_pressure_resets_after_decision(self):
        p = HysteresisMigRepPolicy(threshold=2.5, decay=0.9)
        c = MigRepCounters(4, reset_interval=10**9)
        decision = MigRepDecision.NONE
        for _ in range(20):
            c.record_miss(3, 1, is_write=False)
            decision = p.evaluate(c, 3, 1, 0)
            if decision is not MigRepDecision.NONE:
                break
        assert decision is MigRepDecision.REPLICATE
        assert p.pressure(3, 1) == 0.0   # hysteresis: pressure cleared

    def test_unreachable_threshold_rejected(self):
        with pytest.raises(ValueError, match="unreachable"):
            HysteresisMigRepPolicy(threshold=100.0, decay=0.9)

    def test_home_misses_restrain_migration(self):
        """A home-hot page must not migrate away after a short remote
        burst: the home's counter-recorded misses feed its pressure."""
        quiet = HysteresisMigRepPolicy(threshold=2.5, decay=0.9,
                                       enable_replication=False)
        hot = HysteresisMigRepPolicy(threshold=2.5, decay=0.9,
                                     enable_replication=False)
        c_quiet = MigRepCounters(4, reset_interval=10**9)
        c_hot = MigRepCounters(4, reset_interval=10**9)
        for _ in range(50):   # the home hammers the page locally
            c_hot.record_miss(3, 0, is_write=True)
        quiet_fired = hot_fired = False
        for _ in range(6):    # identical short remote burst on both
            c_quiet.record_miss(3, 1, is_write=False)
            c_hot.record_miss(3, 1, is_write=False)
            quiet_fired |= (quiet.evaluate(c_quiet, 3, 1, 0)
                            is MigRepDecision.MIGRATE)
            hot_fired |= (hot.evaluate(c_hot, 3, 1, 0)
                          is MigRepDecision.MIGRATE)
        assert quiet_fired       # quiet home: burst wins, page migrates
        assert not hot_fired     # hot home: its pressure restrains it


class TestCostModelPolicy:
    def test_evidence_gate(self):
        p = CostModelMigRepPolicy(miss_benefit=1000, migration_cost=100,
                                  replication_cost=100, margin=1.0,
                                  min_samples=8)
        c = MigRepCounters(4, reset_interval=10**9)
        for _ in range(7):
            c.record_miss(5, 2, is_write=False)
        # saving is already >> cost but the evidence gate holds it back
        assert p.evaluate(c, 5, 2, 0) is MigRepDecision.NONE
        c.record_miss(5, 2, is_write=False)
        assert p.evaluate(c, 5, 2, 0) is MigRepDecision.REPLICATE

    def test_margin_scales_requirement(self):
        lo = CostModelMigRepPolicy(miss_benefit=100, migration_cost=1000,
                                   replication_cost=1000, margin=1.0,
                                   min_samples=0, enable_replication=False)
        hi = dataclasses.replace(lo, margin=4.0)
        c = MigRepCounters(4, reset_interval=10**9)
        for _ in range(11):
            c.record_miss(5, 2, is_write=True)
        assert lo.evaluate(c, 5, 2, 0) is MigRepDecision.MIGRATE
        assert hi.evaluate(c, 5, 2, 0) is MigRepDecision.NONE


# ---------------------------------------------------------------------------
# Integration: defaults bit-identical, adaptives run and differ
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lu_trace():
    cfg = base_config()
    return get_workload("lu", machine=cfg.machine, scale=0.15, seed=0)


class TestDefaultBitIdentity:
    def test_default_names_are_static(self):
        t = base_config().thresholds
        assert t.migrep_policy == "static-threshold"
        assert t.rnuma_policy == "static-threshold"

    def test_explicit_static_selection_is_identical(self, lu_trace):
        """Selecting 'static-threshold' by name reproduces the defaults
        bit-for-bit (regression pin against the pre-registry results)."""
        cfg = base_config()
        explicit = cfg.with_policies("static-threshold", "static-threshold")
        for system in ("migrep", "rnuma", "rnuma-half-migrep"):
            a = run_experiment(lu_trace, system, cfg).stats
            b = run_experiment(lu_trace, system, explicit).stats
            assert a.execution_time == b.execution_time
            assert a.total_remote_misses == b.total_remote_misses
            assert a.total_migrations == b.total_migrations
            assert a.total_replications == b.total_replications
            assert a.total_relocations == b.total_relocations

    def test_protocol_builds_paper_policies_by_default(self, lu_trace):
        cfg = base_config()
        machine = Machine(cfg, build_system("migrep"))
        assert type(machine.protocol.policy) is MigRepPolicy
        assert (machine.protocol.policy.threshold
                == cfg.thresholds.effective_migrep_threshold)
        machine = Machine(cfg, build_system("rnuma"))
        assert type(machine.protocol.policy) is RNUMAPolicy
        assert (machine.protocol.policy.threshold
                == cfg.thresholds.effective_rnuma_threshold)


class TestAdaptivePoliciesEndToEnd:
    @pytest.mark.parametrize("policy", ("competitive", "hysteresis",
                                        "cost-model"))
    def test_engines_bit_identical_under_adaptive_policy(self, lu_trace,
                                                         policy):
        cfg = base_config().with_policies(policy, policy)
        for system in ("migrep", "rnuma"):
            legacy = Machine(cfg, build_system(system)).run(
                lu_trace, engine="legacy")
            batched = Machine(cfg, build_system(system)).run(
                lu_trace, engine="batched")
            assert legacy.execution_time == batched.execution_time
            assert legacy.total_remote_misses == batched.total_remote_misses
            assert legacy.total_migrations == batched.total_migrations
            assert legacy.total_relocations == batched.total_relocations

    def test_at_least_one_adaptive_policy_changes_traffic(self, lu_trace):
        """The policy-adaptivity acceptance property: some adaptive policy
        moves total remote traffic vs the static threshold."""
        cfg = base_config()
        static = {
            system: run_experiment(lu_trace, system,
                                   cfg).stats.total_remote_misses
            for system in ("migrep", "rnuma")}
        changed = []
        for policy in ("competitive", "hysteresis", "cost-model"):
            adaptive_cfg = cfg.with_policies(policy, policy)
            for system in ("migrep", "rnuma"):
                remote = run_experiment(
                    lu_trace, system, adaptive_cfg).stats.total_remote_misses
                if remote != static[system]:
                    changed.append((policy, system))
        assert changed, ("no adaptive policy changed remote traffic vs the "
                         "static threshold")

    def test_policy_adaptivity_scenario_runs(self):
        rs = run_scenario("policy-adaptivity", apps=("lu",), scale=0.15)
        series = set(rs.series)
        assert "migrep-static-threshold" in series
        assert "migrep-competitive" in series
        assert "rnuma-hysteresis" in series
        row = rs.only(app="lu", system="migrep", config="competitive")
        assert row["normalized_time"] is not None
        # the static config is the pinned normalisation baseline
        base_rows = [r for r in rs.rows if r["is_baseline"]]
        assert {r["config"] for r in base_rows} == {"static-threshold"}

    def test_policy_sweep(self):
        result = policy_sweep(["static-threshold", "competitive"],
                              apps=["lu"], scale=0.15)
        assert {p.value for p in result.points} == {"static-threshold",
                                                    "competitive"}
        assert all(p.parameter == "policy" for p in result.points)
        assert {p.system for p in result.points} == {"migrep", "rnuma"}


# ---------------------------------------------------------------------------
# Derived systems and fork-safety under the parallel SweepRunner
# ---------------------------------------------------------------------------


class TestPolicyThreading:
    def test_derived_system_with_policy_override(self, lu_trace):
        cfg = base_config()
        spec = build_system("migrep").derive("migrep-ski-tmp",
                                             migrep_policy="competitive")
        machine = Machine(cfg, spec)
        assert isinstance(machine.protocol.policy, CompetitiveMigRepPolicy)
        default = run_experiment(lu_trace, "migrep", cfg).stats
        derived = run_experiment(lu_trace, spec, cfg).stats
        assert (derived.total_remote_misses != default.total_remote_misses
                or derived.total_migrations != default.total_migrations
                or derived.total_replications != default.total_replications)

    def test_user_policy_fork_safe_under_sweep_runner(self, lu_trace):
        """A policy registered before the pool spins up is visible inside
        forked SweepRunner workers (registration state crosses the fork)."""
        register_policy(PolicySpec(
            "fork-test-policy", summary="competitive with a huge beta",
            migrep_factory=lambda cfg, **kw: MigRepPolicy(
                threshold=10**9, enable_migration=kw.get(
                    "enable_migration", True)),
            rnuma_factory=lambda cfg, relocation_delay=0, **kw: RNUMAPolicy(
                threshold=10**9, relocation_delay=relocation_delay)))
        try:
            cfg = base_config().with_policies("fork-test-policy",
                                              "fork-test-policy")
            with SweepRunner(jobs=2) as runner:
                results = runner.map_runs([
                    (lu_trace, "migrep", cfg), (lu_trace, "rnuma", cfg)])
            assert runner.stats.parallel_runs == 2
            # an astronomically high threshold means no page operations
            assert results[0].stats.total_migrations == 0
            assert results[0].stats.total_replications == 0
            assert results[1].stats.total_relocations == 0
        finally:
            POLICIES.unregister("fork-test-policy")

    def test_registered_derived_policy_system_in_worker(self, lu_trace):
        """A system derived with a policy override, registered, then run by
        name through parallel workers (registry fork-safety end to end)."""
        register_system(build_system("rnuma").derive(
            "rnuma-ski-tmp", rnuma_policy="competitive"))
        try:
            cfg = base_config()
            with SweepRunner(jobs=2) as runner:
                results = runner.map_runs([
                    (lu_trace, "rnuma-ski-tmp", cfg),
                    (lu_trace, "rnuma", cfg)])
            inline = run_experiment(lu_trace, "rnuma-ski-tmp", cfg)
            assert (results[0].stats.execution_time
                    == inline.stats.execution_time)
        finally:
            SYSTEMS.unregister("rnuma-ski-tmp")

    def test_memo_key_distinguishes_policies(self, lu_trace):
        """Two configs differing only in policy selection must not share
        memoized results."""
        cfg = base_config()
        with SweepRunner(jobs=1) as runner:
            a = runner.run(lu_trace, "migrep", cfg)
            b = runner.run(lu_trace, "migrep",
                           cfg.with_policies("competitive", "competitive"))
            assert runner.stats.runs == 2
            assert runner.stats.memo_hits == 0
        assert a.stats.execution_time != b.stats.execution_time
