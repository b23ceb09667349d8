"""Decision policies: when to migrate, replicate or relocate a page.

Mechanism and policy are separated: :mod:`repro.kernel.migration` and
:mod:`repro.kernel.relocation` know *how* to perform a page operation; the
classes here decide *whether* one should happen.  The paper's entire
comparison (CC-NUMA vs MigRep vs R-NUMA) reduces to these decisions, so
this module makes them an open axis: policies live in the shared
:data:`repro.registry.POLICIES` registry and are selected by name through
:class:`repro.config.ThresholdConfig` (``migrep_policy`` /
``rnuma_policy``), :meth:`repro.core.factory.SystemSpec.derive`
(``migrep_policy=`` / ``rnuma_policy=`` overrides) or the CLI
(``--policy``).

Two *roles* exist, matching the two places the protocols consult a policy:

* ``"migrep"`` — evaluated at the **home** node on every remote miss
  (:class:`repro.core.migrep.MigRepProtocol` and the hybrid).  A migrep
  policy implements ``evaluate(counters, page, requester, home, *,
  is_replica_request=False) -> MigRepDecision``.
* ``"rnuma"`` — evaluated at the **requesting** node on every
  capacity/conflict refetch (:class:`repro.core.rnuma.RNUMAProtocol`).
  An rnuma policy implements ``should_relocate(counters, page, *,
  page_total_misses=0, node=0) -> bool`` (``node`` is the requesting
  node; stateless policies may ignore it).

The paper's static-threshold rules of Section 3 are registered as the
default (``"static-threshold"``); results under the default are
bit-identical to the pre-registry implementation.  Three adaptive
families join them:

``"competitive"``
    Ski-rental thresholds: perform the page operation once the cycles
    already lost to remote misses equal (``beta`` times) the page-op
    cost, both derived from the configured :class:`repro.config.CostModel`.
``"hysteresis"``
    Per-page exponentially-decayed miss pressure (in the spirit of
    MigrantStore's hysteresis-driven migration): only *sustained* bursts
    reach the trigger, sporadic misses decay away.
``"cost-model"``
    Per-page cost/benefit with an evidence gate: act only after
    ``min_samples`` observed misses and only when the projected cycles
    saved exceed ``margin`` times the page-op cost.

Policies are ordinary Python objects constructed per run (inside
:class:`~repro.experiments.runner.SweepRunner` workers too: the
*registration* is inherited across the fork, the *instance* never crosses
a process boundary), so adaptive policies may keep internal per-page
state without any pickling concerns.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.core.counters import MigRepCounters, RefetchCounters
from repro.registry import POLICIES, NamesView, register_policy


class MigRepDecision(enum.Enum):
    """Outcome of a migration/replication policy evaluation."""

    NONE = "none"
    MIGRATE = "migrate"
    REPLICATE = "replicate"


class DecisionPolicy:
    """Structural base class for page-operation decision policies.

    A decision policy turns per-page counter observations into page-op
    decisions.  Subclasses fill one (or both) of the two role contracts:

    * migrep role: ``evaluate(counters, page, requester, home, *,
      is_replica_request=False) -> MigRepDecision`` where ``counters`` is
      a :class:`repro.core.counters.MigRepCounters`;
    * rnuma role: ``should_relocate(counters, page, *,
      page_total_misses=0, node=0) -> bool`` where ``counters`` is the
      requesting node's :class:`repro.core.counters.RefetchCounters` and
      ``node`` its index (for policies keeping per-node state).

    Policies are consulted only for references that miss all the way
    through to the protocol layer, in the exact order the protocol
    services them — identical under both execution engines — so policies
    (including stateful ones) produce engine-invariant decisions.
    """

    #: registry name of the family this policy instance belongs to
    name: str = ""

    def describe(self) -> str:
        """One-line human-readable description of the policy instance."""
        return self.name or type(self).__name__


def _miss_rows(counters: MigRepCounters, page: int, requester: int,
               home: int) -> Tuple[Optional[List[int]], Optional[List[int]],
                                   int, int]:
    """Shared per-evaluation view of a page's MigRep counters.

    Returns ``(read_row, write_row, remote_writes, advantage)`` where
    ``remote_writes`` counts write misses by nodes other than the home
    (any makes the page non-replicable) and ``advantage`` is the
    requester's total misses minus the home's (the migration signal).
    The rows come from the counters' public row accessors (``None`` when
    never recorded since the last reset); a hot-path copy of this body is
    inlined in :meth:`repro.core.migrep.MigRepProtocol._service_remote_page`
    — keep the two in sync.
    """
    read_row = counters.read_row(page)
    write_row = counters.write_row(page)
    remote_writes = (sum(write_row) - write_row[home]
                     if write_row is not None else 0)
    requester_misses = 0
    home_misses = 0
    if read_row is not None:
        requester_misses += read_row[requester]
        home_misses += read_row[home]
    if write_row is not None:
        requester_misses += write_row[requester]
        home_misses += write_row[home]
    return read_row, write_row, remote_writes, requester_misses - home_misses


# ---------------------------------------------------------------------------
# The paper's static-threshold policies (Section 3) — the defaults
# ---------------------------------------------------------------------------


@dataclass
class MigRepPolicy(DecisionPolicy):
    """The paper's static-threshold policy for CC-NUMA+MigRep (Figure 3b).

    * **Replication**: invoked when a page has seen no remote write
      misses and the requesting node's read-miss counter exceeds the
      threshold.
    * **Migration**: invoked when the requesting node's miss counter
      exceeds the home node's by more than the threshold.

    Parameters
    ----------
    threshold:
        Miss-count threshold (800 in the paper's fast system).
    enable_migration / enable_replication:
        Allow disabling one mechanism to build the "Mig" and "Rep"
        systems of Figure 5.
    """

    threshold: int
    enable_migration: bool = True
    enable_replication: bool = True

    name = "static-threshold"

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")

    def evaluate(self, counters: MigRepCounters, page: int, requester: int,
                 home: int, *, is_replica_request: bool = False) -> MigRepDecision:
        """Evaluate the policy for a miss on ``page`` by ``requester``.

        ``is_replica_request`` marks requests from nodes that already hold
        a replica (no further operation is useful for them).
        """
        if requester == home or is_replica_request:
            return MigRepDecision.NONE
        read_row, _, remote_writes, advantage = _miss_rows(
            counters, page, requester, home)

        if self.enable_replication:
            # Only *remote* write misses make a page non-replicable: the home
            # node writing its own page (e.g. producing it) does not preclude
            # read-only copies elsewhere.
            if (remote_writes == 0 and read_row is not None
                    and read_row[requester] > self.threshold):
                return MigRepDecision.REPLICATE

        if self.enable_migration and advantage > self.threshold:
            return MigRepDecision.MIGRATE

        return MigRepDecision.NONE


@dataclass
class RNUMAPolicy(DecisionPolicy):
    """The paper's static-threshold policy for R-NUMA relocation (Figure 4b).

    Parameters
    ----------
    threshold:
        Refetch-count switching threshold (32 in the paper's fast system).
    relocation_delay:
        Minimum number of misses a page must have absorbed (home-side
        count) before relocation is allowed.  Zero for plain R-NUMA;
        positive only in the R-NUMA+MigRep hybrid (Section 6.4).
    """

    threshold: int
    relocation_delay: int = 0

    name = "static-threshold"

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.relocation_delay < 0:
            raise ValueError("relocation_delay must be non-negative")

    def should_relocate(self, counters: RefetchCounters, page: int,
                        *, page_total_misses: int = 0, node: int = 0) -> bool:
        """True when the refetch counter for ``page`` warrants relocation."""
        if self.relocation_delay and page_total_misses < self.relocation_delay:
            return False
        return counters.count(page) > self.threshold


#: Backwards-compatible alias: the rnuma-role static policy relocates pages.
RelocationPolicy = RNUMAPolicy


# ---------------------------------------------------------------------------
# Adaptive policies
# ---------------------------------------------------------------------------


@dataclass
class CompetitiveMigRepPolicy(DecisionPolicy):
    """Ski-rental migration/replication: act when rent paid equals buy cost.

    Each remote miss "rents" the page at ``miss_benefit`` cycles — the
    round-trip latency the requester would have saved had the page been
    local.  The policy performs a page operation once the rent already
    paid reaches ``beta`` times the one-off page-op cost, i.e. after

    ``ceil(beta * op_cost / miss_benefit)``

    misses.  With ``beta = 1`` this is the classic 2-competitive
    ski-rental rule: total cost is at most twice the offline optimum
    regardless of the future reference stream.

    Parameters
    ----------
    miss_benefit:
        Cycles saved per avoided remote miss (remote minus local latency).
    migration_cost / replication_cost:
        One-off cycle cost of a full-page migration / replication.
    beta:
        Rent-to-buy ratio required before acting (1.0 = break-even).
    enable_migration / enable_replication:
        Disable one mechanism (mirrors :class:`MigRepPolicy`).
    """

    miss_benefit: int
    migration_cost: int
    replication_cost: int
    beta: float = 1.0
    enable_migration: bool = True
    enable_replication: bool = True

    name = "competitive"

    def __post_init__(self) -> None:
        if self.miss_benefit <= 0:
            raise ValueError("miss_benefit must be positive")
        if self.migration_cost <= 0 or self.replication_cost <= 0:
            raise ValueError("page-op costs must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        self.migration_threshold = max(1, math.ceil(
            self.beta * self.migration_cost / self.miss_benefit))
        self.replication_threshold = max(1, math.ceil(
            self.beta * self.replication_cost / self.miss_benefit))

    def evaluate(self, counters: MigRepCounters, page: int, requester: int,
                 home: int, *, is_replica_request: bool = False) -> MigRepDecision:
        """Rent-vs-buy comparison on the requester's accumulated misses."""
        if requester == home or is_replica_request:
            return MigRepDecision.NONE
        read_row, _, remote_writes, advantage = _miss_rows(
            counters, page, requester, home)

        if self.enable_replication:
            if (remote_writes == 0 and read_row is not None
                    and read_row[requester] >= self.replication_threshold):
                return MigRepDecision.REPLICATE

        if self.enable_migration and advantage >= self.migration_threshold:
            return MigRepDecision.MIGRATE
        return MigRepDecision.NONE


@dataclass
class CompetitiveRelocationPolicy(DecisionPolicy):
    """Ski-rental R-NUMA relocation (rnuma role of ``"competitive"``).

    Relocate once the refetch rent paid (``count * miss_benefit``)
    reaches ``beta`` times the relocation cost.

    Parameters
    ----------
    miss_benefit:
        Cycles saved per avoided remote refetch.
    relocation_cost:
        One-off cycle cost of relocating a page into the page cache.
    beta:
        Rent-to-buy ratio required before acting.
    relocation_delay:
        Hybrid-only miss budget before relocation is considered.
    """

    miss_benefit: int
    relocation_cost: int
    beta: float = 1.0
    relocation_delay: int = 0

    name = "competitive"

    def __post_init__(self) -> None:
        if self.miss_benefit <= 0:
            raise ValueError("miss_benefit must be positive")
        if self.relocation_cost <= 0:
            raise ValueError("relocation_cost must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.relocation_delay < 0:
            raise ValueError("relocation_delay must be non-negative")
        self.threshold = max(1, math.ceil(
            self.beta * self.relocation_cost / self.miss_benefit))

    def should_relocate(self, counters: RefetchCounters, page: int,
                        *, page_total_misses: int = 0, node: int = 0) -> bool:
        """True once the page's refetch rent covers the relocation cost."""
        if self.relocation_delay and page_total_misses < self.relocation_delay:
            return False
        return counters.count(page) >= self.threshold


@dataclass
class HysteresisMigRepPolicy(DecisionPolicy):
    """Exponentially-decayed miss pressure with a hysteresis trigger.

    Inspired by MigrantStore's hysteresis-driven migration: instead of
    comparing a raw cumulative counter against a threshold, the policy
    tracks a per-(page, node) *pressure* score that gains one point per
    miss and decays multiplicatively between events.  The score saturates
    at ``1 / (1 - decay)``, so only *sustained* miss bursts can reach the
    trigger — sporadic misses spread over a long run decay away, while a
    static counter would eventually accumulate past any threshold.
    After a decision fires, the page's scores reset (the hysteresis),
    preventing a fresh decision from re-triggering on stale pressure.

    The policy is only consulted on *remote* misses, but the home node's
    own misses must still restrain migration (they are what makes moving
    the page away a bad trade).  Home-side pressure is therefore derived
    from the shared :class:`~repro.core.counters.MigRepCounters`: each
    evaluation credits the home's score with the home misses recorded
    since the previous evaluation of the page, so the requester-vs-home
    comparison sees both sides just as the static policy does.

    Storage mirrors :class:`~repro.core.counters.MigRepCounters`: the
    scores are a flat buffer-backed ``array('d')`` column indexed by
    ``page * num_nodes + node`` and the per-page home-credit watermark a
    flat ``array('q')``, both grown in place via :meth:`reserve`.  The
    dense layout is what lets the compiled residual kernel update the
    pressure and test the trigger inside the compiled walk, bailing only
    when a decision actually fires; a never-evaluated page's zero row is
    indistinguishable from an absent one (decaying zeros is the identity
    and the home credit restarts from a zero watermark either way).

    Parameters
    ----------
    threshold:
        Pressure score that triggers a page operation.  Must be below the
        ``1 / (1 - decay)`` saturation point to ever fire.
    decay:
        Multiplicative decay applied to a page's scores on each observed
        miss (0 < decay < 1; higher = longer memory).
    enable_migration / enable_replication:
        Disable one mechanism (mirrors :class:`MigRepPolicy`).
    """

    threshold: float
    decay: float = 0.98
    enable_migration: bool = True
    enable_replication: bool = True
    _scores: array = field(default_factory=lambda: array("d"), repr=False)
    _home_seen: array = field(default_factory=lambda: array("q"), repr=False)
    _num_nodes: int = field(default=0, repr=False)
    _cap: int = field(default=0, repr=False)

    name = "hysteresis"

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        if self.threshold >= 1.0 / (1.0 - self.decay):
            raise ValueError(
                f"threshold {self.threshold} is unreachable: pressure "
                f"saturates at {1.0 / (1.0 - self.decay):.1f} for "
                f"decay={self.decay}")

    def reserve(self, n: int, *, num_nodes: int = 0) -> None:
        """Grow the columns (in place) to cover page ids ``< n``."""
        if num_nodes and not self._num_nodes:
            self._num_nodes = num_nodes
        cap = self._cap
        if n <= cap or not self._num_nodes:
            return    # row width unknown until the first evaluation
        grow = max(n, 2 * cap, 256) - cap
        self._scores.frombytes(bytes(8 * grow * self._num_nodes))
        self._home_seen.frombytes(bytes(8 * grow))
        self._cap = cap + grow

    def pressure(self, page: int, node: int) -> float:
        """Current decayed pressure score for ``(page, node)``."""
        if page < self._cap:
            return self._scores[page * self._num_nodes + node]
        return 0.0

    def evaluate(self, counters: MigRepCounters, page: int, requester: int,
                 home: int, *, is_replica_request: bool = False) -> MigRepDecision:
        """Update the page's decayed pressure and decide on the new state."""
        if requester == home or is_replica_request:
            return MigRepDecision.NONE
        nn = counters.num_nodes
        if not self._num_nodes:
            self._num_nodes = nn
        if page >= self._cap:
            self.reserve(page + 1)
        row = self._scores
        base = page * nn
        decay = self.decay
        for node in range(nn):
            row[base + node] *= decay
        row[base + requester] += 1.0

        # fold in the home's own misses since the last evaluation (the
        # policy never sees them as events; the counters record them via
        # the protocol's local-fill path).  A negative delta means the
        # counters were periodically reset — restart from the new total.
        read_row = counters.read_row(page)
        write_row = counters.write_row(page)
        home_total = ((read_row[home] if read_row is not None else 0)
                      + (write_row[home] if write_row is not None else 0))
        delta = home_total - self._home_seen[page]
        if delta != 0:
            row[base + home] += home_total if delta < 0 else delta
            self._home_seen[page] = home_total

        if self.enable_replication:
            remote_writes = (sum(write_row) - write_row[home]
                             if write_row is not None else 0)
            if remote_writes == 0 and row[base + requester] > self.threshold:
                self._forget(page)
                return MigRepDecision.REPLICATE
        if self.enable_migration:
            if row[base + requester] - row[base + home] > self.threshold:
                self._forget(page)
                return MigRepDecision.MIGRATE
        return MigRepDecision.NONE

    def _forget(self, page: int) -> None:
        """Drop a page's pressure state after a decision (the hysteresis)."""
        if page < self._cap:
            nn = self._num_nodes
            base = page * nn
            self._scores[base:base + nn] = array("d", bytes(8 * nn))
            self._home_seen[page] = 0


@dataclass
class HysteresisRelocationPolicy(DecisionPolicy):
    """Decayed refetch pressure for R-NUMA (rnuma role of ``"hysteresis"``).

    Keeps one decayed score per (requesting node, page); a page relocates
    only when refetches arrive densely enough for the score to outrun
    its decay.

    Storage mirrors :class:`~repro.core.counters.RefetchCounters`: one
    flat ``array('d')`` column per node, indexed by page and grown in
    place via :meth:`reserve`, so the compiled walk views the columns
    zero-copy and carries a line-for-line transcription of
    :meth:`should_relocate`.  Firing zeroes the cell, and a zero cell
    reads the same as a never-scored one (``0.0 * decay + 1.0``).

    Parameters
    ----------
    threshold:
        Pressure score that triggers relocation (must be below the
        ``1 / (1 - decay)`` saturation point).
    decay:
        Multiplicative decay applied per observed refetch.
    relocation_delay:
        Hybrid-only miss budget before relocation is considered.
    """

    threshold: float
    decay: float = 0.9
    relocation_delay: int = 0
    _scores: List[array] = field(default_factory=list, repr=False)
    _cap: int = field(default=0, repr=False)

    name = "hysteresis"

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        if self.threshold >= 1.0 / (1.0 - self.decay):
            raise ValueError(
                f"threshold {self.threshold} is unreachable: pressure "
                f"saturates at {1.0 / (1.0 - self.decay):.1f} for "
                f"decay={self.decay}")

    def reserve(self, n: int, *, num_nodes: int = 0) -> None:
        """Grow the columns (in place) to cover page ids ``< n``, and add
        columns until there is one per node ``< num_nodes``."""
        cols = self._scores
        cap = self._cap
        if n > cap:
            grow = max(n, 2 * cap, 256) - cap
            for col in cols:
                col.frombytes(bytes(8 * grow))
            self._cap = cap = cap + grow
        while len(cols) < num_nodes:
            cols.append(array("d", bytes(8 * cap)))

    def pressure(self, page: int, node: int) -> float:
        """Current decayed pressure score for ``(page, node)``."""
        if node < len(self._scores) and page < self._cap:
            return self._scores[node][page]
        return 0.0

    def should_relocate(self, counters: RefetchCounters, page: int,
                        *, page_total_misses: int = 0, node: int = 0) -> bool:
        """Bump the (node, page) pressure score and compare to the trigger."""
        if node >= len(self._scores) or page >= self._cap:
            self.reserve(page + 1, num_nodes=node + 1)
        col = self._scores[node]
        score = col[page] * self.decay + 1.0
        if self.relocation_delay and page_total_misses < self.relocation_delay:
            col[page] = score
            return False
        if score > self.threshold:
            col[page] = 0.0
            return True
        col[page] = score
        return False


@dataclass
class CostModelMigRepPolicy(DecisionPolicy):
    """Cost/benefit policy with an evidence gate (migrep role).

    Weighs the remote-access cycles a page operation would save — the
    observed per-node miss counts times the remote-over-local latency gap
    of the configured :class:`repro.config.CostModel` — against the
    page-op cost, and acts only when the saving exceeds ``margin`` times
    the cost *and* the page has absorbed at least ``min_samples`` misses
    (so one node's cold burst cannot trigger a page operation before the
    sharing pattern is visible).

    Parameters
    ----------
    miss_benefit:
        Cycles saved per avoided remote miss (observed remote latency
        minus local latency).
    migration_cost / replication_cost:
        One-off cycle cost of a full-page migration / replication.
    margin:
        Required payback factor (2.0 = act only when the projected saving
        is at least twice the page-op cost).
    min_samples:
        Minimum misses observed on the page (all nodes) before deciding.
    enable_migration / enable_replication:
        Disable one mechanism (mirrors :class:`MigRepPolicy`).
    """

    miss_benefit: int
    migration_cost: int
    replication_cost: int
    margin: float = 2.0
    min_samples: int = 8
    enable_migration: bool = True
    enable_replication: bool = True

    name = "cost-model"

    def __post_init__(self) -> None:
        if self.miss_benefit <= 0:
            raise ValueError("miss_benefit must be positive")
        if self.migration_cost <= 0 or self.replication_cost <= 0:
            raise ValueError("page-op costs must be positive")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.min_samples < 0:
            raise ValueError("min_samples must be non-negative")

    def evaluate(self, counters: MigRepCounters, page: int, requester: int,
                 home: int, *, is_replica_request: bool = False) -> MigRepDecision:
        """Projected-saving vs page-op-cost comparison, gated on evidence."""
        if requester == home or is_replica_request:
            return MigRepDecision.NONE
        read_row, write_row, remote_writes, advantage = _miss_rows(
            counters, page, requester, home)
        total = 0
        if read_row is not None:
            total += sum(read_row)
        if write_row is not None:
            total += sum(write_row)
        if total < self.min_samples:
            return MigRepDecision.NONE

        benefit = self.miss_benefit
        if self.enable_replication:
            if (remote_writes == 0 and read_row is not None
                    and read_row[requester] * benefit
                    > self.margin * self.replication_cost):
                return MigRepDecision.REPLICATE
        if (self.enable_migration
                and advantage * benefit > self.margin * self.migration_cost):
            return MigRepDecision.MIGRATE
        return MigRepDecision.NONE


@dataclass
class CostModelRelocationPolicy(DecisionPolicy):
    """Cost/benefit R-NUMA relocation (rnuma role of ``"cost-model"``).

    Relocate when the refetch cycles already paid exceed ``margin`` times
    the relocation cost and the page shows minimum evidence.

    Parameters
    ----------
    miss_benefit:
        Cycles saved per avoided remote refetch.
    relocation_cost:
        One-off cycle cost of relocating the page.
    margin:
        Required payback factor.
    min_samples:
        Minimum refetches observed before deciding.
    relocation_delay:
        Hybrid-only miss budget before relocation is considered.
    """

    miss_benefit: int
    relocation_cost: int
    margin: float = 2.0
    min_samples: int = 4
    relocation_delay: int = 0

    name = "cost-model"

    def __post_init__(self) -> None:
        if self.miss_benefit <= 0:
            raise ValueError("miss_benefit must be positive")
        if self.relocation_cost <= 0:
            raise ValueError("relocation_cost must be positive")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.min_samples < 0:
            raise ValueError("min_samples must be non-negative")
        if self.relocation_delay < 0:
            raise ValueError("relocation_delay must be non-negative")

    def should_relocate(self, counters: RefetchCounters, page: int,
                        *, page_total_misses: int = 0, node: int = 0) -> bool:
        """True when refetch rent exceeds ``margin`` x relocation cost."""
        if self.relocation_delay and page_total_misses < self.relocation_delay:
            return False
        count = counters.count(page)
        if count < self.min_samples:
            return False
        return count * self.miss_benefit > self.margin * self.relocation_cost


# ---------------------------------------------------------------------------
# The policy registry: PolicySpec + the built-in registrations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicySpec:
    """A named, registrable decision-policy family.

    One spec covers up to two roles: a ``migrep_factory`` building the
    home-side migration/replication policy and an ``rnuma_factory``
    building the requester-side relocation policy.  Factories take the
    full :class:`repro.config.SimulationConfig` (so they can derive
    thresholds from the cost model and the scaled threshold config) plus
    arbitrary keyword arguments supplied via
    ``ThresholdConfig.migrep_policy_args`` / ``rnuma_policy_args``,
    :meth:`SystemSpec.derive(policy_args=...)
    <repro.core.factory.SystemSpec.derive>` or direct
    :func:`build_policy` calls.

    Parameters
    ----------
    name:
        Registry key (``repro list`` shows it; config selects by it).
    summary:
        One-line description shown by docs and listings.
    migrep_factory:
        ``(config, **kwargs) -> policy`` for the migrep role, or ``None``
        when the family has no home-side variant.
    rnuma_factory:
        ``(config, **kwargs) -> policy`` for the rnuma role (must accept
        ``relocation_delay``), or ``None``.

    Examples
    --------
    >>> spec = PolicySpec("always-no", summary="never acts",
    ...                   migrep_factory=lambda cfg, **kw: MigRepPolicy(10**9))
    >>> spec.roles()
    ('migrep',)
    >>> spec.supports("rnuma")
    False
    """

    name: str
    summary: str = ""
    migrep_factory: Optional[Callable[..., Any]] = None
    rnuma_factory: Optional[Callable[..., Any]] = None

    def roles(self) -> Tuple[str, ...]:
        """The roles this family can build, in ('migrep', 'rnuma') order."""
        out = []
        if self.migrep_factory is not None:
            out.append("migrep")
        if self.rnuma_factory is not None:
            out.append("rnuma")
        return tuple(out)

    def supports(self, role: str) -> bool:
        """True when the family has a factory for ``role``."""
        return role in self.roles()

    def build(self, role: str, config, **kwargs):
        """Construct the policy instance for ``role`` under ``config``.

        Raises :class:`ValueError` when the family does not support the
        role (e.g. selecting an rnuma-only policy for a MigRep system).
        """
        factory = (self.migrep_factory if role == "migrep"
                   else self.rnuma_factory if role == "rnuma" else None)
        if role not in ("migrep", "rnuma"):
            raise ValueError(f"unknown policy role {role!r} "
                             "(valid roles: migrep, rnuma)")
        if factory is None:
            raise ValueError(
                f"policy {self.name!r} has no {role!r} variant "
                f"(supported roles: {', '.join(self.roles()) or 'none'})")
        return factory(config, **kwargs)


#: Live view of every registered policy name (grows as policies register).
POLICY_NAMES = NamesView(POLICIES)


def build_policy(name: str, role: str, config, **kwargs):
    """Build the decision policy registered under ``name`` for ``role``.

    Parameters
    ----------
    name:
        A registered policy name (see :data:`POLICY_NAMES`).
    role:
        ``"migrep"`` (home-side migration/replication) or ``"rnuma"``
        (requester-side relocation).
    config:
        The :class:`repro.config.SimulationConfig` the run executes
        under; factories derive thresholds and costs from it.
    **kwargs:
        Extra keyword arguments forwarded to the family's factory
        (per-policy tuning knobs such as ``beta`` or ``decay``).

    Returns
    -------
    DecisionPolicy
        A fresh policy instance for one run.

    Raises
    ------
    repro.registry.UnknownNameError
        For an unregistered name (with a did-you-mean suggestion).
    ValueError
        When the family does not support ``role``.
    """
    spec = POLICIES.resolve(name)
    return spec.build(role, config, **kwargs)


def resolve_policy(role: str, config, *, spec=None, policy=None, **kwargs):
    """Resolve the policy a protocol should use, from all override layers.

    Precedence (highest first):

    1. ``policy`` given directly to the protocol constructor — a ready
       policy object is returned as-is, a string selects by name;
    2. the system spec's ``migrep_policy`` / ``rnuma_policy`` override
       (set via :meth:`SystemSpec.derive <repro.core.factory.SystemSpec.derive>`);
    3. the configuration's ``thresholds.migrep_policy`` /
       ``thresholds.rnuma_policy`` name (the default path).

    Keyword arguments layer from weakest to strongest: the config's
    ``*_policy_args``, then the spec's ``policy_args``, then the
    protocol's own ``kwargs``.  The protocols forward only kwargs their
    caller *explicitly* supplied (constructor defaults are never passed),
    so a config-level argument is not silently clobbered by a default —
    while an explicit choice like the ``rep`` system's
    ``enable_migration=False`` stays strongest.  Stored arguments follow
    the family they were set with: the config's args apply only when the
    config's own policy name is the one being built, and the spec's args
    only when the spec's name is — so one family's tuning knobs are
    never fed to another family's factory.

    A ready policy *object* is used exactly as given — it must carry all
    of its own configuration, so combining it with constructor kwargs is
    an error rather than a silent drop.
    """
    if policy is not None and not isinstance(policy, str):
        if kwargs:
            raise ValueError(
                f"got both a ready {role} policy instance and constructor "
                f"arguments {sorted(kwargs)}; configure the instance "
                "directly (e.g. bake relocation_delay / enable flags into "
                "it) or pass a policy name instead")
        return policy
    thresholds = config.thresholds
    if role == "migrep":
        spec_name = getattr(spec, "migrep_policy", None)
        config_name = getattr(thresholds, "migrep_policy", "static-threshold")
        config_args = dict(getattr(thresholds, "migrep_policy_kwargs", {}))
    elif role == "rnuma":
        spec_name = getattr(spec, "rnuma_policy", None)
        config_name = getattr(thresholds, "rnuma_policy", "static-threshold")
        config_args = dict(getattr(thresholds, "rnuma_policy_kwargs", {}))
    else:
        raise ValueError(f"unknown policy role {role!r}")
    name = policy or spec_name or config_name
    args = config_args if name == config_name else {}
    if policy is None and spec_name is not None:
        args.update(dict(getattr(spec, "policy_args", ()) or ()))
    args.update(kwargs)
    return build_policy(name, role, config, **args)


def apply_policy(config, name: str):
    """Return ``config`` with ``name`` selected for every role it supports.

    Parameters
    ----------
    config:
        The :class:`repro.config.SimulationConfig` to derive from.
    name:
        A registered policy name.

    Returns
    -------
    SimulationConfig
        A copy selecting ``name`` for the roles the family provides;
        roles the family lacks keep their current selection, so a
        migrep-only policy can drive ``repro ... --policy`` and
        ``policy_sweep`` without breaking the systems that consult the
        rnuma role (and vice versa).

    Raises
    ------
    repro.registry.UnknownNameError
        For an unregistered name.
    """
    roles = POLICIES.resolve(name).roles()
    return config.with_policies(
        migrep=name if "migrep" in roles else None,
        rnuma=name if "rnuma" in roles else None)


# -- cost helpers shared by the competitive and cost-model factories --------


def _page_costs(config) -> Tuple[int, int, int, int]:
    """(miss_benefit, migration, replication, relocation) cycle costs."""
    costs = config.costs
    bpp = config.machine.blocks_per_page
    benefit = max(1, costs.remote_miss - costs.local_miss)
    migration = (costs.soft_trap + costs.gather_cost(bpp, bpp)
                 + costs.copy_cost(bpp, bpp))
    replication = costs.soft_trap + costs.copy_cost(bpp, bpp)
    relocation = costs.soft_trap + costs.page_alloc_cost(bpp, bpp)
    return benefit, migration, replication, relocation


# -- built-in registrations -------------------------------------------------


def _static_migrep(config, *, threshold: Optional[int] = None,
                   enable_migration: bool = True,
                   enable_replication: bool = True) -> MigRepPolicy:
    return MigRepPolicy(
        threshold=(int(threshold) if threshold is not None
                   else config.thresholds.effective_migrep_threshold),
        enable_migration=enable_migration,
        enable_replication=enable_replication)


def _static_rnuma(config, *, threshold: Optional[int] = None,
                  relocation_delay: int = 0) -> RNUMAPolicy:
    return RNUMAPolicy(
        threshold=(int(threshold) if threshold is not None
                   else config.thresholds.effective_rnuma_threshold),
        relocation_delay=relocation_delay)


register_policy(PolicySpec(
    name="static-threshold",
    summary="the paper's fixed miss/refetch count thresholds (Section 3)",
    migrep_factory=_static_migrep,
    rnuma_factory=_static_rnuma,
))


def _competitive_migrep(config, *, beta: float = 1.0,
                        enable_migration: bool = True,
                        enable_replication: bool = True
                        ) -> CompetitiveMigRepPolicy:
    benefit, migration, replication, _ = _page_costs(config)
    return CompetitiveMigRepPolicy(
        miss_benefit=benefit, migration_cost=migration,
        replication_cost=replication, beta=beta,
        enable_migration=enable_migration,
        enable_replication=enable_replication)


def _competitive_rnuma(config, *, beta: float = 1.0,
                       relocation_delay: int = 0
                       ) -> CompetitiveRelocationPolicy:
    benefit, _, _, relocation = _page_costs(config)
    return CompetitiveRelocationPolicy(
        miss_benefit=benefit, relocation_cost=relocation, beta=beta,
        relocation_delay=relocation_delay)


register_policy(PolicySpec(
    name="competitive",
    summary="ski-rental thresholds derived from the configured cost model",
    migrep_factory=_competitive_migrep,
    rnuma_factory=_competitive_rnuma,
))


def _hysteresis_migrep(config, *, threshold: Optional[float] = None,
                       decay: float = 0.98,
                       enable_migration: bool = True,
                       enable_replication: bool = True
                       ) -> HysteresisMigRepPolicy:
    if threshold is None:
        saturation = 1.0 / (1.0 - decay)
        threshold = min(0.8 * saturation,
                        max(2.0, config.thresholds.effective_migrep_threshold
                            * 0.5))
    return HysteresisMigRepPolicy(
        threshold=float(threshold), decay=decay,
        enable_migration=enable_migration,
        enable_replication=enable_replication)


def _hysteresis_rnuma(config, *, threshold: Optional[float] = None,
                      decay: float = 0.9, relocation_delay: int = 0
                      ) -> HysteresisRelocationPolicy:
    if threshold is None:
        saturation = 1.0 / (1.0 - decay)
        threshold = min(0.8 * saturation,
                        max(2.0, config.thresholds.effective_rnuma_threshold
                            * 0.75))
    return HysteresisRelocationPolicy(
        threshold=float(threshold), decay=decay,
        relocation_delay=relocation_delay)


register_policy(PolicySpec(
    name="hysteresis",
    summary="exponentially-decayed miss pressure; only sustained bursts act",
    migrep_factory=_hysteresis_migrep,
    rnuma_factory=_hysteresis_rnuma,
))


def _cost_model_migrep(config, *, margin: float = 2.0, min_samples: int = 8,
                       enable_migration: bool = True,
                       enable_replication: bool = True
                       ) -> CostModelMigRepPolicy:
    benefit, migration, replication, _ = _page_costs(config)
    return CostModelMigRepPolicy(
        miss_benefit=benefit, migration_cost=migration,
        replication_cost=replication, margin=margin, min_samples=min_samples,
        enable_migration=enable_migration,
        enable_replication=enable_replication)


def _cost_model_rnuma(config, *, margin: float = 2.0, min_samples: int = 4,
                      relocation_delay: int = 0) -> CostModelRelocationPolicy:
    benefit, _, _, relocation = _page_costs(config)
    return CostModelRelocationPolicy(
        miss_benefit=benefit, relocation_cost=relocation, margin=margin,
        min_samples=min_samples, relocation_delay=relocation_delay)


register_policy(PolicySpec(
    name="cost-model",
    summary="act when projected cycles saved exceed margin x page-op cost",
    migrep_factory=_cost_model_migrep,
    rnuma_factory=_cost_model_rnuma,
))
