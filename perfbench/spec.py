"""The benchmark's workloads: which paper artefact each one regenerates.

Plain data, importable without ``repro`` so the orchestrator can plan a
run (and fail fast in a checkout that has no sources) before it starts a
single child process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: the seven stock applications, in registry order
APPS = ("barnes", "cholesky", "fmm", "lu", "ocean", "radix", "raytrace")

#: kernel fallback reasons a workload expects; any other reason (above all
#: "no compiled backend available") fails the sample
PERFECT_FALLBACK = "infinite block cache"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a stock scenario driven the way a user does.

    ``cells`` is the number of simulations one scenario run executes (the
    ``attempted`` unit). ``streamed`` workloads write their traces to
    ``.rpt`` files once during input preparation and run them as
    ``file:`` apps. ``xcheck_engine`` / ``xcheck_app`` name the second
    engine and the application whose cells are re-simulated, untimed,
    when no digest is recorded for the seed. ``claims`` names the
    ``repro.analysis.validate`` check the ResultSet must pass in full.
    """

    name: str
    why: str
    scenario: str
    scale: float
    jobs: int
    engine: str
    cells: int
    store: bool = False
    streamed: bool = False
    claims: str = ""
    n_claims: int = 0
    expected_fallbacks: Tuple[str, ...] = ()
    xcheck_engine: str = "batched"
    xcheck_app: str = "ocean"


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="figure5",
            why=("the paper's headline artefact on the compiled kernel: "
                 "page-op bails plus the 7 perfect runs' batched fallback"),
            scenario="figure5", scale=0.5, jobs=1, engine="kernel", cells=49,
            claims="figure5", n_claims=6,
            expected_fallbacks=(PERFECT_FALLBACK,),
            xcheck_engine="batched", xcheck_app="ocean"),
        Workload(
            name="policy-sweep-j2",
            why=("adaptive-policy sweep at -j2 into a cold durable store: "
                 "the only load on the pool, shm transport, store and decide"),
            scenario="policy-adaptivity", scale=0.15, jobs=2, engine="kernel",
            cells=63, store=True,
            expected_fallbacks=(PERFECT_FALLBACK,),
            xcheck_engine="batched", xcheck_app="ocean"),
        Workload(
            name="table4-streamed",
            why=("Table 4 on the pure-Python batched engine with traces "
                 "streamed from .rpt files: no kernel, pool or store"),
            scenario="table4", scale=0.1, jobs=1, engine="batched", cells=21,
            streamed=True, claims="table4", n_claims=3,
            xcheck_engine="kernel", xcheck_app="ocean"),
    )
}
