"""Trace generation: turn a :class:`WorkloadSpec` into per-processor streams.

The generator assigns every page group a contiguous range of global page
ids, partitions PRIVATE groups over processors and MIGRATORY/STREAMING
groups over nodes, and then produces, phase by phase and processor by
processor, the block-reference streams the simulator consumes.  All random
draws use a seeded ``numpy`` generator, so a given (spec, scale, seed)
always produces exactly the same trace — important both for the
experiments (every system sees the same reference stream) and for the
tests.

Scaling
-------
``access_scale`` multiplies every phase's per-processor reference count
and ``page_scale`` multiplies every group's page count.  Tests use small
values of both; the experiment harnesses use the defaults baked into each
application module.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.config import MachineConfig
from repro.workloads.spec import PageGroup, Phase, SharingPattern, WorkloadSpec
from repro.workloads.trace import PhaseTrace, Trace


@dataclass(frozen=True)
class _GroupLayout:
    """Page-id layout of one group after scaling."""

    group: PageGroup
    base_page: int
    num_pages: int

    @property
    def end_page(self) -> int:
        return self.base_page + self.num_pages


class TraceGenerator:
    """Generates a :class:`Trace` from a :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec, machine: MachineConfig, *,
                 access_scale: float = 1.0, page_scale: float = 1.0,
                 seed: int = 0) -> None:
        if access_scale <= 0 or page_scale <= 0:
            raise ValueError("scales must be positive")
        self.spec = spec
        self.machine = machine
        self.access_scale = access_scale
        self.page_scale = page_scale
        self.seed = seed
        self.blocks_per_page = machine.blocks_per_page
        self.num_nodes = machine.num_nodes
        self.procs_per_node = machine.procs_per_node
        self.num_procs = machine.num_processors
        self.layouts = self._layout_groups()

    # ------------------------------------------------------------------ layout

    def _layout_groups(self) -> Dict[str, _GroupLayout]:
        layouts: Dict[str, _GroupLayout] = {}
        next_page = 0
        for group in self.spec.groups:
            scaled = max(1, int(round(group.num_pages * self.page_scale)))
            # private / partitioned groups need at least one page per owner
            if group.pattern is SharingPattern.PRIVATE:
                scaled = max(scaled, self.num_procs)
            elif group.pattern in (SharingPattern.MIGRATORY, SharingPattern.STREAMING):
                scaled = max(scaled, self.num_nodes)
            layouts[group.name] = _GroupLayout(group=group, base_page=next_page,
                                               num_pages=scaled)
            next_page += scaled
        return layouts

    def total_pages(self) -> int:
        """Total pages after scaling."""
        return sum(l.num_pages for l in self.layouts.values())

    def pages_of_group(self, name: str) -> range:
        """Global page-id range of group ``name``."""
        layout = self.layouts[name]
        return range(layout.base_page, layout.end_page)

    # ------------------------------------------------------------------ partition helpers

    def _proc_partition(self, layout: _GroupLayout, proc: int) -> Tuple[int, int]:
        """Page sub-range of ``layout`` owned by processor ``proc``."""
        per = max(1, layout.num_pages // self.num_procs)
        start = layout.base_page + (proc % self.num_procs) * per
        end = min(start + per, layout.end_page)
        if start >= layout.end_page:
            start = layout.base_page
            end = min(start + per, layout.end_page)
        return start, max(end, start + 1)

    def _node_partition(self, layout: _GroupLayout, node: int) -> Tuple[int, int]:
        """Page sub-range of ``layout`` owned by node ``node``."""
        per = max(1, layout.num_pages // self.num_nodes)
        start = layout.base_page + (node % self.num_nodes) * per
        end = min(start + per, layout.end_page)
        if start >= layout.end_page:
            start = layout.base_page
            end = min(start + per, layout.end_page)
        return start, max(end, start + 1)

    def owner_proc_of_page(self, group_name: str, page: int) -> int:
        """Processor that owns (first touches) ``page`` of the given group."""
        layout = self.layouts[group_name]
        if not layout.base_page <= page < layout.end_page:
            raise ValueError(f"page {page} not in group {group_name!r}")
        pattern = layout.group.pattern
        offset = page - layout.base_page
        if pattern is SharingPattern.PRIVATE:
            per = max(1, layout.num_pages // self.num_procs)
            return min(offset // per, self.num_procs - 1)
        if pattern in (SharingPattern.MIGRATORY, SharingPattern.STREAMING):
            per = max(1, layout.num_pages // self.num_nodes)
            node = min(offset // per, self.num_nodes - 1)
            return node * self.procs_per_node
        if pattern is SharingPattern.READ_SHARED:
            # produced by node 0 so that the other seven nodes read remotely
            return 0
        # READ_WRITE_SHARED: spread homes round-robin over nodes
        node = offset % self.num_nodes
        return node * self.procs_per_node

    # ------------------------------------------------------------------ page selection

    def _draw_pages(self, rng: np.random.Generator, layout: _GroupLayout,
                    count: int, proc: int, phase: Phase) -> np.ndarray:
        """Draw ``count`` page ids for processor ``proc`` from ``layout``."""
        group = layout.group
        pattern = group.pattern
        node = proc // self.procs_per_node

        if pattern is SharingPattern.PRIVATE:
            lo, hi = self._proc_partition(layout, proc)
            return rng.integers(lo, hi, size=count)

        if pattern in (SharingPattern.MIGRATORY, SharingPattern.STREAMING):
            shifted = (node + phase.migratory_shift) % self.num_nodes
            lo, hi = self._node_partition(layout, shifted)
            if pattern is SharingPattern.MIGRATORY:
                return self._hot_cold(rng, group, lo, hi, count)
            # STREAMING: walk sequentially, touching each page a few times
            touches = max(1, group.touches_per_page)
            n_pages = max(1, count // touches + 1)
            start = int(rng.integers(lo, hi))
            walk = (start + np.arange(n_pages)) % (hi - lo) + lo
            pages = np.repeat(walk, touches)[:count]
            return pages

        # READ_SHARED and READ_WRITE_SHARED: all nodes draw from the whole
        # group, optionally skewed toward the node's own slice (affinity)
        pages = self._hot_cold(rng, group, layout.base_page, layout.end_page, count)
        if group.node_affinity > 0.0:
            lo, hi = self._node_partition(layout, node)
            affine = rng.random(count) < group.node_affinity
            affine_pages = rng.integers(lo, hi, size=count)
            pages = np.where(affine, affine_pages, pages)
        return pages

    def _hot_cold(self, rng: np.random.Generator, group: PageGroup,
                  lo: int, hi: int, count: int) -> np.ndarray:
        """Uniform draw with an optional hot subset (temporal locality)."""
        span = hi - lo
        if group.hot_weight >= 1.0 or group.hot_fraction >= 1.0 or span <= 1:
            return rng.integers(lo, hi, size=count)
        hot_span = max(1, int(round(span * group.hot_fraction)))
        is_hot = rng.random(count) < group.hot_weight
        hot_pages = rng.integers(lo, lo + hot_span, size=count)
        cold_pages = rng.integers(lo, hi, size=count)
        return np.where(is_hot, hot_pages, cold_pages)

    # ------------------------------------------------------------------ phase generation

    def _touch_phase(self, rng: np.random.Generator, phase: Phase) -> PhaseTrace:
        """Build an initialisation phase: owners write their pages once.

        Each page is written ``touches_per_page`` times at random block
        offsets.  A group's offsets are drawn in one ``(pages, touches)``
        call, which yields the same numbers in the same order as one call
        per page (the block count per page is a power of two, so no draw
        is rejected and the even touch count uses whole 64-bit words),
        and a stable sort by owner hands every processor its blocks in
        group and page order.
        """
        touches_per_page = 4
        blocks: List[np.ndarray] = []
        owners: List[np.ndarray] = []
        for gname in phase.touch_groups:
            layout = self.layouts[gname]
            pages = np.arange(layout.base_page, layout.end_page, dtype=np.int64)
            offsets = rng.integers(0, self.blocks_per_page,
                                   size=(pages.size, touches_per_page))
            blocks.append((pages[:, None] * self.blocks_per_page
                           + offsets).ravel())
            owner = [self.owner_proc_of_page(gname, page)
                     for page in range(layout.base_page, layout.end_page)]
            owners.append(np.repeat(np.asarray(owner, dtype=np.int64),
                                    touches_per_page))
        owner_of = np.concatenate(owners)
        by_owner = np.concatenate(blocks)[np.argsort(owner_of, kind="stable")]
        counts = np.bincount(owner_of, minlength=self.num_procs)
        block_arrays = np.split(by_owner, np.cumsum(counts)[:-1])
        write_arrays = [np.ones(len(b), dtype=np.uint8) for b in block_arrays]
        return PhaseTrace(name=phase.name,
                          compute_per_access=phase.compute_per_access,
                          blocks=block_arrays, writes=write_arrays)

    def _work_phase(self, rng: np.random.Generator, phase: Phase) -> PhaseTrace:
        """Build a normal (post-barrier) computation phase."""
        group_names = [g for g in phase.weights if phase.weights[g] > 0]
        weights = np.asarray([phase.weights[g] for g in group_names], dtype=float)
        weights = weights / weights.sum()
        accesses = max(1, int(round(phase.accesses_per_proc * self.access_scale)))

        block_arrays: List[np.ndarray] = []
        write_arrays: List[np.ndarray] = []
        for proc in range(self.num_procs):
            choice = rng.choice(len(group_names), size=accesses, p=weights)
            pages = np.empty(accesses, dtype=np.int64)
            writes = np.zeros(accesses, dtype=np.uint8)
            # groups with run_length > 1 pick whole blocks (page + offset)
            # per run and overwrite their stream positions after the
            # page-level draws; collected here to keep the rng call
            # sequence of run_length == 1 specs bit-identical
            run_blocks: List[Tuple[np.ndarray, np.ndarray]] = []
            for gi, gname in enumerate(group_names):
                idx = np.nonzero(choice == gi)[0]
                if idx.size == 0:
                    continue
                layout = self.layouts[gname]
                run = layout.group.run_length
                if run > 1:
                    picks = (idx.size + run - 1) // run
                    pick_pages = self._draw_pages(rng, layout, picks, proc,
                                                  phase)
                    pick_offs = rng.integers(0, self.blocks_per_page,
                                             size=picks)
                    blocks = np.repeat(
                        pick_pages * self.blocks_per_page + pick_offs,
                        run)[:idx.size]
                    run_blocks.append((idx, blocks))
                    pages[idx] = blocks // self.blocks_per_page
                else:
                    pages[idx] = self._draw_pages(rng, layout, idx.size, proc,
                                                  phase)
                wf = (phase.write_override
                      if phase.write_override is not None
                      else layout.group.write_fraction)
                if wf > 0:
                    writes[idx] = (rng.random(idx.size) < wf).astype(np.uint8)
            offsets = rng.integers(0, self.blocks_per_page, size=accesses)
            stream = pages * self.blocks_per_page + offsets
            for idx, blocks in run_blocks:
                stream[idx] = blocks
            block_arrays.append(stream)
            write_arrays.append(writes)

        return PhaseTrace(name=phase.name,
                          compute_per_access=phase.compute_per_access,
                          blocks=block_arrays, writes=write_arrays)

    # ------------------------------------------------------------------ entry point

    def iter_phases(self) -> Iterator[PhaseTrace]:
        """Yield the trace's phases one at a time, in order.

        Exactly the phases :meth:`generate` would collect (same RNG call
        sequence, bit-identical streams), but only one phase is alive at
        a time — the building block of out-of-core trace creation
        (:meth:`generate_to_file`).
        """
        rng = np.random.default_rng(self.seed)
        for phase in self.spec.phases:
            if phase.touch_groups:
                yield self._touch_phase(rng, phase)
            else:
                yield self._work_phase(rng, phase)

    def trace_metadata(self) -> Dict[str, object]:
        """The metadata dictionary attached to every generated trace."""
        return {
            "spec": self.spec.name,
            "description": self.spec.description,
            "paper_input": self.spec.paper_input,
            "access_scale": self.access_scale,
            "page_scale": self.page_scale,
            "seed": self.seed,
            "total_pages": self.total_pages(),
        }

    def generate(self) -> Trace:
        """Generate the full trace for this spec/scale/seed."""
        return Trace(name=self.spec.name, num_procs=self.num_procs,
                     phases=list(self.iter_phases()),
                     metadata=self.trace_metadata())

    def generate_to_file(self, path: Union[str, Path], *,
                         chunk_refs: Optional[int] = None) -> Path:
        """Generate straight into an on-disk trace file; returns the path.

        Phases are written as they are produced, so peak memory is one
        phase regardless of the trace's total size, and the resulting
        file streams back (:func:`repro.traces.open_trace`) with
        bit-identical simulation results to an in-memory
        :meth:`generate` run.
        """
        from repro.workloads.tracefile import (
            DEFAULT_CHUNK_REFS,
            TraceFileWriter,
        )
        writer = TraceFileWriter(
            path, name=self.spec.name, num_procs=self.num_procs,
            metadata=self.trace_metadata(),
            chunk_refs=chunk_refs if chunk_refs else DEFAULT_CHUNK_REFS)
        with writer:
            for phase in self.iter_phases():
                writer.add_phase(phase)
        return Path(path)
