"""Cycle-based simulation driver (paper §VI, Figs. 10a/11a "Cycle-Based").

Feeds a benchmark's LLC-level trace through a memory system — the
uncompressed baseline or a compressed controller — over the DDR4 timing
model and the analytic core.  Captures everything the experiments need:
cycles (→ relative performance), the controller's data-movement stats
(→ Figs. 4/6), DRAM traffic (→ energy), and a compression-ratio
timeline (→ the capacity runs' dynamic budget).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.config import CompressoConfig
from ..core.controller import CompressedMemoryController
from ..core.stats import ControllerStats
from ..cpu.core import AnalyticCore, CoreConfig
from ..memory.dram import DRAMStats, DRAMSystem, DRAMTimings
from ..memory.physical import MemoryGeometry
from ..memory.request import AccessCategory, AccessKind, AccessResult, MemAccess
from ..obs import NULL_TRACER, timeline_digest
from ..workloads.profiles import BenchmarkProfile
from ..workloads.tracegen import TraceGenerator, Workload
from .configs import OS_PAGE_FAULT_PENALTY_CYCLES, system_config


@dataclass
class SimulationConfig:
    """Knobs for one cycle-based run."""

    n_events: int = 40000
    scale: float = 0.25              # footprint scale factor
    seed: int = 0
    warm_install: bool = True        # pre-populate memory (CompressPoint)
    #: Prime the controller's compressed-size cache through the numpy
    #: batch kernels before the warm install (docs/KERNELS.md).  The
    #: vector kernels are byte-identical to the scalar compressors, so
    #: results and statistics do not change.  It saves no measurable
    #: time: a run compresses few distinct lines, and end to end the
    #: hook measures within noise or slower.
    batch_install: bool = False
    ratio_samples: int = 20          # compression-ratio timeline length
    os_fault_penalty: int = OS_PAGE_FAULT_PENALTY_CYCLES
    dram_channels: int = 1
    #: Fraction of a *sequential* demand read's latency hidden by the
    #: core's stream prefetcher (all systems benefit equally); without
    #: it, an analytic core overstates how memory-latency-bound
    #: streaming workloads are, and with them every bandwidth benefit.
    prefetch_hide: float = 0.6
    #: Scale the metadata cache with the footprint so the working-set /
    #: cache-reach ratio matches the full-size system (96 KB vs. real
    #: footprints); disable for absolute-capacity studies.
    scale_metadata_cache: bool = True
    #: Visible-latency weight of the second and later accesses in a
    #: serial critical chain (metadata miss -> data); 1.0 models full
    #: serialization.  Metadata fetches are already prioritized in the
    #: DRAM model, so full serialization is the honest default.
    serial_overlap: float = 1.0
    #: Attach the memory-model sanitizer (repro.check.sanitizer): the
    #: controller re-verifies its layout and allocator invariants after
    #: every operation, and the result reports the violation count.
    #: Beyond True/False this accepts ``"strict"`` (raise on the first
    #: violation) and ``"recover"`` (repair detected corruption via the
    #: decompress-and-mark-uncompressed fallback, docs/ROBUSTNESS.md).
    sanitize: object = False
    #: Fault-injection spec (``repro.inject`` grammar, e.g.
    #: ``"line:0.01,meta:0.005"``); ``None`` disables injection.  The
    #: injector is seeded from ``seed`` and steps once per trace event.
    #: Pair with ``sanitize="recover"`` for detect-and-recover runs.
    faults: Optional[str] = None
    #: Run the multicore simulation across this many supervised worker
    #: processes (``repro.shard``, docs/SHARDING.md); 0 keeps the
    #: single-process path.  Results are byte-identical either way —
    #: the supervisor verifies N-way agreement before merging.
    shards: int = 0


@dataclass
class SimulationResult:
    """Outcome of one (benchmark, system) cycle-based run."""

    benchmark: str
    system: str
    cycles: int
    instructions: int
    controller_stats: Optional[ControllerStats]
    dram_stats: DRAMStats
    ratio_timeline: List[float] = field(default_factory=list)
    #: Metadata-cache hit rate; ``None`` when the run produced no
    #: metadata traffic (uncompressed baseline, or zero lookups).
    metadata_hit_rate: Optional[float] = None
    #: Compression ratio after the final metadata flush (all pending
    #: repack triggers fired) — what a long-running system converges to.
    final_ratio: float = 1.0
    #: Windowed trace digest (``repro.obs.timeline.timeline_digest``);
    #: only present when the run was traced.
    timeline: Optional[dict] = None
    #: Invariant violations the memory-model sanitizer detected;
    #: ``None`` when the run was not sanitized (``sanitize=False``).
    sanitizer_violations: Optional[int] = None
    #: Faults the injector committed; ``None`` when the run had no
    #: injector (``faults=None``).
    faults_injected: Optional[int] = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Relative performance vs. a run of the same trace."""
        if baseline.instructions != self.instructions:
            raise ValueError("speedup requires runs over the same trace")
        return baseline.cycles / self.cycles

    @property
    def mean_ratio(self) -> float:
        if not self.ratio_timeline:
            return 1.0
        return float(np.mean(self.ratio_timeline))


class UncompressedController:
    """Baseline memory controller: one access per fill/writeback."""

    def __init__(self, page_size: int = 4096, line_size: int = 64) -> None:
        self.page_size = page_size
        self.line_size = line_size
        self.stats = ControllerStats()

    def read_line(self, page: int, line: int) -> AccessResult:
        self.stats.demand_reads += 1
        address = page * self.page_size + line * self.line_size
        return AccessResult(accesses=[
            MemAccess(AccessKind.READ, AccessCategory.DEMAND, address)
        ])

    def write_line(self, page: int, line: int, data: bytes) -> AccessResult:
        self.stats.demand_writes += 1
        address = page * self.page_size + line * self.line_size
        return AccessResult(accesses=[
            MemAccess(AccessKind.WRITE, AccessCategory.DEMAND, address,
                      critical=False)
        ])

    def install_page(self, page: int, lines) -> None:
        """Uncompressed memory needs no installation bookkeeping."""

    def compression_ratio(self) -> float:
        return 1.0

    def flush_metadata(self):
        return []


def _build_controller(system: str, workload_pages: int,
                      sim: SimulationConfig,
                      config: Optional[CompressoConfig] = None,
                      tracer=NULL_TRACER):
    if config is None:
        config = system_config(system)
    if config is None:
        return UncompressedController()
    if sim.scale_metadata_cache and sim.scale < 1.0:
        entry_set = config.metadata_cache_assoc * 64
        scaled = max(entry_set, int(config.metadata_cache_bytes * sim.scale))
        scaled -= scaled % entry_set
        config = config.replace(metadata_cache_bytes=scaled)
    footprint = workload_pages * 4096
    # Cycle-based runs are not capacity constrained (8 GB in Tab. III):
    # install enough machine memory for the worst (incompressible) case
    # plus metadata, and advertise at least the workload's OSPA range.
    installed = footprint * 2 + (32 << 20)
    geometry = MemoryGeometry(
        installed_bytes=installed,
        advertised_ratio=max(2.0, (workload_pages + 64) * 4096 * 1.1 / installed),
    )
    return CompressedMemoryController(config, geometry, tracer=tracer,
                                      sanitize=sim.sanitize)


class EventEngine:
    """Processes one core's trace events against a (possibly shared)
    controller + DRAM.  Used by both the single-core and 4-core drivers."""

    def __init__(self, controller, dram: DRAMSystem, core: AnalyticCore,
                 workload: Workload, trace: TraceGenerator,
                 sim: SimulationConfig, page_offset: int = 0) -> None:
        self.controller = controller
        self.dram = dram
        self.core = core
        self.workload = workload
        self.trace = trace
        self.sim = sim
        self.page_offset = page_offset
        self._phase_rng = np.random.RandomState(sim.seed + 1 + page_offset)
        self._last_read = (-1, -1)

    def step(self, event, progress: float) -> None:
        """Advance the core through one trace event."""
        sim = self.sim
        core = self.core
        controller = self.controller
        page = self.page_offset + event.page
        core.advance_instructions(event.gap)
        if event.is_writeback:
            override = self.trace.overwrite_class_at(progress, self._phase_rng)
            data = self.workload.apply_writeback(event.page, event.line,
                                                 override)
            faults_before = controller.stats.os_page_faults
            result = controller.write_line(page, event.line, data)
            _issue(self.dram, core.now, result, stall_core=None)
            faults = controller.stats.os_page_faults - faults_before
            if faults:
                core.stall(faults * sim.os_fault_penalty)
        else:
            result = controller.read_line(page, event.line)
            latency = _issue(self.dram, core.now, result, stall_core=core,
                             serial_overlap=sim.serial_overlap)
            latency += result.controller_cycles
            sequential = (
                event.page == self._last_read[0]
                and event.line == self._last_read[1] + 1
            )
            if sequential:
                latency = int(latency * (1.0 - sim.prefetch_hide))
            core.stall(latency)
            self._last_read = (event.page, event.line)


def simulate(profile: BenchmarkProfile, system: str,
             sim: SimulationConfig = SimulationConfig(),
             config: Optional[CompressoConfig] = None,
             tracer=None, injector=None) -> SimulationResult:
    """Run one benchmark on one system configuration.

    ``system`` is a named configuration (§VI-F); pass ``config`` to run
    an explicit :class:`CompressoConfig` design point instead (the
    Fig. 4/6 ladders and ablations do this), with ``system`` then used
    only as the result label.  Pass a :class:`repro.obs.Tracer` to
    record controller events and wall-clock phase timings; the result
    then carries a windowed timeline digest.  A ``repro.inject``
    :class:`~repro.inject.FaultInjector` (given explicitly or built
    from ``sim.faults``) is stepped once per trace event against the
    compressed controller.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    workload = Workload(profile, scale=sim.scale, seed=sim.seed)
    controller = _build_controller(system, workload.pages, sim, config,
                                   tracer=tracer)
    if injector is None and sim.faults:
        from ..inject import FaultInjector
        injector = FaultInjector(sim.faults, seed=sim.seed)
    if injector is not None:
        if isinstance(controller, UncompressedController):
            injector = None     # nothing to corrupt in the baseline
        else:
            injector.bind(controller, tracer)
    with tracer.phase("install"):
        if sim.warm_install:
            if sim.batch_install and hasattr(controller, "prime_size_cache"):
                controller.prime_size_cache(
                    line
                    for page in range(workload.pages)
                    for line in workload.page_lines(page)
                )
            for page in range(workload.pages):
                controller.install_page(page, workload.page_lines(page))

    core = AnalyticCore(CoreConfig(), mlp=profile.mlp, cpi=profile.base_cpi)
    dram = DRAMSystem(n_channels=sim.dram_channels, timings=DRAMTimings())
    trace = TraceGenerator(workload, seed=sim.seed)
    engine = EventEngine(controller, dram, core, workload, trace, sim)

    ratio_timeline: List[float] = []
    sample_every = max(1, sim.n_events // max(1, sim.ratio_samples))

    with tracer.phase("simulate"):
        for index, event in enumerate(trace.events(sim.n_events)):
            engine.step(event, progress=index / sim.n_events)
            if injector is not None:
                injector.step()
            if index % sample_every == 0:
                ratio_timeline.append(max(1.0, controller.compression_ratio()))

    with tracer.phase("flush"):
        controller.flush_metadata()
    cstats = controller.stats if not isinstance(
        controller, UncompressedController
    ) else None
    sanitizer = getattr(controller, "sanitizer", None)
    return SimulationResult(
        benchmark=profile.name,
        system=system,
        cycles=max(1, core.now),
        instructions=core.stats.instructions,
        controller_stats=cstats or controller.stats,
        dram_stats=dram.stats,
        ratio_timeline=ratio_timeline,
        final_ratio=max(1.0, controller.compression_ratio()),
        metadata_hit_rate=controller.stats.metadata_hit_rate(),
        timeline=(
            timeline_digest(tracer.events, tracer.digest_window,
                            end_clock=tracer.clock)
            if tracer.enabled else None
        ),
        sanitizer_violations=(
            sanitizer.violation_count if sanitizer is not None else None
        ),
        faults_injected=(
            len(injector.records) if injector is not None else None
        ),
    )


def _issue(dram: DRAMSystem, now: int, result: AccessResult,
           stall_core, serial_overlap: float = 0.45) -> int:
    """Issue a result's DRAM accesses; returns critical-path latency.

    Critical accesses serialize in DRAM-time (metadata before data),
    but the *visible* latency of later chain links is discounted by
    ``serial_overlap`` — the OOO window overlaps dependent-miss chains
    across independent misses.  Non-critical accesses (writebacks,
    movement traffic, speculation) are posted at ``now`` and only cost
    bandwidth.
    """
    t = now
    visible = 0.0
    first = True
    for access in result.accesses:
        if access.critical and stall_core is not None:
            done = dram.access(t, access)
            service = done - t
            visible += service if first else service * serial_overlap
            first = False
            t = done
        else:
            dram.access(now, access)
    return int(visible)


def run_benchmark_systems(profile: BenchmarkProfile, systems,
                          sim: SimulationConfig = SimulationConfig()
                          ) -> Dict[str, SimulationResult]:
    """Run one benchmark across several systems on the same trace."""
    return {system: simulate(profile, system, sim) for system in systems}
