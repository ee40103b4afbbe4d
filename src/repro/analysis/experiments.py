"""Experiment runners: one function per paper table/figure.

Each ``run_*`` function regenerates the corresponding artifact of the
paper's evaluation over the synthetic workload suite and returns an
:class:`~repro.analysis.report.ExperimentResult` carrying the same
rows/series the paper plots, the paper's stated reference values, and
notes about substitutions.  ``benchmarks/`` wraps these runners with
pytest-benchmark; EXPERIMENTS.md records paper-vs-measured.

All runners accept an :class:`ExperimentScale`; the defaults trade
precision for wall-clock so the full harness finishes in minutes on a
laptop.  ``FULL`` sharpens the statistics.

Execution is decomposed into independent per-(benchmark, system,
config) **work units** — module-level ``_unit_*`` functions returning
plain JSON data — submitted through :class:`repro.runner.Runner`.
Every ``run_*`` accepts an optional ``runner``; the default is a
serial, uncached, unjournaled runner that reproduces the historical
behaviour exactly.  Pass ``Runner(jobs=N, cache=..., journal=...)``
(or use ``python -m repro.analysis run``) for parallel, memoized,
observable execution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..compression import BDICompressor, BPCCompressor, is_zero_line
from ..core.config import (
    ALIGNMENT_FRIENDLY_LINE_BINS,
    EIGHT_LINE_BINS,
    PRIOR_WORK_LINE_BINS,
    compresso_config,
)
from ..core.lcp import LCPPack
from ..core.linepack import LinePack, split_access_fraction
from ..core.stats import ControllerStats
from ..energy.area import AdderModel, AreaReport, offset_adder_for_bins
from ..energy.model import EnergyConstants, EnergyModel
from ..obs import Tracer
from ..runner import Runner, WorkUnit
from ..simulation.capacity import (
    CapacityConfig,
    capacity_impact,
    multicore_capacity_impact,
)
from ..simulation.compresspoints import (
    profile_intervals,
    representativeness_error,
    select_points,
)
from ..simulation.configs import chunk_vs_variable_configs, optimization_ladder
from ..simulation.multicore import simulate_multicore
from ..simulation.simulator import SimulationConfig, simulate
from ..workloads.mixes import MIX_ORDER, mix_profiles
from ..workloads.profiles import BENCHMARK_ORDER, CAPACITY_STALLERS, PROFILES
from ..workloads.tracegen import Workload
from .report import ExperimentResult, arithmetic_mean, geometric_mean

#: Systems compared throughout the evaluation (§VI-F).
COMPRESSED_SYSTEMS = ("lcp", "lcp+align", "compresso")


@dataclass(frozen=True)
class ExperimentScale:
    """Problem size for the experiment harness."""

    #: Trace length and footprint scale.  The ratio matters: per-page
    #: one-time costs (conversions, first overflows) must amortize over
    #: many accesses per page, as they do in the paper's 200M-instruction
    #: CompressPoints.
    n_events: int = 8000
    scale: float = 0.02
    seed: int = 1
    capacity_touches: int = 20000
    capacity_footprint_cap: int = 400   # pages per benchmark in paging runs
    fig2_pages: int = 80                # pages sampled per benchmark
    benchmarks: Sequence[str] = BENCHMARK_ORDER
    mixes: Sequence[str] = MIX_ORDER
    #: When set, cycle-based units run with a :class:`repro.obs.Tracer`
    #: and journal a windowed timeline digest (this many demand accesses
    #: per window).  ``None`` keeps the zero-overhead null tracer.
    trace_window: Optional[int] = None
    #: Run cycle-based units with the memory-model sanitizer attached
    #: (``repro.check.sanitizer``, docs/LINTING.md); unit outputs and
    #: the run journal then carry the violation counts.  Besides
    #: True/False this accepts the ``"strict"`` and ``"recover"``
    #: sanitizer modes (docs/ROBUSTNESS.md).
    sanitize: object = False
    #: Fault-injection spec applied to every cycle-based unit
    #: (``repro.inject`` grammar, e.g. ``"line:0.01,meta:0.005"``);
    #: ``None`` disables injection.  Set via ``--inject`` on the CLI,
    #: usually together with ``sanitize="recover"``
    #: (docs/ROBUSTNESS.md).
    faults: Optional[str] = None
    #: Run multicore units across this many supervised worker processes
    #: (``repro.shard``, docs/SHARDING.md; set via ``--shards`` on the
    #: CLI).  0 keeps the single-process path; results are
    #: byte-identical either way.
    shards: int = 0

    def sim(self, **overrides) -> SimulationConfig:
        defaults = dict(n_events=self.n_events, scale=self.scale,
                        seed=self.seed, sanitize=self.sanitize,
                        faults=self.faults, shards=self.shards)
        defaults.update(overrides)
        return SimulationConfig(**defaults)


QUICK = ExperimentScale(n_events=1200, scale=0.02, capacity_touches=6000,
                        capacity_footprint_cap=120, fig2_pages=30,
                        benchmarks=("gcc", "mcf", "libquantum", "omnetpp"),
                        mixes=("mix1", "mix10"))
DEFAULT = ExperimentScale()
FULL = ExperimentScale(n_events=40000, scale=0.05, capacity_touches=60000,
                       fig2_pages=200)


def _profiles(scale: ExperimentScale):
    return [PROFILES[name] for name in scale.benchmarks]


def _run_units(runner: Optional[Runner], experiment: str,
               fn: Callable[..., Any],
               labeled_params: Sequence) -> List[Any]:
    """Submit one work unit per (label, params) pair; results in order."""
    active = runner if runner is not None else Runner()
    units = [
        WorkUnit(experiment=experiment, label=f"{experiment}/{label}",
                 fn=fn, params=params)
        for label, params in labeled_params
    ]
    return active.map(units)


def _stats_summary(stats: ControllerStats,
                   ratio: Optional[float] = None) -> Dict[str, Any]:
    """The ControllerStats digest journaled with each unit_end event.

    ``ratio`` attaches the unit's final compression ratio when the
    caller has one — it is a headline metric of the paper, so the
    results index (docs/RESULTS.md) wants it alongside the
    access-overhead counters.
    """
    summary = {
        "demand_accesses": stats.demand_accesses,
        "extra_accesses": stats.extra_accesses,
        "relative_extra_accesses": stats.relative_extra_accesses(),
        "metadata_lookups": stats.metadata_lookups,
        "metadata_hit_rate": stats.metadata_hit_rate(),
    }
    if ratio is not None:
        summary["compression_ratio"] = ratio
    return summary


# ---------------------------------------------------------------------------
# Fig. 2 — compression ratio: {BPC, BDI} x {LinePack, LCP}
# ---------------------------------------------------------------------------

def _fig2_combos():
    # LinePack uses Compresso's alignment-friendly bins; LCP packing uses
    # the prior work's compression-optimized bins (its own design).
    return {
        "bpc+linepack": (BPCCompressor(), LinePack(ALIGNMENT_FRIENDLY_LINE_BINS)),
        "bpc+lcp": (BPCCompressor(), LCPPack(PRIOR_WORK_LINE_BINS)),
        "bdi+linepack": (BDICompressor(), LinePack(ALIGNMENT_FRIENDLY_LINE_BINS)),
        "bdi+lcp": (BDICompressor(), LCPPack(PRIOR_WORK_LINE_BINS)),
    }


def _line_size(compressor, cache: Dict[bytes, int], line: bytes) -> int:
    if is_zero_line(line):
        return 0
    size = cache.get(line)
    if size is None:
        size = min(compressor.compressed_size_bytes(line), 64)
        cache[line] = size
    return size


def _unit_fig2(benchmark: str, scale: ExperimentScale) -> dict:
    """Fig. 2 cell: four algorithm/packing ratios for one benchmark."""
    profile = PROFILES[benchmark]
    combos = _fig2_combos()
    caches: Dict[str, Dict[bytes, int]] = {"bpc": {}, "bdi": {}}
    workload = Workload(profile, scale=scale.scale, seed=scale.seed)
    n_pages = min(workload.pages, scale.fig2_pages)
    row: Dict[str, Any] = {"benchmark": profile.name}
    for combo, (compressor, packer) in combos.items():
        cache = caches[compressor.name]
        raw = allocated = 0
        for page in range(n_pages):
            sizes = [
                _line_size(compressor, cache, line)
                for line in workload.page_lines(page)
            ]
            layout = packer.pack(sizes)
            raw += 4096
            if layout.total_bytes:
                allocated += max(
                    512, (layout.total_bytes + 511) // 512 * 512
                )
        row[combo] = raw / allocated if allocated else 64.0
    return {"row": row}


def run_fig2(scale: ExperimentScale = DEFAULT,
             runner: Optional[Runner] = None) -> ExperimentResult:
    """Compression ratios of the four algorithm/packing combinations."""
    result = ExperimentResult(
        experiment_id="fig2",
        title="Compression ratio, BPC/BDI x LinePack/LCP",
        columns=["benchmark"] + list(_fig2_combos()),
        paper_values={
            "bpc+linepack average": 1.85,
            "lcp loss vs linepack (bpc)": "13%",
            "lcp loss vs linepack (bdi)": "2.3%",
        },
        notes=["memory contents are the synthetic per-benchmark mixes "
               "(see workloads.profiles); zeusmp is the high outlier"],
    )
    outputs = _run_units(
        runner, "fig2", _unit_fig2,
        [(name, {"benchmark": name, "scale": scale})
         for name in scale.benchmarks])
    for output in outputs:
        result.add_row(**output["row"])
    for combo in _fig2_combos():
        result.summary[f"{combo} mean"] = arithmetic_mean(
            result.column_values(combo)
        )
    return result


# ---------------------------------------------------------------------------
# Fig. 4 — additional data movement, fixed 512 B chunks vs 4 variable sizes
# ---------------------------------------------------------------------------

def _unit_fig4(benchmark: str, scale: ExperimentScale) -> dict:
    """Fig. 4 cell: fixed-chunk vs variable-chunk extra accesses."""
    profile = PROFILES[benchmark]
    configs = chunk_vs_variable_configs()
    row: Dict[str, Any] = {"benchmark": profile.name}
    stats = None
    timeline = None
    violations = None
    ratio = None
    for label, config in configs.items():
        prefix = "fixed" if label.startswith("fixed") else "var"
        run = _simulate_with_config(profile, config, scale)
        stats = run.controller_stats
        timeline = run.timeline
        ratio = run.final_ratio
        if run.sanitizer_violations is not None:
            violations = (violations or 0) + run.sanitizer_violations
        breakdown = stats.breakdown()
        row[f"{prefix}:total"] = stats.relative_extra_accesses()
        row[f"{prefix}:split"] = breakdown["split"]
        row[f"{prefix}:ovf"] = breakdown["overflow"]
        row[f"{prefix}:md"] = breakdown["metadata"]
    output = {"row": row, "stats": _stats_summary(stats, ratio=ratio)}
    if timeline is not None:
        output["timeline"] = timeline
    if violations is not None:
        output["sanitizer"] = {"violations": violations}
    return output


def run_fig4(scale: ExperimentScale = DEFAULT,
             runner: Optional[Runner] = None) -> ExperimentResult:
    """Extra accesses (split/overflow/metadata) of the unoptimized system."""
    result = ExperimentResult(
        experiment_id="fig4",
        title="Extra data movement vs uncompressed (no optimizations)",
        columns=["benchmark",
                 "fixed:total", "fixed:split", "fixed:ovf", "fixed:md",
                 "var:total", "var:split", "var:ovf", "var:md"],
        paper_values={"average extra accesses": "63%", "maximum": "180%"},
    )
    outputs = _run_units(
        runner, "fig4", _unit_fig4,
        [(name, {"benchmark": name, "scale": scale})
         for name in scale.benchmarks])
    for output in outputs:
        result.add_row(**output["row"])
    result.summary["fixed mean extra"] = arithmetic_mean(
        result.column_values("fixed:total"))
    result.summary["variable mean extra"] = arithmetic_mean(
        result.column_values("var:total"))
    result.summary["max extra"] = max(
        result.column_values("fixed:total")
        + result.column_values("var:total"), default=0.0)
    return result


def _simulate_with_config(profile, config, scale: ExperimentScale):
    """Run the cycle simulator with an explicit controller config.

    When ``scale.trace_window`` is set the run is traced and the result
    carries a :func:`repro.obs.timeline_digest` in ``.timeline``.
    """
    tracer = (Tracer(digest_window=scale.trace_window)
              if scale.trace_window else None)
    return simulate(profile, "custom", scale.sim(), config=config,
                    tracer=tracer)


# ---------------------------------------------------------------------------
# Fig. 6 — the optimization ladder
# ---------------------------------------------------------------------------

def _unit_fig6(benchmark: str, scale: ExperimentScale) -> dict:
    """Fig. 6 cell: the optimization ladder on one benchmark."""
    profile = PROFILES[benchmark]
    row: Dict[str, Any] = {"benchmark": profile.name}
    stats = None
    timeline = None
    violations = None
    ratio = None
    for name, config in optimization_ladder():
        run = _simulate_with_config(profile, config, scale)
        stats = run.controller_stats
        timeline = run.timeline
        ratio = run.final_ratio
        if run.sanitizer_violations is not None:
            violations = (violations or 0) + run.sanitizer_violations
        row[name] = stats.relative_extra_accesses()
    output = {"row": row, "stats": _stats_summary(stats, ratio=ratio)}
    if timeline is not None:
        output["timeline"] = timeline
    if violations is not None:
        output["sanitizer"] = {"violations": violations}
    return output



def run_fig6(scale: ExperimentScale = DEFAULT,
             runner: Optional[Runner] = None) -> ExperimentResult:
    """Extra accesses as each data-movement optimization is added."""
    ladder = optimization_ladder()
    result = ExperimentResult(
        experiment_id="fig6",
        title="Reduction in extra accesses, optimizations applied in order",
        columns=["benchmark"] + [name for name, _ in ladder],
        paper_values={
            "ladder averages": "63% -> 36% -> 26% -> 19% -> 15%",
            "final breakdown": "3.2% split, 2.1% compression, 9.7% metadata",
        },
    )
    outputs = _run_units(
        runner, "fig6", _unit_fig6,
        [(name, {"benchmark": name, "scale": scale})
         for name in scale.benchmarks])
    for output in outputs:
        result.add_row(**output["row"])
    for name, _ in ladder:
        result.summary[f"{name} mean"] = arithmetic_mean(
            result.column_values(name))
    return result


# ---------------------------------------------------------------------------
# Fig. 7 — compression squandered without dynamic repacking
# ---------------------------------------------------------------------------

def _unit_fig7(benchmark: str, scale: ExperimentScale) -> dict:
    """Fig. 7 cell: final ratio with vs without dynamic repacking."""
    profile = PROFILES[benchmark]
    with_config = compresso_config()
    without_config = compresso_config(enable_repacking=False)
    # Repacking matters for *long-running* applications (§IV-B4): slots
    # only ever ratchet up without it, so each line must be rewritten
    # several times for the squandering to accumulate.  Use a longer
    # trace over a smaller footprint than the other experiments.
    long_scale = replace(scale, n_events=scale.n_events * 4,
                         scale=max(0.008, scale.scale / 4))
    with_run = _simulate_with_config(profile, with_config, long_scale)
    without_run = _simulate_with_config(profile, without_config,
                                        long_scale)
    with_ratio = with_run.final_ratio
    without_ratio = without_run.final_ratio
    row = {
        "benchmark": profile.name,
        "with_repack": with_ratio,
        "without_repack": without_ratio,
        "relative": without_ratio / with_ratio,
    }
    return {"row": row, "stats": _stats_summary(with_run.controller_stats,
                                                ratio=with_ratio)}


def run_fig7(scale: ExperimentScale = DEFAULT,
             runner: Optional[Runner] = None) -> ExperimentResult:
    """Final compression ratio without vs with dynamic repacking."""
    result = ExperimentResult(
        experiment_id="fig7",
        title="Compression-ratio loss from disabling repacking",
        columns=["benchmark", "with_repack", "without_repack", "relative"],
        paper_values={"average squandered": "24% without repacking, "
                                            "2.6% with dynamic repacking"},
    )
    outputs = _run_units(
        runner, "fig7", _unit_fig7,
        [(name, {"benchmark": name, "scale": scale})
         for name in scale.benchmarks])
    for output in outputs:
        result.add_row(**output["row"])
    result.summary["mean relative ratio (no repack / repack)"] = (
        arithmetic_mean(result.column_values("relative")))
    return result


# ---------------------------------------------------------------------------
# Fig. 9 — SimPoint vs CompressPoint
# ---------------------------------------------------------------------------

def _unit_fig9(benchmark: str, scale: ExperimentScale) -> dict:
    """Fig. 9 cell: representativeness of both selection methods."""
    intervals = profile_intervals(
        PROFILES[benchmark],
        n_intervals=16,
        events_per_interval=max(400, scale.n_events // 8),
        scale=scale.scale,
        seed=scale.seed,
    )
    true_mean = arithmetic_mean(
        [i.compression_ratio for i in intervals])
    # Average over several clustering seeds: a single k-means draw
    # can get lucky/unlucky on 16 intervals.
    seeds = [scale.seed + offset for offset in range(3)]
    simpoints = [select_points(intervals, k=4, with_compression=False,
                               seed=s_) for s_ in seeds]
    compresspoints = [select_points(intervals, k=4,
                                    with_compression=True, seed=s_)
                      for s_ in seeds]
    row = {
        "benchmark": benchmark,
        "true_mean": true_mean,
        "simpoint_est": arithmetic_mean(
            [p.estimate_ratio(intervals) for p in simpoints]),
        "compresspoint_est": arithmetic_mean(
            [p.estimate_ratio(intervals) for p in compresspoints]),
        "simpoint_err": arithmetic_mean(
            [representativeness_error(intervals, p)
             for p in simpoints]),
        "compresspoint_err": arithmetic_mean(
            [representativeness_error(intervals, p)
             for p in compresspoints]),
    }
    note = (f"{benchmark} interval ratios: "
            + ", ".join(f"{i.compression_ratio:.1f}" for i in intervals))
    return {"row": row, "note": note}


def run_fig9(scale: ExperimentScale = DEFAULT,
             benchmarks: Sequence[str] = ("GemsFDTD", "astar"),
             runner: Optional[Runner] = None) -> ExperimentResult:
    """Compressibility representativeness of the two selection methods."""
    result = ExperimentResult(
        experiment_id="fig9",
        title="SimPoint vs CompressPoint compressibility representativeness",
        columns=["benchmark", "true_mean", "simpoint_est",
                 "compresspoint_est", "simpoint_err", "compresspoint_err"],
        paper_values={
            "observation": "GemsFDTD compressibility swings ~1x-13x across "
                           "phases; SimPoint picks unrepresentative regions",
        },
    )
    outputs = _run_units(
        runner, "fig9", _unit_fig9,
        [(name, {"benchmark": name, "scale": scale})
         for name in benchmarks])
    for output in outputs:
        result.add_row(**output["row"])
        result.notes.append(output["note"])
    return result


# ---------------------------------------------------------------------------
# Fig. 10 — single-core performance (cycle, capacity, overall)
# ---------------------------------------------------------------------------

def _unit_fig10(benchmark: str, scale: ExperimentScale,
                memory_fraction: float) -> dict:
    """Fig. 10 cell: cycle/capacity/overall for one benchmark."""
    profile = PROFILES[benchmark]
    sim = scale.sim()
    runs = {
        system: simulate(profile, system, sim)
        for system in ("uncompressed",) + COMPRESSED_SYSTEMS
    }
    baseline = runs["uncompressed"]
    capacity = capacity_impact(
        profile,
        {system: runs[system].ratio_timeline
         for system in COMPRESSED_SYSTEMS},
        CapacityConfig(
            memory_fraction=memory_fraction,
            n_touches=scale.capacity_touches,
            seed=scale.seed,
            footprint_pages=min(scale.capacity_footprint_cap,
                                profile.footprint_pages),
        ),
    )
    row: Dict[str, Any] = {"benchmark": profile.name}
    for system in COMPRESSED_SYSTEMS:
        row[f"{system}:cycle"] = runs[system].speedup_over(baseline)
        row[f"{system}:cap"] = capacity.relative(system)
        row[f"{system}:overall"] = (
            row[f"{system}:cycle"] * row[f"{system}:cap"])
    row["unconstrained:cap"] = capacity.relative("unconstrained")
    row["_stalled"] = bool(
        profile.name in CAPACITY_STALLERS or capacity.stalled)
    return {"row": row,
            "stats": _stats_summary(runs["compresso"].controller_stats,
                                    ratio=runs["compresso"].final_ratio)}


def run_fig10(scale: ExperimentScale = DEFAULT,
              memory_fraction: float = 0.7,
              runner: Optional[Runner] = None) -> ExperimentResult:
    """Per-benchmark cycle-based, capacity-impact and overall performance."""
    columns = ["benchmark"]
    for system in COMPRESSED_SYSTEMS:
        columns += [f"{system}:cycle", f"{system}:cap", f"{system}:overall"]
    columns.append("unconstrained:cap")
    result = ExperimentResult(
        experiment_id="fig10",
        title=f"Single-core performance at {int(memory_fraction*100)}% memory",
        columns=columns,
        paper_values={
            "cycle geomeans": "LCP 0.938 / LCP+Align 0.961 / Compresso 0.998",
            "capacity means (70%)": "LCP 1.11 / Compresso 1.29 / "
                                    "unconstrained 1.39",
            "overall": "LCP 1.03 / LCP+Align 1.06 / Compresso 1.28",
        },
        notes=["mcf, GemsFDTD and lbm are excluded from capacity/overall "
               "aggregates (they stall under constrained memory, §VII-A)"],
    )
    outputs = _run_units(
        runner, "fig10", _unit_fig10,
        [(name, {"benchmark": name, "scale": scale,
                 "memory_fraction": memory_fraction})
         for name in scale.benchmarks])
    for output in outputs:
        result.add_row(**output["row"])

    usable = [row for row in result.rows if not row.get("_stalled")]
    for system in COMPRESSED_SYSTEMS:
        result.summary[f"{system} cycle geomean"] = geometric_mean(
            [row[f"{system}:cycle"] for row in result.rows])
        result.summary[f"{system} capacity mean"] = arithmetic_mean(
            [row[f"{system}:cap"] for row in usable])
        result.summary[f"{system} overall geomean"] = geometric_mean(
            [row[f"{system}:overall"] for row in usable])
    result.summary["unconstrained capacity mean"] = arithmetic_mean(
        [row["unconstrained:cap"] for row in usable])
    return result


# ---------------------------------------------------------------------------
# Fig. 11 — 4-core performance
# ---------------------------------------------------------------------------

def _unit_fig11(mix: str, scale: ExperimentScale,
                memory_fraction: float) -> dict:
    """Fig. 11 cell: cycle/capacity/overall for one 4-core mix."""
    profiles = mix_profiles(mix)
    # 4-core events per core: keep total work comparable to single-core.
    sim = scale.sim(n_events=max(500, scale.n_events // 4))
    runs = {
        system: simulate_multicore(profiles, system, sim, mix)
        for system in ("uncompressed",) + COMPRESSED_SYSTEMS
    }
    baseline = runs["uncompressed"]
    # Four interleaved streams share the touches: keep the combined
    # footprint small enough that the budget actually binds (the
    # reference strings need >= ~50 touches per page).
    capacity = multicore_capacity_impact(
        profiles,
        {system: runs[system].ratio_timeline
         for system in COMPRESSED_SYSTEMS},
        CapacityConfig(
            memory_fraction=memory_fraction,
            n_touches=scale.capacity_touches * 2,
            seed=scale.seed,
            footprint_pages=min(150, scale.capacity_footprint_cap),
        ),
    )
    row: Dict[str, Any] = {"mix": mix}
    for system in COMPRESSED_SYSTEMS:
        row[f"{system}:cycle"] = runs[system].speedup_over(baseline)
        row[f"{system}:cap"] = capacity.relative(system)
        row[f"{system}:overall"] = (
            row[f"{system}:cycle"] * row[f"{system}:cap"])
    row["unconstrained:cap"] = capacity.relative("unconstrained")
    ratio = runs["compresso"].ratio_timeline[-1]
    return {"row": row,
            "stats": _stats_summary(runs["compresso"].controller_stats,
                                    ratio=ratio)}


def run_fig11(scale: ExperimentScale = DEFAULT,
              memory_fraction: float = 0.7,
              runner: Optional[Runner] = None) -> ExperimentResult:
    """Per-mix 4-core cycle, capacity and overall performance."""
    columns = ["mix"]
    for system in COMPRESSED_SYSTEMS:
        columns += [f"{system}:cycle", f"{system}:cap", f"{system}:overall"]
    columns.append("unconstrained:cap")
    result = ExperimentResult(
        experiment_id="fig11",
        title=f"4-core performance at {int(memory_fraction*100)}% memory",
        columns=columns,
        paper_values={
            "cycle geomeans": "LCP 0.90 / LCP+Align 0.95 / Compresso 0.975",
            "capacity": "LCP 1.97 / Compresso 2.33 / unconstrained 2.51",
            "overall": "LCP 1.78 / LCP+Align 1.90 / Compresso 2.27",
        },
    )
    outputs = _run_units(
        runner, "fig11", _unit_fig11,
        [(mix_name, {"mix": mix_name, "scale": scale,
                     "memory_fraction": memory_fraction})
         for mix_name in scale.mixes])
    for output in outputs:
        result.add_row(**output["row"])
    for system in COMPRESSED_SYSTEMS:
        result.summary[f"{system} cycle geomean"] = geometric_mean(
            [row[f"{system}:cycle"] for row in result.rows])
        result.summary[f"{system} capacity mean"] = arithmetic_mean(
            [row[f"{system}:cap"] for row in result.rows])
        result.summary[f"{system} overall geomean"] = geometric_mean(
            [row[f"{system}:overall"] for row in result.rows])
    result.summary["unconstrained capacity mean"] = arithmetic_mean(
        [row["unconstrained:cap"] for row in result.rows])
    return result


# ---------------------------------------------------------------------------
# Fig. 12 — energy
# ---------------------------------------------------------------------------

def _unit_fig12(benchmark: str, scale: ExperimentScale) -> dict:
    """Fig. 12 cell: relative DRAM/core energy for one benchmark."""
    profile = PROFILES[benchmark]
    model = EnergyModel()
    sim = scale.sim()
    runs = {
        system: simulate(profile, system, sim)
        for system in ("uncompressed",) + COMPRESSED_SYSTEMS
    }
    energies = {}
    for system, run in runs.items():
        stats = None if system == "uncompressed" else run.controller_stats
        energies[system] = model.evaluate(
            run.cycles, run.dram_stats.reads, run.dram_stats.writes,
            stats)
    baseline = energies["uncompressed"]
    row = {
        "benchmark": profile.name,
        "lcp:dram": model.relative(energies["lcp"], baseline)["dram"],
        "lcp+align:dram": model.relative(
            energies["lcp+align"], baseline)["dram"],
        "compresso:dram": model.relative(
            energies["compresso"], baseline)["dram"],
        "compresso:core": model.relative(
            energies["compresso"], baseline)["core"],
    }
    return {"row": row,
            "stats": _stats_summary(runs["compresso"].controller_stats,
                                    ratio=runs["compresso"].final_ratio)}


def run_fig12(scale: ExperimentScale = DEFAULT,
              runner: Optional[Runner] = None) -> ExperimentResult:
    """DRAM/core energy relative to the uncompressed system."""
    result = ExperimentResult(
        experiment_id="fig12",
        title="Energy relative to uncompressed system",
        columns=["benchmark", "lcp:dram", "lcp+align:dram",
                 "compresso:dram", "compresso:core"],
        paper_values={
            "compresso dram": "-11% vs uncompressed; 60% more savings than "
                              "LCP, 19% over LCP+Align",
            "compresso core": "equal to uncompressed",
        },
    )
    outputs = _run_units(
        runner, "fig12", _unit_fig12,
        [(name, {"benchmark": name, "scale": scale})
         for name in scale.benchmarks])
    for output in outputs:
        result.add_row(**output["row"])
    for column in result.columns[1:]:
        result.summary[f"{column} mean"] = arithmetic_mean(
            result.column_values(column))
    return result


# ---------------------------------------------------------------------------
# Tab. II — capacity sweep at 80/70/60%
# ---------------------------------------------------------------------------

def _unit_tab2(benchmark: str, scale: ExperimentScale,
               fractions: Sequence[float]) -> dict:
    """Tab. II cell: per-budget capacity factors for one benchmark.

    The compression-ratio timelines are budget-independent, so each
    benchmark simulates once and replays the paging model per budget.
    """
    profile = PROFILES[benchmark]
    sim = scale.sim()
    runs = {
        system: simulate(profile, system, sim)
        for system in ("lcp", "compresso")
    }
    timelines = {
        system: run.ratio_timeline for system, run in runs.items()
    }
    budgets = []
    for fraction in fractions:
        capacity = capacity_impact(
            profile, timelines,
            CapacityConfig(
                memory_fraction=fraction,
                n_touches=scale.capacity_touches,
                seed=scale.seed,
                footprint_pages=min(scale.capacity_footprint_cap,
                                    profile.footprint_pages),
            ),
        )
        budgets.append({
            "fraction": fraction,
            "lcp": capacity.relative("lcp"),
            "compresso": capacity.relative("compresso"),
            "unconstrained": capacity.relative("unconstrained"),
        })
    return {"budgets": budgets,
            "stats": _stats_summary(runs["compresso"].controller_stats,
                                    ratio=runs["compresso"].final_ratio)}


def run_tab2(scale: ExperimentScale = DEFAULT,
             fractions: Sequence[float] = (0.8, 0.7, 0.6),
             runner: Optional[Runner] = None) -> ExperimentResult:
    """Capacity-impact speedups vs constrained baseline, Tab. II shape."""
    result = ExperimentResult(
        experiment_id="tab2",
        title="Memory-capacity impact at 80/70/60% budgets (1-core mean)",
        columns=["budget", "lcp", "compresso", "unconstrained"],
        paper_values={
            "paper 1-core": "80%: 1.04/1.15/1.24  70%: 1.11/1.29/1.39  "
                            "60%: 1.28/1.56/1.72",
        },
        notes=["benchmarks that stall (mcf, GemsFDTD, lbm) are excluded, "
               "as in the paper"],
    )
    names = [name for name in scale.benchmarks
             if name not in CAPACITY_STALLERS]
    outputs = _run_units(
        runner, "tab2", _unit_tab2,
        [(name, {"benchmark": name, "scale": scale,
                 "fractions": list(fractions)})
         for name in names])
    for index, fraction in enumerate(fractions):
        values = {"lcp": [], "compresso": [], "unconstrained": []}
        for output in outputs:
            budget = output["budgets"][index]
            for system in values:
                values[system].append(budget[system])
        result.add_row(
            budget=f"{int(fraction * 100)}%",
            **{system: arithmetic_mean(vals)
               for system, vals in values.items()},
        )
    return result


# ---------------------------------------------------------------------------
# §IV-A design-space ablations
# ---------------------------------------------------------------------------

_ABLATION_BIN_SETS = {
    "4-bins-aligned (0/8/32/64)": ALIGNMENT_FRIENDLY_LINE_BINS,
    "4-bins-prior (0/22/44/64)": PRIOR_WORK_LINE_BINS,
    "8-bins (0/8/16/24/32/40/52/64)": EIGHT_LINE_BINS,
}


def _unit_ablation(label: str, scale: ExperimentScale) -> dict:
    """Ablation cell: ratio/overflow/split numbers for one bin set."""
    bins = _ABLATION_BIN_SETS[label]
    bpc = BPCCompressor()
    cache: Dict[bytes, int] = {}

    # Static part: pack page images across the suite under this bin set.
    page_sizes: List[List[int]] = []
    for profile in _profiles(scale):
        workload = Workload(profile, scale=scale.scale, seed=scale.seed)
        for page in range(min(workload.pages, scale.fig2_pages // 2)):
            page_sizes.append(
                [_line_size(bpc, cache, line)
                 for line in workload.page_lines(page)])

    packer = LinePack(bins)
    raw = allocated = 0
    for sizes in page_sizes:
        layout = packer.pack(sizes)
        raw += 4096
        if layout.total_bytes:
            allocated += max(512, (layout.total_bytes + 511) // 512 * 512)

    # Dynamic part: line-overflow frequency under this bin set, from the
    # gcc profile's overwrite phases (the overflow-heavy workload).
    config = compresso_config(
        line_bins=bins,
        enable_overflow_prediction=False,
        enable_ir_expansion=False,
        enable_metadata_half_entries=False,
    )
    run = _simulate_with_config(PROFILES["gcc"], config, scale)
    stats = run.controller_stats
    overflow_rate = stats.line_overflows / max(1, stats.demand_writes)
    flat_sizes = [s for sizes in page_sizes for s in sizes]
    row = {
        "config": label,
        "ratio": raw / allocated if allocated else 64.0,
        "line_overflow_rate": overflow_rate,
        "split_fraction": split_access_fraction(flat_sizes, bins),
    }
    return {"row": row, "stats": _stats_summary(stats,
                                                ratio=row["ratio"])}


def run_ablation_design_space(scale: ExperimentScale = DEFAULT,
                              runner: Optional[Runner] = None
                              ) -> ExperimentResult:
    """Line-bin count, bin placement, and page-size trade-offs (§IV-A)."""
    result = ExperimentResult(
        experiment_id="ablation",
        title="Design-space ablations: line bins and alignment",
        columns=["config", "ratio", "line_overflow_rate", "split_fraction"],
        paper_values={
            "8 vs 4 line bins": "ratio 1.82 vs 1.59; +17.5% line overflows "
                                "with 8 bins",
            "alignment bins": "splits 30.9% -> 3.2% for -0.25% compression",
        },
    )
    outputs = _run_units(
        runner, "ablation", _unit_ablation,
        [(label.split(" ")[0], {"label": label, "scale": scale})
         for label in _ABLATION_BIN_SETS])
    for output in outputs:
        result.add_row(**output["row"])
    return result


# ---------------------------------------------------------------------------
# Fault campaign — detection/recovery coverage (docs/ROBUSTNESS.md)
# ---------------------------------------------------------------------------

#: Fault sites x rates swept by ``run_faults``.
FAULT_SITES = ("line", "meta", "mdcache", "double-grant", "alloc-exhaust")
FAULT_RATES = (0.005, 0.02)


def _unit_fault_cell(site: str, rate: float,
                     scale: ExperimentScale) -> dict:
    """Fault-campaign cell: one (site, rate) injection run, reconciled."""
    from ..inject import campaign_cell
    benchmark = scale.benchmarks[0] if scale.benchmarks else "gcc"
    cell = campaign_cell(
        site, rate, benchmark=benchmark, seed=scale.seed,
        n_events=max(800, scale.n_events // 4), scale=scale.scale)
    return {"row": cell.as_row()}


def run_faults(scale: ExperimentScale = DEFAULT,
               runner: Optional[Runner] = None) -> ExperimentResult:
    """Fault campaign: injected vs detected/recovered per site and rate.

    Every cell runs with ``sanitize="recover"`` and reconciles each
    injected fault id against the ``fault_*``/``recovery_*`` trace
    events; the headline claim is ``silent == 0`` everywhere
    (docs/ROBUSTNESS.md).
    """
    result = ExperimentResult(
        experiment_id="faults",
        title="Fault-injection campaign: detection and recovery coverage",
        columns=["site", "rate", "injected", "detected", "recovered",
                 "masked", "silent"],
        notes=["Not a paper artifact: robustness validation of this "
               "model (docs/ROBUSTNESS.md)."],
    )
    outputs = _run_units(
        runner, "faults", _unit_fault_cell,
        [(f"{site}@{rate}", {"site": site, "rate": rate, "scale": scale})
         for site in FAULT_SITES for rate in FAULT_RATES])
    for output in outputs:
        result.add_row(**output["row"])
    result.summary["injected"] = sum(
        row["injected"] for row in result.rows)
    result.summary["silent"] = sum(
        row["silent"] for row in result.rows)
    return result


# ---------------------------------------------------------------------------
# Pressure campaign — overload control and recovery (docs/PRESSURE.md)
# ---------------------------------------------------------------------------

#: Overload scenarios x intensities swept by ``run_pressure``.
PRESSURE_SCENARIOS = ("collapse", "stampede", "diurnal")
PRESSURE_INTENSITIES = (0.5, 1.0, 2.0)
PRESSURE_ALLOCATIONS = ("chunks", "variable")


def _unit_pressure_cell(scenario: str, intensity: float, allocation: str,
                        scale: ExperimentScale) -> dict:
    """Pressure-campaign cell: one overload scenario, reconciled.

    The journaled ``stats`` digest carries the fairness and stall
    metrics (Jain's index, p95/p99 stall cycles) so the results index
    (docs/RESULTS.md) picks them up without any schema change.
    """
    from ..pressure import pressure_cell
    cell = pressure_cell(scenario, intensity, allocation=allocation,
                         seed=scale.seed,
                         n_steps=max(60, min(240, scale.n_events // 15)))
    stats = dict(cell.metrics)
    stats["oom_escaped"] = cell.oom_escaped
    stats["recovered"] = int(cell.recovered)
    stats["unreconciled"] = len(cell.unreconciled)
    stats["degraded_enters"] = cell.degraded_enters
    stats["degraded_exits"] = cell.degraded_exits
    return {"row": cell.as_row(), "stats": stats}


def run_pressure(scale: ExperimentScale = DEFAULT,
                 runner: Optional[Runner] = None) -> ExperimentResult:
    """Pressure campaign: overload control, fairness, recovery drills.

    Sweeps every (scenario, intensity, allocation) cell of the
    multi-tenant overload campaign (docs/PRESSURE.md).  The headline
    resilience claims: ``oom_escaped == 0`` and ``unreconciled == 0``
    everywhere, and every cell that entered degraded mode exits it
    once pressure recedes (``all_recovered``).
    """
    result = ExperimentResult(
        experiment_id="pressure",
        title="Pressure campaign: multi-tenant overload control and recovery",
        columns=["scenario", "intensity", "allocation", "requests",
                 "throttled", "shed", "denied", "oom_absorbed", "page_outs",
                 "escalations", "degraded_enters", "degraded_exits",
                 "oom_escaped", "recovered", "unreconciled",
                 "jain_fairness", "stall_p95", "stall_p99"],
        notes=["Not a paper artifact: overload-resilience validation of "
               "this model (docs/PRESSURE.md)."],
    )
    outputs = _run_units(
        runner, "pressure", _unit_pressure_cell,
        [(f"{scenario}@{intensity}/{allocation}",
          {"scenario": scenario, "intensity": intensity,
           "allocation": allocation, "scale": scale})
         for scenario in PRESSURE_SCENARIOS
         for intensity in PRESSURE_INTENSITIES
         for allocation in PRESSURE_ALLOCATIONS])
    for output in outputs:
        row = dict(output["row"])
        row.pop("admitted", None)
        result.add_row(**row)
    result.summary["oom_escaped"] = sum(
        row["oom_escaped"] for row in result.rows)
    result.summary["unreconciled"] = sum(
        row["unreconciled"] for row in result.rows)
    result.summary["all_recovered"] = int(all(
        row["recovered"] for row in result.rows))
    result.summary["min_jain_fairness"] = min(
        row["jain_fairness"] for row in result.rows)
    return result


# ---------------------------------------------------------------------------
# §VII-C/D/E — energy and area overheads, offset-calculation circuit
# ---------------------------------------------------------------------------

def _unit_sec7() -> dict:
    """§VII cell: the analytic overhead numbers (no workload input)."""
    constants = EnergyConstants()
    fractions = constants.sanity_fractions()
    area = AreaReport()
    adder = offset_adder_for_bins(ALIGNMENT_FRIENDLY_LINE_BINS)
    rows = [
        {"quantity": "bpc_vs_channel_power",
         "value": fractions["bpc_vs_channel_power"]},
        {"quantity": "metadata_vs_dram_read",
         "value": fractions["metadata_vs_dram_read"]},
        {"quantity": "bpc_area_um2", "value": area.bpc_um2},
        {"quantity": "metadata_cache_area_um2",
         "value": area.metadata_cache_um2},
        {"quantity": "total_area_mm2", "value": area.total_mm2},
        {"quantity": "adder_nand_gates", "value": float(adder.nand_gates)},
        {"quantity": "adder_gate_delays_naive",
         "value": float(adder.gate_delays_naive)},
        {"quantity": "adder_gate_delays_optimized",
         "value": float(adder.gate_delays_optimized)},
        {"quantity": "adder_visible_cycles",
         "value": float(adder.visible_cycles())},
    ]
    return {"rows": rows}


def run_sec7_energy_area(runner: Optional[Runner] = None
                         ) -> ExperimentResult:
    """Analytic overhead numbers the paper states in §VII-C/D/E."""
    result = ExperimentResult(
        experiment_id="sec7",
        title="Energy/area overheads and the offset-calculation circuit",
        columns=["quantity", "value"],
        paper_values={
            "bpc power": "7 mW, <0.4% of a DDR4-2666 channel",
            "metadata cache access": "0.08 nJ, <0.8% of a DRAM read",
            "areas": "BPC 43 Kum2 (~61K NAND2); 96KB cache ~100 Kum2",
            "offset adder": "<1.5K NAND gates, 38 -> 32 gate delays, "
                            "1 visible cycle at DDR4-2666",
        },
    )
    outputs = _run_units(runner, "sec7", _unit_sec7, [("analytic", {})])
    for row in outputs[0]["rows"]:
        result.add_row(**row)
    return result
