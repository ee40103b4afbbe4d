"""The benchmark's workloads and the digest that proves a run's parity.

Each workload drives an unmodified public entry point of the simulator:
``simulate()`` for the single-core runs and ``MulticoreRun`` ->
``advance()`` -> ``finish()`` for the 4-core mix.  Host time is taken
around those calls; the single-core split between set-up and the event
loop comes from the phase spans ``simulate()`` opens on the tracer it is
given (``install`` / ``simulate`` / ``flush``), read through a tracer
that records nothing else.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Root of the checkout: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent

#: Footprint scale of the experiment harness (``ExperimentScale.scale``),
#: so the working-set to metadata-cache ratio matches what fig10 and
#: fig11 run.  Fixed here rather than read from the harness: a later
#: change to the harness must not silently change the benchmark.
SCALE = 0.02
DEFAULT_SEED = 1


def metric_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as
    ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@dataclasses.dataclass(frozen=True)
class Workload:
    """One (benchmark or mix, system) simulation."""

    benchmarks: Tuple[str, ...]
    system: str
    events: int          # trace events per core
    mix: Optional[str] = None

    @property
    def cores(self) -> int:
        return len(self.benchmarks)


WORKLOADS: Dict[str, Workload] = {
    # Random access, mostly incompressible, footprint far beyond the
    # scaled metadata cache: controller, LinePack repack and
    # metadata-cache work.
    "mcf-compresso": Workload(("mcf",), "compresso", 12000),
    # Uncompressed baseline, write-heavy streaming: bypasses the
    # compressed controller; datagen, tracegen, DRAM and core remain.
    "lbm-uncompressed": Workload(("lbm",), "uncompressed", 12000),
    # Tab. IV mix4 on LCP: the multicore interleave, a shared thrashed
    # metadata cache, the LCP packer and compressible phase-changing data.
    "mix4-lcp": Workload(("sjeng", "omnetpp", "gcc", "namd"), "lcp", 3000,
                         mix="mix4"),
}


def _phase_clock():
    """A null tracer whose ``phase()`` notes host start and end times.

    Built on first use because ``run.py`` imports this module without
    the simulator on its path.
    """
    from repro.obs.tracer import NullTracer

    class PhaseClock(NullTracer):
        def __init__(self):
            self.marks = {}

        @contextlib.contextmanager
        def phase(self, name):
            start = time.perf_counter()
            yield
            self.marks[name] = (start, time.perf_counter())

    return PhaseClock()


def run_workload(workload: Workload, seed: int, events: int):
    """Run one simulation; return ``(timings, summary)``.

    ``timings`` holds host seconds: ``setup_s`` (call into the simulator
    to the first trace event), ``simulate_s`` (first event requested to
    last event stepped) and ``run_s`` (the whole call, flush included).
    """
    from repro.simulation.multicore import MulticoreRun
    from repro.simulation.simulator import SimulationConfig, simulate
    from repro.workloads.profiles import PROFILES

    sim = SimulationConfig(n_events=events, scale=SCALE, seed=seed)
    profiles = [PROFILES[name] for name in workload.benchmarks]
    if workload.mix is None:
        clock = _phase_clock()
        start = time.perf_counter()
        result = simulate(profiles[0], workload.system, sim, tracer=clock)
        end = time.perf_counter()
        if "simulate" not in clock.marks:
            raise RuntimeError("simulate() opened no 'simulate' phase span")
        loop_start, loop_end = clock.marks["simulate"]
        timings = dict(setup_s=loop_start - start,
                       simulate_s=loop_end - loop_start, run_s=end - start)
        return timings, summarize(result, result.final_ratio)

    start = time.perf_counter()
    run = MulticoreRun(profiles, workload.system, sim, mix_name=workload.mix)
    loop_start = time.perf_counter()
    run.advance(run.total_steps)
    loop_end = time.perf_counter()
    result = run.finish()
    end = time.perf_counter()
    timings = dict(setup_s=loop_start - start,
                   simulate_s=loop_end - loop_start, run_s=end - start)
    final_ratio = max(1.0, run.controller.compression_ratio())
    return timings, summarize(result, final_ratio)


def _cycles_and_instructions(result):
    if hasattr(result, "core_cycles"):
        return list(result.core_cycles), list(result.core_instructions)
    return [result.cycles], [result.instructions]


def result_digest(result) -> str:
    """sha256 over what a simulator-only change must leave identical.

    Per-core cycles and instructions, every ``ControllerStats`` field,
    ``DRAMStats``, and ``final_ratio`` for a single-core run or the
    ``ratio_timeline`` for a mix (``MulticoreResult`` has no
    ``final_ratio``).  Floats are hashed through ``repr``, so the digest
    is exact.
    """
    cycles, instructions = _cycles_and_instructions(result)
    record = {
        "cycles": cycles,
        "instructions": instructions,
        "controller_stats": dataclasses.asdict(result.controller_stats),
        "dram_stats": dataclasses.asdict(result.dram_stats),
    }
    if hasattr(result, "final_ratio"):
        record["final_ratio"] = repr(result.final_ratio)
    else:
        record["ratio_timeline"] = [repr(r) for r in result.ratio_timeline]
    blob = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def summarize(result, final_ratio: float) -> dict:
    """The run's digest and its simulated (``sim.*``) statistics.

    For a mix, cycles and instructions are summed over cores and ``ipc``
    is their ratio.  ``metadata_hit_rate`` is 0 for a run that made no
    metadata lookups (the uncompressed baseline).
    """
    cycles, instructions = _cycles_and_instructions(result)
    stats = result.controller_stats
    dram = result.dram_stats
    total_cycles = sum(cycles)
    sim = {
        "sim.cycles": total_cycles,
        "sim.ipc": sum(instructions) / total_cycles if total_cycles else 0.0,
        "sim.final_ratio": final_ratio,
        "sim.metadata_hit_rate": result.metadata_hit_rate or 0.0,
        "sim.extra_per_demand": stats.relative_extra_accesses(),
        "sim.repack_events": stats.repack_events,
        "sim.dram_row_hit_rate": dram.row_hit_rate(),
        "sim.extra.metadata": (stats.metadata_miss_accesses
                               + stats.metadata_writebacks),
        "sim.extra.split": stats.split_accesses,
        "sim.extra.overflow": (stats.overflow_accesses
                               + stats.page_overflow_accesses),
        "sim.extra.repack": stats.repack_accesses,
        "sim.extra.speculation": stats.speculation_wasted_accesses,
    }
    return {"digest": result_digest(result), "sim": sim}
