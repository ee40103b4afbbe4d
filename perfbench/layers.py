"""Per-layer tracing for the benchmark's traced run.

Spans are recorded from outside the program: each layer's public
functions are replaced, for the length of one simulation, by wrappers
that note (name, start, end, parent span) in memory.  A layer's
``self_s`` is the time its spans cover minus the time their child spans
cover; ``calls`` counts entries into a span name from outside itself.

A target that no longer exists is reported, not fatal: its metrics are
printed as missing with the reason, so a later change that renames or
deletes a function cannot break the benchmark it is judged by.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Dict, List, Sequence, Tuple

import numpy as np

SPAN, GENERATOR, COUNT = "span", "generator", "count"
#: Lines an ``install_page`` call installs (4 KB pages of 64 B lines).
LINES_PER_PAGE = 64

#: (span name, module, attribute path, kind).  One span name may cover
#: several functions; the metrics below are read per span name.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("workloads.datagen.line", "repro.workloads.datagen",
     "PageImageGenerator.line", SPAN),
    ("workloads.datagen.page_class", "repro.workloads.datagen",
     "PageImageGenerator.page_class", SPAN),
    ("workloads.datagen.make_line", "repro.workloads.datagen",
     "make_line", SPAN),
    ("workloads.tracegen.events", "repro.workloads.tracegen",
     "TraceGenerator.events", GENERATOR),
    ("workloads.tracegen.overwrite", "repro.workloads.tracegen",
     "TraceGenerator.overwrite_class_at", SPAN),
    ("workloads.writeback", "repro.workloads.tracegen",
     "Workload.apply_writeback", SPAN),
    ("compression", "repro.compression.base",
     "Compressor.compressed_size_bytes", SPAN),
    *(
        (f"core.controller.{method}", "repro.core.controller",
         f"CompressedMemoryController.{method}", SPAN)
        for method in ("read_line", "write_line", "install_page",
                       "flush_metadata", "compression_ratio")
    ),
    # The controller packs fresh sizes through pack_candidates (LinePack
    # inherits it and calls pack; LCP overrides it).
    ("core.packing.pack", "repro.core.linepack", "LinePack.pack", SPAN),
    ("core.packing.pack", "repro.core.lcp", "LCPPack.pack", SPAN),
    ("core.packing.pack", "repro.core.packing",
     "PackingScheme.pack_candidates", SPAN),
    ("core.packing.pack", "repro.core.lcp", "LCPPack.pack_candidates", SPAN),
    ("core.packing.layout_from_bins", "repro.core.linepack",
     "LinePack.layout_from_bins", SPAN),
    ("core.packing.layout_from_bins", "repro.core.lcp",
     "LCPPack.layout_from_bins", SPAN),
    ("core.packing.bin_index", "repro.core.packing",
     "PackingScheme.bin_index", COUNT),
    ("core.metadata_cache.access", "repro.core.metadata_cache",
     "MetadataCache.access", SPAN),
    ("memory.dram.access", "repro.memory.dram", "DRAMSystem.access", SPAN),
    ("memory.allocator", "repro.memory.allocator",
     "ChunkAllocator.allocate", SPAN),
    ("memory.allocator", "repro.memory.allocator", "ChunkAllocator.free",
     SPAN),
    ("memory.allocator", "repro.memory.allocator",
     "VariableAllocator.allocate_region", SPAN),
    ("memory.allocator", "repro.memory.allocator",
     "VariableAllocator.free_region", SPAN),
    ("cpu.core", "repro.cpu.core", "AnalyticCore.advance_instructions", SPAN),
    ("cpu.core", "repro.cpu.core", "AnalyticCore.stall", SPAN),
    ("simulation.step", "repro.simulation.simulator", "EventEngine.step",
     SPAN),
    ("simulation.interleave", "repro.simulation.multicore",
     "MulticoreRun.advance", SPAN),
)

#: Span names read as ``<name>.calls`` and ``<name>.self_s``.
_CALLS_AND_SELF = ("compression", "core.packing.layout_from_bins",
                   "core.packing.pack", "core.metadata_cache.access",
                   "memory.dram.access", "memory.allocator") + tuple(
    f"core.controller.{m}" for m in ("read_line", "write_line",
                                     "install_page", "flush_metadata",
                                     "compression_ratio"))
#: ``<layer>.self_s`` -> the span names whose self time it sums.
_SELF = {
    "workloads.datagen": ("workloads.datagen.line",
                          "workloads.datagen.page_class",
                          "workloads.datagen.make_line"),
    "workloads.tracegen": ("workloads.tracegen.events",
                           "workloads.tracegen.overwrite"),
    "workloads.writeback": ("workloads.writeback",),
    "cpu.core": ("cpu.core",),
    "simulation.step": ("simulation.step",),
    "simulation.interleave": ("simulation.interleave",),
    **{name: (name,) for name in _CALLS_AND_SELF},
}
#: Count metrics -> the span name whose entries they count.
_COUNTS = {
    "workloads.datagen.lines": "workloads.datagen.line",
    "workloads.datagen.page_class_calls": "workloads.datagen.page_class",
    "workloads.datagen.make_line_calls": "workloads.datagen.make_line",
    "core.packing.bin_index.calls": "core.packing.bin_index",
    **{f"{name}.calls": name for name in _CALLS_AND_SELF},
}


class SpanRecorder:
    """Spans kept in flat in-memory arrays, one entry per call."""

    def __init__(self, names: Sequence[str]) -> None:
        self.names: List[str] = sorted(set(names))
        self.ids = {name: index for index, name in enumerate(self.names)}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Dict[str, int] = {}
        #: span name -> why one of its targets could not be wrapped.
        self.missing: Dict[str, str] = {}
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn):
        ident = self.ids[name]
        name_id, parent, start, end, stack = (self.name_id, self.parent,
                                              self.start, self.end,
                                              self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(name_id)
            name_id.append(ident)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
        return wrapper

    def _generator(self, name: str, fn):
        """Wrap a generator function: one span per item produced."""
        step = self._span(name, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)

            def items():
                while True:
                    try:
                        item = step(iterator)
                    except StopIteration:
                        return
                    yield item
            return items()
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that resolves; note the ones that do not."""
        build = {SPAN: self._span, GENERATOR: self._generator,
                 COUNT: self._count}
        for name, module_name, path, kind in targets:
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError) as exc:
                self._note_missing(name, f"{module_name}.{path}: {exc}")
                continue
            if not inspect.isfunction(original):
                self._note_missing(
                    name, f"{module_name}.{path} is not a plain function")
                continue
            setattr(owner, attr, build[kind](name, original))
            self._restore.append((owner, attr, original))

    def _note_missing(self, name: str, reason: str) -> None:
        self.missing.setdefault(name, reason)
        print(f"perfbench: warning: cannot trace {name}: {reason}",
              file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        """Write the spans out (``numpy.savez``; names in ``names``)."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self, units) -> Dict[str, dict]:
        """Per-layer metrics from the recorded spans.

        ``units`` maps metric name -> unit; metrics read from a span name
        with a missing target get ``value`` None and a ``missing`` reason.
        """
        spans = self.arrays()
        names, parent = spans["name_id"], spans["parent"]
        duration = spans["end"] - spans["start"]
        nested = parent >= 0
        child_time = np.zeros(len(duration))
        np.add.at(child_time, parent[nested], duration[nested])
        width = len(self.names)
        self_time = np.bincount(names, weights=duration - child_time,
                                minlength=width)
        parent_name = np.full(len(names), -1)
        parent_name[nested] = names[parent[nested]]
        entries = np.bincount(names[parent_name != names], minlength=width)

        def calls(name):
            if name in self.counts:
                return self.counts[name]
            return int(entries[self.ids[name]])

        def step_percentile(q):
            steps = duration[names == self.ids["simulation.step"]]
            return float(np.percentile(steps, q)) * 1e6 if len(steps) else 0.0

        values = {
            metric: ((name,), lambda n=name: calls(n))
            for metric, name in _COUNTS.items()
        }
        for layer, sources in _SELF.items():
            values[f"{layer}.self_s"] = (
                sources,
                lambda s=sources: float(sum(self_time[self.ids[n]]
                                            for n in s)))
        values.update({
            "compression.memo_miss_ratio": (
                ("compression", "core.controller.install_page",
                 "core.controller.write_line"),
                lambda: calls("compression") / max(
                    1, LINES_PER_PAGE * calls("core.controller.install_page")
                    + calls("core.controller.write_line"))),
            "simulation.step.p50_us": (("simulation.step",),
                                       lambda: step_percentile(50)),
            "simulation.step.p99_us": (("simulation.step",),
                                       lambda: step_percentile(99)),
        })
        out = {}
        for metric, (sources, compute) in values.items():
            lost = [self.missing.get(s, f"{s} has no target")
                    for s in sources
                    if s in self.missing or s not in self.ids]
            if lost:
                out[metric] = {"value": None, "unit": units[metric],
                               "missing": "; ".join(lost)}
            else:
                out[metric] = {"value": compute(), "unit": units[metric]}
        return out


def span_names(targets=TARGETS) -> List[str]:
    return [name for name, *_ in targets]
