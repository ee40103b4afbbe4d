"""SimPoints vs. CompressPoints (paper §VI-B, Fig. 9).

SimPoint picks representative simulation regions by clustering
basic-block vectors (BBVs) — good for pipeline/cache behaviour, blind
to data *content*.  CompressPoints [Choukse et al., CAL 2018] extend
the feature vector with compression metrics (compression ratio, page
overflow/underflow rates, memory usage), which matters because
compressibility has strong phases that BBVs cannot see: Fig. 9 shows
GemsFDTD swinging between ~1x and ~13x while executing similar code.

We reproduce the methodology over our synthetic benchmarks: intervals
are profiled for (a) an access-pattern histogram standing in for the
BBV — like a BBV, it captures *where* execution goes, not what the
data looks like — and (b) compression metrics.  K-means over features
(a) alone emulates SimPoint; over (a)+(b), CompressPoint.  The error
of each method's weighted compression-ratio estimate against the true
per-interval series is the Fig. 9 comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..compression import BPCCompressor, is_zero_line
from ..core.packing import choose_bin
from ..workloads.profiles import BenchmarkProfile
from ..workloads.tracegen import TraceGenerator, Workload

_BBV_BINS = 16
_LINE_BINS = (0, 8, 32, 64)


@dataclass
class IntervalProfile:
    """Features of one fixed-length instruction interval."""

    index: int
    bbv: np.ndarray              # normalized access-region histogram
    compression_ratio: float
    overflow_rate: float
    underflow_rate: float
    memory_used: float           # touched fraction of the footprint

    def feature_vector(self, with_compression: bool) -> np.ndarray:
        if not with_compression:
            return self.bbv
        extras = np.array([
            1.0 / self.compression_ratio,   # bounded (0, 1]
            self.overflow_rate,
            self.underflow_rate,
            self.memory_used,
        ])
        return np.concatenate([self.bbv, extras])


class _SizeTracker:
    """Tracks per-page packed sizes without a full controller."""

    def __init__(self) -> None:
        self._compressor = BPCCompressor()
        self._cache = {}
        self.page_bins = {}

    def line_bin_bytes(self, data: bytes) -> int:
        if is_zero_line(data):
            return 0
        size = self._cache.get(data)
        if size is None:
            size = min(self._compressor.compressed_size_bytes(data), 64)
            self._cache[data] = size
        return _LINE_BINS[choose_bin(size, _LINE_BINS)]


def profile_intervals(profile: BenchmarkProfile, n_intervals: int = 20,
                      events_per_interval: int = 1500, scale: float = 0.05,
                      seed: int = 0) -> List[IntervalProfile]:
    """Profile a benchmark into per-interval feature vectors."""
    workload = Workload(profile, scale=scale, seed=seed)
    trace = TraceGenerator(workload, seed=seed)
    tracker = _SizeTracker()
    phase_rng = np.random.RandomState(seed + 17)
    total_events = n_intervals * events_per_interval
    events = trace.events(total_events)

    page_sizes = {}          # page -> list of 64 packed bin bytes
    touched = set()
    intervals: List[IntervalProfile] = []

    def page_entry(page: int) -> list:
        entry = page_sizes.get(page)
        if entry is None:
            entry = [
                tracker.line_bin_bytes(workload.line_data(page, line))
                for line in range(64)
            ]
            page_sizes[page] = entry
        return entry

    for interval_index in range(n_intervals):
        bbv = np.zeros(_BBV_BINS)
        overflows = underflows = writes = 0
        for _ in range(events_per_interval):
            event = next(events)
            touched.add(event.page)
            region = event.page * _BBV_BINS // max(1, workload.pages)
            bbv[min(region, _BBV_BINS - 1)] += 1
            entry = page_entry(event.page)
            if event.is_writeback:
                progress = interval_index / n_intervals
                override = trace.overwrite_class_at(progress, phase_rng)
                data = workload.apply_writeback(event.page, event.line,
                                                override)
                new_size = tracker.line_bin_bytes(data)
                old_size = entry[event.line]
                if new_size > old_size:
                    overflows += 1
                elif new_size < old_size:
                    underflows += 1
                entry[event.line] = new_size
                writes += 1
        # Snapshot compression ratio of the whole allocation (Fig. 9):
        # untouched pages are still zeroed-out allocations, costing only
        # their metadata entry, so early intervals show very high ratios
        # that decline as the footprint fills with real data.
        raw = workload.pages * 4096
        compressed = 0
        for page in range(workload.pages):
            entry = page_sizes.get(page)
            if entry is None:
                compressed += 64  # metadata entry only
                continue
            packed = sum(entry)
            compressed += max(512, (packed + 511) // 512 * 512) \
                if packed else 64
        ratio = raw / max(1, compressed)
        intervals.append(IntervalProfile(
            index=interval_index,
            bbv=bbv / max(1.0, bbv.sum()),
            compression_ratio=min(16.0, ratio),
            overflow_rate=overflows / max(1, writes),
            underflow_rate=underflows / max(1, writes),
            memory_used=len(touched) / workload.pages,
        ))
    return intervals


def kmeans(points: np.ndarray, k: int, seed: int = 0,
           iterations: int = 50) -> Tuple[np.ndarray, np.ndarray]:
    """Small deterministic k-means (k-means++ init). Returns (labels, centers)."""
    rng = np.random.RandomState(seed)
    n = len(points)
    k = min(k, n)
    centers = [points[rng.randint(n)]]
    for _ in range(1, k):
        d2 = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        if total <= 0:
            centers.append(points[rng.randint(n)])
            continue
        centers.append(points[np.searchsorted(np.cumsum(d2 / total),
                                              rng.rand())])
    centers = np.array(centers)
    labels = np.zeros(n, dtype=int)
    for _ in range(iterations):
        distances = np.array([
            np.sum((points - c) ** 2, axis=1) for c in centers
        ])
        new_labels = np.argmin(distances, axis=0)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for j in range(k):
            members = points[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return labels, centers


@dataclass
class PointSelection:
    """Chosen representative intervals and their weights."""

    method: str                       # "simpoint" | "compresspoint"
    chosen: List[int]                 # interval indices
    weights: List[float]              # cluster-size weights (sum to 1)

    def estimate_ratio(self, intervals: List[IntervalProfile]) -> float:
        """Weighted compression-ratio estimate from the chosen points."""
        return float(sum(
            w * intervals[i].compression_ratio
            for i, w in zip(self.chosen, self.weights)
        ))


def select_points(intervals: List[IntervalProfile], k: int = 4,
                  with_compression: bool = True, seed: int = 0
                  ) -> PointSelection:
    """SimPoint (BBV-only) or CompressPoint (BBV + compression) selection."""
    features = np.array([
        interval.feature_vector(with_compression) for interval in intervals
    ])
    labels, centers = kmeans(features, k, seed)
    chosen: List[int] = []
    weights: List[float] = []
    n = len(intervals)
    for j in range(len(centers)):
        members = np.flatnonzero(labels == j)
        if not len(members):
            continue
        distances = np.sum((features[members] - centers[j]) ** 2, axis=1)
        chosen.append(int(members[int(np.argmin(distances))]))
        weights.append(len(members) / n)
    return PointSelection(
        method="compresspoint" if with_compression else "simpoint",
        chosen=chosen,
        weights=weights,
    )


def representativeness_error(intervals: List[IntervalProfile],
                             selection: PointSelection) -> float:
    """|estimated mean ratio - true mean ratio| / true mean ratio."""
    true_mean = float(np.mean([i.compression_ratio for i in intervals]))
    estimate = selection.estimate_ratio(intervals)
    return abs(estimate - true_mean) / true_mean
