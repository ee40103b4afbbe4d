"""Run one benchmark simulation in this (fresh) interpreter.

    python3 perfbench/simrun.py --workload NAME --seed N --events N
                                [--trace SPANS.npz]

Prints one JSON object: host timings, peak RSS, the result digest and
the ``sim.*`` statistics; with ``--trace``, also the per-layer metrics,
and the spans are written to the given file.  ``run.py`` starts one of
these per measured simulation, so process-wide memos (the compressed
size cache, the per-generator line pools) always start cold.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

from layers import TARGETS, SpanRecorder, span_names
from scenarios import WORKLOADS, metric_units, run_workload


def simulate_once(workload: str, seed: int, events: int, traced=False,
                  spans_path=None, targets=TARGETS) -> dict:
    """One simulation; ``traced`` wraps ``targets`` for its length."""
    recorder = None
    if traced:
        recorder = SpanRecorder(span_names(targets))
        recorder.install(targets)
    try:
        timings, summary = run_workload(WORKLOADS[workload], seed, events)
    finally:
        if recorder is not None:
            recorder.uninstall()
    record = {
        "workload": workload, "seed": seed, "events": events,
        "traced": recorder is not None,
        "events_total": events * WORKLOADS[workload].cores,
        **timings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        **summary,
    }
    if recorder is not None:
        record["layers"] = recorder.metrics(metric_units("per_layer"))
        record["missing"] = recorder.missing
        if spans_path:
            recorder.save(spans_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--events", type=int, required=True)
    parser.add_argument("--trace", metavar="SPANS_NPZ",
                        help="trace the run; write its spans here")
    args = parser.parse_args(argv)
    record = simulate_once(args.workload, args.seed, args.events,
                           traced=bool(args.trace), spans_path=args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
