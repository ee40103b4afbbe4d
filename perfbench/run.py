"""End-to-end simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Closed loop: one simulation per
fresh interpreter, one after another, for ``--seconds`` (at least
``MIN_SIMS`` simulations).  With ``--trace 1`` one traced simulation
follows the untraced ones.  Every result is checked for parity: its
digest must equal the committed golden digest for this workload and
seed or, for a seed without one, agree with every other run of the
seed, the traced one included.  The last line printed is the JSON
result; ``--trace 0`` reports the ``end_to_end`` metrics of
``BENCHMARK.json`` and ``--trace 1`` the ``per_layer`` ones.
"""

from __future__ import annotations

import argparse
import collections
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from scenarios import DEFAULT_SEED, ROOT, WORKLOADS, metric_units

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
#: Spans and per-run records land here (ignored by git).
OUT = ROOT / ".perfbench"
MIN_SIMS = 3
#: One run must end within this many seconds, each child included.
RUN_LIMIT_S = 170.0


def environment(seed: int) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        if probe.returncode == 0:
            sha = probe.stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "git_sha": sha,
            "seed": seed}


def simulate_in_child(workload: str, seed: int, events: int, deadline: float,
                      spans=None) -> dict:
    """One simulation in a fresh interpreter; errors become records."""
    command = [sys.executable, str(HERE / "simrun.py"), "--workload",
               workload, "--seed", str(seed), "--events", str(events)]
    if spans:
        command += ["--trace", str(spans)]
    # One thread per simulation: the simulator never calls into BLAS, so
    # its thread pool would only compete for the host's cores.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        child = subprocess.run(command, cwd=ROOT, env=env, text=True,
                               capture_output=True,
                               timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        return {"error": f"exit code {child.returncode}"}
    try:
        return json.loads(child.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "no result printed"}


def check_parity(records, golden_digest):
    """Mark each record ``ok``; return the reference digest used."""
    digests = [r["digest"] for r in records if "digest" in r]
    reference = golden_digest
    if reference is None and digests:
        reference = collections.Counter(digests).most_common(1)[0][0]
    for record in records:
        record["ok"] = record.get("digest") == reference
    return reference


def load_golden(workload: str, events: int, seed: int):
    entry = json.loads(GOLDEN.read_text()).get(workload, {})
    if entry.get("events") != events:
        return None
    return entry.get("seeds", {}).get(str(seed))


def bless(workload: str, events: int, seed: int, digest: str) -> None:
    golden = json.loads(GOLDEN.read_text())
    entry = golden.setdefault(workload, {"events": events, "seeds": {}})
    if entry["events"] != events:
        entry.update(events=events, seeds={})
    entry["seeds"][str(seed)] = digest
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(untraced, attempted, failed):
    units = metric_units("end_to_end")
    good = [r for r in untraced if r["ok"]]

    def median(key):
        return statistics.median(key(r) for r in good) if good else None

    values = {
        # Pooled over the run's simulations: the event loops are short
        # enough that one slow second of the host moves a single one.
        "events_per_s": (sum(r["events_total"] for r in good)
                         / sum(r["simulate_s"] for r in good)
                         if good else None),
        "setup_s": median(lambda r: r["setup_s"]),
        "run_s": median(lambda r: r["run_s"]),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        "ok_rate": (attempted - failed) / attempted,
    }
    return {name: metric(values[name], unit) for name, unit in units.items()}


def per_layer(untraced, traced):
    units = metric_units("per_layer")
    if not traced.get("ok"):
        return {name: dict(metric(None, unit), missing="traced run failed")
                for name, unit in units.items()}
    values = dict(traced["layers"])
    for name, value in traced["sim"].items():
        values[name] = metric(value, units[name])
    good = [r["run_s"] for r in untraced if r["ok"]]
    values["trace.overhead_frac"] = metric(
        traced["run_s"] / statistics.median(good) - 1.0 if good else None,
        units["trace.overhead_frac"])
    return {name: values[name] for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--events", type=int,
                        help="trace events per core (default: the "
                        "workload's; the self-tests use a tiny length)")
    parser.add_argument("--bless", action="store_true",
                        help="commit this seed's agreed digest as golden")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit, on which subprocess.run kills and
    # reaps the simulation in flight instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    events = args.events or WORKLOADS[args.workload].events
    OUT.mkdir(exist_ok=True)
    print(json.dumps({"env": environment(args.seed)}))

    # Closed loop: start another simulation only while it is expected to
    # end within --seconds (a traced run reserves room for the traced
    # simulation), so a run's length does not depend on the machine.
    untraced, durations = [], []
    planned = 1 + args.trace
    while (len(untraced) < MIN_SIMS
           or time.monotonic() - started
           + planned * statistics.median(durations) <= args.seconds):
        begun = time.monotonic()
        untraced.append(simulate_in_child(args.workload, args.seed, events,
                                          deadline))
        durations.append(time.monotonic() - begun)
    records = list(untraced)
    traced = None
    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        traced = simulate_in_child(args.workload, args.seed, events,
                                   deadline, spans=spans)
        records.append(traced)

    golden = load_golden(args.workload, events, args.seed)
    reference = check_parity(records, golden)
    failed = sum(not r["ok"] for r in records)
    with open(OUT / "results.jsonl", "a") as journal:
        for record in records:
            print(json.dumps(record))
            journal.write(json.dumps(record) + "\n")
    if args.bless and failed == 0 and reference is not None:
        bless(args.workload, events, args.seed, reference)

    attempted = len(records)
    metrics = (per_layer(untraced, traced) if args.trace
               else end_to_end(untraced, attempted, failed))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
