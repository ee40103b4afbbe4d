"""Absolute parity: seed 1 of every benchmark workload reproduces its
committed golden digest.

The scalar-vs-batch and sharded-vs-single-process tests are relative: a
change that shifts both sides alike passes them.  This test pins the
simulator's output itself.  The digest is a sha256 over per-core cycles
and instructions, ``ControllerStats``, ``DRAMStats`` and the final
ratio (the ratio timeline for the mix), as defined by
``perfbench/scenarios.py:result_digest``; the golden values are read
from ``perfbench/golden.json``.  A deliberate model change re-blesses
them with ``perfbench/run.py --bless``.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import scenarios  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())
SEED = scenarios.DEFAULT_SEED


@pytest.mark.parametrize("name", sorted(scenarios.WORKLOADS))
def test_seed_matches_golden_digest(name):
    workload = scenarios.WORKLOADS[name]
    golden = GOLDEN[name]
    assert golden["events"] == workload.events
    _, summary = scenarios.run_workload(workload, SEED, workload.events)
    assert summary["digest"] == golden["seeds"][str(SEED)]
