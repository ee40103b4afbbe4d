"""Absolute parity: seeds 1 and 2 of every benchmark workload reproduce
their committed golden digests.

The scalar-vs-batch and sharded-vs-single-process tests are relative: a
change that shifts both sides alike passes them.  This test pins the
simulator's output itself.  The digest is a sha256 over per-core cycles
and instructions, ``ControllerStats``, ``DRAMStats`` and the final
ratio (the ratio timeline for the mix), as defined by
``perfbench/scenarios.py:result_digest``; the golden values are read
from ``perfbench/golden.json``.  A deliberate model change re-blesses
them with ``perfbench/run.py --bless``.

The benchmark's traced run attributes host time to layers by wrapping
named functions; the tooling guards below fail when a refactor would
leave one of those wrappers with nothing to wrap.
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import scenarios  # noqa: E402

from repro.compression import (  # noqa: E402
    Compressor,
    available_algorithms,
    make_compressor,
)

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())
SEED = scenarios.DEFAULT_SEED


@pytest.mark.parametrize("name", sorted(scenarios.WORKLOADS))
def test_seed_matches_golden_digest(name):
    workload = scenarios.WORKLOADS[name]
    golden = GOLDEN[name]
    assert golden["events"] == workload.events
    _, summary = scenarios.run_workload(workload, SEED, workload.events)
    assert summary["digest"] == golden["seeds"][str(SEED)]


@pytest.mark.parametrize("name", ["mcf-compresso", "mix4-lcp",
                                  "lbm-uncompressed"])
def test_second_seed_matches_golden_digest(name):
    """Seed 2: a second trace and page image through the compressed size
    path (mcf, mix4) and through the trace and data generators alone
    (lbm on the uncompressed baseline)."""
    workload = scenarios.WORKLOADS[name]
    _, summary = scenarios.run_workload(workload, 2, workload.events)
    assert summary["digest"] == GOLDEN[name]["seeds"]["2"]


@pytest.mark.parametrize("target", layers.TARGETS,
                         ids=lambda target: f"{target[1]}.{target[2]}")
def test_traced_target_resolves(target):
    """Every function the traced run wraps still exists as a plain function."""
    _, module_name, path, _ = target
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    assert inspect.isfunction(inspect.getattr_static(owner, attr))


@pytest.mark.parametrize("algorithm", available_algorithms())
def test_size_requests_reach_the_compression_span(algorithm):
    """The ``compression`` span wraps ``Compressor.compressed_size_bytes``;
    an override would route size requests around it."""
    compressor = make_compressor(algorithm)
    assert (inspect.getattr_static(type(compressor), "compressed_size_bytes")
            is Compressor.__dict__["compressed_size_bytes"])
