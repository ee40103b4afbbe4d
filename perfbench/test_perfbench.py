"""Self-tests of the end-to-end benchmark.

    python3 -m pytest perfbench -q

Each workload runs at a tiny trace length through ``run.py`` itself,
untraced and traced.  The repository's tier-1 suite does not collect
this file (``testpaths = ["tests"]``); it takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import simrun  # noqa: E402
from layers import SPAN, TARGETS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 60


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    child = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0", "--trace", str(trace),
         "--events", str(TINY)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return child


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_with_parity(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        child = run_bench(workload, trace)
        assert child.returncode == 0, child.stderr
        lines = [json.loads(line) for line in child.stdout.splitlines()]
        result, records = lines[-1], [r for r in lines if "ok" in r]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(records) >= run.MIN_SIMS
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), name
        if trace == 0:
            assert result["metrics"]["ok_rate"]["value"] == 1.0
        else:
            traced = [r for r in records if r["traced"]]
            assert len(traced) == 1
            assert {r["digest"] for r in records} == {traced[0]["digest"]}


def test_missing_target_is_reported_not_fatal(capsys):
    renamed = ("core.packing.pack", "repro.core.linepack",
               "LinePack.renamed_pack", SPAN)
    gone = ("cpu.core", "repro.cpu.no_such_module", "AnalyticCore.stall",
            SPAN)
    record = simrun.simulate_once("mcf-compresso", 1, TINY, traced=True,
                                  targets=TARGETS + (renamed, gone))
    layers = record["layers"]
    for name, fragment in (("core.packing.pack.calls", "renamed_pack"),
                           ("core.packing.pack.self_s", "renamed_pack"),
                           ("cpu.core.self_s", "no_such_module")):
        assert layers[name]["value"] is None
        assert fragment in layers[name]["missing"]
    assert layers["core.packing.layout_from_bins.calls"]["value"] > 0
    assert "cannot trace core.packing.pack" in capsys.readouterr().err

    from repro.core.linepack import LinePack
    assert not hasattr(LinePack.layout_from_bins, "__wrapped__")


def test_parity_counts_digest_mismatch_as_failure():
    records = [{"digest": "a"}, {"digest": "a"}, {"digest": "b"},
               {"error": "boom"}]
    assert run.check_parity(records, None) == "a"
    assert [r["ok"] for r in records] == [True, True, False, False]
    run.check_parity(records, "b")
    assert [r["ok"] for r in records] == [False, False, True, False]


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = run_bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert child.returncode != 0
    assert child.stdout == ""
