"""Smoke test of the benchmark itself (not collected by tier-1, whose
``testpaths`` is ``tests``): ``BENCHMARK.json`` is well-formed and a
short ``exec_tinypoints`` run reports every metric it declares.

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite_smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: the layers the exec_tinypoints workload drives must read non-zero
EXEC_LAYER_METRICS = (
    "exec.store.store_ms",
    "exec.store.load_ms",
    "exec.checkpoint.mark_ms",
    "exec.checkpoint.open_ms",
    "exec.config.hash_us",
    "exec.cold_points_per_s",
    "exec.warm_points_per_s",
    "exec.cache_hits",
    "exec.executed",
    "trace_overhead_ratio",
)


def test_names_and_counts_are_within_the_contract():
    groups = [SPEC["workloads"], SPEC["end_to_end"], SPEC["per_layer"]]
    names = [entry["name"] for group in groups for entry in group]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])
    assert any(
        entry["name"] == "setup_s" and entry["unit"] == "s" and entry["better"] == "lower"
        for entry in SPEC["end_to_end"]
    )
    assert all(len(entry["why"]) <= 200 for entry in SPEC["workloads"])


@pytest.mark.parametrize("trace", (0, 1))
def test_exec_tinypoints_reports_every_declared_metric(trace):
    done = subprocess.run(
        [
            sys.executable, str(SUITE / "run.py"), "--workload", "exec_tinypoints",
            "--seed", "7", "--seconds", "1", "--trace", str(trace),
        ],  # fmt: skip
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=180,
    )
    outcome = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
    assert outcome["correct"] and outcome["failed"] == 0 and outcome["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: metric["unit"] for name, metric in outcome["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    nonzero = EXEC_LAYER_METRICS if trace else [entry["name"] for entry in declared]
    assert all(outcome["metrics"][name]["value"] > 0 for name in nonzero)
