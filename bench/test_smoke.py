"""Smoke test of the benchmark itself: every workload at a few ops.

    python3 -m pytest -q bench/test_smoke.py

Checks that each run passes its correctness checks, reports every metric that
BENCHMARK.json names with the unit it names, and gives the same
``result_digest`` traced and untraced.  Also checks that the benchmark fails
cleanly where the library's sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_reports_every_metric(workload):
    plain = run.measure(workload, seed=7, seconds=0, trace=0, min_ops=3)
    traced = run.measure(workload, seed=7, seconds=0, trace=1, min_ops=3)
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["record"]["failed"] == 0, result["record"]["failures"]
        units = {name: unit for name, (_, unit) in result["metrics"].items()}
        assert units == _units(kind)
    assert traced["record"]["absent_spans"] == []
    assert plain["record"]["result_digest"] == traced["record"]["result_digest"]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def test_fails_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run([*SPEC["command"], "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scaler_scales_each_block_by_its_probes(monkeypatch):
    import refspeed

    monkeypatch.setattr(refspeed, "probe", lambda: 2 * refspeed.REFERENCE_S)
    scaler = refspeed.Scaler()
    for seconds in (0.5, 0.01, 0.6, 0.3):
        scaler.add(seconds)
    scaler.close()
    assert scaler.scaled == [0.25, 0.005, 0.3, 0.15]
