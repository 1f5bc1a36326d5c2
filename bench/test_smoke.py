"""Smoke test of the benchmark: every workload at its tiny size, in both modes.

Run from the repository root:  python3 -m pytest bench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REFERENCE_WORKLOADS = ["p1-orth-sweep", "p1-large", "q1-orth-sweep"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(workload, trace, *extra, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc, lines = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert f"metric {metric['name']} {printed['value']} {metric['unit']}" in lines


def test_names_are_well_formed_and_unique():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("workload", REFERENCE_WORKLOADS)
def test_perturbed_reference_value_raises_fail_frac(workload):
    proc, lines = bench(workload, 0, "--perturb-reference")
    assert proc.returncode == 1
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["pass_frac"]["value"] < 1.0
    assert "check failed: dim" in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = bench(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
