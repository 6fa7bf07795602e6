"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from w2ghz.atom_cavity import SystemParams  # noqa: E402

SEEDS = (0, 1, 12345)


def _all_params(workload: str, inputs: list[dict]) -> list[dict]:
    if workload == "cli_batch":
        return [cmd["config"] for op in inputs for cmd in op["commands"] if "config" in cmd]
    return [op["params"] for op in inputs if "params" in op]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    for seed in SEEDS:
        first = workloads.generate(workload, seed)
        assert json.dumps(first) == json.dumps(workloads.generate(workload, seed))
    assert workloads.generate(workload, 0) != workloads.generate(workload, 1)


@pytest.mark.parametrize("workload", ["protocol_ideal", "protocol_decay", "cli_batch"])
def test_protocol_inputs_are_valid_symmetric_and_adiabatic(workload):
    for seed in SEEDS:
        for doc in _all_params(workload, workloads.generate(workload, seed)):
            params = SystemParams.from_json_dict(doc)
            if params.kappa > 0:
                assert params.lambda_c == params.omega
            assert not params.adiabatic_advisory
            assert 0.5 <= params.eta_d <= 1.0


def test_decay_inputs_span_the_eta_over_kappa_range():
    ratios = [(p["lambda_c"] ** 2 / p["delta"]) / p["kappa"]
              for p in _all_params("protocol_decay", workloads.generate("protocol_decay", 0))]
    assert all(10.0 <= r <= 250.0 for r in ratios)
    assert min(ratios) < 15.0 and max(ratios) > 200.0


def test_noise_inputs_sit_at_the_reference_drive():
    """The reference drive is the paper's (asymmetric, advisory on); only
    kappa and gamma_a vary, within the fidelity-surface axis-a range."""
    inputs = workloads.generate("noise_surface", 0)
    assert inputs[:2] == [{"reference_ratio": 250.0}, {"reference_ratio": 50.0}]
    for doc in _all_params("noise_surface", inputs):
        params = SystemParams.from_json_dict(doc)
        assert (params.delta, params.lambda_c, params.omega) == (14.0, 2.86, 2.9)
        assert 0.0 < params.kappa <= workloads.AXIS_A_TOP
        assert 0.0 < params.gamma_a <= workloads.AXIS_A_TOP


def test_cli_blocks_hold_each_command_once_and_repeat_configs():
    blocks = workloads.generate("cli_batch", 0)
    for block in blocks:
        assert sorted(cmd["command"] for cmd in block["commands"]) == ["ideal-run", "sweep-decay", "validate"]
    assert len({tuple(cmd["command"] for cmd in block["commands"]) for block in blocks}) > 1
    keys = [(cmd["command"], cmd["config_index"]) for block in blocks for cmd in block["commands"]]
    assert len(set(keys)) < len(keys)


def test_tail_keeps_ten_samples_beyond():
    latencies = [float(i) for i in range(100)]
    value, percentile = run.tail(latencies)
    assert sum(1 for x in latencies if x > value) == run.TAIL_BEYOND
    assert math.isclose(percentile, 100.0 * 89 / 99)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BENCHMARKED)
    for w in spec["workloads"]:
        assert w["why"] == workloads.RATIONALE[w["name"]] and len(w["why"]) <= 200
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in run.PER_LAYER.items()}


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "protocol_ideal", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    result = _result(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if not trace else {n: spec[0] for n, spec in run.PER_LAYER.items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    lines = completed.stdout.splitlines()
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines), name
    if not trace:
        assert any("failed_frac = 0 " in line for line in lines)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "protocol_ideal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
