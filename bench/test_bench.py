"""Self-test of the benchmark: smoke-sized runs of every workload.

    python3 -m pytest bench/test_bench.py

Checks that the emitted metrics are exactly those of BENCHMARK.json, that
every span expected on a workload was recorded there (a wrapper that misses
its target after a rename in the package shows as a zero), that the module
wall times add up to the traced wall time, and that the harness refuses to
run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# Per-layer metrics that must be nonzero on a workload's traced run.
EXPECTED_NONZERO = {
    "mc-k3": [
        "channel.draw_s", "channel.variates", "policies.kernel_s.oma", "policies.kernel_s.sym",
        "policies.kernel_s.sdo", "policies.kernel_s.fo", "policies.slots", "policies.bytes_in",
        "simulator.self_s", "simulator.batches", "sessions_per_s.oma", "sessions_per_s.sym3",
        "sessions_per_s.sdo", "sessions_per_s.fo",
    ],
    "sweep-k8": [
        "channel.draw_s", "channel.variates", "policies.kernel_s.sdo", "policies.kernel_s.fo",
        "policies.slots", "policies.bytes_in", "simulator.self_s", "simulator.batches",
        "simulator.pool_starts", "simulator.pool_overhead_s", "simulator.scaling_eff",
        "simulator.estimate_alphas_s", "analytic.exact_session_error_s", "analytic.chernoff_generic_s",
        "analytic.beta2_sdo_s", "analytic.calls", "cli.self_s",
    ],
    "analytic-grid": [
        "analytic.exact_session_error_s", "analytic.chernoff_generic_s", "analytic.beta2_sdo_s",
        "analytic.calls",
    ],
}  # fmt: skip
# Layers a workload must not touch: the pool on mc-k3, Monte Carlo on analytic-grid.
EXPECTED_ZERO = {
    "mc-k3": ["simulator.pool_starts", "analytic.calls", "cli.self_s"],
    "sweep-k8": ["policies.kernel_s.oma", "policies.kernel_s.sym"],
    "analytic-grid": ["channel.variates", "policies.slots", "simulator.batches", "simulator.pool_starts"],
}
# Stated remainder: time of the traced pass outside every span.
MAX_UNATTRIBUTED_FRAC = 0.05


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )  # fmt: skip


def result(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert 1 <= out["attempted"] and 0 <= out["failed"] <= out["attempted"]
    return out


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_smoke(workload):
    out = result(workload, 0)
    assert units(out["metrics"]) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload):
    out = result(workload, 1)
    metrics = out["metrics"]
    assert units(metrics) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    value = {name: m["value"] for name, m in metrics.items()}
    assert [n for n in EXPECTED_NONZERO[workload] if not value[n] > 0] == []
    assert [n for n in EXPECTED_ZERO[workload] if value[n] != 0] == []
    walls = [value[f"wall.{mod}_s"] for mod in ("channel", "policies", "simulator", "analytic", "cli")]
    assert min(walls) >= 0
    assert 0 <= value["wall.unattributed_s"] <= MAX_UNATTRIBUTED_FRAC * value["wall.traced_s"]
    assert sum(walls) + value["wall.unattributed_s"] == pytest.approx(value["wall.traced_s"])


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
