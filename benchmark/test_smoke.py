"""Smoke test of the benchmark: every workload at a tiny size reports every
metric BENCHMARK.json names, the stored seed-0 checks catch a changed or
missing value, the host-speed probe samples during a call and takes its own
time out, and the benchmark refuses to run without the package sources.

    python3 -m pytest benchmark
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]
import speed  # noqa: E402
import workloads  # noqa: E402


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmark" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert "failed_frac" in proc.stdout


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run(tmp_path, "error-sweep", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload,key", [("error-sweep", "error"), ("residual-sweep", "residual_full")])
def test_stored_checks(workload, key):
    stored = json.loads(workloads.EXPECTED_PATH.read_text())[workload]["rows"]
    rows = [{k: str(v) for k, v in row.items()} for row in stored]
    keys = [k for k in stored[0] if k != "epsilon"]
    assert all(ok for _, ok, _ in workloads._stored_checks(workload, rows, keys))

    rows[-1][key] = str(float(rows[-1][key]) * (1 + 2 * workloads.STORED_REL_TOL))
    failed = [name for name, ok, _ in workloads._stored_checks(workload, rows, keys) if not ok]
    assert failed == [f"{key}@eps={stored[-1]['epsilon']}"]
    assert not workloads._stored_checks("no-such-workload", rows, keys)[0][1]


def test_speed_probe_scales_wall_time():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    probe = speed.SpeedProbe()
    result, wall_s, ref_s, mean_probe = probe.timed(busy, 0.3)
    assert result == "done" and wall_s >= 0.3
    assert len(probe.samples) >= 0.3 / speed.PERIOD_S / 2
    own = sum(probe.samples)
    assert mean_probe == pytest.approx(own / len(probe.samples))
    ratios = [speed.REF_PROBE_S / t for t in probe.samples]
    assert ref_s == pytest.approx((wall_s - own) * sum(ratios) / len(ratios))
