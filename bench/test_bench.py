"""Tests of the benchmark itself, on smoke-sized inputs.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = run.WORKLOAD_NAMES

#: Factorizations per op (svd, eigh + eigvalsh, norm(., 2)) of the two CLI
#: commands, as counted at the start of the benchmark's history.
CLI_FACTORIZATIONS = {"cli_read_large": (2, 5, 14), "cli_write_large": (8, 13, 39)}


def bench(*args: str, script: Path = BENCH / "run.py", cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def smoke(workload: str, trace: int = 0, seed: int = 1) -> tuple[dict, dict, str]:
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[-2].startswith("record ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("record "):]), out.stdout


def test_every_declared_workload_is_runnable():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_reports_every_declared_metric(workload, trace):
    result, _, stdout = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace:
        assert result["metrics"]["cli.import_ms"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        printed = {line.split()[0]: line.split()[2] for line in stdout.splitlines() if line.startswith("  ")}
        for name, unit in {**run.REPORTED_UNITS, **{m["name"]: m["unit"] for m in declared}}.items():
            assert printed.get(name) == unit


@pytest.mark.parametrize("workload", ["cli_read_large", "lib_small"])
def test_declared_timings_are_scaled_by_the_kernel_after_each_op(workload):
    result, record, _ = smoke(workload)
    d = record["details"]
    k = d["kernel_s"]
    assert len(k) == len(d["op_s"]) + 1 == d["ops"] + 1
    times = [t * d["kernel_nominal_s"] * 2 / (k[i] + k[i + 1]) for i, t in enumerate(d["op_s"])]
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["norm_throughput_ops_s"] == pytest.approx(d["ops"] / sum(times))
    assert m["norm_latency_p50_ms"] == pytest.approx(1e3 * statistics.median(times))
    setup = statistics.median(d["setup_scaled_s_reps"]) + d["warm_up_scaled_s"]
    assert m["setup_s"] == pytest.approx(setup)


@pytest.mark.parametrize("workload", sorted(CLI_FACTORIZATIONS))
def test_traced_cli_counts_factorizations(workload):
    result, _, _ = smoke(workload, trace=1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert (m["linalg.svd_calls"], m["linalg.eig_calls"], m["linalg.norm2_calls"]) == CLI_FACTORIZATIONS[workload]
    assert m["frame_ops.ckframe_check_calls"] == 1
    assert m["harness.spec_bytes"] > 0 and m["harness.report_bytes"] > 0


@pytest.mark.parametrize("workload", ["cli_read_large", "lib_small"])
def test_inputs_follow_the_seed(workload):
    first, again, other = (smoke(workload, seed=s)[1]["inputs"]["digest"] for s in (1, 1, 2))
    assert first == again != other


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "lib_small", "--seed", "1", "--seconds", "1", "--trace", "0",
                script=tmp_path / "bench" / "run.py", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_tail_is_the_90th_percentile_by_nearest_rank():
    assert run.tail([float(i) for i in range(1000)]) == (899.0, 100)
    assert run.tail([float(i) for i in range(100)]) == (89.0, 10)
    assert run.tail([float(i) for i in range(20)]) == (17.0, 2)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 0)


def test_cli_check_ignores_only_the_wall_time_line():
    report = '{\n  "command": "bounds",\n  "results": {\n    "lower": 1.0e+00\n  },\n  "wall_time": 1.5e-02\n}\n'
    assert workloads.without_wall_time(report) == workloads.without_wall_time(report.replace("1.5e-02", "9.9e-01"))
    assert workloads.without_wall_time(report) != workloads.without_wall_time(report.replace("1.0e+00", "1.1e+00"))


def test_library_check_catches_a_disagreeing_lower_bound():
    lib = workloads.make("lib_small", ROOT, smoke=True)
    lib.generate(1)
    d = workloads.diagnose(lib.problems[0])
    assert workloads.diagnosis_error(d) == ""
    assert "disagree" in workloads.diagnosis_error({**d, "lambda_min": d["lambda_min"] * (1 + 1e-6)})
    assert workloads.diagnosis_error({**d, "pair_holds": False})
    assert workloads.diagnosis_error({**d, "factor": replace(d["factor"], factor=None)})
