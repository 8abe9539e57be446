"""End-to-end checks of the perf benchmark (benchmarks/perf/run.py)."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import ops
import run

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(kind):
    return [(metric["name"], metric["unit"]) for metric in BENCHMARK[kind]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced smoke invocation: all four workloads at scale 0.01."""
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    start = time.perf_counter()
    process = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--smoke", "--trace", "1",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    assert process.returncode == 0, process.stderr
    line = json.loads(process.stdout.strip().splitlines()[-1])
    return json.loads(out.read_text(encoding="utf-8")), line, elapsed


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(ops.WORKLOADS)
    assert _declared("end_to_end") == list(run.END_TO_END)
    assert _declared("per_layer") == list(layers.LAYER_METRICS)


def test_smoke_passes_every_output_check(smoke):
    document, line, elapsed = smoke
    assert line["correct"] is True
    assert (line["attempted"], line["failed"]) == (8, 0)
    assert set(document["workloads"]) == set(ops.WORKLOADS)
    serial = document["workloads"]["paper_serial"]["digests"]
    assert document["workloads"]["paper_jobs2"]["digests"] == serial
    replay = document["workloads"]["audit_replay"]["digests"]
    assert replay == {name: serial[name] for name in ops.AUDIT_OUTPUTS}
    # About 20 s on a 2-vCPU VM; the bound only catches a runaway.
    assert elapsed < 180


def test_result_has_every_metric_with_its_unit(smoke):
    document, line, _ = smoke
    for entry in document["workloads"].values():
        assert [(name, value["unit"]) for name, value
                in entry["metrics"].items()] == _declared("end_to_end")
        assert [(name, value["unit"]) for name, value
                in entry["layers"].items()] == _declared("per_layer")
        assert entry["missing"] == []
    assert set(line["metrics"]) == {
        f"{workload}.{name}" for workload in ops.WORKLOADS
        for name, _ in _declared("per_layer")}


def test_traced_run_attributes_the_serial_op(smoke):
    document, _, _ = smoke
    layer = document["workloads"]["paper_serial"]["layers"]
    assert layer["trace.unattributed_frac"]["value"] <= 0.10
    assert layer["web.browse.calls"]["value"] > 0
    assert layer["adnetwork.serve.calls"]["value"] > 0
    jobs2 = document["workloads"]["paper_jobs2"]["layers"]
    assert jobs2["experiments.unpack.calls"]["value"] > 0
    assert jobs2["adnetwork.serve.calls"]["value"] == 0     # parent side only
    replay = document["workloads"]["audit_replay"]["layers"]
    assert replay["collector.load.self_s"]["value"] > 0
    assert replay["web.browse.calls"]["value"] == 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    process = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "paper_serial", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert process.returncode != 0
    assert process.stdout.strip() == ""
