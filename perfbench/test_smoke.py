"""Smoke test of the benchmark at reduced job sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for about a second at the smoke sizes and checks that the
last line carries every metric BENCHMARK.json names, with the right units.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    res = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                          "--trace", str(trace), "--scale", "smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = run.END_TO_END if trace == 0 else run.PER_LAYER
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(wanted)
    for v in res["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_window_reports_the_bump_failure():
    proc = bench("--workload", "window", "--seed", "3", "--seconds", "0.2", "--scale", "smoke")
    res = last_json(proc)
    report = json.loads(proc.stdout.strip().splitlines()[-2])
    if res["failed"] == 0:
        pytest.skip("standard_bump() builds on this toolchain")
    assert res["failed"] == res["attempted"]
    assert set(report["failures"]) == {"bump.standard_bump:AssertionError"}
    assert report["metrics"]["fail_ratio"]["value"] == 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "certify", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_keeps_ten_samples_beyond():
    # Harrell-Davis on the samples 1..n gives about n p + 1/2
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert pct == "p75.0" and value == pytest.approx(30.5, abs=0.01)
    value, pct = run.tail([4.0, 1.0, 3.0, 2.0])
    assert pct == "p75.0" and 3.0 < value < 4.0
    assert run.quantile([5.0], 0.5) == pytest.approx(5.0)


def test_self_time_excludes_children():
    tr = spans.Tracer()
    with tr.span("op.x"):
        tr.call("layer.f", sum, [1, 2], sizes=lambda r: {"total": r})
    m = tr.layer_metrics()
    assert m["layer.f.total"] == 3
    assert m["op.x.self_s"] == pytest.approx(m["op.x.s"] - m["layer.f.s"])
