"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root: python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
from harness import tracer as tracing  # noqa: E402
from harness.workloads import WORKLOADS, generate, run_cli  # noqa: E402


def tiny(name: str):
    """The workload at a size that runs in milliseconds; the stl grids keep the 2145 Hz blind spot."""
    spec = WORKLOADS[name]
    if spec.command == "stack":
        return dataclasses.replace(spec, f_max=400.0, count=4)
    return dataclasses.replace(spec, f_max=2300.0, f_step=5.0, count=min(spec.count, 3))


@pytest.fixture(params=list(WORKLOADS))
def case(request, tmp_path):
    return generate(request.param, 7, tmp_path, tiny(request.param))


def corrupt(case) -> None:
    """Change one value of the op's output by more than any check's tolerance."""
    path = case.outputs[0]
    if case.argv[0] == "synth":
        lines = path.read_text().split("\n")
        fields = lines[-2].split(",")
        fields[-1] = repr(float(fields[-1]) * (1.0 + 1e-15) + 1e-300)
        lines[-2] = ",".join(fields)
        path.write_text("\n".join(lines))
        return
    report = json.loads(path.read_text())
    if case.argv[0] == "stl":
        report["bands"]["values_db"][7] += 1.0  # 500 Hz, a band the closed form checks
    else:
        report["narrowband"]["stl_db"][3] += 0.02
    path.write_text(json.dumps(report))


def test_generator_is_seeded(tmp_path):
    spec = tiny("stl-reps")
    files = {}
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        generate("stl-reps", seed, tmp_path / label, spec)
        files[label] = {p.name: p.read_bytes() for p in sorted((tmp_path / label).iterdir())}
    assert set(files["a"]) == {"tube.ini", "scenario0.ini", "scenario1.ini", "scenario2.ini",
                               "run0.csv", "run1.csv", "run2.csv"}
    assert files["a"] == files["b"]
    assert files["a"]["run0.csv"] != files["c"]["run0.csv"]


def test_checks_accept_the_program_output(case):
    code, err = run_cli(case.argv)
    assert code == 0, err
    assert case.check() == []


def test_corrupted_output_counts_as_failed(case):
    check = case.check
    case.check = lambda: (corrupt(case), check())[1]
    records = run.run_ops(case, 0.0)
    assert len(records) == 1 and records[0]["problems"]


def test_missing_output_counts_as_failed(case):
    run_cli(case.argv)
    case.reset()
    assert case.check()


def test_self_times_subtract_covered_child_time():
    spans = [
        tracing.Span("cli.main", 0.0, 10.0, -1, 0),
        tracing.Span("a", 1.0, 4.0, 0, 0),
        tracing.Span("a.inner", 2.0, 3.0, 1, 0),
        tracing.Span("b", 5.0, 9.0, 0, 0),
        tracing.Span("cli.main", 10.0, 12.0, -1, 1),
        tracing.Span("c", 10.5, 11.5, 4, 1),
        tracing.Span("c", 11.0, 11.8, 4, 1),  # overlaps its sibling: covered once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 0.7, 1.0, 0.8])


def test_traced_ops_balance_and_restore_the_program(tmp_path):
    import tubeloss.cli
    import tubeloss.pipeline

    originals = (tubeloss.cli.read_mic_spectra, tubeloss.pipeline.decompose_four_mic)
    case = generate("stl-reps", 5, tmp_path, tiny("stl-reps"))
    tracer = tracing.Tracer()
    records = run.run_ops(case, 0.3, tracer)
    assert (tubeloss.cli.read_mic_spectra, tubeloss.pipeline.decompose_four_mic) == originals
    assert not any(r["problems"] for r in records)
    assert any(r["traced"] for r in records)
    assert tracer.op_balance() < 1e-9
    metrics = tracer.metrics()
    assert metrics["io_files.read_mic_spectra.calls"] == 3
    assert metrics["pipeline.analyze_four_mic.calls"] == 3
    assert metrics["decompose.bins_in"] == 3 * 441
    assert metrics["decompose.bins_singular"] == 3
    assert metrics["pipeline.valid_ratio"] == pytest.approx(440 / 441)
    assert metrics["io_files.bytes_read"] > metrics["io_files.bytes_written"] > 0


def test_tail_keeps_ten_values_beyond_it():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(v) for v in range(1, 16)]) == (8.0, pytest.approx(800 / 15))


def test_run_prints_the_benchmark_json_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "stl-reps",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stl-reps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
