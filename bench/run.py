#!/usr/bin/env python3
"""Benchmark the tubeloss command line in-process, as one closed-loop client.

Run from the repository root:

    python3 bench/run.py --workload stl-wide --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each op is one call of ``tubeloss.cli.main(argv)`` on inputs made from the
seed during set-up; the next op starts when the previous one has returned and
its output has been checked. A fixed calibration loop runs between ops, and
timings are reported as op time over the adjacent calibration time, because
the host's speed drifts far more than that ratio does. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates traced and untraced ops and
reports the per-layer metrics. The last line of standard output is one JSON
object; the exit code is 0 only if every op's output was correct.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness.calib import calibration_loop
from harness.tracer import Tracer
from harness.workloads import WORKLOADS, generate, run_cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"
#: Fresh-interpreter imports timed for setup_s, after one untimed warm-up.
SETUP_LAUNCHES = 11
#: Each import of the program is timed against fresh interpreters importing
#: only numpy, launched just before and after it: work of the same kind,
#: which the program cannot change. setup_s is that ratio times the median
#: time of such a numpy launch on the reference host (2 cores, Python
#: 3.11.7, numpy 2.4.6), so that it reads in seconds whatever the host's
#: speed at the time.
SETUP_REFERENCE_S = 0.14
#: Untimed ops run first, so caches fill and lazy set-up finishes.
WARMUP_OPS = 2
#: The tail is the highest percentile with at least this many ops beyond it.
TAIL_BEYOND = 10


def _import_program() -> bool:
    """Import the program from this checkout's ``src``; False if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import tubeloss.cli
    except ImportError as exc:
        print(f"error: cannot import tubeloss from {SRC}: {exc}", file=sys.stderr)
        return False
    if SRC.resolve() not in Path(tubeloss.cli.__file__).resolve().parents:
        print(f"error: tubeloss was imported from {tubeloss.cli.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it.

    Never below the median; with few values that is the median itself.
    """
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND, (len(ordered) + 1) // 2)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def measure_setup() -> tuple[float, float, float]:
    """Wall time of a fresh interpreter running ``import tubeloss.cli``.

    Returns the median over launches of launch time over the mean time of
    the numpy-only launches just before and after it, scaled by
    SETUP_REFERENCE_S, and the raw medians of both kinds of launch.
    """
    def launch(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        return time.perf_counter() - start

    program = f"import sys; sys.path.insert(0, {str(SRC)!r}); import tubeloss.cli"
    reference = "import numpy"
    launch(program)
    launches, refs, ratios = [], [launch(reference)], []
    for _ in range(SETUP_LAUNCHES):
        launches.append(launch(program))
        refs.append(launch(reference))
        ratios.append(launches[-1] / (0.5 * (refs[-2] + refs[-1])))
    return (SETUP_REFERENCE_S * statistics.median(ratios), statistics.median(launches),
            statistics.median(refs))


def run_ops(case, seconds: float, tracer=None) -> list[dict]:
    """Run ops of ``case`` for ``seconds`` s; every second op is traced if a tracer is given."""
    records = []
    deadline = time.perf_counter() + seconds
    calib_before = calibration_loop(case.calibration)
    while not records or time.perf_counter() < deadline:
        case.reset()
        gc.collect()
        traced = tracer is not None and len(records) % 2 == 1
        call = lambda: run_cli(case.argv)  # noqa: E731
        start = time.perf_counter()
        try:
            code, err = tracer.run_op(len(records), call) if traced else call()
            problems = [] if code == 0 else [f"exit {code}: {err.strip()}"]
        except Exception as exc:  # a crash in the program is a failed op, not a crashed benchmark
            problems = [f"{type(exc).__name__}: {exc}"]
        op_s = time.perf_counter() - start
        calib_after = calibration_loop(case.calibration)
        if not problems:
            problems = case.check()
        if problems and traced:
            tracer.errors["cli"] += 1
        records.append({
            "op_s": op_s,
            "calib_s": 0.5 * (calib_before + calib_after),
            "traced": traced,
            "problems": problems,
        })
        calib_before = calib_after
    return records


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    if not _import_program():
        return 2
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        if not args.trace:
            setup_s, setup_raw_s, setup_ref_s = measure_setup()
        case = generate(args.workload, args.seed, workdir)
        for _ in range(WARMUP_OPS):
            run_ops(case, 0.0)
        tracer = Tracer() if args.trace else None
        records = run_ops(case, float(args.seconds), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r["problems"]]
    for r in failed[:5]:
        print(f"failed op: {'; '.join(r['problems'])}", file=sys.stderr)
    correct = not failed
    plain = [r for r in records if not r["traced"]]
    norms = [r["op_s"] / r["calib_s"] for r in plain]
    p50_norm = statistics.median(norms)
    tail_norm, tail_pct = tail(norms)
    print(f"workload {args.workload} seed {args.seed}: {len(records)} ops in {args.seconds} s, "
          f"{len(failed)} failed, fail_ratio {len(failed) / len(records):.4f}")
    print(f"op time / calibration time: median of {len(norms)} ops {p50_norm:.4f}, "
          f"tail p{tail_pct:.1f} {tail_norm:.4f}; raw op median "
          f"{1000 * statistics.median(r['op_s'] for r in plain):.2f} ms, calibration median "
          f"{1000 * statistics.median(r['calib_s'] for r in records):.2f} ms")

    if args.trace:
        traced_norms = [r["op_s"] / r["calib_s"] for r in records if r["traced"]]
        metrics = tracer.metrics()
        metrics["calib.loop_ms"] = 1000 * statistics.median(r["calib_s"] for r in records)
        metrics["op_p50_ms"] = 1000 * statistics.median(r["op_s"] for r in plain)
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_norms) / p50_norm if traced_norms else 1.0
        )
        balance = tracer.op_balance()
        if balance > 1e-6:
            print(f"error: self times miss an op's time by {balance:.3g} s", file=sys.stderr)
            correct = False
        tracer.dump(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        units = {"self_ms": "ms", "calls": "count", "errors": "count", "valid_ratio": "ratio",
                 "loop_ms": "ms", "op_p50_ms": "ms", "overhead_ratio": "ratio",
                 "bytes_read": "bytes", "bytes_written": "bytes", "bins_in": "count",
                 "bins_singular": "count"}
        result = {k: _metric(v, units[k.rsplit(".", 1)[-1]]) for k, v in metrics.items()}
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"setup: raw launch median {setup_raw_s:.4f} s, numpy-only launch median "
              f"{setup_ref_s:.4f} s, scaled to a {SETUP_REFERENCE_S:g} s numpy-only launch")
        result = {
            "op_p50_norm": _metric(p50_norm, "ratio"),
            "op_tail_norm": _metric(tail_norm, "ratio"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    for name, m in result.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": result,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv).returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
