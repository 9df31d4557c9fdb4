"""The benchmark's tracer against this source tree.

``bench/harness/tracer.py`` wraps the program's functions by name while a
traced op runs, so renaming one breaks ``bench/run.py --trace 1``. These
tests read the tracer from ``bench/`` and build it against ``src/``.
"""
import importlib.util
import json
import os
import sys
from pathlib import Path

import tubeloss
from tubeloss.cli import main

from cli_corpus import CONFIG, INPUTS

ROOT = Path(__file__).resolve().parents[1]


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "harness" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_the_tracer_resolves_every_traced_name_in_this_tree():
    assert Path(tubeloss.__file__).resolve().parent == ROOT / "src" / "tubeloss"
    tracer = _tracer_module()
    traced = tracer.Tracer()
    patched = {(module.__name__, name) for module, name, _, _ in traced._patches}
    homes = {(f"tubeloss.{layer}", name) for layer, names in tracer.LAYER_FUNCTIONS.items() for name in names}
    assert patched >= homes


def test_a_traced_op_counts_the_bytes_its_writers_are_given(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("stack.json").write_text(json.dumps([{"kind": "limp-mass", "surface_density": 1.135}]))
    traced = _tracer_module().Tracer()
    argv = ["stack", "--stack", "stack.json", "--f-max", "1000", "--output", "r.json", "--band-csv", "b.csv"]
    assert traced.run_op(0, lambda: main(argv)) == 0
    assert {span.name for span in traced.spans} >= {"cli.main", "io_files.load_stack", "io_files.write_report"}
    assert traced.counts["io_files.bytes_read"] == os.path.getsize("stack.json")
    assert traced.counts["io_files.bytes_written"] == os.path.getsize("r.json") + os.path.getsize("b.csv")
    assert not traced.errors


def test_a_traced_stl_op_reads_the_decomposition_and_analysis_counters(tmp_path, monkeypatch):
    # the counters read each pair's mask, the grid and the indicators' valid mask after the op
    monkeypatch.chdir(tmp_path)
    Path("tube.ini").write_text(CONFIG)
    Path("anechoic.ini").write_text(INPUTS["anechoic.ini"])  # 481 bins, over the 2145 Hz blind spot
    for name in ("run1.csv", "run2.csv"):
        assert main(["synth", "anechoic.ini", "--config", "tube.ini", "--output", name]) == 0
    traced = _tracer_module().Tracer()
    argv = ["stl", "run1.csv", "run2.csv", "--config", "tube.ini", "--output", "r.json"]
    assert traced.run_op(0, lambda: main(argv)) == 0
    assert {span.name for span in traced.spans} >= {"decompose.decompose_four_mic", "pipeline.analyze_four_mic"}
    assert traced.counts["decompose.bins_singular"] == 2  # one blind bin in each file's row
    assert traced.counts["pipeline.bins_in"] == 2 * 481
    assert not traced.errors
