"""A fixed corpus of ``tubeloss`` command-line runs.

``run_corpus(outdir)`` writes small seeded inputs into ``outdir`` and runs
every subcommand in-process from there, so every path in an argv, a report
or a message is relative. Each report's ``timestamp`` is masked. The runs and
their argv, exit code, stdout and stderr are logged to ``outdir/runs.log``.

Running the module under two source trees and comparing the directories
shows whether a change keeps the command line's bytes::

    PYTHONPATH=src python tests/cli_corpus.py OUT_NEW
    PYTHONPATH=<other checkout>/src python tests/cli_corpus.py OUT_OLD
    diff -r OUT_OLD OUT_NEW
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

from tubeloss.cli import main

CONFIG = """[air]
density = 1.204
sound_speed = 343.2

[tube]
mic_positions = -0.33 -0.25 0.25 0.33
sample_thickness = 0.00089
diameter = 0.0998
"""

_SCENARIO = """[scenario]
sample = limp-mass
surface_density = {surface_density}
termination = {termination}
snr_db = {snr_db}
seed = 1200
f_min = 100
f_max = {f_max}
f_step = {f_step}
"""

_ZERO_DOWNSTREAM = """# tubeloss mic spectra v1
# n_frequencies = 3
# mic_positions_m = -0.33 -0.25 0.25 0.33
# sample_thickness_m = 0.00089
# tube_diameter_m = 0.0998
# air_density_kg_m3 = 1.204
# air_sound_speed_m_s = 343.2
frequency_hz,p1_re,p1_im,p2_re,p2_im,p3_re,p3_im,p4_re,p4_im
900,1.22062,0.0717845,-1.21389,-0.0843256,0.0946608,0.0857229,0.106664,-0.0702279
1000,1.90165,0.107856,-0.381637,-0.0285743,0,0,0,0
1100,1.89672,0.101315,0.531028,0.0225829,0.102696,-0.0207457,-0.024864,-0.101777
"""

# the same sheet as a reader meets it from other tools: CRLF line endings; a comment and a
# blank line among the rows; a bad number on line 9 before a short row on line 11
_CRLF = _ZERO_DOWNSTREAM.replace("\n", "\r\n")
_COMMENTED = _ZERO_DOWNSTREAM.replace("\n1000,", "\n# re-seated the sample\n\n1000,")
_BAD_ROWS = _ZERO_DOWNSTREAM.replace("900,1.22062,", "900,1.22O62,").replace(
    ",-0.024864,-0.101777\n", ",-0.024864\n"
)

# the same sheet with CR line endings only
_CR = _ZERO_DOWNSTREAM.replace("\n", "\r")
# blank and comment lines among the rows, then a nan frequency on line 14
_GAPPED_NAN = _ZERO_DOWNSTREAM.replace("\n1000,", "\n\n# re-seated the sample\n\n1000,").replace(
    "\n1100,", "\nnan,"
)
# a whitespace-only line among the rows, on line 10
_WHITESPACE_ROW = _ZERO_DOWNSTREAM.replace("\n1000,", "\n \t\n1000,")

# a nan pressure (p4) on line 12 before an inf one (p1) on line 13: the file-order first is named
_NON_FINITE = _ZERO_DOWNSTREAM.replace("# n_frequencies = 3", "# n_frequencies = 5") + (
    "1200,1.8,0.1,0.5,0.02,0.1,-0.02,-0.02,nan\n1300,inf,0.1,0.5,0.02,0.1,-0.02,-0.02,-0.1\n"
)
# a nan frequency on line 10; a frequency of 950 after 1000 on line 11
_NAN_FREQUENCY = _ZERO_DOWNSTREAM.replace("\n1000,", "\nnan,")
_DECREASING = _ZERO_DOWNSTREAM.replace("\n1100,", "\n950,")
# a Latin-1 byte (0xfc) in a comment line
_NOT_UTF8 = _ZERO_DOWNSTREAM.replace("# tube_diameter_m", "# J\u00fcrgen's sheet\n# tube_diameter_m").encode(
    "latin-1"
)

_BAND_CSV = "band_nominal_hz,500,630,800,1000\n{name},{values}\n{name}_coverage,1.0,1.0,1.0,1.0\n"
# a coverage of 1.5 in the 630 Hz band
_BAD_COVERAGE = "band_nominal_hz,500,630,800,1000\nL_r0,70.0,72.5,71.0,69.0\nL_r0_coverage,1.0,1.5,1.0,1.0\n"

INPUTS = {
    "tube.ini": CONFIG,
    "limp.ini": _SCENARIO.format(
        surface_density=1.135, termination="0.2+0.1j", snr_db=40, f_max=2000, f_step=10
    ),
    # reaches past the plane-wave cutoff and hits the 2145 Hz blind spot of both pairs
    "anechoic.ini": _SCENARIO.format(
        surface_density=1.135, termination="anechoic", snr_db="off", f_max=2500, f_step=5
    ),
    # the sample matrix overflows, so the synthetic field cannot be solved
    "singular.ini": _SCENARIO.format(
        surface_density=1e308, termination="anechoic", snr_db="off", f_max=2000, f_step=10
    ),
    # a regular grid past the bin cap
    "tiny-step.ini": _SCENARIO.format(
        surface_density=1.135, termination="anechoic", snr_db="off", f_max=2000, f_step="1e-12"
    ),
    # the limp-mass sheet at 900, 1000 and 1100 Hz with p3 = p4 = 0 at 1000 Hz, where the
    # direct route 20 log10 |A/C| is +inf
    "zero-downstream.csv": _ZERO_DOWNSTREAM,
    "crlf.csv": _CRLF,
    "commented.csv": _COMMENTED,
    "cr.csv": _CR,
    "gapped-nan.csv": _GAPPED_NAN,
    "whitespace-row.csv": _WHITESPACE_ROW,
    "bad-rows.csv": _BAD_ROWS,
    "nan.csv": _NON_FINITE,
    "latin1.csv": _NOT_UTF8,
    "badf.csv": _NAN_FREQUENCY,
    "dec.csv": _DECREASING,
    "layers.json": json.dumps(
        [
            {"kind": "limp-mass", "surface_density": 1.135},
            {"kind": "air-gap", "thickness": 0.05},
            {"kind": "matrix", "t11": [1, 0], "t12": [0, 0], "t21": [0, 0], "t22": [1, 0]},
            {"kind": "identity"},
        ]
    ),
    # a matrix layer with thickness, an air gap, an identity layer and a limp mass
    "mixed.json": json.dumps(
        [
            {
                "kind": "matrix", "t11": [0.9, 0.1], "t12": [200.0, 30.0], "t21": [0.0005, 0.0001],
                "t22": [0.9, 0.1], "thickness": 0.02,
            },
            {"kind": "air-gap", "thickness": 0.05},
            {"kind": "identity"},
            {"kind": "limp-mass", "surface_density": 1.135},
        ]
    ),
    # two matrix layers around an air gap, so the product multiplies entries that are both
    # fully complex (each other layer has real, imaginary or unit entries)
    "twin-matrix.json": json.dumps(
        [
            {
                "kind": "matrix", "t11": [0.9, 0.1], "t12": [200.0, 30.0], "t21": [0.0005, 0.0001],
                "t22": [0.9, 0.1], "thickness": 0.02,
            },
            {"kind": "air-gap", "thickness": 0.05},
            {
                "kind": "matrix", "t11": [0.8, -0.2], "t12": [150.0, -40.0], "t21": [0.0007, 0.0002],
                "t22": [0.8, -0.2], "thickness": 0.01,
            },
            {"kind": "limp-mass", "surface_density": 1.135},
        ]
    ),
    "opaque.json": json.dumps([{"kind": "limp-mass", "surface_density": 1e300}]),
    "overflow.json": json.dumps(
        [
            {"kind": "limp-mass", "surface_density": 1e305},
            {"kind": "air-gap", "thickness": 0.05},
            {"kind": "limp-mass", "surface_density": 1e305},
        ]
    ),
    "bad-layer.json": "[1]",
    # t12 = 3.3e-320 and nothing else: a subnormal anechoic denominator, where 2 / den overflows
    "subnormal.json": json.dumps(
        [{"kind": "matrix", "t11": [0, 0], "t12": [3.3e-320, 0], "t21": [0, 0], "t22": [0, 0]}]
    ),
    # JSON integers too large for a float (1 and 400 zeros), one past the 4 300-digit limit of
    # int(), and an array nested 100 000 deep
    "huge-layer.json": '[{"kind": "limp-mass", "surface_density": 1' + "0" * 400 + "}]",
    "huge-entry.json": '[{"kind": "matrix", "t11": [1, 0], "t12": [1' + "0" * 400 + ", 0], "
    '"t21": [0, 0], "t22": [1, 0]}]',
    "huge-thickness.json": '[{"name": "sheet", "thickness_mm": 1' + "0" * 400 + ', "surface_density": 1.135}]',
    "digits.json": '[{"kind": "limp-mass", "surface_density": 1' + "0" * 4300 + "}]",
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "materials.json": json.dumps(
        [
            {"name": "sheet", "thickness_mm": 0.89, "surface_density": 1.135},
            {"name": "foil, thin", "thickness_mm": 0.01, "surface_density": 0.01},
        ]
    ),
    # a band CSV row named felt_coverage would read as felt's coverage row
    "coverage-names.json": json.dumps(
        [
            {"name": "felt", "thickness_mm": 5.0, "surface_density": 0.5},
            {"name": "felt_coverage", "thickness_mm": 5.0, "surface_density": 0.5},
        ]
    ),
    "before.csv": _BAND_CSV.format(name="L_r0", values="70.0,72.5,71.0,69.0"),
    "after.csv": _BAND_CSV.format(name="L_rs", values="60.0,61.5,71.5,55.0"),
    "bad-coverage.csv": _BAD_COVERAGE,
}

# command lines the parser rejects: a missing input, an option the command does not read,
# synth without --output, an unknown command
USAGE_ERRORS: tuple[tuple[str, ...], ...] = (
    ("stl",),
    ("bands", "--seed", "5"),
    ("il", "--before", "before.csv", "--after", "after.csv", "--config", "tube.ini"),
    ("stl", "run1.csv", "--config", "tube.ini", "--masslaw-constant", "normal"),
    ("synth", "limp.ini", "--config", "tube.ini"),
    ("bogus",),
)

_STL3 = ("stl", "run1.csv", "run2.csv", "run3.csv", "--config", "tube.ini", "--f-max", "2000")

RUNS: tuple[tuple[str, ...], ...] = (
    ("bands",),
    ("bands", "--f-min", "125", "--f-max", "1600", "--output", "bands.csv"),
    ("bands", "--f-max", "inf"),
    ("bands", "--f-min", "nan"),
    ("synth", "limp.ini", "--config", "tube.ini", "--output", "run1.csv"),
    ("synth", "limp.ini", "--config", "tube.ini", "--seed", "1201", "--output", "run2.csv"),
    ("synth", "limp.ini", "--config", "tube.ini", "--seed", "1202", "--output", "run3.csv"),
    ("synth", "anechoic.ini", "--config", "tube.ini", "--output", "anechoic.csv"),
    ("synth", "singular.ini", "--config", "tube.ini", "--output", "singular.csv"),
    ("synth", "limp.ini", "--output", "no-config.csv"),
    ("synth", "tiny-step.ini", "--config", "tube.ini", "--output", "tiny-step.csv"),
    ("stl", "run1.csv", "--config", "tube.ini", "--f-max", "2000"),
    *(
        _STL3
        + ("--rep-mode", rep, "--band-mode", band, "--output", f"stl-{rep}-{band}.json")
        + ("--band-csv", f"stl-{rep}-{band}-bands.csv")
        + ("--narrowband-csv", f"stl-{rep}-{band}-narrow.csv")
        for rep in ("db", "power")
        for band in ("power", "db")
    ),
    ("stl", "anechoic.csv", "--config", "tube.ini", "--output", "stl-anechoic.json"),
    ("stl", "zero-downstream.csv", "--config", "tube.ini", "--f-min", "1000", "--f-max", "1000")
    + ("--output", "stl-zero-downstream.json"),
    *(
        ("stl", f"{name}.csv", "--config", "tube.ini", "--f-min", "1000", "--f-max", "1000")
        + ("--output", f"stl-{name}.json")
        for name in ("crlf", "commented", "cr")
    ),
    ("stl", "bad-rows.csv", "--config", "tube.ini"),
    ("stl", "nan.csv", "--config", "tube.ini"),
    ("stl", "latin1.csv", "--config", "tube.ini"),
    ("stl", "badf.csv", "--config", "tube.ini"),
    ("stl", "dec.csv", "--config", "tube.ini"),
    ("stl", "gapped-nan.csv", "--config", "tube.ini"),
    ("stl", "whitespace-row.csv", "--config", "tube.ini"),
    ("stl", "missing.csv", "--config", "tube.ini"),
    ("stl", "run1.csv", "--config", "before.csv"),
    ("stl", "run1.csv", "--config", "tube.ini", "--f-max", "inf"),
    *(
        ("masslaw", "--materials", "materials.json", "--masslaw-constant", constant)
        + ("--output", f"masslaw-{constant}.json", "--band-csv", f"masslaw-{constant}.csv")
        for constant in ("paper", "normal")
    ),
    ("masslaw", "--materials", "materials.json", "--f-max", "inf"),
    ("masslaw", "--materials", "huge-thickness.json"),
    ("masslaw", "--materials", "deep.json"),
    ("masslaw", "--materials", "coverage-names.json", "--band-csv", "coverage-names.csv")
    + ("--output", "masslaw-coverage-names.json"),
    ("il", "--before", "before.csv", "--after", "after.csv", "--output", "il.json", "--band-csv", "il.csv"),
    ("il", "--before", "before.csv", "--after", "missing.csv"),
    ("il", "--before", "bad-coverage.csv", "--after", "after.csv"),
    *(
        ("stack", "--stack", "layers.json", "--band-mode", band, "--config", "tube.ini")
        + ("--f-min", "500", "--f-max", "1600", "--output", f"stack-{band}.json")
        + ("--band-csv", f"stack-{band}.csv")
        for band in ("power", "db")
    ),
    # full-precision band values on a grid whose bins are not round numbers
    ("stack", "--stack", "mixed.json", "--band-mode", "db", "--f-step", "0.37", "--f-max", "2000")
    + ("--band-csv", "stack-mixed.csv", "--output", "stack-mixed.json"),
    # 17 001 bins: above 16 384 complex bins numpy computes temporaries in place, where complex
    # products can round differently, so some last-bit changes show only on a grid this large
    ("stack", "--stack", "twin-matrix.json", "--f-step", "0.1", "--f-max", "1800")
    + ("--band-csv", "stack-large.csv", "--output", "stack-large.json"),
    ("stack", "--stack", "opaque.json", "--f-max", "1000", "--output", "stack-opaque.json"),
    ("stack", "--stack", "overflow.json", "--f-max", "1000", "--output", "stack-overflow.json"),
    ("stack", "--stack", "subnormal.json", "--f-max", "1000", "--output", "stack-subnormal.json"),
    ("stack", "--stack", "bad-layer.json"),
    *(("stack", "--stack", name) for name in ("huge-layer.json", "huge-entry.json", "digits.json", "deep.json")),
    ("stack", "--stack", "layers.json", "--f-max", "inf"),
    ("stack", "--stack", "layers.json", "--f-step", "1e-12"),
    *USAGE_ERRORS,
)

_TIMESTAMP = re.compile(r'("timestamp": )"[^"]*"')


@dataclass(frozen=True)
class Run:
    argv: tuple[str, ...]
    code: int | None  # None when something escaped main()
    escaped: str | None
    stdout: str
    stderr: str

    def log(self) -> str:
        return (
            f"$ tubeloss {' '.join(self.argv)}\n"
            f"exit: {self.code if self.escaped is None else 'escaped ' + self.escaped}\n"
            f"--- stdout\n{self.stdout}--- stderr\n{self.stderr}\n"
        )


def _mask(text: str) -> str:
    return _TIMESTAMP.sub(r'\1"<masked>"', text)


def run_one(argv) -> Run:
    """Run ``main(argv)`` in-process with stdout and stderr captured.

    A warning that leaves ``main()`` would reach a user's terminal, so it is
    written to the captured stderr, in order, as ``<category>: <message>``.
    """
    out, err = io.StringIO(), io.StringIO()
    code, escaped = None, None

    def show(message, category, *_args, **_kwargs):
        err.write(f"{category.__name__}: {message}\n")

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = show
            try:
                code = main(list(argv))
            except (Exception, SystemExit) as exc:
                escaped = f"{type(exc).__name__}: {exc}"
    return Run(tuple(argv), code, escaped, _mask(out.getvalue()), err.getvalue())


@contextlib.contextmanager
def inside(directory):
    """Make ``directory`` the working directory for the body of the ``with``."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def run_corpus(outdir) -> list[Run]:
    """Write the inputs into ``outdir``, run every corpus argv there and log the runs."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, content in INPUTS.items():
        if isinstance(content, bytes):
            (outdir / name).write_bytes(content)
        else:
            (outdir / name).write_text(content)
    with inside(outdir):
        runs = [run_one(argv) for argv in RUNS]
    for path in outdir.iterdir():
        if path.suffix == ".json" and path.name not in INPUTS:
            path.write_text(_mask(path.read_text()))
    (outdir / "runs.log").write_text("".join(run.log() for run in runs))
    return runs


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/cli_corpus.py OUTDIR")
    for run in run_corpus(sys.argv[1]):
        print(f"{run.code if run.escaped is None else 'escaped'}\t{' '.join(run.argv)}")
