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

``corpus_digests.json`` next to this module holds :func:`digests` of the
corpus, which ``test_cli_corpus.py`` compares with every test run. numpy's
float64 ``log10``, ``power``, ``exp`` and ``log`` kernels differ in the last
bits between its SIMD dispatch classes, so each class has its own manifest
(:func:`manifest`): ``corpus_digests.json`` holds ``X86_V4`` (AVX-512), and
``corpus_digests_X86_V3.json`` the same host with those kernels switched off
by ``NPY_DISABLE_CPU_FEATURES="AVX512_ICL AVX512_SPR X86_V4"``. A change that
alters the corpus on purpose rewrites the running class's manifest with::

    PYTHONPATH=src python tests/cli_corpus.py --write-digests OUTDIR
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import shlex
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


def _every_row(pressures: str) -> str:
    """``_ZERO_DOWNSTREAM`` with the eight pressure fields of each row replaced by ``pressures``."""
    return "".join(
        line + "\n" if line.startswith(("#", "frequency")) else f"{line.split(',')[0]},{pressures}\n"
        for line in _ZERO_DOWNSTREAM.splitlines()
    )


# pressures of +-1.7e308 Pa: a file that reads, but whose amplitudes overflow
_OVERFLOWING = _every_row("1.7e308,0,-1.7e308,0,1.7e308,0,-1.7e308,0")
# every pressure 0 Pa, at bins off the blind spots: A = D = 0, so every denominator vanishes
_SILENT = _every_row("0,0,0,0,0,0,0,0")
# a finite p1 of 1e200 Pa at 900 Hz: T of about 1e-200 is kept, but |T|^2 underflows, so the loss is +inf
# and the bin is reported invalid
_HUGE_PRESSURE = _ZERO_DOWNSTREAM.replace("900,1.22062,", "900,1e200,")
# a nan frequency on line 10; a frequency of 950 after 1000 on line 11
_NAN_FREQUENCY = _ZERO_DOWNSTREAM.replace("\n1000,", "\nnan,")
_DECREASING = _ZERO_DOWNSTREAM.replace("\n1100,", "\n950,")
# a Latin-1 byte (0xfc) in a comment line
_NOT_UTF8 = _ZERO_DOWNSTREAM.replace("# tube_diameter_m", "# J\u00fcrgen's sheet\n# tube_diameter_m").encode(
    "latin-1"
)

_BAND_CSV = "band_nominal_hz,500,630,800,1000\n{name},{values}\n{name}_coverage,1.0,1.0,1.0,1.0\n"
# an infinite level in the 630 Hz band
_INF_LEVEL = _BAND_CSV.format(name="L_r0", values="70.0,inf,71.0,69.0")
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
    # 6 001 bins up to 6 100 Hz, past the cutoff and over two blind spots of both pairs
    "wide.ini": _SCENARIO.format(
        surface_density=1.135, termination="0.2+0.1j", snr_db=40, f_max=6100, f_step=1
    ),
    # the limp.ini sheet on a 20 Hz grid, which no file on the 10 Hz grid can be averaged with
    "coarse.ini": _SCENARIO.format(
        surface_density=1.135, termination="0.2+0.1j", snr_db=40, f_max=2000, f_step=20
    ),
    # a noise amplitude of 10 ** 350, past the float range
    "loud-noise.ini": _SCENARIO.format(
        surface_density=1.135, termination="anechoic", snr_db=-7000, f_max=2000, f_step=10
    ),
    # the sample matrix overflows, so the synthetic field cannot be solved
    "singular.ini": _SCENARIO.format(
        surface_density=1e308, termination="anechoic", snr_db="off", f_max=2000, f_step=10
    ),
    # a stack sample whose stack file is missing
    "missing-stack.ini": "[scenario]\nsample = stack\nstack_file = missing.json\n",
    # a stack file whose name holds a NUL byte, which no file name can
    "nul-stack.ini": "[scenario]\nsample = stack\nstack_file = a\x00b.json\n",
    # a NaN termination ratio and a NaN incident amplitude
    "nan-termination.ini": _SCENARIO.format(
        surface_density=1.135, termination="nan", snr_db="off", f_max=2000, f_step=10
    ),
    "nan-incident.ini": _SCENARIO.format(
        surface_density=1.135, termination="anechoic", snr_db="off", f_max=2000, f_step=10
    )
    + "incident_amplitude = nan\n",
    # a NaN surface density, which the sign check alone let through
    "nan-mass.ini": _SCENARIO.format(
        surface_density="nan", termination="anechoic", snr_db="off", f_max=2000, f_step=10
    ),
    # a negative seed with noise on, which numpy's generator would reject unnamed
    "negative-seed.ini": _SCENARIO.format(
        surface_density=1.135, termination="anechoic", snr_db=40, f_max=2000, f_step=10
    ).replace("seed = 1200", "seed = -1"),
    # an incident amplitude of 1e300 Pa: the pressures fit the float range, every later stage overflows
    "huge-incident.ini": _SCENARIO.format(
        surface_density=1.135, termination="anechoic", snr_db="off", f_max=2000, f_step=10
    )
    + "incident_amplitude = 1e300\n",
    # mics 0.1 m apart put the first blind spot of both pairs at 1716 Hz, the one bin of this grid
    "blind-tube.ini": CONFIG.replace("-0.33 -0.25 0.25 0.33", "-0.35 -0.25 0.25 0.35"),
    "blind.ini": "[scenario]\nsample = identity\nf_min = 1716\nf_max = 1716\nf_step = 1\n",
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
    "overflowing.csv": _OVERFLOWING,
    "silent.csv": _SILENT,
    "huge-pressure.csv": _HUGE_PRESSURE,
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
    # k L overflows at every bin, so every entry of the gap's matrix is NaN
    "long-gap.json": json.dumps([{"kind": "air-gap", "thickness": 1e308}]),
    # t12 = 1e-200 and nothing else: |T| is about 8e202, so |T|^2 overflows while T is finite
    "huge-transmission.json": json.dumps(
        [{"kind": "matrix", "t11": [0, 0], "t12": [1e-200, 0], "t21": [0, 0], "t22": [0, 0]}]
    ),
    # a line break in a layer kind and in a material name, each quoted in a message
    "newline-kind.json": json.dumps([{"kind": "a\nb"}]),
    "newline-name.json": json.dumps([{"name": "a\nb", "thickness_mm": 0.01, "surface_density": 0.01}]),
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
    # a material thickness and surface density past the float range
    "inf-thickness.json": '[{"name": "sheet", "thickness_mm": 1e400, "surface_density": 1.135}]',
    "inf-mass.json": '[{"name": "sheet", "thickness_mm": 0.89, "surface_density": 1e400}]',
    "digits.json": '[{"kind": "limp-mass", "surface_density": 1' + "0" * 4300 + "}]",
    "deep.json": "[" * 100_000 + "]" * 100_000,
    # non-finite layer parameters: a float literal past the float range, NaN and Infinity tokens
    "1e400-mass.json": '[{"kind": "limp-mass", "surface_density": 1e400}]',
    "nan-mass.json": '[{"kind": "limp-mass", "surface_density": NaN}]',
    "infinite-gap.json": '[{"kind": "identity"}, {"kind": "air-gap", "thickness": Infinity}]',
    "nan-entry.json": '[{"kind": "matrix", "t11": [1, 0], "t12": [0, NaN], "t21": [0, 0], "t22": [1, 0]}]',
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
    "bad-material.json": "[1]",
    # two materials whose band CSV rows are both named 'foil thin'
    "row-names.json": json.dumps(
        [
            {"name": "foil,thin", "thickness_mm": 0.01, "surface_density": 0.01},
            {"name": "foil thin", "thickness_mm": 0.02, "surface_density": 0.02},
        ]
    ),
    "before.csv": _BAND_CSV.format(name="L_r0", values="70.0,72.5,71.0,69.0"),
    "after.csv": _BAND_CSV.format(name="L_rs", values="60.0,61.5,71.5,55.0"),
    "bad-coverage.csv": _BAD_COVERAGE,
    "inf-level.csv": _INF_LEVEL,
    # finite levels of 1e308 and -1e308 in the 630 Hz band, whose difference overflows
    "huge-before.csv": _BAND_CSV.format(name="L_r0", values="70.0,1e308,71.0,69.0"),
    "huge-after.csv": _BAND_CSV.format(name="L_rs", values="60.0,-1e308,71.5,55.0"),
    # a misspelt key, a section spelt with a capital, and a key the sample kind or layer kind does not
    # use: each is refused, naming the key and the closest declared one
    "sound-sped.ini": CONFIG.replace("sound_speed = 343.2", "sound_sped = 500"),
    "capital-air.ini": CONFIG.replace("[air]", "[Air]"),
    "snr-bd.ini": _SCENARIO.format(
        surface_density=1.135, termination="anechoic", snr_db=40, f_max=2000, f_step=10
    ).replace("snr_db", "snr_bd"),
    "gap-mass.ini": "[scenario]\nsample = air-gap\ngap_thickness = 0.05\nsurface_density = 1.135\n",
    "gap-extras.json": json.dumps(
        [{"kind": "air-gap", "thickness": 0.01, "surface_density": 3, "passive_symmetric": True}]
    ),
    "bulk-densty.json": json.dumps(
        [{"name": "sheet", "thickness_mm": 0.89, "surface_density": 1.135, "bulk_densty": 99999}]
    ),
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
    # an empty output path is an input error, never standard output
    ("bands", "--output", ""),
    ("synth", "limp.ini", "--config", "tube.ini", "--output", "run1.csv"),
    ("synth", "limp.ini", "--config", "tube.ini", "--seed", "1201", "--output", "run2.csv"),
    ("synth", "limp.ini", "--config", "tube.ini", "--seed", "1202", "--output", "run3.csv"),
    ("synth", "anechoic.ini", "--config", "tube.ini", "--output", "anechoic.csv"),
    *(
        ("synth", "wide.ini", "--config", "tube.ini", "--seed", str(1300 + i), "--output", f"wide{i}.csv")
        for i in (1, 2, 3)
    ),
    ("synth", "coarse.ini", "--config", "tube.ini", "--output", "run5.csv"),
    ("synth", "singular.ini", "--config", "tube.ini", "--output", "singular.csv"),
    ("synth", "loud-noise.ini", "--config", "tube.ini", "--output", "loud-noise.csv"),
    ("synth", "limp.ini", "--output", "no-config.csv"),
    ("synth", "tiny-step.ini", "--config", "tube.ini", "--output", "tiny-step.csv"),
    ("synth", "missing-stack.ini", "--config", "tube.ini", "--output", "missing-stack.csv"),
    ("synth", "nul-stack.ini", "--config", "tube.ini", "--output", "nul-stack.csv"),
    ("synth", "nan-termination.ini", "--config", "tube.ini", "--output", "nan-termination.csv"),
    ("synth", "nan-incident.ini", "--config", "tube.ini", "--output", "nan-incident.csv"),
    ("synth", "nan-mass.ini", "--config", "tube.ini", "--output", "nan-mass.csv"),
    ("synth", "negative-seed.ini", "--config", "tube.ini", "--output", "negative-seed.csv"),
    ("synth", "limp.ini", "--config", "tube.ini", "--seed", "-1", "--output", "negative-seed-option.csv"),
    ("synth", "huge-incident.ini", "--config", "tube.ini", "--output", "huge-incident.csv"),
    ("synth", "blind.ini", "--config", "blind-tube.ini", "--output", "blind.csv"),
    ("stl", "run1.csv", "--config", "tube.ini", "--f-max", "2000"),
    # repetitions on two grids: the second file is named
    ("stl", "run1.csv", "run5.csv", "--config", "tube.ini"),
    *(
        _STL3
        + ("--rep-mode", rep, "--band-mode", band, "--output", f"stl-{rep}-{band}.json")
        + ("--band-csv", f"stl-{rep}-{band}-bands.csv")
        + ("--narrowband-csv", f"stl-{rep}-{band}-narrow.csv")
        for rep in ("db", "power")
        for band in ("power", "db")
    ),
    # the narrowband CSV is written before the band CSV, so its failure leaves neither file
    _STL3 + ("--output", "stl-narrow-fails.json", "--band-csv", "stl-narrow-fails-bands.csv")
    + ("--narrowband-csv", "missing-dir/narrow.csv"),
    ("stl", "anechoic.csv", "--config", "tube.ini", "--output", "stl-anechoic.json"),
    # 3 x 6 001 bins: the first two files are analysed as one group of 12 002 bins, the third alone
    ("stl", "wide1.csv", "wide2.csv", "wide3.csv", "--config", "tube.ini", "--f-max", "6000")
    + ("--output", "stl-wide3.json", "--band-csv", "stl-wide3-bands.csv", "--narrowband-csv", "stl-wide3-narrow.csv"),
    ("stl", "zero-downstream.csv", "--config", "tube.ini", "--f-min", "1000", "--f-max", "1000")
    + ("--output", "stl-zero-downstream.json"),
    *(
        ("stl", f"{name}.csv", "--config", "tube.ini", "--f-min", "1000", "--f-max", "1000")
        + ("--output", f"stl-{name}.json")
        for name in ("crlf", "commented", "cr")
    ),
    ("stl", "huge-pressure.csv", "--config", "tube.ini", "--f-min", "1000", "--f-max", "1000")
    + ("--output", "stl-huge-pressure.json"),
    ("stl", "bad-rows.csv", "--config", "tube.ini"),
    # both files are read before either is analysed, so the second one's read error wins
    ("stl", "overflowing.csv", "--config", "tube.ini"),
    ("stl", "overflowing.csv", "bad-rows.csv", "--config", "tube.ini"),
    ("stl", "nan.csv", "--config", "tube.ini"),
    ("stl", "latin1.csv", "--config", "tube.ini"),
    ("stl", "badf.csv", "--config", "tube.ini"),
    ("stl", "dec.csv", "--config", "tube.ini"),
    ("stl", "gapped-nan.csv", "--config", "tube.ini"),
    ("stl", "whitespace-row.csv", "--config", "tube.ini"),
    # no bin survives: every bin is a blind spot, or none is and every denominator vanishes
    ("stl", "blind.csv", "--config", "blind-tube.ini", "--f-min", "1600", "--f-max", "1600"),
    ("stl", "silent.csv", "--config", "tube.ini"),
    # pressures of 1e300 Pa: T and R do not depend on the pressures' scale, so every bin survives
    ("stl", "huge-incident.csv", "--config", "tube.ini"),
    ("stl", "missing.csv", "--config", "tube.ini"),
    # an empty input path is an input error, as an empty output path is
    ("stl", "", "--config", "tube.ini"),
    ("stl", "run1.csv", "--config", "before.csv"),
    ("stl", "run1.csv", "--config", "tube.ini", "--f-max", "inf"),
    *(
        ("masslaw", "--materials", "materials.json", "--masslaw-constant", constant)
        + ("--output", f"masslaw-{constant}.json", "--band-csv", f"masslaw-{constant}.csv")
        for constant in ("paper", "normal")
    ),
    ("masslaw", "--materials", "materials.json", "--f-max", "inf"),
    ("masslaw", "--materials", "huge-thickness.json"),
    ("masslaw", "--materials", "inf-thickness.json"),
    ("masslaw", "--materials", "inf-mass.json"),
    ("masslaw", "--materials", "newline-name.json", "--output", "masslaw-newline-name.json"),
    ("masslaw", "--materials", "newline-name.json", "--band-csv", "newline-name.csv"),
    ("masslaw", "--materials", "deep.json"),
    # a failed write names the path as given, and no warning precedes its error line
    ("masslaw", "--materials", "materials.json", "--output", "missing-dir/report.json"),
    ("masslaw", "--materials", "materials.json", "--band-csv", ""),
    ("masslaw", "--materials", "materials.json", "--config", ""),
    ("masslaw", "--materials", "coverage-names.json", "--band-csv", "coverage-names.csv")
    + ("--output", "masslaw-coverage-names.json"),
    ("masslaw", "--materials", "bad-material.json"),
    # refused whether or not a band CSV is asked for
    ("masslaw", "--materials", "row-names.json"),
    ("il", "--before", "before.csv", "--after", "after.csv", "--output", "il.json", "--band-csv", "il.csv"),
    ("il", "--before", "before.csv", "--after", "missing.csv"),
    ("il", "--before", "bad-coverage.csv", "--after", "after.csv"),
    ("il", "--before", "inf-level.csv", "--after", "after.csv"),
    ("il", "--before", "huge-before.csv", "--after", "huge-after.csv"),
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
    ("stack", "--stack", "long-gap.json", "--f-max", "1000", "--output", "stack-long-gap.json"),
    ("stack", "--stack", "huge-transmission.json", "--f-max", "1000")
    + ("--output", "stack-huge-transmission.json"),
    ("stack", "--stack", "bad-layer.json"),
    ("stack", "--stack", "newline-kind.json"),
    *(("stack", "--stack", name) for name in ("huge-layer.json", "huge-entry.json", "digits.json", "deep.json")),
    *(
        ("stack", "--stack", name, "--output", f"stack-{name}")
        for name in ("1e400-mass.json", "nan-mass.json", "infinite-gap.json", "nan-entry.json")
    ),
    ("stack", "--stack", "layers.json", "--f-max", "inf"),
    ("stack", "--stack", "layers.json", "--f-step", "1e-12"),
    # a step below the spacing of doubles at f_max, 0.125 Hz
    ("stack", "--stack", "layers.json", "--f-min", "1e15", "--f-max", "1000000000000001", "--f-step", "0.1"),
    ("stack", "--stack", "layers.json", "--config", ""),
    *USAGE_ERRORS,
    *(
        ("stack", "--stack", "layers.json", "--config", name, "--f-max", "1000")
        for name in ("sound-sped.ini", "capital-air.ini")
    ),
    ("synth", "snr-bd.ini", "--config", "tube.ini", "--seed", "7", "--output", "snr-bd.csv"),
    ("synth", "gap-mass.ini", "--config", "tube.ini", "--output", "gap-mass.csv"),
    ("stack", "--stack", "gap-extras.json", "--f-max", "1000"),
    ("masslaw", "--materials", "bulk-densty.json"),
)

_TIMESTAMP = re.compile(r'("timestamp": )"[^"]*"')


@dataclass(frozen=True)
class Run:
    argv: tuple[str, ...]
    code: int | None  # None when something escaped main()
    escaped: str | None
    stdout: str
    stderr: str
    written: tuple[str, ...] = ()  # files of the corpus directory the run created or replaced

    def log(self) -> str:
        return (
            f"$ tubeloss {shlex.join(self.argv)}\n"
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
    runs = []
    with inside(outdir):
        for argv in RUNS:
            before = _listing(Path.cwd())
            run = run_one(argv)
            after = _listing(Path.cwd())
            written = tuple(sorted(name for name, state in after.items() if before.get(name) != state))
            runs.append(dataclasses.replace(run, written=written))
    for path in outdir.iterdir():
        if path.suffix == ".json" and path.name not in INPUTS:
            path.write_text(_mask(path.read_text()))
    (outdir / "runs.log").write_text("".join(run.log() for run in runs))
    return runs


def _listing(directory: Path) -> dict:
    """Each file of ``directory`` by name, with what changes when a writer replaces it."""
    listing = {}
    for path in directory.iterdir():
        if path.is_file():
            info = path.stat()
            listing[path.name] = (info.st_ino, info.st_mtime_ns, info.st_size)
    return listing


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dispatch_class() -> str:
    """numpy's SIMD dispatch class in this process: the highest x86-64 level it runs, else the machine."""
    from numpy._core._multiarray_umath import __cpu_features__

    levels = ("X86_V4", "X86_V3", "X86_V2")
    return next((level for level in levels if __cpu_features__.get(level)), platform.machine())


def manifest(dispatch: str) -> Path:
    """The committed digests of the corpus under numpy's dispatch class ``dispatch``."""
    name = "corpus_digests.json" if dispatch == "X86_V4" else f"corpus_digests_{dispatch}.json"
    return Path(__file__).with_name(name)


def digests(outdir, runs) -> dict:
    """The library versions and dispatch class, then each run's exit code and the sha256 of each output, masked.

    A run's outputs are its stdout, its stderr and every file it wrote, keyed
    by the run's command line.
    """
    outdir = Path(outdir)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dispatch": dispatch_class(),
        "runs": {
            shlex.join(run.argv): {
                "exit": run.code,
                "stdout": _sha256(run.stdout.encode()),
                "stderr": _sha256(run.stderr.encode()),
                "files": {name: _sha256((outdir / name).read_bytes()) for name in run.written},
            }
            for run in runs
        },
    }


if __name__ == "__main__":
    write = sys.argv[1:2] == ["--write-digests"]
    if len(sys.argv) != 2 + write:
        sys.exit("usage: python tests/cli_corpus.py [--write-digests] OUTDIR")
    runs = run_corpus(sys.argv[-1])
    for run in runs:
        print(f"{run.code if run.escaped is None else 'escaped'}\t{shlex.join(run.argv)}")
    if write:
        manifest(dispatch_class()).write_text(json.dumps(digests(sys.argv[-1], runs), indent=1) + "\n")
