"""Bit-exact relations between pairs of ``stl`` runs through :func:`tubeloss.cli.main`.

The inputs are three seeded ``synth`` files of 391 bins (245-2195 Hz at 5 Hz,
40 dB SNR, D/C = 0.2+0.1j), which reach past the plane-wave cutoff and hold
the 2145 Hz blind spot of both microphone pairs. A pair of runs whose inputs
differ runs in two directories that hold files of the same names, so that
every path in an argv, a report or a message is the same. The outputs are
compared byte for byte, each report with its timestamp masked.

- Pressures times 2^k: the band CSV, the narrowband CSV and the report keep
  their bytes.
- Every 7th bin of each file: each narrowband CSV row keeps its bytes.
- Two files in either order: both CSVs keep their bytes, and the report's
  warnings, which follow file order, are the same multiset.
- One file given twice under ``--rep-mode db``: both CSVs are those of the file
  alone.

Three files in another order are left out: a bin's three values are summed in
another association, so its averages can round differently in the last bits.
"""
import contextlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tubeloss import FrequencyGrid, MicSpectra
from tubeloss.io_files import read_mic_spectra, write_mic_spectra

from cli_corpus import CONFIG, _mask, inside, run_one

SCENARIO = """[scenario]
sample = limp-mass
surface_density = 1.135
termination = 0.2+0.1j
snr_db = 40
f_min = 245
f_max = 2195
f_step = 5
"""
FILES = ("run1.csv", "run2.csv", "run3.csv")
REP_MODES = ("db", "power")


@pytest.fixture(scope="module")
def whole(tmp_path_factory) -> Path:
    """A directory holding the config and the three ``synth`` files."""
    directory = tmp_path_factory.mktemp("relations")
    (directory / "tube.ini").write_text(CONFIG)
    (directory / "limp.ini").write_text(SCENARIO)
    with inside(directory):
        for seed, name in enumerate(FILES, start=1):
            run = run_one(["synth", "limp.ini", "--config", "tube.ini", "--seed", str(seed), "--output", name])
            assert run.code == 0, run.log()
    return directory


def stl(directory: Path, inputs, rep_mode: str = "db") -> dict:
    """The band CSV, the narrowband CSV and the masked report of one ``stl`` run in ``directory``."""
    argv = [
        "stl", *inputs, "--config", "tube.ini", "--rep-mode", rep_mode,
        "--output", "report.json", "--band-csv", "bands.csv", "--narrowband-csv", "narrow.csv",
    ]
    with inside(directory):
        run = run_one(argv)
    assert run.code == 0, run.log()
    texts = {name: (directory / name).read_bytes().decode() for name in ("bands.csv", "narrow.csv", "report.json")}
    texts["report.json"] = _mask(texts["report.json"])
    return texts


@contextlib.contextmanager
def files_from(whole: Path, change):
    """A fresh directory holding the config and, under each file's name, ``change(spectra)`` of its spectra."""
    with tempfile.TemporaryDirectory(dir=whole.parent) as name:
        directory = Path(name)
        (directory / "tube.ini").write_text(CONFIG)
        for file in FILES:
            spectra, geometry, air = read_mic_spectra(whole / file)
            write_mic_spectra(directory / file, change(spectra), geometry, air)
        yield directory


@pytest.mark.parametrize("rep_mode", REP_MODES)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(k=st.integers(-990, 1015))
@example(k=-990)
@example(k=1015)
def test_pressures_times_a_power_of_two_keep_every_byte(whole, rep_mode, k):
    def scaled(spectra):
        pressures = np.empty_like(spectra.pressures)
        pressures.real, pressures.imag = spectra.pressures.real * 2.0**k, spectra.pressures.imag * 2.0**k
        # every part stays a normal double, so each is the old part times 2^k exactly
        parts = np.abs([pressures.real, pressures.imag])
        assert np.all((parts >= np.finfo(float).tiny) & (parts < np.inf))
        return MicSpectra(spectra.grid, pressures)

    with files_from(whole, scaled) as directory:
        assert stl(directory, FILES, rep_mode) == stl(whole, FILES, rep_mode)


@pytest.mark.parametrize("rep_mode", REP_MODES)
@pytest.mark.parametrize("start", range(7))  # start 2 holds the 2145 Hz blind spot
def test_every_7th_bin_keeps_its_narrowband_row(whole, rep_mode, start):
    def every_7th(spectra):
        return MicSpectra(FrequencyGrid(spectra.grid.frequencies[start::7]), spectra.pressures[:, start::7])

    with files_from(whole, every_7th) as directory:
        head, *rows = stl(directory, FILES, rep_mode)["narrow.csv"].splitlines()
    whole_head, *whole_rows = stl(whole, FILES, rep_mode)["narrow.csv"].splitlines()
    assert [head, *rows] == [whole_head, *whole_rows[start::7]]


@pytest.mark.parametrize("rep_mode", REP_MODES)
@pytest.mark.parametrize("pair", [FILES[:2], FILES[1:], FILES[::2]])
def test_two_files_in_either_order_give_the_same_csvs_and_warnings(whole, rep_mode, pair):
    forward, backward = stl(whole, pair, rep_mode), stl(whole, pair[::-1], rep_mode)
    for name in ("bands.csv", "narrow.csv"):
        assert forward[name] == backward[name]
    # the report's inputs and warnings follow file order; the rest of it keeps its values
    reports = [json.loads(out["report.json"]) for out in (forward, backward)]
    for report in reports:
        report["inputs"].sort()
        report["warnings"].sort()
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name", FILES)
def test_one_file_given_twice_gives_the_csvs_of_the_file_alone(whole, name):
    twice, alone = stl(whole, [name, name]), stl(whole, [name])
    for output in ("bands.csv", "narrow.csv"):
        assert twice[output] == alone[output]
