import argparse
import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from tubeloss import (
    DEFAULT_AIR,
    QUALITY_THRESHOLD,
    AnechoicQualityWarning,
    BandTable,
    FrequencyGrid,
    LayerModel,
    MassLawValidityWarning,
    PlaneWaveAmplitudes,
    band_average,
    band_from_nominal,
    mass_law_stl,
    stack_indicators,
    third_octave_bands,
)
from tubeloss import cli, pipeline
from tubeloss.cli import _band_block, _round_db, main
from tubeloss.io_files import load_stack, read_band_csv, read_mic_spectra, write_band_csv, write_mic_spectra
from tubeloss.pipeline import analyze_four_mic

from helpers import AIR, GEOMETRY, four_mic_spectra, noisy_spectra

CONFIG_TEXT = """
[air]
density = 1.204
sound_speed = 343.2

[tube]
mic_positions = -0.33 -0.25 0.25 0.33
sample_thickness = 0.00089
diameter = 0.0998
"""

SCENARIO_LIMP = """
[scenario]
sample = limp-mass
surface_density = 1.135
termination = anechoic
snr_db = off
seed = 0
f_min = 100
f_max = 2000
f_step = 10
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "tube.ini"
    path.write_text(CONFIG_TEXT)
    return str(path)


@pytest.fixture
def limp_scenario(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(SCENARIO_LIMP)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestSynthAndStl:
    def test_synth_writes_spectra(self, tmp_path, config, limp_scenario):
        out = tmp_path / "spectra.csv"
        assert run_cli("synth", limp_scenario, "--config", config, "--output", str(out)) == 0
        spectra, geometry, air = read_mic_spectra(out)
        assert len(spectra.grid) == 191
        assert geometry.sample_thickness == 0.00089

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_a_non_finite_surface_density_is_a_bad_scenario(self, tmp_path, capsys, config, value):
        scenario = tmp_path / "scenario.ini"
        scenario.write_text(SCENARIO_LIMP.replace("surface_density = 1.135", f"surface_density = {value}"))
        out = tmp_path / "spectra.csv"
        assert run_cli("synth", str(scenario), "--config", config, "--output", str(out)) == 2
        assert capsys.readouterr().err == f"error: {scenario}: bad scenario: layer surface_density must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("snr_db", ["40", "off"])
    @pytest.mark.parametrize("where", ["scenario", "option"])
    def test_a_negative_seed_is_one_error_line_naming_the_seed(self, tmp_path, capsys, config, where, snr_db):
        scenario = tmp_path / "scenario.ini"
        text = SCENARIO_LIMP.replace("snr_db = off", f"snr_db = {snr_db}")
        if where == "scenario":
            scenario.write_text(text.replace("seed = 0", "seed = -1"))
            argv, prefix = (), f"{scenario}: bad scenario: "
        else:
            scenario.write_text(text)
            argv, prefix = ("--seed", "-1"), ""
        out = tmp_path / "spectra.csv"
        assert run_cli("synth", str(scenario), "--config", config, "--output", str(out), *argv) == 2
        assert capsys.readouterr().err == f"error: {prefix}seed must be a non-negative integer, not -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("snr_db", ["-6200", "-7000"])
    def test_noise_past_the_float_range_is_a_bad_scenario(self, tmp_path, capsys, config, snr_db):
        # 10 ** (-snr_db / 20) is past the float range below about -6 165 dB
        scenario = tmp_path / "scenario.ini"
        scenario.write_text(SCENARIO_LIMP.replace("snr_db = off", f"snr_db = {snr_db}"))
        out = tmp_path / "spectra.csv"
        assert run_cli("synth", str(scenario), "--config", config, "--output", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: {scenario}: bad scenario: noise amplitude at snr_db = {snr_db} must be finite\n"
        )
        assert not out.exists()

    def test_an_overflowing_incident_amplitude_is_one_error_line_naming_the_scenario(self, tmp_path, capsys, config):
        scenario = tmp_path / "scenario.ini"
        scenario.write_text(SCENARIO_LIMP + "incident_amplitude = 1e308\n")
        out = tmp_path / "spectra.csv"
        assert run_cli("synth", str(scenario), "--config", config, "--output", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: {scenario}: incident_amplitude = 1e+308+0j makes the microphone pressures overflow\n"
        )
        assert not out.exists()

    def test_noise_just_inside_the_float_range_is_drawn(self, tmp_path, config):
        scenario = tmp_path / "scenario.ini"
        scenario.write_text(SCENARIO_LIMP.replace("snr_db = off", "snr_db = -6100"))
        out = tmp_path / "spectra.csv"
        assert run_cli("synth", str(scenario), "--config", config, "--output", str(out)) == 0
        spectra, _, _ = read_mic_spectra(out)
        assert np.all(np.isfinite(spectra.pressures))

    def test_stl_report_matches_oracle(self, tmp_path, config, limp_scenario):
        spectra_path = tmp_path / "spectra.csv"
        run_cli("synth", limp_scenario, "--config", config, "--output", str(spectra_path))
        report_path = tmp_path / "report.json"
        band_csv = tmp_path / "bands.csv"
        narrow_csv = tmp_path / "narrow.csv"
        code = run_cli(
            "stl",
            str(spectra_path),
            "--config",
            config,
            "--output",
            str(report_path),
            "--band-csv",
            str(band_csv),
            "--narrowband-csv",
            str(narrow_csv),
            "--f-min",
            "100",
            "--f-max",
            "2000",
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        freqs = np.array(report["narrowband"]["frequency_hz"])
        stl_db = np.array(report["narrowband"]["stl_db"], dtype=float)
        at_1000 = np.where(freqs == 1000.0)[0][0]
        assert stl_db[at_1000] == pytest.approx(18.78, abs=0.01)
        assert report["n_repetitions"] == 1
        assert all(v == 0.0 for v in report["narrowband"]["stl_spread_db"])
        assert report["modes"] == {"band_mode": "power", "rep_mode": "db"}
        assert report["config_hash"].startswith("sha256:")
        # full-precision band CSV agrees with the rounded report values
        table = read_band_csv(band_csv)["stl_db"]
        assert np.allclose(np.round(table.values, 2), np.array(report["bands"]["values_db"]))
        narrow_lines = narrow_csv.read_text().splitlines()
        assert narrow_lines[0] == "frequency_hz,stl_db,stl_spread_db,reflectance"
        first_row = [float(v) for v in narrow_lines[1].split(",")]  # plain numbers
        assert first_row[0] == 100.0

    def test_five_repetitions_have_spread(self, tmp_path, config, limp_scenario):
        files = []
        for i in range(5):
            out = tmp_path / f"rep{i}.csv"
            run_cli(
                "synth", limp_scenario, "--config", config, "--output", str(out),
                "--seed", str(1200 + i),
            )
            # noiseless scenario: add noise through the seed only if snr is on;
            # here we want identical files to verify zero spread
            files.append(str(out))
        report_path = tmp_path / "report.json"
        assert run_cli("stl", *files, "--config", config, "--output", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["n_repetitions"] == 5
        assert all(v == 0.0 for v in report["narrowband"]["stl_spread_db"])

    def test_five_noisy_repetitions_track_closed_form(self, tmp_path, config, capsys):
        # pinned seeds 1200..1204, verified once (see test_synth.py)
        scenario = tmp_path / "noisy.ini"
        scenario.write_text(SCENARIO_LIMP.replace("snr_db = off", "snr_db = 40"))
        files = []
        for i in range(5):
            out = tmp_path / f"rep{i}.csv"
            run_cli("synth", str(scenario), "--config", config, "--output", str(out), "--seed", str(1200 + i))
            files.append(str(out))
        report_path = tmp_path / "report.json"
        code = run_cli(
            "stl", *files, "--config", config, "--output", str(report_path),
            "--f-min", "125", "--f-max", "1600",
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        spread = np.array(report["narrowband"]["stl_spread_db"], dtype=float)
        assert np.any(spread > 0.0)
        # banded mean stays within 0.2 dB of the banded closed form
        freqs = np.array(report["narrowband"]["frequency_hz"])
        w = 2.0 * np.pi * freqs
        clean = 10.0 * np.log10(1.0 + (w * 1.135 / (2.0 * 1.204 * 343.2)) ** 2)
        from tubeloss import FrequencyGrid, band_average

        grid = FrequencyGrid(freqs)
        bands = third_octave_bands(125.0, 1600.0)
        reference = band_average(grid, clean, bands).values
        got = np.array(report["bands"]["values_db"], dtype=float)
        assert np.max(np.abs(got - reference)) < 0.2 + 0.005  # report rounds to 0.01
        # the noisy direct-route quality check fires on both streams
        assert any("anechoic" in w for w in report["warnings"])
        assert "anechoic" in capsys.readouterr().err

    def test_geometry_mismatch_exits_2(self, tmp_path, config, limp_scenario):
        spectra_path = tmp_path / "spectra.csv"
        run_cli("synth", limp_scenario, "--config", config, "--output", str(spectra_path))
        other_config = tmp_path / "other.ini"
        other_config.write_text(CONFIG_TEXT.replace("-0.33", "-0.35"))
        assert run_cli("stl", str(spectra_path), "--config", str(other_config)) == 2

    def test_missing_input_exits_2(self, config):
        assert run_cli("stl", "/nonexistent/file.csv", "--config", config) == 2

    def test_malformed_csv_exits_2(self, tmp_path, config):
        bad = tmp_path / "bad.csv"
        bad.write_text("# tubeloss mic spectra v1\nnot,really\n")
        assert run_cli("stl", str(bad), "--config", config) == 2

    def test_header_without_rows_is_one_error_line(self, tmp_path, config, limp_scenario, capsys):
        spectra_path = tmp_path / "spectra.csv"
        run_cli("synth", limp_scenario, "--config", config, "--output", str(spectra_path))
        head = spectra_path.read_text().splitlines()[:8]
        spectra_path.write_text("\n".join(head) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("stl", str(spectra_path), "--config", config) == 2
        assert caught == []
        assert capsys.readouterr().err == f"error: {spectra_path}: no data rows\n"

    def test_report_deterministic_except_timestamp(self, tmp_path, config, limp_scenario):
        spectra_path = tmp_path / "spectra.csv"
        run_cli("synth", limp_scenario, "--config", config, "--output", str(spectra_path))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("stl", str(spectra_path), "--config", config, "--output", str(a))
        run_cli("stl", str(spectra_path), "--config", config, "--output", str(b))
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        ra.pop("timestamp")
        rb.pop("timestamp")
        assert ra == rb

    def test_singular_bins_flagged_in_report(self, tmp_path):
        # 0.1 m spacing puts a blind bin at exactly 1716 Hz
        config = tmp_path / "tube.ini"
        config.write_text(
            "[tube]\nmic_positions = -0.35 -0.25 0.25 0.35\n"
            "sample_thickness = 0.00089\ndiameter = 0.0998\n"
        )
        scenario = tmp_path / "scenario.ini"
        scenario.write_text(
            "[scenario]\nsample = limp-mass\nsurface_density = 1.135\n"
            "f_min = 1712\nf_max = 1720\nf_step = 1\n"
        )
        spectra_path = tmp_path / "spectra.csv"
        run_cli("synth", str(scenario), "--config", str(config), "--output", str(spectra_path))
        report_path = tmp_path / "report.json"
        code = run_cli(
            "stl", str(spectra_path), "--config", str(config),
            "--output", str(report_path), "--f-min", "1600", "--f-max", "1600",
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert any("singular" in w for w in report["warnings"])
        valid = report["narrowband"]["valid"]
        freqs = report["narrowband"]["frequency_hz"]
        assert valid[freqs.index(1716.0)] is False
        # the 1600 band lost one of its bins
        assert report["bands"]["coverage"][0] < 1.0

    def test_direct_route_drops_a_bin_without_downstream_pressure(self, tmp_path, config, limp_scenario):
        spectra_path = tmp_path / "spectra.csv"
        run_cli("synth", limp_scenario, "--config", config, "--output", str(spectra_path))
        lines = spectra_path.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("1000.0,"))
        lines[row] = ",".join(lines[row].split(",")[:5] + ["0.0"] * 4)  # p3 = p4 = 0
        spectra_path.write_text("\n".join(lines) + "\n")
        report_path = tmp_path / "report.json"
        assert run_cli("stl", str(spectra_path), "--config", config, "--output", str(report_path)) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        narrowband = json.loads(report_path.read_text(), parse_constant=reject)["narrowband"]
        at_1000 = narrowband["frequency_hz"].index(1000.0)
        assert narrowband["stl_direct_db"][at_1000] is None
        assert narrowband["stl_db"][at_1000] is None

    def test_a_non_finite_config_value_names_the_config(self, tmp_path, config, limp_scenario, capsys):
        spectra_path = tmp_path / "spectra.csv"
        run_cli("synth", limp_scenario, "--config", config, "--output", str(spectra_path))
        infinite = tmp_path / "infinite.ini"
        infinite.write_text(CONFIG_TEXT.replace("density = 1.204", "density = inf"))
        capsys.readouterr()
        assert run_cli("stl", str(spectra_path), "--config", str(infinite)) == 2
        assert capsys.readouterr().err == (
            f"error: {infinite}: bad config: air density must be positive and finite, got inf\n"
        )

    def test_a_non_finite_header_value_names_the_file(self, tmp_path, config, limp_scenario, capsys):
        spectra_path = tmp_path / "spectra.csv"
        run_cli("synth", limp_scenario, "--config", config, "--output", str(spectra_path))
        text = spectra_path.read_text()
        spectra_path.write_text(text.replace("# air_density_kg_m3 = 1.204", "# air_density_kg_m3 = inf"))
        capsys.readouterr()
        assert run_cli("stl", str(spectra_path), "--config", config) == 2
        assert capsys.readouterr().err == (
            f"error: {spectra_path}: bad or missing header field: "
            "air density must be positive and finite, got inf\n"
        )

    def test_a_header_air_whose_impedance_overflows_names_the_file(self, tmp_path, config, limp_scenario, capsys):
        # each value is finite, but density * sound_speed is not: the header is refused, not compared
        spectra_path = tmp_path / "spectra.csv"
        run_cli("synth", limp_scenario, "--config", config, "--output", str(spectra_path))
        text = spectra_path.read_text()
        for key, value in (("air_density_kg_m3", "1.204"), ("air_sound_speed_m_s", "343.2")):
            text = text.replace(f"# {key} = {value}", f"# {key} = 1e300")
        spectra_path.write_text(text)
        capsys.readouterr()
        assert run_cli("stl", str(spectra_path), "--config", config) == 2
        assert capsys.readouterr() == ("", (
            f"error: {spectra_path}: bad or missing header field: "
            "air impedance density * sound_speed = inf: it and its inverse must be positive and finite\n"
        ))

    def test_overflowing_pressures_are_one_error_line(self, tmp_path, config, limp_scenario, capsys):
        spectra_path = tmp_path / "spectra.csv"
        run_cli("synth", limp_scenario, "--config", config, "--output", str(spectra_path))
        lines = spectra_path.read_text().splitlines()
        lines[8:] = [line.split(",")[0] + ",1.7e308,0,-1.7e308,0,1.7e308,0,-1.7e308,0" for line in lines[8:]]
        spectra_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("stl", str(spectra_path), "--config", config) == 2
        assert capsys.readouterr().err == "error: amplitudes must be finite at every retained frequency\n"

    def test_all_singular_exits_3(self, tmp_path):
        config = tmp_path / "tube.ini"
        config.write_text(
            "[tube]\nmic_positions = -0.35 -0.25 0.25 0.35\n"
            "sample_thickness = 0.00089\ndiameter = 0.0998\n"
        )
        scenario = tmp_path / "scenario.ini"
        scenario.write_text(
            "[scenario]\nsample = identity\nf_min = 1716\nf_max = 1716\nf_step = 1\n"
        )
        spectra_path = tmp_path / "spectra.csv"
        run_cli("synth", str(scenario), "--config", str(config), "--output", str(spectra_path))
        assert (
            run_cli("stl", str(spectra_path), "--config", str(config), "--f-min", "1600", "--f-max", "1600")
            == 3
        )


    @pytest.mark.parametrize(
        "argv, named",
        [
            (("stl", "a\x00b.csv", "--config", "tube.ini"), "a\\x00b.csv: mic-spectra"),
            (("stl", "run.csv", "--config", "a\x00b.ini"), "a\\x00b.ini: config"),
            (("il", "--before", "a\x00b.csv", "--after", "after.csv"), "a\\x00b.csv: band CSV"),
            # a missing file, or a directory, reads the same way
            (("stl", "missing.csv", "--config", "tube.ini"), "missing.csv: mic-spectra"),
            (("stl", "run.csv", "--config", "missing.ini"), "missing.ini: config"),
            (("il", "--before", "missing.csv", "--after", "after.csv"), "missing.csv: band CSV"),
            (("stack", "--stack", "missing.json"), "missing.json: stack"),
            (("stl", ".", "--config", "tube.ini"), ".: mic-spectra"),
        ],
        ids=["stl-input", "config", "il-before", "missing-stl-input", "missing-config", "missing-il-before",
             "missing-stack", "directory-stl-input"],
    )
    def test_a_nul_byte_in_an_input_path_names_the_file(self, tmp_path, monkeypatch, capsys, argv, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tube.ini").write_text(CONFIG_TEXT)
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {named} file not found or unreadable\n"


def _write_spectra(path, grid, seed) -> str:
    write_mic_spectra(path, noisy_spectra(grid, seed), GEOMETRY, AIR)
    return str(path)


class TestRepetitionsOnOneAxis:
    """``stl`` analyses its files in groups of at most 16 384 bins, one library call per group."""

    @pytest.mark.parametrize(
        "n_files, f_max, f_step, n_groups",
        [
            (1, 2000.0, 10.0, 1),
            (2, 2000.0, 10.0, 1),
            (10, 2000.0, 10.0, 1),
            (1, 1800.0, 0.1, 1),  # 17 001 bins: one file past the cap is a group of its own
            (2, 1000.0, 0.1, 2),  # 2 x 9 001 bins
            (10, 2000.0, 1.0, 2),  # 10 x 1 901 bins: 8 files, then 2
        ],
    )
    def test_each_row_has_the_bits_of_its_file_alone(self, tmp_path, config, monkeypatch, n_files, f_max, f_step, n_groups):
        grid = FrequencyGrid.from_range(100.0, f_max, f_step)
        files = [_write_spectra(tmp_path / f"rep{i}.csv", grid, 1200 + i) for i in range(n_files)]
        averaged, groups = [], []

        def average(rows, *args, **kwargs):
            averaged.append(rows)
            return average_repetitions(rows, *args, **kwargs)

        def analyze(*args, **kwargs):
            groups.append(args[0].pressures.shape[1])
            return analyze_four_mic(*args, **kwargs)

        average_repetitions = cli.average_repetitions
        monkeypatch.setattr(cli, "average_repetitions", average)
        monkeypatch.setattr(cli, "analyze_four_mic", analyze)
        assert run_cli("stl", *files, "--config", config, "--output", str(tmp_path / "r.json")) == 0
        assert len(groups) == n_groups and sum(groups) == n_files
        assert all(rows == 1 or rows * len(grid) <= 16_384 for rows in groups)
        stl_rows, reflectance_rows, direct_rows = averaged
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for row, path in enumerate(files):
                alone = analyze_four_mic(read_mic_spectra(path)[0], geometry=GEOMETRY, air=AIR)
                assert stl_rows[row].tobytes() == alone.indicators.stl_db.tobytes(), row
                assert reflectance_rows[row].tobytes() == alone.indicators.reflectance.tobytes(), row
                assert direct_rows[row].tobytes() == alone.stl_direct_db.tobytes(), row

    @pytest.fixture
    def three_files(self, tmp_path):
        """``(config, files)``: 0.1 m spacing, so both pairs are blind at 1716 Hz; only the
        middle file's termination reflects."""
        config = tmp_path / "tube.ini"
        config.write_text(
            "[tube]\nmic_positions = -0.35 -0.25 0.25 0.35\nsample_thickness = 0.00089\ndiameter = 0.0998\n"
        )
        files = []
        for i, termination in enumerate(("anechoic", "0.2+0.1j", "anechoic")):
            scenario = tmp_path / f"s{i}.ini"
            scenario.write_text(
                "[scenario]\nsample = limp-mass\nsurface_density = 1.135\n"
                f"termination = {termination}\nf_min = 1700\nf_max = 1730\nf_step = 1\n"
            )
            files.append(str(tmp_path / f"rep{i}.csv"))
            assert run_cli("synth", str(scenario), "--config", str(config), "--output", files[-1]) == 0
        return str(config), files

    @staticmethod
    def _report_warnings(config, *inputs):
        report = f"{inputs[0]}.json"
        assert run_cli("stl", *inputs, "--config", config, "--output", report) == 0
        with open(report) as f:
            return json.load(f)["warnings"]

    def test_each_files_warnings_keep_their_text_and_order(self, three_files):
        config, files = three_files
        together = self._report_warnings(config, *files)
        assert together == [w for path in files for w in self._report_warnings(config, path)]
        assert [w.split(":")[0] for w in together] == [
            files[0], files[0], "anechoic assumption violated", files[1], files[1], files[2], files[2],
        ]

    def test_each_anechoic_line_is_the_librarys_warning_for_its_file_alone(self, three_files):
        config, files = three_files
        library = []
        for path in files:
            spectra, geometry, air = read_mic_spectra(path)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                worst = analyze_four_mic(spectra, geometry=geometry, air=air).worst_quality[0]
            assert caught == []  # the library reports |D/C|; only the command judges it
            if worst > QUALITY_THRESHOLD:
                library.append(str(AnechoicQualityWarning(worst, QUALITY_THRESHOLD)))
        lines = [w for w in self._report_warnings(config, *files) if w.startswith("anechoic assumption violated")]
        assert len(library) == 1
        assert lines == library

    def test_each_file_over_the_quality_threshold_warns_once_in_file_order(self, tmp_path, config, monkeypatch, capsys):
        grid = FrequencyGrid([1000.0, 2000.0])
        # |C| = 0.5; the last file's |D/C| is exactly 0.01, which does not exceed the threshold
        d = np.array([[0.1, 0.3], [0.001, 0.0], [0.2, np.inf], [np.nan, 0.05], [0.005, 0.005]])
        rows = PlaneWaveAmplitudes(grid, np.ones((5, 2)), np.zeros((5, 2)), np.full((5, 2), 0.5), d)
        # the five files' amplitudes reach the analysis as they are, not through a decomposition;
        # no decomposition gives an infinite d, so numpy's warnings about it are not under test
        monkeypatch.setattr(pipeline, "decompose_four_mic", lambda *args: rows)
        files = []
        for i in range(5):
            files.append(str(tmp_path / f"rep{i}.csv"))
            write_mic_spectra(files[-1], four_mic_spectra(grid, GEOMETRY, 1, 0, 0.5, 0), GEOMETRY, AIR)
        capsys.readouterr()
        with np.errstate(all="ignore"):
            assert run_cli("stl", *files, "--config", config, "--output", str(tmp_path / "r.json")) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: anechoic assumption violated: max |D/C| = 0.6 exceeds 0.01",
            "warning: anechoic assumption violated: max |D/C| = 0.4 exceeds 0.01",
            f"warning: {files[2]}: downstream pair singular at [2000.0] Hz",
            "warning: anechoic assumption violated: max |D/C| = 0.1 exceeds 0.01",
            f"warning: {files[3]}: downstream pair singular at [1000.0] Hz",
        ]

    def test_the_anechoic_warning_is_an_anechoic_quality_warning(self):
        # stl issues the library's class, so a filter on AnechoicQualityWarning catches it
        grid = FrequencyGrid([1000.0])
        spectra = four_mic_spectra(grid, GEOMETRY, 1.0, 0.0, 0.5, 0.2)  # |D/C| = 0.4
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cli._analyze_group([("rep.csv", spectra)], grid, GEOMETRY, AIR)
        assert [(w.category, str(w.message)) for w in caught] == [
            (AnechoicQualityWarning, "anechoic assumption violated: max |D/C| = 0.4 exceeds 0.01")
        ]

    def test_a_later_files_read_error_wins_over_an_earlier_files_analysis_error(self, tmp_path, config, capsys):
        grid = FrequencyGrid.from_range(100.0, 2000.0, 10.0)
        overflowing = tmp_path / "overflowing.csv"
        _write_spectra(overflowing, grid, 1)
        lines = overflowing.read_text().splitlines()
        lines[8:] = [line.split(",")[0] + ",1.7e308,0,-1.7e308,0,1.7e308,0,-1.7e308,0" for line in lines[8:]]
        overflowing.write_text("\n".join(lines) + "\n")
        malformed = tmp_path / "malformed.csv"
        malformed.write_text("# tubeloss mic spectra v1\nnot,really\n")
        capsys.readouterr()
        # both files fit one group, so both are read before either is analysed
        assert run_cli("stl", str(overflowing), str(malformed), "--config", config) == 2
        assert capsys.readouterr().err == (
            f"error: {malformed}:2: unexpected column header 'not,really'\n"
        )
        assert run_cli("stl", str(overflowing), "--config", config) == 2
        assert capsys.readouterr().err == "error: amplitudes must be finite at every retained frequency\n"


class TestMasslaw:
    def test_catalog_values_at_1000_hz(self, tmp_path):
        from helpers import MATERIALS

        materials = tmp_path / "materials.json"
        materials.write_text(
            json.dumps(
                [
                    {"name": name, "thickness_mm": thickness, "surface_density": m_s}
                    for name, thickness, m_s in MATERIALS
                ]
            )
        )
        report_path = tmp_path / "masslaw.json"
        code = run_cli(
            "masslaw", "--materials", str(materials),
            "--f-min", "1000", "--f-max", "1000", "--output", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert len(report["materials"]) == 9
        by_name = {entry["name"]: entry for entry in report["materials"]}
        for name, _, m_s in MATERIALS:
            expected = mass_law_stl(1000.0, m_s)
            assert by_name[name]["bands"]["stl_db"][0] == pytest.approx(expected, abs=0.006)
        assert by_name["pure_pvc_sheet"]["bands"]["stl_db"][0] == pytest.approx(13.70, abs=0.01)
        assert by_name["pvc_coated_pe_fabric"]["bands"]["stl_db"][0] == pytest.approx(13.10, abs=0.01)
        felt = by_name["woolen_felt_soft"]
        assert felt["bands"]["stl_db"][0] == pytest.approx(-1.43, abs=0.01)
        assert felt["bands"]["below_validity"][0] is True
        assert any("below validity" in w for w in report["warnings"])

    def test_the_below_validity_warning_is_a_mass_law_validity_warning(self, tmp_path):
        # masslaw issues tubeloss's own class, so a filter on MassLawValidityWarning catches it
        materials = tmp_path / "materials.json"
        materials.write_text(json.dumps([{"name": "felt", "thickness_mm": 1.0, "surface_density": 0.01}]))
        args = cli._build_parser().parse_args(
            ["masslaw", "--materials", str(materials), "--f-min", "1000", "--f-max", "1000"]
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            args.func(args)
        assert [(w.category, str(w.message)) for w in caught] == [
            (MassLawValidityWarning, "felt: mass-law prediction below validity (negative) in bands [1000.0] Hz")
        ]

    def test_constant_switch_is_fixed_offset(self, tmp_path):
        materials = tmp_path / "materials.json"
        materials.write_text(
            json.dumps([{"name": "x", "thickness_mm": 1.0, "surface_density": 1.0}])
        )
        out_paper = tmp_path / "paper.json"
        out_normal = tmp_path / "normal.json"
        run_cli("masslaw", "--materials", str(materials), "--output", str(out_paper))
        run_cli(
            "masslaw", "--materials", str(materials),
            "--masslaw-constant", "normal", "--output", str(out_normal),
        )
        paper = json.loads(out_paper.read_text())
        normal = json.loads(out_normal.read_text())
        a = np.array(paper["materials"][0]["bands"]["stl_db"])
        b = np.array(normal["materials"][0]["bands"]["stl_db"])
        offset = normal["constant_db"] - paper["constant_db"]
        assert np.allclose(b - a, round(offset, 2), atol=0.011)

    def test_an_overflowing_surface_density_names_the_file_and_the_material(self, tmp_path, capsys):
        materials = tmp_path / "materials.json"
        materials.write_text(json.dumps([{"name": "lead", "thickness_mm": 1.0, "surface_density": 1e308}]))
        assert run_cli("masslaw", "--materials", str(materials), "--output", str(tmp_path / "m.json")) == 2
        assert capsys.readouterr().err == f"error: {materials}: lead: f * m_s overflows\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["materials.json"]

    def test_a_coverage_suffixed_name_is_refused_before_writing(self, tmp_path, capsys):
        materials = tmp_path / "materials.json"
        materials.write_text(
            json.dumps(
                [
                    {"name": "felt", "thickness_mm": 1.0, "surface_density": 1.0},
                    {"name": "felt_coverage", "thickness_mm": 2.0, "surface_density": 2.0},
                ]
            )
        )
        band_csv, report_path = tmp_path / "m.csv", tmp_path / "m.json"
        argv = ("masslaw", "--materials", str(materials), "--band-csv", str(band_csv))
        assert run_cli(*argv, "--output", str(report_path)) == 2
        assert capsys.readouterr().err == (
            "error: table name 'felt_coverage' may not end in '_coverage'\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["materials.json"]


    @pytest.mark.parametrize("names, row", [(("a", "a"), "a"), (("a,b", "a b"), "a b")], ids=["equal", "comma"])
    @pytest.mark.parametrize("band_csv", [False, True], ids=["report", "band-csv"])
    def test_two_materials_of_one_band_csv_row_are_refused(self, tmp_path, capsys, names, row, band_csv):
        materials = tmp_path / "materials.json"
        records = [{"name": name, "thickness_mm": 1.0, "surface_density": 1.0} for name in ("sheet", *names)]
        materials.write_text(json.dumps(records))
        argv = ["masslaw", "--materials", str(materials), "--output", str(tmp_path / "m.json")]
        assert run_cli(*argv, *(["--band-csv", str(tmp_path / "m.csv")] if band_csv else [])) == 2
        message = f"materials #2 '{names[0]}' and #3 '{names[1]}' share the band-CSV row name '{row}'"
        assert capsys.readouterr() == ("", f"error: {materials}: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["materials.json"]


class TestInsertionLoss:
    def test_wiring_identity(self, tmp_path):
        bands = third_octave_bands(100.0, 5000.0)
        source = BandTable.from_values(bands, np.full(len(bands), 70.0))
        flat = BandTable.from_values(bands, np.full(len(bands), 11.0))
        before = tmp_path / "before.csv"
        after = tmp_path / "after.csv"
        write_band_csv(before, {"L_r0": source})
        write_band_csv(after, {"L_rs": BandTable.from_values(bands, source.values - flat.values)})
        report_path = tmp_path / "il.json"
        band_csv = tmp_path / "il_bands.csv"
        code = run_cli(
            "il", "--before", str(before), "--after", str(after),
            "--output", str(report_path), "--band-csv", str(band_csv),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["bands"]["il_db"] == [11.0] * len(bands)
        table = read_band_csv(band_csv)["il_db"]
        assert np.array_equal(table.values, np.full(len(bands), 11.0))

    def test_peak_value_example(self, tmp_path):
        bands = (band_from_nominal(630.0),)
        write_band_csv(tmp_path / "b.csv", {"L_r0": BandTable.from_values(bands, [70.0])})
        write_band_csv(tmp_path / "a.csv", {"L_rs": BandTable.from_values(bands, [59.0])})
        report_path = tmp_path / "il.json"
        run_cli(
            "il", "--before", str(tmp_path / "b.csv"), "--after", str(tmp_path / "a.csv"),
            "--output", str(report_path),
        )
        assert json.loads(report_path.read_text())["bands"]["il_db"] == [11.0]

    def test_a_file_without_the_named_row_falls_back_to_its_first_table(self, tmp_path):
        bands = (band_from_nominal(500.0),)
        write_band_csv(tmp_path / "b.csv", {"room": BandTable.from_values(bands, [70.0])})
        write_band_csv(
            tmp_path / "a.csv",
            {"first": BandTable.from_values(bands, [59.0]), "second": BandTable.from_values(bands, [65.0])},
        )
        report_path = tmp_path / "il.json"
        code = run_cli(
            "il", "--before", str(tmp_path / "b.csv"), "--after", str(tmp_path / "a.csv"),
            "--output", str(report_path),
        )
        assert code == 0
        assert json.loads(report_path.read_text())["bands"]["il_db"] == [11.0]

    def test_band_mismatch_exits_2(self, tmp_path):
        write_band_csv(
            tmp_path / "b.csv",
            {"L_r0": BandTable.from_values((band_from_nominal(500.0),), [70.0])},
        )
        write_band_csv(
            tmp_path / "a.csv",
            {"L_rs": BandTable.from_values((band_from_nominal(630.0),), [59.0])},
        )
        assert (
            run_cli("il", "--before", str(tmp_path / "b.csv"), "--after", str(tmp_path / "a.csv"))
            == 2
        )

    def test_a_rejected_band_table_names_its_file(self, tmp_path, capsys):
        write_band_csv(tmp_path / "a.csv", {"L_rs": BandTable.from_values((band_from_nominal(500.0),), [59.0])})
        (tmp_path / "b.csv").write_text("band_nominal_hz,500\nL_r0,70.0\nL_r0_coverage,2.0\n")
        assert run_cli("il", "--before", str(tmp_path / "b.csv"), "--after", str(tmp_path / "a.csv")) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'b.csv'}: table 'L_r0': coverage must lie in [0, 1]\n"

    def test_negative_il_warns_but_succeeds(self, tmp_path):
        bands = (band_from_nominal(500.0),)
        write_band_csv(tmp_path / "b.csv", {"L_r0": BandTable.from_values(bands, [60.0])})
        write_band_csv(tmp_path / "a.csv", {"L_rs": BandTable.from_values(bands, [61.0])})
        report_path = tmp_path / "il.json"
        code = run_cli(
            "il", "--before", str(tmp_path / "b.csv"), "--after", str(tmp_path / "a.csv"),
            "--output", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["bands"]["il_db"] == [-1.0]
        assert any("negative" in w for w in report["warnings"])


class TestStack:
    def test_stack_beats_light_layer(self, tmp_path):
        stack = tmp_path / "stack.json"
        stack.write_text(
            json.dumps(
                [
                    {"kind": "limp-mass", "surface_density": 0.224},
                    {"kind": "air-gap", "thickness": 0.005},
                    {"kind": "limp-mass", "surface_density": 1.135},
                ]
            )
        )
        report_path = tmp_path / "stack.json.out"
        code = run_cli(
            "stack", "--stack", str(stack),
            "--f-min", "500", "--f-max", "1600", "--f-step", "5",
            "--output", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        stack_values = np.array(report["bands"]["values_db"], dtype=float)
        light = next(
            c for c in report["constituents"]
            if c["layer"]["kind"] == "limp-mass" and c["layer"]["surface_density"] == 0.224
        )
        light_values = np.array(light["bands"]["values_db"], dtype=float)
        assert np.all(stack_values > light_values)

    def test_a_one_bin_grid_at_a_large_frequency_runs(self, tmp_path):
        stack = tmp_path / "stack.json"
        stack.write_text(json.dumps([{"kind": "identity"}]))
        report_path = tmp_path / "report.json"
        argv = ("stack", "--stack", str(stack), "--f-min", "1e16", "--f-max", "1e16", "--f-step", "1")
        assert run_cli(*argv, "--output", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["narrowband"] == {"frequency_hz": [1e16], "stl_db": [0.0]}
        assert report["bands"]["nominal_hz"] == [1e16]

    def test_a_step_that_rounds_two_bins_onto_one_double_exits_2_naming_the_step(self, tmp_path, capsys):
        stack = tmp_path / "stack.json"
        stack.write_text(json.dumps([{"kind": "identity"}]))
        argv = ("--f-min", "4503599627370495.5", "--f-max", "4503599627370506", "--f-step", "1")
        assert run_cli("stack", "--stack", str(stack), *argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: step 1.0 rounds two bins onto one double; doubles at f_max are 1.0 apart"]

    def test_identity_stack_is_transparent(self, tmp_path):
        stack = tmp_path / "stack.json"
        stack.write_text(json.dumps([{"kind": "identity"}]))
        report_path = tmp_path / "report.json"
        code = run_cli(
            "stack", "--stack", str(stack),
            "--f-min", "500", "--f-max", "1000", "--output", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert all(v == 0.0 for v in report["narrowband"]["stl_db"])

    @pytest.mark.parametrize(
        "records",
        [[{"kind": "porous"}], [1], [None], ["limp-mass"]],
        ids=["porous", "number", "null", "string"],
    )
    def test_unknown_layer_kind_exits_2(self, tmp_path, capsys, records):
        stack = tmp_path / "stack.json"
        stack.write_text(json.dumps(records))
        assert run_cli("stack", "--stack", str(stack)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "bad layer #1: " in err[0]

    @pytest.mark.parametrize(
        "text, message",
        [
            ('[{"kind": "limp-mass", "surface_density": 1e400}]', "#1: layer surface_density must be finite"),
            ('[{"kind": "limp-mass", "surface_density": NaN}]', "#1: layer surface_density must be finite"),
            ('[{"kind": "identity"}, {"kind": "air-gap", "thickness": Infinity}]', "#2: layer thickness must be finite"),
            (
                '[{"kind": "matrix", "t11": [1, 0], "t12": [0, NaN], "t21": [0, 0], "t22": [1, 0]}]',
                "#1: layer t12 must be finite",
            ),
            (
                '[{"kind": "matrix", "t11": [1, 0], "t12": [0, 0], "t21": [0, 0], "t22": [1, 0], "thickness": NaN}]',
                "#1: layer thickness must be finite",
            ),
            # a negative parameter keeps its message
            ('[{"kind": "limp-mass", "surface_density": -1e400}]', "#1: limp-mass layer needs a non-negative surface_density"),
        ],
        ids=["1e400", "nan", "infinity-second", "nan-entry", "nan-thickness", "-1e400"],
    )
    def test_a_non_finite_layer_parameter_exits_2(self, tmp_path, capsys, text, message):
        stack = tmp_path / "stack.json"
        stack.write_text(text)
        report_path = tmp_path / "report.json"
        assert run_cli("stack", "--stack", str(stack), "--output", str(report_path)) == 2
        assert capsys.readouterr().err == f"error: {stack}: bad layer {message}\n"
        assert not report_path.exists()

    def test_a_message_holding_line_breaks_is_one_error_line(self, tmp_path, capsys):
        # every character str.splitlines() breaks a line at
        kind = "a\nb\rc\r\nd\x0be\x0cf\x1cg\x1dh\x1ei\x85j\u2028k\u2029l"
        stack = tmp_path / "stack.json"
        stack.write_text(json.dumps([{"kind": kind}]))
        assert run_cli("stack", "--stack", str(stack)) == 2
        assert capsys.readouterr().err == (
            f"error: {stack}: bad layer #1: unknown kind "
            "'a\\nb\\rc\\r\\nd\\x0be\\x0cf\\x1cg\\x1dh\\x1ei\\x85j\\u2028k\\u2029l'\n"
        )

    def test_every_c0_control_but_tab_is_escaped(self, tmp_path, capsys):
        kind = "".join(f"{chr(code)}{code}" for code in range(32))
        stack = tmp_path / "stack.json"
        stack.write_text(json.dumps([{"kind": kind}]))
        assert run_cli("stack", "--stack", str(stack)) == 2
        err = capsys.readouterr().err
        # each written as repr() writes it; the tab is kept as is
        shown = repr(kind).replace("\\t", "\t")
        assert err == f"error: {stack}: bad layer #1: unknown kind {shown}\n"
        assert not any(chr(code) in err[:-1] for code in range(32) if code != 9)

    def test_opaque_layer_keeps_numpy_warnings_out(self, tmp_path, capsys):
        stack = tmp_path / "stack.json"
        stack.write_text(json.dumps([{"kind": "limp-mass", "surface_density": 1e300}]))
        report_path = tmp_path / "report.json"
        assert run_cli("stack", "--stack", str(stack), "--output", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert not [w for w in report["warnings"] if "encountered in" in w]
        assert "encountered in" not in capsys.readouterr().err
        assert all(v == float("inf") for v in report["bands"]["values_db"])

    def test_overflowing_stack_keeps_numpy_warnings_out(self, tmp_path, capsys):
        heavy = {"kind": "limp-mass", "surface_density": 1e305}
        stack = tmp_path / "stack.json"
        stack.write_text(json.dumps([heavy, {"kind": "air-gap", "thickness": 0.05}, heavy]))
        report_path = tmp_path / "report.json"
        assert run_cli("stack", "--stack", str(stack), "--f-max", "1000", "--output", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert not [w for w in report["warnings"] if "encountered in" in w]
        assert "encountered in" not in capsys.readouterr().err
        # the overflowed bins are marked invalid, not reported as numbers
        assert report["narrowband"]["stl_db"] == [None] * len(report["narrowband"]["frequency_hz"])

    def test_a_subnormal_denominator_drops_its_bins_without_numpy_warnings(self, tmp_path, capsys):
        # t12 = 3.3e-320 and nothing else: the anechoic denominator is subnormal, 2 / den overflows
        layer = {"kind": "matrix", "t11": [0, 0], "t12": [3.3e-320, 0], "t21": [0, 0], "t22": [0, 0]}
        stack = tmp_path / "stack.json"
        stack.write_text(json.dumps([layer]))
        report_path = tmp_path / "report.json"
        assert run_cli("stack", "--stack", str(stack), "--f-max", "1000", "--output", str(report_path)) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(report_path.read_text())
        assert report["warnings"] == []
        assert report["narrowband"]["stl_db"] == [None] * len(report["narrowband"]["frequency_hz"])
        assert set(report["bands"]["values_db"]) == {None}

    @pytest.mark.parametrize("band_mode", ["power", "db"])
    def test_each_layer_is_evaluated_once(self, tmp_path, monkeypatch, band_mode):
        # the matrix and the 1e305 mass (whose omega m_s overflows) take the general path, the gap its parameters
        records = [
            {
                "kind": "matrix", "t11": [0.9, 0.1], "t12": [200.0, 30.0], "t21": [0.0005, 0.0001],
                "t22": [0.9, 0.1], "thickness": 0.02,
            },
            {"kind": "identity"},
            {"kind": "limp-mass", "surface_density": 1e305},
            {"kind": "air-gap", "thickness": 0.05},
        ]
        stack = tmp_path / "stack.json"
        stack.write_text(json.dumps(records))
        layers = load_stack(stack)
        evaluated = []
        evaluate = LayerModel._loss_and_factor  # the one per-layer call of stack_indicators, either path

        def counted(layer, *args, **kwargs):
            evaluated.append(layer)
            return evaluate(layer, *args, **kwargs)

        monkeypatch.setattr(LayerModel, "_loss_and_factor", counted)
        report_path = tmp_path / "report.json"
        argv = ("stack", "--stack", str(stack), "--band-mode", band_mode, "--f-step", "0.37")
        assert run_cli(*argv, "--output", str(report_path)) == 0
        assert evaluated == list(layers)

        # each constituent reads as that layer stacked alone
        grid = FrequencyGrid.from_range(100.0, 5000.0, 0.37)
        bands = third_octave_bands(100.0, 5000.0)

        def block(stack_layers):
            single, _ = stack_indicators(stack_layers, grid, DEFAULT_AIR, bands=bands)
            narrow = np.where(single.valid, single.stl_db, np.nan)
            return json.loads(json.dumps(_band_block(band_average(grid, narrow, bands, mode=band_mode))))

        report = json.loads(report_path.read_text())
        assert [c["bands"] for c in report["constituents"]] == [block((layer,)) for layer in layers]
        assert report["bands"] == block(layers)

    def test_constituents_round_as_each_layer_alone(self, tmp_path, monkeypatch):
        # the stack rounds every layer's table in one _round_db call; these bands are the ones
        # it sends to Python's round: a NaN band (at --f-step 50 no bin lands in 125 Hz's
        # 111-140 Hz), +inf (a 1e300 kg/m2 mass), one of 1e6 dB or more, and 10.344999999999999
        # dB (this mass's 100 Hz band), within 1e-6 of a half step once scaled by 100
        records = [
            {"kind": "limp-mass", "surface_density": 4.123157161581102},
            {"kind": "air-gap", "thickness": 0.05},
            {"kind": "limp-mass", "surface_density": 1e300},
            {"kind": "limp-mass", "surface_density": 2.0},
        ]
        stack = tmp_path / "stack.json"
        stack.write_text(json.dumps(records))
        tables = []

        def scaled_last(*args, **kwargs):
            # no layer's own loss reaches 1e6 dB (its transmission coefficient is a finite
            # double, so |L| < 7000 dB): the last table is scaled past it
            product, layer_tables = stack_indicators(*args, **kwargs)
            last = layer_tables[-1]
            tables.extend((*layer_tables[:-1], BandTable(last.bands, 1e5 * last.values, last.coverage)))
            return product, tuple(tables)

        monkeypatch.setattr(cli, "stack_indicators", scaled_last)
        report_path = tmp_path / "report.json"
        argv = ("stack", "--stack", str(stack), "--f-max", "1000", "--f-step", "50", "--output", str(report_path))
        assert run_cli(*argv) == 0
        values = np.concatenate([table.values for table in tables])
        assert np.isnan(values).any() and np.isposinf(values).any()
        assert (np.abs(values[np.isfinite(values)]) >= 1e6).any()
        scaled = 100 * values[np.isfinite(values)]
        assert (np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6).any()
        report = json.loads(report_path.read_text())
        got = [c["bands"]["values_db"] for c in report["constituents"]]
        assert json.dumps(got) == json.dumps([_round_db(table.values) for table in tables])

    # after its imports the child caps its address space at 32 MiB above what it maps, so the
    # first arrays of a 980 001-bin grid are refused instead of filling the host's memory
    _LIMITED_MAIN = """import resource, sys
from tubeloss.cli import main
with open("/proc/self/statm") as statm:
    cap = int(statm.read().split()[0]) * resource.getpagesize() + 32 * 1024**2
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
sys.exit(main(sys.argv[1:]))
"""

    def test_a_refused_allocation_is_one_error_line(self, tmp_path):
        pytest.importorskip("resource")
        if not os.path.exists("/proc/self/statm"):
            pytest.skip("needs /proc/self/statm to size the cap")
        # one layer on 980 001 bins: each complex matrix entry alone is 15 MiB
        stack = tmp_path / "wide.json"
        stack.write_text(json.dumps([{"kind": "limp-mass", "surface_density": 0.6}]))
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run(
            [sys.executable, "-c", self._LIMITED_MAIN, "stack", "--stack", str(stack), "--f-step", "0.005"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        lines = done.stderr.splitlines()
        assert (done.returncode, len(lines)) == (2, 1), done.stderr
        assert lines[0].startswith("error: ") and "(980001,)" in lines[0], lines

    def test_a_memory_error_without_a_message_still_names_its_cause(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "stack_indicators", refuse)
        stack = tmp_path / "stack.json"
        stack.write_text(json.dumps([{"kind": "identity"}]))
        capsys.readouterr()
        assert run_cli("stack", "--stack", str(stack)) == 2
        assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.parametrize(
        "density, sound_speed, impedance",
        [("1e300", "1e300", "inf"), ("1e-200", "1e-200", "0.0"), ("1e-160", "1e-150", "1e-310")],
        ids=["impedance overflows", "impedance underflows to 0", "its inverse overflows"],
    )
    @pytest.mark.parametrize("command", ["stack", "masslaw"])
    def test_air_whose_impedance_or_its_inverse_is_not_finite_is_a_bad_config(
        self, tmp_path, capsys, command, density, sound_speed, impedance
    ):
        config = tmp_path / "air.ini"
        config.write_text(CONFIG_TEXT.replace("1.204", density).replace("343.2", sound_speed))
        inputs = tmp_path / "inputs.json"
        if command == "stack":
            layers = [{"kind": "limp-mass", "surface_density": 0.6}, {"kind": "air-gap", "thickness": 0.05}]
            inputs.write_text(json.dumps(layers))
            argv = ("stack", "--stack", str(inputs))
        else:
            inputs.write_text(json.dumps([{"name": "sheet", "thickness_mm": 0.89, "surface_density": 1.135}]))
            argv = ("masslaw", "--materials", str(inputs), "--masslaw-constant", "normal")
        capsys.readouterr()
        assert run_cli(*argv, "--config", str(config)) == 2
        message = f"bad config: air impedance density * sound_speed = {impedance}: it and its inverse must be"
        assert capsys.readouterr() == ("", f"error: {config}: {message} positive and finite\n")


class TestBandsCommand:
    def test_lists_18_bands(self, tmp_path, capsys):
        assert run_cli("bands", "--f-min", "100", "--f-max", "5000") == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l]
        assert lines[0] == "band_nominal_hz,exact_center_hz,lower_edge_hz,upper_edge_hz"
        assert len(lines) == 19
        assert lines[1].startswith("100,")

    def test_csv_output(self, tmp_path):
        out = tmp_path / "bands.csv"
        assert run_cli("bands", "--f-min", "1000", "--f-max", "1000", "--output", str(out)) == 0
        text = out.read_text().splitlines()
        assert len(text) == 2
        assert text[1].startswith("1000,1000.0,")


class TestOutputPaths:
    """Every command writes its files by one rule, whatever the option."""

    @pytest.fixture
    def work(self, tmp_path, monkeypatch):
        """A working directory inside ``tmp_path`` holding a config, a scenario and materials."""
        work = tmp_path / "work"
        work.mkdir()
        (work / "tube.ini").write_text(CONFIG_TEXT)
        (work / "limp.ini").write_text(SCENARIO_LIMP)
        (work / "m.json").write_text(json.dumps([{"name": "x", "thickness_mm": 1.0, "surface_density": 0.1}]))
        monkeypatch.chdir(work)
        return work

    @pytest.mark.parametrize(
        "argv",
        [
            ("bands", "--output"),
            ("synth", "limp.ini", "--config", "tube.ini", "--output"),
            ("masslaw", "--materials", "m.json", "--output"),
            ("masslaw", "--materials", "m.json", "--band-csv"),
            ("stl", "run.csv", "--config", "tube.ini", "--narrowband-csv"),
        ],
        ids=["bands", "synth", "report", "band-csv", "narrowband-csv"],
    )
    def test_an_empty_path_is_an_input_error_that_writes_nothing(self, work, capsys, argv):
        assert run_cli("synth", "limp.ini", "--config", "tube.ini", "--output", "run.csv") == 0
        names = sorted(p.name for p in work.parent.rglob("*"))
        assert run_cli(*argv, "") == 2
        assert capsys.readouterr() == ("", "error: output path is empty\n")
        assert sorted(p.name for p in work.parent.rglob("*")) == names

    @pytest.mark.parametrize(
        "argv, what",
        [
            (("masslaw", "--materials", "m.json", "--config", ""), "config"),
            (("stack", "--stack", "s.json", "--config", ""), "config"),
            (("stl", "run.csv", "--config", ""), "config"),
            (("synth", "limp.ini", "--config", ""), "config"),
            (("stl", "", "--config", "tube.ini"), "mic-spectra"),
            (("il", "--before", "", "--after", "b.csv"), "band CSV"),
            (("stack", "--stack", ""), "stack"),
            (("masslaw", "--materials", ""), "materials"),
            (("synth", "", "--config", "tube.ini"), "scenario"),
        ],
        ids=["masslaw-config", "stack-config", "stl-config", "synth-config", "stl-input", "il-before",
             "stack", "materials", "scenario"],
    )
    def test_an_empty_input_path_is_an_input_error_that_writes_nothing(self, work, capsys, argv, what):
        (work / "s.json").write_text(json.dumps([{"kind": "identity"}]))
        assert run_cli("synth", "limp.ini", "--config", "tube.ini", "--output", "run.csv") == 0
        assert run_cli("masslaw", "--materials", "m.json", "--output", "m-report.json", "--band-csv", "b.csv") == 0
        capsys.readouterr()
        names = sorted(p.name for p in work.parent.rglob("*"))
        outputs = ("--output", "out.csv") if argv[0] == "synth" else ("--output", "out.json", "--band-csv", "out.csv")
        assert run_cli(*argv, *outputs) == 2
        assert capsys.readouterr() == ("", f"error: {what} path is empty\n")
        assert sorted(p.name for p in work.parent.rglob("*")) == names

    @pytest.mark.parametrize("option", ["--output", "--band-csv"])
    @pytest.mark.parametrize("linked", [False, True], ids=["fifo", "symlink-to-fifo"])
    def test_a_fifo_is_refused_and_kept(self, work, capsys, option, linked):
        # a FIFO made here stands for any device: never try this on a real device node
        os.mkfifo(work / "pipe")
        target = "pipe"
        if linked:
            os.symlink("pipe", work / "link")
            target = "link"
        assert run_cli("masslaw", "--materials", "m.json", option, target) == 2
        assert capsys.readouterr().err == f"error: {target}: not a regular file; refusing to replace it\n"
        assert stat.S_ISFIFO(os.lstat(work / "pipe").st_mode)
        assert {p.name for p in work.iterdir()} == {"limp.ini", "m.json", "tube.ini", "pipe", target}

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("masslaw", "--materials", "m.json", "--output", "r.json"), "--band-csv"),
            (("stl", "run.csv", "--config", "tube.ini", "--output", "r.json"), "--narrowband-csv"),
            (("synth", "limp.ini", "--config", "tube.ini"), "--output"),
            (("bands",), "--output"),
        ],
        ids=["band-csv", "narrowband-csv", "synth", "bands"],
    )
    def test_a_dash_is_standard_output_with_the_bytes_of_the_file(self, work, capsys, argv, option):
        assert run_cli("synth", "limp.ini", "--config", "tube.ini", "--output", "run.csv") == 0
        assert run_cli(*argv, option, "out.txt") == 0
        capsys.readouterr()
        assert run_cli(*argv, option, "-") == 0
        assert capsys.readouterr().out == (work / "out.txt").read_bytes().decode()
        assert not (work / "-").exists()

    # every command line is run in one process whose umask is 027
    _MAIN_UNDER_UMASK = """import os, sys
os.umask(0o027)
from tubeloss.cli import main
sys.exit(max([main(argv.split()) for argv in sys.argv[1:]]))
"""

    def test_a_new_file_gets_the_umask_mode_and_a_replaced_file_keeps_its_mode(self, work):
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        argvs = [
            "synth limp.ini --config tube.ini --output run.csv",
            "stl run.csv --config tube.ini --output stl.json --narrowband-csv narrow.csv",
            "masslaw --materials m.json --output m-report.json --band-csv bands.csv",
            "bands --output list.csv",
        ]
        outputs = ("run.csv", "stl.json", "narrow.csv", "m-report.json", "bands.csv", "list.csv")

        def modes():
            done = subprocess.run([sys.executable, "-c", self._MAIN_UNDER_UMASK, *argvs], capture_output=True,
                                  text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            return {name: stat.S_IMODE(os.stat(work / name).st_mode) for name in outputs}

        assert modes() == dict.fromkeys(outputs, 0o640)  # as open(path, "w") would make them
        for i, name in enumerate(outputs):
            os.chmod(work / name, 0o600 + 4 * (i % 2))
        assert modes() == {name: 0o600 + 4 * (i % 2) for i, name in enumerate(outputs)}
        assert sorted(p.name for p in work.iterdir()) == sorted({"limp.ini", "m.json", "tube.ini", *outputs})

    @pytest.mark.parametrize(
        "target, message",
        [
            ("adir", "[Errno 21] Is a directory: 'adir'"),
            ("missing/x.json", "[Errno 2] No such file or directory: 'missing/x.json'"),
        ],
    )
    def test_a_failed_write_names_the_path_as_given(self, work, capsys, target, message):
        (work / "adir").mkdir()
        for _ in range(2):  # the same path fails the same way every run
            assert run_cli("masslaw", "--materials", "m.json", "--output", target) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(p.name for p in work.rglob("*")) == ["adir", "limp.ini", "m.json", "tube.ini"]


def _full_parse(argv):
    return cli._build_parser().parse_args(argv)


def _parse_outcome(parse, argv) -> tuple:
    """``("namespace", items)``, ``("usage", message)`` or ``("exit", code, stdout)`` of one parse."""
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            namespace = parse(argv)
        # repr compares NaN with NaN and tells -0.0 from 0.0; a function's repr is its identity
        return "namespace", sorted((key, repr(value)) for key, value in vars(namespace).items())
    except cli._UsageError as exc:
        return "usage", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, stdout.getvalue()


def _main_outcome(argv, parse=None) -> tuple:
    """``(exit code, stdout, stderr)`` of ``main(argv)``, parsing with ``parse`` if given."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        if parse is not None:
            stack.enter_context(mock.patch.object(cli, "_parse_args", parse))
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


# tokens no command declares, or spells otherwise: unknown options, the top parser's own options,
# abbreviations (unique, ambiguous and none), attached values and the end-of-options marker
ODD_TOKENS = (
    "--", "--bogus", "-x", "--version", "--vers", "-h", "--help", "--=x", "--=", "---", "-",
    "--f-st", "--narrow", "--conf", "--f-m", "--band", "--mat", "--b", "-o", "-ox", "-o=x",
    "--f-min=2", "--f-st=0.5", "--band-mode=db", "--output=", "--seed=-1",
)
VALUES = ("in.csv", "", "1", "-1", "1e3", "x", "nan", "-5e-324", "db", "power", "paper", "normal", "a b")


def _good_values(keywords: dict) -> tuple:
    """Values an option declared with ``keywords`` accepts."""
    if "choices" in keywords:
        return tuple(keywords["choices"])
    return ("1", "-1", "2e3", "0") if keywords.get("type") in (float, int) else ("p.csv", "-")


@st.composite
def command_lines(draw) -> list:
    """A command line that begins with a command name, drawn mostly from that command's options."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    declared = cli._COMMANDS[command][1]
    options = [(flag, keywords) for flags, keywords in declared for flag in flags if flag[0] == "-"]
    # a value for each required option and positional, so that some draws parse
    required = [
        token for flags, keywords in declared if flags[0][0] != "-" or keywords.get("required")
        for token in ((flags[0], "p.csv") if flags[0][0] == "-" else ("in.csv",))
    ]
    pieces = {
        "required": st.just(tuple(required)),
        "option and good value": st.sampled_from([(flag, v) for flag, kw in options for v in _good_values(kw)]),
        "option and any value": st.tuples(st.sampled_from([flag for flag, _ in options]), st.sampled_from(VALUES)),
        "option": st.tuples(st.sampled_from([flag for flag, _ in options])),
        "odd token": st.tuples(st.sampled_from(ODD_TOKENS)),
        "value": st.tuples(st.sampled_from(VALUES)),
    }
    kinds = st.sampled_from(["option and good value"] * 3 + ["required"] * 2 + list(pieces))
    return [command, *(token for kind in draw(st.lists(kinds, max_size=6)) for token in draw(pieces[kind]))]


def _first_ambiguous_option(argv) -> str:
    """The one-command parser's refusal of ``argv``: its first ambiguous argument before any ``--``.

    An argument is ambiguous when its part before any ``=`` names none of the
    command's long options and begins two or more of them.
    """
    options = ["--help", *(flag for flags, _ in cli._COMMANDS[argv[0]][1] for flag in flags if flag[:2] == "--")]
    for arg in argv[1 : argv.index("--") if "--" in argv else None]:
        prefix = arg.split("=", 1)[0]
        matches = [option for option in options if option.startswith(prefix)]
        if arg[:2] == "--" and prefix not in options and len(matches) > 1:
            return f"tubeloss {argv[0]}: ambiguous option: {arg} could match {', '.join(matches)}"
    raise AssertionError(f"no ambiguous option in {argv}")


class TestOneParserPerRun:
    """A command line naming its command first takes that command's parser alone, with the same result."""

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_each_commands_help_is_the_full_parsers(self, command, flag):
        one = _parse_outcome(cli._parse_args, [command, flag])
        assert one == _parse_outcome(_full_parse, [command, flag])
        assert one[:2] == ("exit", 0) and one[2].startswith(f"usage: tubeloss {command} [-h]")

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(argv=command_lines())
    def test_a_drawn_command_line_parses_as_the_full_parser_parses_it(self, argv):
        one = _parse_outcome(cli._parse_args, argv)
        event(one[0])  # the share of each outcome shows with pytest --hypothesis-show-statistics
        head = argv[: argv.index("--")] if "--" in argv else argv
        if any(arg.startswith("--=") for arg in head):
            # the full parser's top level refuses this between its --help and --version; the
            # command's parser, which alone reads it, refuses its first ambiguous option
            message = _first_ambiguous_option(argv)
            assert one == ("usage", message)
            assert _main_outcome(argv) == (2, "", f"error: {message}\n")
            return
        assert one == _parse_outcome(_full_parse, argv)
        if one[0] == "usage":
            # main words the refusal alike: exit 2 and one error line
            code, stdout, stderr = _main_outcome(argv)
            assert (code, stdout, stderr) == _main_outcome(argv, parse=_full_parse)
            assert code == 2 and stdout == "" and stderr.count("\n") == 1
            assert stderr.startswith("error: tubeloss")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--=x", "stl", "in.csv"], "tubeloss: ambiguous option: --=x could match --help, --version"),
            (["stl", "in.csv", "--bogus", "-x"], "tubeloss: unrecognized arguments: --bogus -x"),
            (["stack", "--stack", "s.json", "--version"], "tubeloss: unrecognized arguments: --version"),
            (["stack", "--f-st"], "tubeloss stack: argument --f-step: expected one argument"),
            (["masslaw", "--f-m", "1"], "tubeloss masslaw: ambiguous option: --f-m could match --f-min, --f-max"),
            (["il", "--before", "a"], "tubeloss il: the following arguments are required: --after"),
        ],
    )
    def test_a_refused_command_line_keeps_the_full_parsers_error_line(self, argv, message):
        assert _main_outcome(argv) == (2, "", f"error: {message}\n")
        assert _main_outcome(argv, parse=_full_parse) == (2, "", f"error: {message}\n")

    def test_a_dashes_equals_argument_after_the_command_names_the_commands_options(self):
        # '--=x' abbreviates every long option of the parser that reads it; before the command, that
        # is the full parser's top level (pinned in test_a_refused_command_line_keeps_the_full_parsers_error_line)
        message = (
            "tubeloss stl: ambiguous option: --=x could match --help, --config, --band-mode, --f-min, --f-max, "
            "--band-csv, --output, --rep-mode, --narrowband-csv"
        )
        assert _main_outcome(["stl", "in.csv", "--=x"]) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["stl", "--narrow", "n.csv", "-o", "-", "--rep", "power", "-o", "r.json", "--", "-a.csv"],
                {"narrowband_csv": "n.csv", "output": "r.json", "rep_mode": "power", "inputs": ["-a.csv"]},
            ),
            (["stack", "--f-st", "5", "--stack=s.json", "-o-"], {"f_step": 5.0, "stack": "s.json", "output": "-"}),
        ],
    )
    def test_abbreviations_repeats_and_the_end_of_options_parse_alike(self, argv, expected):
        one = vars(cli._parse_args(argv))
        assert one == vars(_full_parse(argv))
        assert one["command"] == argv[0] and one["func"] is getattr(cli, f"_cmd_{argv[0]}")
        assert {key: one[key] for key in expected} == expected

    @pytest.fixture
    def parsers_built(self, monkeypatch):
        """The list of parsers built, by class, while the test runs."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **keywords):
            built.append(type(self))
            init(self, *args, **keywords)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        return built

    def test_stl_and_stack_build_one_parser(self, tmp_path, config, limp_scenario, parsers_built):
        spectra, stack = tmp_path / "run.csv", tmp_path / "stack.json"
        stack.write_text(json.dumps([{"kind": "limp-mass", "surface_density": 1.0}]))
        assert run_cli("synth", limp_scenario, "--config", config, "--output", str(spectra)) == 0
        del parsers_built[:]
        assert run_cli("stl", str(spectra), "--config", config, "--output", str(tmp_path / "stl.json")) == 0
        assert parsers_built == [cli._Parser]
        del parsers_built[:]
        assert run_cli("stack", "--stack", str(stack), "--output", str(tmp_path / "stack.out")) == 0
        assert parsers_built == [cli._Parser]

    @pytest.mark.parametrize(
        "argv", [["--help"], ["--version"], ["bogus"], [], ["--config", "x", "stl", "in.csv"], ["st"]]
    )
    def test_any_other_command_line_builds_the_full_parser(self, argv, parsers_built, capsys):
        try:
            assert main(argv) == 2
        except SystemExit as exc:
            assert exc.code == 0
        assert parsers_built == [cli._Parser] * (1 + len(cli._COMMANDS))


def python_round(v: float, decimals: int):
    """What a report shows for one value: ``round``, with NaN as null and +-inf kept."""
    if math.isnan(v):
        return None
    return round(v, decimals) if math.isfinite(v) else v


# the decimal half steps 0.005, 0.015, ..., 2.675 of a 2-decimal report, and of 6 decimals;
# np.round disagrees with round on many of them
HALF_STEPS_2 = [(k + 0.5) / 100 for k in range(268)]
HALF_STEPS_6 = [(k + 0.5) / 1e6 for k in (0, 1, 2, 7, 12, 999, 123456, 2674999)]
EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e6 + 0.005, -1e6 - 0.005, 1e300, -1e300, 1.7e308]
NON_FINITE = [math.inf, -math.inf, math.nan]


class TestRoundDb:
    @pytest.mark.parametrize("decimals", [2, 6])
    def test_matches_python_round_at_half_steps_and_edges(self, decimals):
        half_steps = HALF_STEPS_2 + HALF_STEPS_6
        values = half_steps + [-v for v in half_steps] + EDGES + NON_FINITE
        got = _round_db(values, decimals)
        for v, rounded in zip(values, got):
            assert repr(rounded) == repr(python_round(v, decimals)), v

    def test_one_value_at_a_time(self):
        for decimals in (2, 6):
            for v in HALF_STEPS_2 + EDGES + NON_FINITE:
                assert repr(_round_db([v], decimals)[0]) == repr(python_round(v, decimals)), v

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(values=st.lists(st.floats(), max_size=30), decimals=st.sampled_from([2, 6]))
    def test_drawn_floats_match_python_round(self, values, decimals):
        got = _round_db(np.array(values, dtype=float), decimals)
        assert [repr(v) for v in got] == [repr(python_round(v, decimals)) for v in values]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        v=st.floats(allow_nan=False, allow_infinity=False),
        decimals=st.sampled_from([2, 6]),
    )
    def test_drawn_finite_float_matches_python_round(self, v, decimals):
        assert repr(_round_db([v], decimals)[0]) == repr(round(v, decimals))

    def test_keeps_numpy_warnings_out(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _round_db([math.inf, -math.inf, math.nan, 1e308], 6) == [
                math.inf, -math.inf, None, 1e308
            ]
