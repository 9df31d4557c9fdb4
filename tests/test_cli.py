import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubeloss import (
    DEFAULT_AIR,
    BandTable,
    FrequencyGrid,
    LayerModel,
    band_average,
    band_from_nominal,
    mass_law_stl,
    stack_indicators,
    third_octave_bands,
)
from tubeloss.cli import _band_block, _round_db, main
from tubeloss.io_files import load_stack, read_band_csv, read_mic_spectra, write_band_csv

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
        assert len(spectra[0].grid) == 191
        assert geometry.sample_thickness == 0.00089

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
    def test_each_layer_matrix_is_built_once(self, tmp_path, monkeypatch, band_mode):
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
        built = []
        matrix_on = LayerModel.matrix_on

        def counted(layer, *args, **kwargs):
            built.append(layer)
            return matrix_on(layer, *args, **kwargs)

        monkeypatch.setattr(LayerModel, "matrix_on", counted)
        report_path = tmp_path / "report.json"
        argv = ("stack", "--stack", str(stack), "--band-mode", band_mode, "--f-step", "0.37")
        assert run_cli(*argv, "--output", str(report_path)) == 0
        assert built == list(layers)

        # each constituent reads as that layer stacked alone
        grid = FrequencyGrid.from_range(100.0, 5000.0, 0.37)
        bands = third_octave_bands(100.0, 5000.0)

        def block(stack_layers):
            single = stack_indicators(stack_layers, grid, DEFAULT_AIR)
            narrow = np.where(single.valid, single.stl_db, np.nan)
            return json.loads(json.dumps(_band_block(band_average(grid, narrow, bands, mode=band_mode))))

        report = json.loads(report_path.read_text())
        assert [c["bands"] for c in report["constituents"]] == [block((layer,)) for layer in layers]
        assert report["bands"] == block(layers)


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
