import json

import numpy as np
import pytest

from tubeloss import (
    AirProperties,
    BandTable,
    ConfigMismatchError,
    FrequencyGrid,
    InputFormatError,
    LayerModel,
    SynthScenario,
    TubeGeometry,
    band_from_nominal,
    synth_mic_pressures,
    third_octave_bands,
)
from tubeloss.io_files import (
    config_hash,
    dump_config,
    load_config,
    load_materials,
    load_scenario,
    load_stack,
    read_band_csv,
    read_mic_spectra,
    require_header_matches,
    write_band_csv,
    write_mic_spectra,
)

from helpers import AIR, GEOMETRY

CONFIG_TEXT = """
[air]
density = 1.204
sound_speed = 343.2
temperature = 23.7
relative_humidity = 66.3

[tube]
mic_positions = -0.33 -0.25 0.25 0.33
sample_thickness = 0.00089
diameter = 0.0998
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "tube.ini"
    path.write_text(CONFIG_TEXT)
    return path


def synth_spectra(grid=None):
    grid = grid or FrequencyGrid.from_range(100.0, 500.0, 100.0)
    scenario = SynthScenario(sample=LayerModel.limp_mass(1.135), geometry=GEOMETRY, air=AIR)
    return synth_mic_pressures(scenario, grid)


class TestConfig:
    def test_load(self, config_path):
        air, geometry = load_config(config_path)
        assert air.density == 1.204
        assert air.temperature == 23.7
        assert geometry.mic_positions == (-0.33, -0.25, 0.25, 0.33)
        assert geometry.sample_thickness == 0.00089
        assert geometry.tube_diameter == 0.0998

    def test_air_defaults_apply(self, tmp_path):
        path = tmp_path / "min.ini"
        path.write_text("[tube]\nmic_positions = -0.3, -0.2, 0.2, 0.3\nsample_thickness = 0.001\ndiameter = 0.1\n")
        air, geometry = load_config(path)
        assert air.density == 1.204
        assert air.sound_speed == 343.2
        assert geometry.mic_positions == (-0.3, -0.2, 0.2, 0.3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError):
            load_config(tmp_path / "nope.ini")

    def test_missing_tube_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[air]\ndensity = 1.2\n")
        with pytest.raises(InputFormatError):
            load_config(path)

    @pytest.mark.parametrize(
        "text", ["band_nominal_hz,500\n", "[tube]\n[tube]\n", "[tube]\nno value here\n"],
        ids=["csv", "duplicate-section", "bad-line"],
    )
    def test_not_ini_is_a_one_line_format_error(self, tmp_path, text):
        path = tmp_path / "not.ini"
        path.write_text(text)
        with pytest.raises(InputFormatError, match="config file is not INI") as info:
            load_config(path)
        assert "\n" not in str(info.value)

    def test_hash_stable_and_sensitive(self, config_path):
        air, geometry = load_config(config_path)
        h1 = config_hash(air, geometry)
        h2 = config_hash(air, geometry)
        assert h1 == h2 and h1.startswith("sha256:")
        other = AirProperties(density=1.3)
        assert config_hash(other, geometry) != h1
        assert "tube.mic_positions" in dump_config(air, geometry)


class TestMicSpectraCsv:
    def test_round_trip_byte_identical(self, tmp_path):
        spectra = synth_spectra()
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_mic_spectra(first, spectra, GEOMETRY, AIR)
        loaded, geometry, air = read_mic_spectra(first)
        write_mic_spectra(second, loaded, geometry, air)
        assert first.read_bytes() == second.read_bytes()

    def test_values_survive(self, tmp_path):
        spectra = synth_spectra()
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, spectra, GEOMETRY, AIR)
        loaded, geometry, air = read_mic_spectra(path)
        for original, back in zip(spectra, loaded):
            assert np.array_equal(original.values, back.values)
        assert geometry == GEOMETRY
        assert air.density == AIR.density

    def test_malformed_row_reports_line(self, tmp_path):
        spectra = synth_spectra()
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, spectra, GEOMETRY, AIR)
        lines = path.read_text().splitlines()
        lines[10] = lines[10].rsplit(",", 1)[0]  # drop one column
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputFormatError) as err:
            read_mic_spectra(path)
        assert ":11:" in str(err.value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("# something else\n")
        with pytest.raises(InputFormatError):
            read_mic_spectra(path)

    def test_row_count_checked(self, tmp_path):
        spectra = synth_spectra()
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, spectra, GEOMETRY, AIR)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-1]) + "\n")  # drop last data row
        with pytest.raises(InputFormatError):
            read_mic_spectra(path)

    def test_header_mismatch_aborts(self, tmp_path):
        spectra = synth_spectra()
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, spectra, GEOMETRY, AIR)
        _, file_geometry, file_air = read_mic_spectra(path)
        other = TubeGeometry((-0.35, -0.25, 0.25, 0.35), 0.00089, 0.0998)
        with pytest.raises(ConfigMismatchError) as err:
            require_header_matches(path, file_geometry, file_air, other, AIR)
        assert "mic x1" in str(err.value)
        # matching config passes silently
        require_header_matches(path, file_geometry, file_air, GEOMETRY, AIR)


class TestBandCsv:
    def make_table(self):
        bands = third_octave_bands(100.0, 5000.0)
        values = np.linspace(5.0, 22.0, len(bands))
        values[3] = np.nan  # absent band
        coverage = np.ones(len(bands))
        coverage[3] = 0.0
        coverage[5] = 0.75
        return BandTable(bands, values, coverage)

    def test_round_trip_byte_identical(self, tmp_path):
        table = self.make_table()
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_band_csv(first, {"stl_db": table})
        back = read_band_csv(first)
        write_band_csv(second, back)
        assert first.read_bytes() == second.read_bytes()

    def test_values_and_coverage_survive(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "bands.csv"
        write_band_csv(path, {"stl_db": table})
        back = read_band_csv(path)["stl_db"]
        assert back.same_bands(table)
        assert np.array_equal(back.values, table.values, equal_nan=True)
        assert np.array_equal(back.coverage, table.coverage)

    def test_multiple_quantities(self, tmp_path):
        bands = third_octave_bands(100.0, 200.0)
        a = BandTable.from_values(bands, [70.0, 69.0, 68.0, 67.0])
        b = BandTable.from_values(bands, [59.0, 58.5, 58.0, 57.5])
        path = tmp_path / "rooms.csv"
        write_band_csv(path, {"L_r0": a, "L_rs": b})
        back = read_band_csv(path)
        assert set(back) == {"L_r0", "L_rs"}
        assert np.array_equal(back["L_rs"].values, b.values)

    def test_coverage_defaults_when_missing(self, tmp_path):
        path = tmp_path / "minimal.csv"
        path.write_text("band_nominal_hz,500,630\nL_r0,70.0,\n")
        table = read_band_csv(path)["L_r0"]
        assert table.coverage.tolist() == [1.0, 0.0]
        assert np.isnan(table.values[1])

    def test_bad_nominal_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("band_nominal_hz,507\nx,1.0\n")
        with pytest.raises(InputFormatError):
            read_band_csv(path)

    def test_column_count_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("band_nominal_hz,500,630\nL_r0,70.0\n")
        with pytest.raises(InputFormatError) as err:
            read_band_csv(path)
        assert ":2:" in str(err.value)


class TestStackAndMaterials:
    def test_stack_loads(self, tmp_path):
        path = tmp_path / "stack.json"
        path.write_text(
            json.dumps(
                [
                    {"kind": "limp-mass", "surface_density": 0.224},
                    {"kind": "air-gap", "thickness": 0.005},
                    {"kind": "matrix", "t11": [1, 0], "t12": [0, 50], "t21": [0, 0], "t22": [1, 0]},
                ]
            )
        )
        layers = load_stack(path)
        assert layers[0].kind == "limp-mass"
        assert layers[1].thickness == 0.005
        assert layers[2].matrix[1] == 50j

    def test_stack_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputFormatError):
            load_stack(path)
        path.write_text("[]")
        with pytest.raises(InputFormatError):
            load_stack(path)
        path.write_text('[{"kind": "mystery"}]')
        with pytest.raises(InputFormatError):
            load_stack(path)

    def test_materials_load_and_validate(self, tmp_path):
        path = tmp_path / "materials.json"
        path.write_text(
            json.dumps(
                [
                    {"name": "pure_pvc_sheet", "thickness_mm": 1.012, "surface_density": 1.216},
                    {
                        "name": "pvc_coated_pe_fabric",
                        "thickness_mm": 0.89,
                        "surface_density": 1.135,
                        "bulk_density": 1275.3,
                    },
                ]
            )
        )
        materials = load_materials(path)
        assert materials[0].surface_density == 1.216
        assert materials[1].bulk_density == 1275.3

    def test_materials_consistency_enforced(self, tmp_path):
        path = tmp_path / "materials.json"
        path.write_text(
            json.dumps(
                [{"name": "x", "thickness_mm": 1.0, "surface_density": 1.0, "bulk_density": 2000.0}]
            )
        )
        with pytest.raises(InputFormatError):
            load_materials(path)


class TestScenario:
    def test_load_limp_mass(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(
            "[scenario]\nsample = limp-mass\nsurface_density = 1.135\n"
            "termination = anechoic\nsnr_db = 40\nseed = 7\n"
            "f_min = 100\nf_max = 2000\nf_step = 10\n"
        )
        scenario, grid = load_scenario(path, GEOMETRY, AIR)
        assert scenario.sample[0].surface_density == 1.135
        assert scenario.snr_db == 40.0
        assert scenario.seed == 7
        assert scenario.termination_ratio == 0j
        assert len(grid) == 191

    def test_load_stack_reference(self, tmp_path):
        stack = tmp_path / "stack.json"
        stack.write_text(json.dumps([{"kind": "limp-mass", "surface_density": 0.5}]))
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\nsample = stack\nstack_file = stack.json\n")
        scenario, _ = load_scenario(path, GEOMETRY, AIR)
        assert scenario.sample[0].surface_density == 0.5

    def test_complex_termination(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\nsample = identity\ntermination = 0.2+0.1j\n")
        scenario, _ = load_scenario(path, GEOMETRY, AIR)
        assert scenario.termination_ratio == pytest.approx(0.2 + 0.1j)

    def test_bad_sample_kind(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\nsample = foam\n")
        with pytest.raises(InputFormatError):
            load_scenario(path, GEOMETRY, AIR)


def test_band_from_nominal_accepts_csv_formatting():
    # values formatted with %g survive the nominal lookup
    for nominal in (100.0, 3150.0, 5000.0):
        assert band_from_nominal(float(format(nominal, "g"))).nominal == nominal
