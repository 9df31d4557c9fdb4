import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tubeloss
from tubeloss import (
    AirProperties,
    FrequencyGrid,
    MaterialSpec,
    MicSpectra,
    TubeGeometry,
    decompose_four_mic,
    plane_wave_cutoff,
)

from helpers import AIR, GEOMETRY, four_mic_spectra


class TestWavenumber:
    """``FrequencyGrid.wavenumbers``: k = 2 pi f / c on every bin."""

    def test_definition_collapse(self):
        # f = c / (2 pi) makes k exactly 1 rad/m
        k = FrequencyGrid([AIR.sound_speed / (2.0 * math.pi)]).wavenumbers(AIR)
        assert k[0] == pytest.approx(1.0, rel=1e-14)

    def test_direct_evaluation_1000_hz(self):
        oracle = 2.0 * math.pi * 1000.0 / 343.2
        assert FrequencyGrid([1000.0]).wavenumbers(AIR)[0] == pytest.approx(oracle, rel=1e-15)
        assert oracle == pytest.approx(18.3076, abs=5e-5)

    def test_domain_errors(self):
        # a frequency that is not positive never reaches a wavenumber: no grid holds one
        for frequencies in ([0.0], [-10.0], np.array([100.0, 0.0])):
            with pytest.raises(ValueError, match="frequencies must be positive"):
                FrequencyGrid(frequencies)

    @given(
        f=st.floats(min_value=1.0, max_value=1e5),
        scale=st.floats(min_value=1.5, max_value=8.0),
    )
    def test_linear_in_f_inverse_in_c(self, f, scale):
        base = FrequencyGrid([f]).wavenumbers(AIR)[0]
        assert FrequencyGrid([scale * f]).wavenumbers(AIR)[0] == pytest.approx(scale * base, rel=1e-12)
        faster = AirProperties(sound_speed=AIR.sound_speed * scale)
        assert FrequencyGrid([f]).wavenumbers(faster)[0] == pytest.approx(base / scale, rel=1e-12)

    def test_array_input(self):
        k = FrequencyGrid([100.0, 200.0]).wavenumbers(AIR)
        assert k.shape == (2,)
        assert k[1] == pytest.approx(2 * k[0], rel=1e-14)


class TestPlaneWaveCutoff:
    def test_direct_evaluation(self):
        oracle = 1.841 * 343.2 / (math.pi * 0.0998)
        got = plane_wave_cutoff(GEOMETRY, AIR)
        assert got == pytest.approx(oracle, rel=1e-15)
        assert got == pytest.approx(2015.2, abs=0.1)

    def test_inverse_in_diameter(self):
        wide = TubeGeometry(GEOMETRY.mic_positions, GEOMETRY.sample_thickness, 2 * GEOMETRY.tube_diameter)
        assert plane_wave_cutoff(wide, AIR) == pytest.approx(plane_wave_cutoff(GEOMETRY, AIR) / 2, rel=1e-12)

    def test_linear_in_c(self):
        fast = AirProperties(sound_speed=2 * 343.2)
        assert plane_wave_cutoff(GEOMETRY, fast) == pytest.approx(
            2 * plane_wave_cutoff(GEOMETRY, AIR), rel=1e-12
        )


class TestAirProperties:
    def test_impedance_is_product(self):
        assert AIR.impedance == pytest.approx(1.204 * 343.2, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            AirProperties(density=0.0)
        with pytest.raises(ValueError):
            AirProperties(sound_speed=-1.0)

    @pytest.mark.parametrize("field", ["density", "sound_speed"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="positive and finite"):
            AirProperties(**{field: value})

    def test_informational_fields_optional(self):
        air = AirProperties(temperature=23.7, relative_humidity=66.3)
        assert air.impedance == AIR.impedance


class TestTubeGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            TubeGeometry((-0.2, -0.3, 0.2, 0.3), 0.001, 0.1)
        with pytest.raises(ValueError):
            TubeGeometry((-0.3, -0.2, 0.3, 0.2), 0.001, 0.1)
        with pytest.raises(ValueError):
            TubeGeometry((-0.3, -0.2, 0.2, 0.3), 0.0, 0.1)
        with pytest.raises(ValueError):
            TubeGeometry((-0.3, -0.2, 0.2, 0.3), 0.001, 0.0)

    @pytest.mark.parametrize(
        "args",
        [
            ((-math.inf, -0.2, 0.2, 0.3), 0.001, 0.1),
            ((-0.3, -0.2, 0.2, math.inf), 0.001, 0.1),
            ((-0.3, math.nan, 0.2, 0.3), 0.001, 0.1),
            ((-0.3, -0.2, 0.2, 0.3), math.inf, 0.1),
            ((-0.3, -0.2, 0.2, 0.3), 0.001, math.inf),
        ],
        ids=["x1", "x4", "x2-nan", "thickness", "diameter"],
    )
    def test_non_finite_values_rejected(self, args):
        with pytest.raises(ValueError, match="finite"):
            TubeGeometry(*args)

    def test_spacings(self):
        # each pair's spacing s = 0.08 m blinds it where k s = pi, at c / (2 s) = 2145 Hz
        x1, x2, x3, x4 = GEOMETRY.mic_positions
        assert (x2 - x1, x4 - x3) == (pytest.approx(0.08), pytest.approx(0.08))
        grid = FrequencyGrid([2000.0, AIR.sound_speed / (2.0 * 0.08)])
        spectra = four_mic_spectra(grid, GEOMETRY, 1.0, 0.2, 0.5, 0.1)
        singular = decompose_four_mic(spectra, GEOMETRY, AIR).singular_frequencies()
        assert singular["upstream"].tolist() == singular["downstream"].tolist() == [2145.0]


class TestFrequencyGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyGrid([])
        with pytest.raises(ValueError):
            FrequencyGrid([100.0, 100.0])
        with pytest.raises(ValueError):
            FrequencyGrid([200.0, 100.0])
        with pytest.raises(ValueError):
            FrequencyGrid([0.0, 100.0])
        with pytest.raises(ValueError):
            FrequencyGrid([100.0, np.inf])

    @pytest.mark.parametrize("frequencies", [[0.0], [-10.0], [100.0, 0.0]])
    def test_a_frequency_that_is_not_positive_is_rejected(self, frequencies):
        # the constructor's own rejection is TestWavenumber.test_domain_errors
        with pytest.raises(ValueError, match="frequencies must be positive"):
            FrequencyGrid.from_range(frequencies[-1], 100.0, 10.0)

    def test_from_range_inclusive(self):
        grid = FrequencyGrid.from_range(100.0, 2000.0, 10.0)
        assert len(grid) == 191
        assert grid.frequencies[0] == 100.0
        assert grid.frequencies[-1] == 2000.0

    def test_from_range_caps_the_bin_count(self):
        assert len(FrequencyGrid.from_range(1.0, 1_000_000.0, 1.0)) == 1_000_000
        for f_max, step in ((1_000_001.0, 1.0), (5000.0, 1e-12)):
            with pytest.raises(ValueError, match="grid would have more than 1000000 bins"):
                FrequencyGrid.from_range(1.0, f_max, step)

    def test_wavenumbers_never_stale(self):
        grid = FrequencyGrid([100.0, 200.0])
        k_default = grid.wavenumbers(AIR)
        k_fast = grid.wavenumbers(AirProperties(sound_speed=686.4))
        assert np.allclose(k_fast, k_default / 2.0)

    def test_immutable(self):
        grid = FrequencyGrid([100.0, 200.0])
        with pytest.raises(ValueError):
            grid.frequencies[0] = 50.0


class TestMicSpectra:
    def test_length_and_finiteness(self):
        grid = FrequencyGrid([100.0, 200.0])
        for shape in ((3, 2), (5, 2), (4, 1), (4, 3, 1), (4, 0, 2), (4, 1, 1, 2), (4,), (2,)):
            with pytest.raises(ValueError, match="mic pressures must have shape"):
                MicSpectra(grid, np.ones(shape, dtype=complex))
        with pytest.raises(ValueError, match="spectrum values must be finite"):
            MicSpectra(grid, [[1.0, 1.0]] * 3 + [[1.0, np.nan]])

    def test_one_measurement_or_repetitions_locked_and_c_contiguous(self):
        grid = FrequencyGrid([100.0, 200.0])
        for values in (np.ones((4, 2)), np.ones((2, 4)).T, np.ones((4, 3, 2), dtype=complex)):
            spectra = MicSpectra(grid, values)
            assert spectra.grid is grid
            assert spectra.pressures.shape == values.shape
            assert spectra.pressures.dtype == complex
            assert spectra.pressures.flags.c_contiguous
            assert not spectra.pressures.flags.writeable

    def test_iteration_gives_each_microphones_values(self):
        grid = FrequencyGrid([100.0, 200.0])
        spectra = MicSpectra(grid, np.arange(8.0).reshape(4, 2))
        assert [mic.values.tolist() for mic in spectra] == spectra.pressures.tolist()

    def test_equal_valued_grids_match(self):
        a = FrequencyGrid([100.0, 200.0])
        b = FrequencyGrid([100.0, 200.0])
        assert a.matches(b)


class TestMaterialSpec:
    def test_consistent_bulk_density_accepted(self):
        MaterialSpec("pure_pvc_sheet", 1.012, 1.216, bulk_density=1.216 / 0.001012)

    def test_inconsistent_bulk_density_rejected(self):
        with pytest.raises(ValueError):
            MaterialSpec("pure_pvc_sheet", 1.012, 1.216, bulk_density=1.03 * 1.216 / 0.001012)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            MaterialSpec("x", 0.0, 1.0)
        with pytest.raises(ValueError):
            MaterialSpec("x", 1.0, -1.0)

    @pytest.mark.parametrize("bulk_density", [0.0, -2.0, math.nan])
    def test_a_bulk_density_that_is_not_positive_is_rejected(self, bulk_density):
        with pytest.raises(ValueError, match="thickness and density must be positive"):
            MaterialSpec("sheet", 0.89, 1.135, bulk_density=bulk_density)

    def test_thickness_conversion(self):
        # the data sheet's thickness is in mm: read as metres, the same sheet would
        # need a bulk density a thousand times smaller
        MaterialSpec("pvc_coated_pe_fabric", 0.89, 1.135, bulk_density=1.135 / 0.00089)
        with pytest.raises(ValueError, match="inconsistent"):
            MaterialSpec("pvc_coated_pe_fabric", 0.89, 1.135, bulk_density=1.135 / 0.89)


class TestSurfaceDensity:
    """``MaterialSpec`` checks surface density against thickness x bulk density."""

    def test_identity(self):
        MaterialSpec("unit", 1000.0, 1.0, bulk_density=1.0)  # 1 m at 1 kg/m^3 is 1 kg/m^2

    def test_pure_pvc_round_trip(self):
        # 1.012 mm sheet at 1.216 kg/m^2 implies its bulk density; within 1 percent of it
        # the sheet is accepted, beyond it rejected
        implied_density = 1.216 / 0.001012
        for scale in (0.995, 1.0, 1.005):
            MaterialSpec("pure_pvc_sheet", 1.012, 1.216, bulk_density=scale * implied_density)
        for scale in (0.985, 1.015):
            with pytest.raises(ValueError, match="inconsistent"):
                MaterialSpec("pure_pvc_sheet", 1.012, 1.216, bulk_density=scale * implied_density)

    def test_coated_fabric_forward_check(self):
        # 0.89 mm at 1275.3 kg/m^3, back-solved from 1.135 kg/m^2
        MaterialSpec("pvc_coated_pe_fabric", 0.89, 1.135, bulk_density=1275.3)
        with pytest.raises(ValueError, match=r"inconsistent with thickness x bulk density = 1\.13502 kg/m\^2"):
            MaterialSpec("pvc_coated_pe_fabric", 0.89, 1.16, bulk_density=1275.3)

    def test_domain_errors(self):
        cases = ((0.0, 1.0, "thickness"), (-1.0, 1.0, "thickness"), (1.0, 0.0, "surface density"))
        for thickness, surface, field in cases:
            with pytest.raises(ValueError, match=f"x: {field} must be positive and finite"):
                MaterialSpec("x", thickness, surface, bulk_density=1000.0)


class TestPublicApi:
    def test_all_names_resolve_and_star_import_binds_exactly_them(self):
        assert len(tubeloss.__all__) == len(set(tubeloss.__all__)) == 49
        for name in tubeloss.__all__:
            assert hasattr(tubeloss, name), name
        namespace: dict = {}
        exec("from tubeloss import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(tubeloss.__all__)
