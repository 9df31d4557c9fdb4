import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tubeloss import (
    AirProperties,
    ComplexSpectrum,
    FrequencyGrid,
    MaterialSpec,
    TubeGeometry,
    plane_wave_cutoff,
    surface_density,
    wavenumber,
)

from helpers import AIR, GEOMETRY


class TestWavenumber:
    def test_definition_collapse(self):
        # f = c / (2 pi) makes k exactly 1 rad/m
        f = AIR.sound_speed / (2.0 * math.pi)
        assert wavenumber(f, AIR) == pytest.approx(1.0, rel=1e-14)

    def test_direct_evaluation_1000_hz(self):
        oracle = 2.0 * math.pi * 1000.0 / 343.2
        assert wavenumber(1000.0, AIR) == pytest.approx(oracle, rel=1e-15)
        assert oracle == pytest.approx(18.3076, abs=5e-5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            wavenumber(0.0, AIR)
        with pytest.raises(ValueError):
            wavenumber(-10.0, AIR)
        with pytest.raises(ValueError):
            wavenumber(np.array([100.0, 0.0]), AIR)

    @given(
        f=st.floats(min_value=1.0, max_value=1e5),
        scale=st.floats(min_value=1.5, max_value=8.0),
    )
    def test_linear_in_f_inverse_in_c(self, f, scale):
        base = wavenumber(f, AIR)
        assert wavenumber(scale * f, AIR) == pytest.approx(scale * base, rel=1e-12)
        faster = AirProperties(sound_speed=AIR.sound_speed * scale)
        assert wavenumber(f, faster) == pytest.approx(base / scale, rel=1e-12)

    def test_array_input(self):
        f = np.array([100.0, 200.0])
        k = wavenumber(f, AIR)
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


class TestSurfaceDensity:
    def test_identity(self):
        assert surface_density(1.0, 1.0) == 1.0

    def test_pure_pvc_round_trip(self):
        # 1.012 mm sheet at 1.216 kg/m^2 implies its bulk density; the product
        # must reproduce the surface density to machine precision.
        implied_density = 1.216 / 0.001012
        assert surface_density(0.001012, implied_density) == pytest.approx(1.216, abs=1e-12)

    def test_coated_fabric_forward_check(self):
        # 0.89 mm at 1275.3 kg/m^3, back-solved from 1.135 kg/m^2
        assert surface_density(0.00089, 1275.3) == pytest.approx(1.135, abs=2e-4)

    def test_domain_errors(self):
        for thickness, density in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)):
            with pytest.raises(ValueError):
                surface_density(thickness, density)


class TestAirProperties:
    def test_impedance_is_product(self):
        assert AIR.impedance == pytest.approx(1.204 * 343.2, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            AirProperties(density=0.0)
        with pytest.raises(ValueError):
            AirProperties(sound_speed=-1.0)

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

    def test_spacings(self):
        assert GEOMETRY.upstream_spacing == pytest.approx(0.08)
        assert GEOMETRY.downstream_spacing == pytest.approx(0.08)


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


class TestComplexSpectrum:
    def test_length_and_finiteness(self):
        grid = FrequencyGrid([100.0, 200.0])
        with pytest.raises(ValueError):
            ComplexSpectrum(grid, [1.0])
        with pytest.raises(ValueError):
            ComplexSpectrum(grid, [1.0, np.nan])

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

    def test_thickness_conversion(self):
        mat = MaterialSpec("pvc_coated_pe_fabric", 0.89, 1.135)
        assert mat.thickness_m == pytest.approx(0.00089, rel=1e-15)
