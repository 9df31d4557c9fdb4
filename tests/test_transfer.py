import cmath
import math

import numpy as np
import pytest

from tubeloss import (
    AnechoicQualityWarning,
    BoundaryState,
    FrequencyGrid,
    PlaneWaveAmplitudes,
    TransferMatrix,
    acoustic_indicators,
    air_gap_matrix,
    boundary_states,
    decompose_four_mic,
    identity_matrix,
    limp_mass_matrix,
    reconstruct_one_load,
    reflection_coefficient_anechoic,
    rigid_backing_reflection,
    stl,
    stl_direct_anechoic,
    surface_impedance_anechoic,
    transmission_coefficient,
)

from helpers import AIR, GEOMETRY, air_layer_matrix_oracle, four_mic_spectra, limp_mass_stl_oracle

Z0 = AIR.impedance


def make_amplitudes(grid, a, b, c, d):
    n = len(grid)
    no = np.zeros(n, dtype=bool)
    full = lambda v: np.full(n, v, dtype=complex)
    return PlaneWaveAmplitudes(grid, full(a), full(b), full(c), full(d), no, no)


class TestBoundaryStates:
    def test_single_incident_wave(self):
        grid = FrequencyGrid([1000.0])
        amps = make_amplitudes(grid, 1.0, 0.0, 0.0, 0.0)
        s0, sd = boundary_states(amps, 0.001, AIR)
        assert s0.pressure[0] == pytest.approx(1.0)
        assert s0.velocity[0] == pytest.approx(1.0 / Z0)
        assert sd.pressure[0] == 0.0
        assert sd.velocity[0] == 0.0

    def test_standing_wave_antinode(self):
        grid = FrequencyGrid([425.0])
        amps = make_amplitudes(grid, 1.0, 1.0, 0.0, 0.0)
        s0, _ = boundary_states(amps, 0.001, AIR)
        assert s0.velocity[0] == 0.0
        assert s0.pressure[0] == pytest.approx(2.0)

    def test_hand_evaluation(self):
        # A=1, B=0.2, C=0.7, D=0 at f=1000 Hz, d=1 mm, checked bin by bin
        grid = FrequencyGrid([1000.0])
        amps = make_amplitudes(grid, 1.0, 0.2, 0.7, 0.0)
        s0, sd = boundary_states(amps, 0.001, AIR)
        k = 2.0 * math.pi * 1000.0 / AIR.sound_speed
        expected_pd = 0.7 * cmath.exp(-1j * k * 0.001)
        assert abs(s0.pressure[0] - 1.2) <= 1e-12
        assert abs(s0.velocity[0] - 0.8 / Z0) <= 1e-12
        assert abs(sd.pressure[0] - expected_pd) <= 1e-12
        assert abs(sd.velocity[0] - expected_pd / Z0) <= 1e-12


def states_from_matrix(grid, matrix, air=AIR, thickness=0.00089, ratio=0.0):
    """Boundary states of a field consistent with a sample matrix."""
    k = grid.wavenumbers(air)
    z = air.impedance
    pd = np.exp(-1j * k * thickness) + ratio * np.exp(1j * k * thickness)
    vd = (np.exp(-1j * k * thickness) - ratio * np.exp(1j * k * thickness)) / z
    p0 = matrix.t11 * pd + matrix.t12 * vd
    v0 = matrix.t21 * pd + matrix.t22 * vd
    return BoundaryState(grid, p0, v0), BoundaryState(grid, pd, vd)


class TestOneLoadReconstruction:
    def test_air_layer_oracle(self):
        grid = FrequencyGrid.from_range(100.0, 2000.0, 100.0)
        d = 0.05
        # no-sample field: a single rightward wave crossing an air slice
        k = grid.wavenumbers(AIR)
        p0 = np.ones(len(grid), dtype=complex)
        v0 = p0 / Z0
        pd = np.exp(-1j * k * d)
        vd = pd / Z0
        matrix = reconstruct_one_load(BoundaryState(grid, p0, v0), BoundaryState(grid, pd, vd))
        assert matrix.valid.all()
        for i, f in enumerate(grid.frequencies):
            oracle = air_layer_matrix_oracle(float(f), d)
            assert abs(matrix.t11[i] - oracle[0][0]) <= 1e-9
            assert abs(matrix.t12[i] - oracle[0][1]) <= 1e-9 * max(abs(oracle[0][1]), 1.0)
            assert abs(matrix.t21[i] - oracle[1][0]) <= 1e-9
            assert abs(matrix.t22[i] - oracle[1][1]) <= 1e-9

    def test_limp_mass_round_trip(self):
        grid = FrequencyGrid.from_range(100.0, 1600.0, 100.0)
        sample = limp_mass_matrix(grid, 1.135)
        s0, sd = states_from_matrix(grid, sample)
        matrix = reconstruct_one_load(s0, sd)
        assert np.all(np.abs(matrix.t11 - sample.t11) <= 1e-9)
        assert np.all(np.abs(matrix.t12 - sample.t12) <= 1e-9 * np.abs(sample.t12))
        assert np.all(np.abs(matrix.t21 - sample.t21) <= 1e-9)

    def test_degenerate_layer_is_identity(self):
        grid = FrequencyGrid([1000.0])
        amps = make_amplitudes(grid, 1.0, 0.0, 1.0, 0.0)
        s0, sd = boundary_states(amps, 0.0, AIR)
        matrix = reconstruct_one_load(s0, sd)
        assert abs(matrix.t11[0] - 1.0) <= 1e-12
        assert abs(matrix.t12[0]) <= 1e-12
        assert abs(matrix.t21[0]) <= 1e-12

    def test_symmetry_and_determinant(self):
        rng = np.random.default_rng(31415)
        grid = FrequencyGrid.from_range(100.0, 2000.0, 50.0)
        n = len(grid)
        for _ in range(10):
            s0 = BoundaryState(
                grid,
                rng.standard_normal(n) + 1j * rng.standard_normal(n),
                (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / Z0,
            )
            sd = BoundaryState(
                grid,
                rng.standard_normal(n) + 1j * rng.standard_normal(n),
                (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / Z0,
            )
            matrix = reconstruct_one_load(s0, sd)
            ok = matrix.valid
            assert ok.any()
            # equal diagonal bitwise, unit determinant to 1e-9
            assert np.array_equal(matrix.t11[ok], matrix.t22[ok])
            assert np.all(np.abs(matrix.determinant()[ok] - 1.0) < 1e-9)

    def test_zero_exit_velocity_handled(self):
        # Vd = 0 is fine as long as the shared denominator is not
        grid = FrequencyGrid([1000.0])
        s0 = BoundaryState(grid, [2.0], [3.0])
        sd = BoundaryState(grid, [1.0], [0.0])
        matrix = reconstruct_one_load(s0, sd)
        assert matrix.valid[0]
        # reconstructed matrix must map the exit state to the entry state
        assert matrix.t11[0] * 1.0 + matrix.t12[0] * 0.0 == pytest.approx(2.0)
        assert matrix.t21[0] * 1.0 + matrix.t22[0] * 0.0 == pytest.approx(3.0)
        assert abs(matrix.determinant()[0] - 1.0) < 1e-12

    def test_closure_singular_flagged(self):
        grid = FrequencyGrid([1000.0])
        s0 = BoundaryState(grid, [1.0], [0.0])
        sd = BoundaryState(grid, [0.0], [1.0 / Z0])
        matrix = reconstruct_one_load(s0, sd)  # P0 Vd + Pd V0 = 0 exactly... not here
        # here den = 1/Z0, fine; force the singular case instead:
        s0 = BoundaryState(grid, [1.0], [0.0])
        sd = BoundaryState(grid, [1.0], [0.0])
        singular = reconstruct_one_load(s0, sd)
        assert not singular.valid[0]
        assert np.isnan(singular.t11[0].real)


class TestTransmission:
    def test_identity_no_sample(self):
        grid = FrequencyGrid([1000.0])
        t = transmission_coefficient(identity_matrix(grid), grid.wavenumbers(AIR), 0.0, AIR)
        assert t[0] == pytest.approx(1.0)

    def test_limp_mass_closed_form(self):
        grid = FrequencyGrid([1000.0])
        matrix = limp_mass_matrix(grid, 1.135)
        t = transmission_coefficient(matrix, grid.wavenumbers(AIR), 0.0, AIR)
        loss = stl(t)
        oracle = limp_mass_stl_oracle(1000.0, 1.135)
        assert loss[0] == pytest.approx(float(oracle), abs=1e-9)
        assert loss[0] == pytest.approx(18.78, abs=0.01)
        w = 2.0 * math.pi * 1000.0
        assert abs(t[0]) ** 2 == pytest.approx(1.0 / (1.0 + (w * 1.135 / (2 * Z0)) ** 2), rel=1e-12)

    def test_air_layer_is_transparent(self):
        grid = FrequencyGrid.from_range(100.0, 4000.0, 100.0)
        d = 0.037
        matrix = air_gap_matrix(grid, d, AIR)
        t = transmission_coefficient(matrix, grid.wavenumbers(AIR), d, AIR)
        assert np.all(np.abs(np.abs(t) - 1.0) < 1e-12)


class TestReflection:
    def test_identity_no_discontinuity(self):
        grid = FrequencyGrid([1000.0])
        r = reflection_coefficient_anechoic(identity_matrix(grid), AIR)
        assert abs(r[0]) <= 1e-15

    def test_limp_mass_energy_identity(self):
        grid = FrequencyGrid.from_range(100.0, 2000.0, 50.0)
        matrix = limp_mass_matrix(grid, 0.644)
        t = transmission_coefficient(matrix, grid.wavenumbers(AIR), 0.0, AIR)
        r = reflection_coefficient_anechoic(matrix, AIR)
        assert np.all(np.abs(np.abs(r) ** 2 + np.abs(t) ** 2 - 1.0) < 1e-12)

    def test_lossy_sample_dissipates(self):
        # a series flow resistance r > 0 is passive but lossy
        grid = FrequencyGrid([500.0, 1000.0])
        n = len(grid)
        matrix = TransferMatrix(
            grid,
            np.ones(n, dtype=complex),
            np.full(n, 200.0 + 0.0j),
            np.zeros(n, dtype=complex),
            np.ones(n, dtype=complex),
        )
        t = transmission_coefficient(matrix, grid.wavenumbers(AIR), 0.0, AIR)
        r = reflection_coefficient_anechoic(matrix, AIR)
        energy = np.abs(r) ** 2 + np.abs(t) ** 2
        assert np.all(energy < 1.0)

    def test_randomized_passive_cascades_bounded(self, passive_cascade_factory):
        rng = np.random.default_rng(777)
        grid = FrequencyGrid.from_range(100.0, 3000.0, 290.0)
        for _ in range(100):
            matrix, thickness = passive_cascade_factory(rng, grid)
            t = transmission_coefficient(matrix, grid.wavenumbers(AIR), thickness, AIR)
            r = reflection_coefficient_anechoic(matrix, AIR)
            energy = np.abs(r) ** 2 + np.abs(t) ** 2
            assert np.all(energy <= 1.0 + 1e-9)


class TestSurfaceImpedance:
    def test_matched(self):
        z = surface_impedance_anechoic(np.array([0.0 + 0.0j]), AIR)
        assert z[0] == pytest.approx(Z0)

    def test_pressure_release(self):
        z = surface_impedance_anechoic(np.array([-1.0 + 0.0j]), AIR)
        assert z[0] == pytest.approx(0.0)

    def test_half_reflection(self):
        z = surface_impedance_anechoic(np.array([0.5 + 0.0j]), AIR)
        assert z[0] == pytest.approx(3.0 * Z0)

    def test_rigid_marker(self):
        z = surface_impedance_anechoic(np.array([1.0 + 0.0j]), AIR)
        assert np.isinf(z[0].real)

    def test_printed_ratio_equivalence(self):
        # (T11 + T12/z) / (T21 + T22/z) must agree with z (1+R)/(1-R)
        grid = FrequencyGrid.from_range(150.0, 1500.0, 150.0)
        for matrix in (
            limp_mass_matrix(grid, 1.216),
            air_gap_matrix(grid, 0.004, AIR),
            limp_mass_matrix(grid, 0.224) @ air_gap_matrix(grid, 0.005, AIR) @ limp_mass_matrix(grid, 1.135),
        ):
            direct = (matrix.t11 + matrix.t12 / Z0) / (matrix.t21 + matrix.t22 / Z0)
            r = reflection_coefficient_anechoic(matrix, AIR)
            via_r = surface_impedance_anechoic(r, AIR)
            assert np.all(np.abs(direct - via_r) <= 1e-9 * np.abs(direct))

    def test_consistent_with_unit_incident_field(self):
        # Z from R equals P/V at the front face of the matching synthetic field.
        grid = FrequencyGrid.from_range(200.0, 1800.0, 200.0)
        matrix = limp_mass_matrix(grid, 1.135)
        r = reflection_coefficient_anechoic(matrix, AIR)
        z = surface_impedance_anechoic(r, AIR)
        p0 = 1.0 + r
        v0 = (1.0 - r) / Z0
        assert np.all(np.abs(z - p0 / v0) <= 1e-9 * np.abs(z))


class TestRigidBacking:
    def test_bare_wall(self):
        grid = FrequencyGrid([1000.0])
        r = rigid_backing_reflection(identity_matrix(grid), AIR)
        assert r[0] == pytest.approx(1.0)

    def test_quarter_wave_air_layer(self):
        # kd = pi/2 turns a rigid wall into a pressure-release surface
        d = 0.05
        f = AIR.sound_speed / (4.0 * d)
        grid = FrequencyGrid([f])
        matrix = air_gap_matrix(grid, d, AIR)
        r = rigid_backing_reflection(matrix, AIR)
        assert r[0].real == pytest.approx(-1.0, abs=1e-12)
        assert abs(r[0].imag) <= 1e-12

    def test_limp_mass_reflects_everything(self):
        grid = FrequencyGrid.from_range(100.0, 2000.0, 100.0)
        matrix = limp_mass_matrix(grid, 0.366)
        r = rigid_backing_reflection(matrix, AIR)
        assert np.all(np.abs(np.abs(r) - 1.0) < 1e-12)


class TestStl:
    def test_unit_transmission(self):
        assert stl(np.array([1.0 + 0.0j]))[0] == 0.0

    def test_decade(self):
        assert stl(np.array([0.1 + 0.0j]))[0] == pytest.approx(20.0, rel=1e-12)

    def test_zero_transmission_marker(self):
        out = stl(np.array([0.0 + 0.0j]))
        assert np.isposinf(out[0])


class TestStlDirect:
    def test_trivial_cases(self):
        grid = FrequencyGrid([1000.0])
        amps = make_amplitudes(grid, 1.0, 0.0, 1.0, 0.0)
        assert stl_direct_anechoic(amps)[0] == pytest.approx(0.0, abs=1e-12)
        amps = make_amplitudes(grid, 1.0, 0.0, 0.5, 0.0)
        assert stl_direct_anechoic(amps)[0] == pytest.approx(20.0 * math.log10(2.0), rel=1e-12)

    def test_quality_warning(self):
        grid = FrequencyGrid([1000.0])
        amps = make_amplitudes(grid, 1.0, 0.0, 0.5, 0.2)
        with pytest.warns(AnechoicQualityWarning):
            stl_direct_anechoic(amps)

    def test_dual_path_consistency(self):
        # matrix route and direct route agree on clean anechoic fields
        grid = FrequencyGrid.from_range(100.0, 2000.0, 10.0)
        sample = limp_mass_matrix(grid, 1.135)
        k = grid.wavenumbers(AIR)
        d = GEOMETRY.sample_thickness
        t_sample = transmission_coefficient(sample, k, d, AIR)
        r_sample = reflection_coefficient_anechoic(sample, AIR)
        spectra = four_mic_spectra(grid, GEOMETRY, 1.0, r_sample, t_sample, 0.0)
        amps = decompose_four_mic(*spectra, geometry=GEOMETRY, air=AIR)
        s0, sd = boundary_states(amps, d, AIR)
        matrix = reconstruct_one_load(s0, sd)
        matrix_route = stl(transmission_coefficient(matrix, k, d, AIR))
        direct_route = stl_direct_anechoic(amps)
        ok = matrix.valid
        assert np.all(np.abs(matrix_route[ok] - direct_route[ok]) < 1e-6)


class TestIndicatorsBundle:
    def test_validity_mask_propagates(self):
        grid = FrequencyGrid([500.0, 1000.0])
        s0 = BoundaryState(grid, [1.0, 1.0], [1.0 / Z0, 0.0])
        sd = BoundaryState(grid, [np.exp(-0.1j), 1.0], [np.exp(-0.1j) / Z0, 0.0])
        matrix = reconstruct_one_load(s0, sd)
        assert matrix.valid.tolist() == [True, False]
        ind = acoustic_indicators(matrix, 0.001, AIR)
        assert ind.valid.tolist() == [True, False]
        assert np.isnan(ind.stl_db[1])
        assert np.isnan(ind.transmission[1].real)
