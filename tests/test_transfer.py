import cmath
import itertools
import math
import warnings

import numpy as np
import pytest

from tubeloss import (
    AcousticIndicators,
    AnechoicQualityWarning,
    FrequencyGrid,
    LayerModel,
    PlaneWaveAmplitudes,
    TransferMatrix,
    acoustic_indicators,
    air_gap_matrix,
    boundary_states,
    decompose_four_mic,
    identity_matrix,
    limp_mass_matrix,
    reconstruct_one_load,
    rigid_backing_reflection,
    stl,
    stl_direct_anechoic,
    surface_impedance_anechoic,
    wavenumber,
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
        p0, v0, pd, vd = boundary_states(amps, 0.001, AIR)
        assert p0[0] == pytest.approx(1.0)
        assert v0[0] == pytest.approx(1.0 / Z0)
        assert pd[0] == 0.0
        assert vd[0] == 0.0

    def test_standing_wave_antinode(self):
        grid = FrequencyGrid([425.0])
        amps = make_amplitudes(grid, 1.0, 1.0, 0.0, 0.0)
        p0, v0, _, _ = boundary_states(amps, 0.001, AIR)
        assert v0[0] == 0.0
        assert p0[0] == pytest.approx(2.0)

    def test_hand_evaluation(self):
        # A=1, B=0.2, C=0.7, D=0 at f=1000 Hz, d=1 mm, checked bin by bin
        grid = FrequencyGrid([1000.0])
        amps = make_amplitudes(grid, 1.0, 0.2, 0.7, 0.0)
        p0, v0, pd, vd = boundary_states(amps, 0.001, AIR)
        k = 2.0 * math.pi * 1000.0 / AIR.sound_speed
        expected_pd = 0.7 * cmath.exp(-1j * k * 0.001)
        assert abs(p0[0] - 1.2) <= 1e-12
        assert abs(v0[0] - 0.8 / Z0) <= 1e-12
        assert abs(pd[0] - expected_pd) <= 1e-12
        assert abs(vd[0] - expected_pd / Z0) <= 1e-12


def states_from_matrix(grid, matrix, air=AIR, thickness=0.00089, ratio=0.0):
    """Face pressures and velocities (p0, v0, pd, vd) of a field consistent with a sample matrix."""
    k = grid.wavenumbers(air)
    z = air.impedance
    pd = np.exp(-1j * k * thickness) + ratio * np.exp(1j * k * thickness)
    vd = (np.exp(-1j * k * thickness) - ratio * np.exp(1j * k * thickness)) / z
    p0 = matrix.t11 * pd + matrix.t12 * vd
    v0 = matrix.t21 * pd + matrix.t22 * vd
    return p0, v0, pd, vd


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
        matrix = reconstruct_one_load(grid, p0, v0, pd, vd)
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
        matrix = reconstruct_one_load(grid, *states_from_matrix(grid, sample))
        assert np.all(np.abs(matrix.t11 - sample.t11) <= 1e-9)
        assert np.all(np.abs(matrix.t12 - sample.t12) <= 1e-9 * np.abs(sample.t12))
        assert np.all(np.abs(matrix.t21 - sample.t21) <= 1e-9)

    def test_degenerate_layer_is_identity(self):
        grid = FrequencyGrid([1000.0])
        amps = make_amplitudes(grid, 1.0, 0.0, 1.0, 0.0)
        matrix = reconstruct_one_load(grid, *boundary_states(amps, 0.0, AIR))
        assert abs(matrix.t11[0] - 1.0) <= 1e-12
        assert abs(matrix.t12[0]) <= 1e-12
        assert abs(matrix.t21[0]) <= 1e-12

    def test_symmetry_and_determinant(self):
        rng = np.random.default_rng(31415)
        grid = FrequencyGrid.from_range(100.0, 2000.0, 50.0)
        n = len(grid)
        for _ in range(10):
            matrix = reconstruct_one_load(
                grid,
                rng.standard_normal(n) + 1j * rng.standard_normal(n),
                (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / Z0,
                rng.standard_normal(n) + 1j * rng.standard_normal(n),
                (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / Z0,
            )
            ok = matrix.valid
            assert ok.any()
            # equal diagonal bitwise, unit determinant to 1e-9
            assert np.array_equal(matrix.t11[ok], matrix.t22[ok])
            assert np.all(np.abs(matrix.determinant()[ok] - 1.0) < 1e-9)

    def test_zero_exit_velocity_handled(self):
        # Vd = 0 is fine as long as the shared denominator is not
        grid = FrequencyGrid([1000.0])
        matrix = reconstruct_one_load(grid, [2.0], [3.0], [1.0], [0.0])
        assert matrix.valid[0]
        # reconstructed matrix must map the exit state to the entry state
        assert matrix.t11[0] * 1.0 + matrix.t12[0] * 0.0 == pytest.approx(2.0)
        assert matrix.t21[0] * 1.0 + matrix.t22[0] * 0.0 == pytest.approx(3.0)
        assert abs(matrix.determinant()[0] - 1.0) < 1e-12

    def test_closure_singular_flagged(self):
        grid = FrequencyGrid([1000.0])
        singular = reconstruct_one_load(grid, [1.0], [0.0], [1.0], [0.0])  # P0 Vd + Pd V0 = 0
        assert not singular.valid[0]
        assert np.isnan(singular.t11[0].real)

    def test_face_arrays_need_one_value_per_bin(self):
        grid = FrequencyGrid([500.0, 1000.0, 1500.0])
        faces = ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], [2.0, 1.0, 0.5], [0.1, 0.2, 0.3])
        from_lists = reconstruct_one_load(grid, *faces)
        from_arrays = reconstruct_one_load(grid, *(np.array(f, dtype=complex) for f in faces))
        assert from_lists.valid.all()
        for name in ("t11", "t12", "t21", "t22"):
            assert getattr(from_lists, name).tobytes() == getattr(from_arrays, name).tobytes()
        for i in range(4):
            for bad in ([1.0], [1.0, 2.0], [1.0] * 4, [[1.0] * 3], 1.0):  # a length-1 array must not broadcast
                edited = list(faces)
                edited[i] = bad
                with pytest.raises(ValueError, match=r"must have shape \(3,\)"):
                    reconstruct_one_load(grid, *edited)

    def test_a_dropped_bin_is_nan_in_every_entry(self):
        rng = np.random.default_rng(2718)
        grid = FrequencyGrid.from_range(100.0, 2000.0, 10.0)
        n = len(grid)

        def faces():
            p0, v0, pd, vd = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
            v0, vd = v0 / Z0, vd / Z0
            singular = rng.random(n) < 0.2
            pd, vd = np.where(singular, p0, pd), np.where(singular, -v0, vd)  # P0 Vd + Pd V0 = 0
            upstream = rng.random(n) < 0.1  # bins the decomposition dropped
            p0 = np.where(upstream, np.nan, p0)
            return (p0, v0, pd, vd), singular | upstream

        for _ in range(5):
            (faces_a, dropped_a), (faces_b, dropped_b) = faces(), faces()
            a, b = reconstruct_one_load(grid, *faces_a), reconstruct_one_load(grid, *faces_b)
            for matrix, dropped in ((a, dropped_a), (b, dropped_b), (a @ b, dropped_a | dropped_b)):
                entries = (matrix.t11, matrix.t12, matrix.t21, matrix.t22)
                assert dropped.any() and not dropped.all()
                np.testing.assert_array_equal(matrix.valid, ~dropped)
                np.testing.assert_array_equal(matrix.valid, np.all([np.isfinite(t) for t in entries], axis=0))
                for entry in entries:
                    assert np.isnan(entry.real[dropped]).all() and np.isnan(entry.imag[dropped]).all()


class TestTransferMatrix:
    def test_an_overflowed_entry_reads_invalid(self):
        grid = FrequencyGrid.from_range(100.0, 1000.0, 10.0)
        matrix = limp_mass_matrix(grid, 1e305)  # omega m_s overflows from about 286 Hz
        infinite = np.isinf(matrix.t12)
        assert infinite.any() and not infinite.all()
        np.testing.assert_array_equal(matrix.valid, ~infinite)

    def test_validity_is_not_a_field(self):
        grid = FrequencyGrid([1000.0])
        one, zero = np.ones(1, dtype=complex), np.zeros(1, dtype=complex)
        with pytest.raises(TypeError):
            TransferMatrix(grid, one, zero, zero, one, valid=np.array([False]))


class TestTransmission:
    def test_identity_no_sample(self):
        grid = FrequencyGrid([1000.0])
        t = acoustic_indicators(identity_matrix(grid), 0.0, AIR).transmission
        assert t[0] == pytest.approx(1.0)

    def test_limp_mass_closed_form(self):
        grid = FrequencyGrid([1000.0])
        matrix = limp_mass_matrix(grid, 1.135)
        t = acoustic_indicators(matrix, 0.0, AIR).transmission
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
        t = acoustic_indicators(matrix, d, AIR).transmission
        assert np.all(np.abs(np.abs(t) - 1.0) < 1e-12)


class TestReflection:
    def test_identity_no_discontinuity(self):
        grid = FrequencyGrid([1000.0])
        r = acoustic_indicators(identity_matrix(grid), 0.0, AIR).reflection
        assert abs(r[0]) <= 1e-15

    def test_limp_mass_energy_identity(self):
        grid = FrequencyGrid.from_range(100.0, 2000.0, 50.0)
        matrix = limp_mass_matrix(grid, 0.644)
        indicators = acoustic_indicators(matrix, 0.0, AIR)
        t, r = indicators.transmission, indicators.reflection
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
        indicators = acoustic_indicators(matrix, 0.0, AIR)
        t, r = indicators.transmission, indicators.reflection
        energy = np.abs(r) ** 2 + np.abs(t) ** 2
        assert np.all(energy < 1.0)

    def test_randomized_passive_cascades_bounded(self, passive_cascade_factory):
        rng = np.random.default_rng(777)
        grid = FrequencyGrid.from_range(100.0, 3000.0, 290.0)
        for _ in range(100):
            matrix, thickness = passive_cascade_factory(rng, grid)
            indicators = acoustic_indicators(matrix, thickness, AIR)
            t, r = indicators.transmission, indicators.reflection
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
            r = acoustic_indicators(matrix, 0.0, AIR).reflection
            via_r = surface_impedance_anechoic(r, AIR)
            assert np.all(np.abs(direct - via_r) <= 1e-9 * np.abs(direct))

    def test_consistent_with_unit_incident_field(self):
        # Z from R equals P/V at the front face of the matching synthetic field.
        grid = FrequencyGrid.from_range(200.0, 1800.0, 200.0)
        matrix = limp_mass_matrix(grid, 1.135)
        r = acoustic_indicators(matrix, 0.0, AIR).reflection
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
        d = GEOMETRY.sample_thickness
        indicators = acoustic_indicators(sample, d, AIR)
        t_sample, r_sample = indicators.transmission, indicators.reflection
        spectra = four_mic_spectra(grid, GEOMETRY, 1.0, r_sample, t_sample, 0.0)
        amps = decompose_four_mic(*spectra, geometry=GEOMETRY, air=AIR)
        matrix = reconstruct_one_load(grid, *boundary_states(amps, d, AIR))
        matrix_route = stl(acoustic_indicators(matrix, d, AIR).transmission)
        direct_route = stl_direct_anechoic(amps)
        ok = matrix.valid
        assert np.all(np.abs(matrix_route[ok] - direct_route[ok]) < 1e-6)


class TestIndicatorsBundle:
    def test_validity_mask_propagates(self):
        grid = FrequencyGrid([500.0, 1000.0])
        matrix = reconstruct_one_load(
            grid, [1.0, 1.0], [1.0 / Z0, 0.0], [np.exp(-0.1j), 1.0], [np.exp(-0.1j) / Z0, 0.0]
        )
        assert matrix.valid.tolist() == [True, False]
        ind = acoustic_indicators(matrix, 0.001, AIR)
        assert ind.valid.tolist() == [True, False]
        assert np.isnan(ind.stl_db[1])
        assert np.isnan(ind.transmission[1].real)

    def test_validity_is_not_a_field(self):
        grid = FrequencyGrid([1000.0])
        one = np.ones(1, dtype=complex)
        with pytest.raises(TypeError):
            AcousticIndicators(grid, one, one, np.zeros(1), valid=np.array([True]))

    # finite, infinite, NaN, overflowing and subnormal entries
    ODD_ENTRIES = (
        0.0, 1.0, 0.5 + 0.5j, 200j, 3.3e-320, -5e-324j,
        1.7e308, -1.7e308, 1.7e308j, np.inf, complex(0.0, -np.inf), np.nan,
    )

    @pytest.mark.parametrize("thickness", [0.0, 0.02])
    @pytest.mark.parametrize("case", ["subnormal-t12", "every-combination"])
    def test_a_dropped_bin_is_nan_in_every_indicator(self, case, thickness):
        if case == "subnormal-t12":
            # a subnormal denominator: 2 / den overflows while R = 1
            entries = np.array([[0.0], [3.3e-320], [0.0], [0.0]], dtype=complex)
        else:
            # 12^4 bins, one for each choice of the four entries
            entries = np.array(list(itertools.product(self.ODD_ENTRIES, repeat=4)), dtype=complex).T
        grid = FrequencyGrid(np.arange(1.0, entries.shape[1] + 1.0))
        matrix = TransferMatrix(grid, *entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ind = acoustic_indicators(matrix, thickness, AIR)
        dropped = ~ind.valid
        assert dropped.any() and (len(grid) == 1 or not dropped.all())
        for values in (ind.transmission, ind.reflection):
            np.testing.assert_array_equal(np.isnan(values.real), dropped)
            np.testing.assert_array_equal(np.isnan(values.imag), dropped)
        np.testing.assert_array_equal(np.isnan(ind.stl_db), dropped)


def reference_indicators(matrix, thickness, air):
    """Transmission, reflection and loss with the phase exponential at every thickness
    and each anechoic sum written out left to right."""
    z = air.impedance
    t11, t12, t21, t22 = matrix.t11, matrix.t12, matrix.t21, matrix.t22
    with np.errstate(all="ignore"):
        den = t11 + t12 / z + z * t21 + t22
        num = t11 + t12 / z - z * t21 - t22
        scale = np.abs(t11) + np.abs(t12) / z + z * np.abs(t21) + np.abs(t22)
        ok = np.isfinite(den) & (scale > 0.0) & (np.abs(den) > 1e-12 * scale)
        numerator = 2.0 * np.exp(1j * wavenumber(matrix.grid.frequencies, air) * thickness)
        transmission = np.where(ok, numerator / den, complex(np.nan, np.nan))
        reflection = np.where(ok, num / den, complex(np.nan, np.nan))
    return transmission, reflection, stl(transmission)


class TestZeroThicknessShortcut:
    LAYERS = {
        "limp-1.135": LayerModel.limp_mass(1.135),
        "limp-1e300": LayerModel.limp_mass(1e300),
        "limp-1e305": LayerModel.limp_mass(1e305),
        "air-gap": LayerModel.air_gap(0.05),
        "matrix": LayerModel.explicit(0.9 + 0.1j, 200.0 + 30.0j, 0.0005 + 0.0001j, 0.9 + 0.1j),
    }

    # 5 136, 19 001 and 19 991 bins: above 16 384 complex bins numpy computes temporaries
    # in place, which may round differently
    @pytest.mark.parametrize("f_max, step", [(2000.0, 0.37), (19100.0, 1.0), (200000.0, 10.0)])
    @pytest.mark.parametrize("name", list(LAYERS))
    def test_same_bits_as_the_phase_exponential(self, name, f_max, step):
        grid = FrequencyGrid.from_range(100.0, f_max, step)
        layer = self.LAYERS[name]
        matrix = layer.matrix_on(grid, AIR)
        for m in (matrix, matrix @ self.LAYERS["limp-1.135"].matrix_on(grid, AIR)):
            for thickness in (0.0, -0.0, layer.thickness, 0.02):
                got = acoustic_indicators(m, thickness, AIR)
                want = reference_indicators(m, thickness, AIR)
                for field, expected in zip(("transmission", "reflection", "stl_db"), want):
                    assert getattr(got, field).tobytes() == expected.tobytes(), (field, thickness)
