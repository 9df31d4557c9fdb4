import cmath
import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tubeloss import (
    QUALITY_THRESHOLD,
    AcousticIndicators,
    AnechoicQualityWarning,
    FrequencyGrid,
    LayerModel,
    MicSpectra,
    PlaneWaveAmplitudes,
    SynthScenario,
    TransferMatrix,
    acoustic_indicators,
    analyze_four_mic,
    anechoic_quality,
    boundary_states,
    decompose_four_mic,
    reconstruct_one_load,
    stl,
    stl_direct_anechoic,
    synth_mic_pressures,
)
from tubeloss.transfer import _closed_form_indicators

from helpers import (
    AIR,
    GEOMETRY,
    WIDE_GRID,
    air_layer_matrix_oracle,
    closed_form_condition,
    determinant,
    drop_route_indicators,
    drop_route_reconstruct,
    drop_route_stl_direct,
    four_mic_spectra,
    limp_mass_stl_oracle,
    noisy_spectra,
    row_slices,
    stacked,
)

Z0 = AIR.impedance


def make_amplitudes(grid, a, b, c, d):
    n = len(grid)
    full = lambda v: np.full(n, v, dtype=complex)
    return PlaneWaveAmplitudes(grid, full(a), full(b), full(c), full(d))


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
        sample = LayerModel.limp_mass(1.135).matrix_on(grid, AIR)
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
            assert np.all(np.abs(determinant(matrix)[ok] - 1.0) < 1e-9)

    def test_zero_exit_velocity_handled(self):
        # Vd = 0 is fine as long as the shared denominator is not
        grid = FrequencyGrid([1000.0])
        matrix = reconstruct_one_load(grid, [2.0], [3.0], [1.0], [0.0])
        assert matrix.valid[0]
        # reconstructed matrix must map the exit state to the entry state
        assert matrix.t11[0] * 1.0 + matrix.t12[0] * 0.0 == pytest.approx(2.0)
        assert matrix.t21[0] * 1.0 + matrix.t22[0] * 0.0 == pytest.approx(3.0)
        assert abs(determinant(matrix)[0] - 1.0) < 1e-12

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
        # four one-row faces are a batch of one repetition, with the bits of the 1-D call
        one_row = reconstruct_one_load(grid, *([f] for f in faces))
        for name in ("t11", "t12", "t21", "t22"):
            assert getattr(one_row, name).shape == (1, 3)
            assert getattr(one_row, name)[0].tobytes() == getattr(from_arrays, name).tobytes()
        for i in range(4):
            for bad in ([1.0], [1.0, 2.0], [1.0] * 4, [[1.0] * 4], [[[1.0] * 3]], 1.0):  # no broadcasting
                edited = list(faces)
                edited[i] = bad
                with pytest.raises(ValueError, match=r"must have shape \(3,\)"):
                    reconstruct_one_load(grid, *edited)
            edited = list(faces)
            edited[i] = [faces[i]]  # one row among 1-D faces: the shapes differ
            with pytest.raises(ValueError, match=r"must have shape \((1, )?3,?\)"):
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
        matrix = LayerModel.limp_mass(1e305).matrix_on(grid, AIR)  # omega m_s overflows from about 286 Hz
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
        t = acoustic_indicators(LayerModel.identity().matrix_on(grid, AIR), 0.0, AIR).transmission
        assert t[0] == pytest.approx(1.0)

    def test_limp_mass_closed_form(self):
        grid = FrequencyGrid([1000.0])
        matrix = LayerModel.limp_mass(1.135).matrix_on(grid, AIR)
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
        matrix = LayerModel.air_gap(d).matrix_on(grid, AIR)
        t = acoustic_indicators(matrix, d, AIR).transmission
        assert np.all(np.abs(np.abs(t) - 1.0) < 1e-12)


class TestReflection:
    def test_identity_no_discontinuity(self):
        grid = FrequencyGrid([1000.0])
        r = acoustic_indicators(LayerModel.identity().matrix_on(grid, AIR), 0.0, AIR).reflection
        assert abs(r[0]) <= 1e-15

    def test_limp_mass_energy_identity(self):
        grid = FrequencyGrid.from_range(100.0, 2000.0, 50.0)
        matrix = LayerModel.limp_mass(0.644).matrix_on(grid, AIR)
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
    """Impedance a sample on an anechoic termination presents at its entry face."""

    @staticmethod
    def from_matrix(matrix):
        # (T11 + T12/z) / (T21 + T22/z): an exit face that carries the forward wave alone
        return (matrix.t11 + matrix.t12 / Z0) / (matrix.t21 + matrix.t22 / Z0)

    def test_matched(self):
        grid = FrequencyGrid([1000.0])
        matrix = LayerModel.identity().matrix_on(grid, AIR)
        r = acoustic_indicators(matrix, 0.0, AIR).reflection
        assert self.from_matrix(matrix)[0] == pytest.approx(Z0)
        assert Z0 * (1.0 + r[0]) / (1.0 - r[0]) == pytest.approx(Z0)

    def test_printed_ratio_equivalence(self):
        # (T11 + T12/z) / (T21 + T22/z) must agree with z (1+R)/(1-R)
        grid = FrequencyGrid.from_range(150.0, 1500.0, 150.0)
        for matrix in (
            LayerModel.limp_mass(1.216).matrix_on(grid, AIR),
            LayerModel.air_gap(0.004).matrix_on(grid, AIR),
            LayerModel.limp_mass(0.224).matrix_on(grid, AIR)
            @ LayerModel.air_gap(0.005).matrix_on(grid, AIR)
            @ LayerModel.limp_mass(1.135).matrix_on(grid, AIR),
        ):
            direct = self.from_matrix(matrix)
            r = acoustic_indicators(matrix, 0.0, AIR).reflection
            via_r = Z0 * (1.0 + r) / (1.0 - r)
            assert np.all(np.abs(direct - via_r) <= 1e-9 * np.abs(direct))

    def test_consistent_with_unit_incident_field(self):
        # the matrix's impedance equals P/V at the front face of the matching field
        grid = FrequencyGrid.from_range(200.0, 1800.0, 200.0)
        matrix = LayerModel.limp_mass(1.135).matrix_on(grid, AIR)
        indicators = acoustic_indicators(matrix, 0.0, AIR)
        amps = make_amplitudes(grid, 1.0, 0.0, 0.0, 0.0)
        amps = PlaneWaveAmplitudes(grid, amps.a, indicators.reflection, indicators.transmission, amps.d)
        p0, v0, _, _ = boundary_states(amps, 0.0, AIR)
        z = self.from_matrix(matrix)
        assert np.all(np.abs(z - p0 / v0) <= 1e-9 * np.abs(z))


class TestRigidBacking:
    """A sample's matrix against a rigid wall: R = (T11 - z T21) / (T11 + z T21)."""

    @staticmethod
    def reflection(matrix):
        return (matrix.t11 - Z0 * matrix.t21) / (matrix.t11 + Z0 * matrix.t21)

    def test_bare_wall(self):
        grid = FrequencyGrid([1000.0])
        r = self.reflection(LayerModel.identity().matrix_on(grid, AIR))
        assert r[0] == pytest.approx(1.0)

    def test_quarter_wave_air_layer(self):
        # kd = pi/2 turns a rigid wall into a pressure-release surface
        d = 0.05
        grid = FrequencyGrid([AIR.sound_speed / (4.0 * d)])
        r = self.reflection(LayerModel.air_gap(d).matrix_on(grid, AIR))
        assert r[0].real == pytest.approx(-1.0, abs=1e-12)
        assert abs(r[0].imag) <= 1e-12

    def test_limp_mass_reflects_everything(self):
        grid = FrequencyGrid.from_range(100.0, 2000.0, 100.0)
        r = self.reflection(LayerModel.limp_mass(0.366).matrix_on(grid, AIR))
        assert np.all(np.abs(np.abs(r) - 1.0) < 1e-12)


class TestStl:
    def test_unit_transmission(self):
        assert stl(np.array([1.0 + 0.0j]))[0] == 0.0

    def test_decade(self):
        assert stl(np.array([0.1 + 0.0j]))[0] == pytest.approx(20.0, rel=1e-12)

    def test_zero_transmission_marker(self):
        out = stl(np.array([0.0 + 0.0j]))
        assert np.isposinf(out[0])

    def test_a_finite_transmission_whose_square_overflows_keeps_a_finite_loss(self):
        t = np.array([1e160, 3e200j, 0.5 + 0.5j, 3e-200, 0.0, complex(np.inf, 0.0), complex(np.nan, np.nan)])
        out = stl(t)
        assert out[0] == pytest.approx(-3200.0, rel=1e-12)
        assert out[1] == pytest.approx(-20.0 * math.log10(3e200), rel=1e-12)
        # every other bin keeps the bits of 10 log10(1 / |T|^2)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            plain = -10.0 * np.log10(np.abs(t[2:]) ** 2)
        assert out[2:].tobytes() == plain.tobytes()

    def test_a_matrix_layer_with_a_tiny_t12_has_a_finite_loss(self):
        grid = FrequencyGrid.from_range(100.0, 1000.0, 100.0)
        layer = LayerModel.explicit(0.0, 1e-200, 0.0, 0.0)
        loss = acoustic_indicators(layer.matrix_on(grid, AIR), 0.0, AIR).stl_db
        # T = 2 / (t12 / z) = 2 z / 1e-200
        assert np.allclose(loss, -20.0 * math.log10(2.0 * Z0 / 1e-200), rtol=1e-12, atol=0.0)


class TestStlDirect:
    def test_trivial_cases(self):
        grid = FrequencyGrid([1000.0])
        amps = make_amplitudes(grid, 1.0, 0.0, 1.0, 0.0)
        assert stl_direct_anechoic(amps)[0] == pytest.approx(0.0, abs=1e-12)
        amps = make_amplitudes(grid, 1.0, 0.0, 0.5, 0.0)
        assert stl_direct_anechoic(amps)[0] == pytest.approx(20.0 * math.log10(2.0), rel=1e-12)

    def test_quality_warning(self):
        # |D/C| = 0.4: analyze_four_mic reports it and warns of nothing; the stl command words it
        grid = FrequencyGrid([1000.0])
        spectra = four_mic_spectra(grid, GEOMETRY, 1.0, 0.0, 0.5, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            worst = analyze_four_mic(spectra, GEOMETRY, AIR).worst_quality
        assert worst.tolist() == [pytest.approx(0.4, rel=1e-9)]
        assert worst[0] > QUALITY_THRESHOLD
        assert str(AnechoicQualityWarning(worst[0], QUALITY_THRESHOLD)) == (
            "anechoic assumption violated: max |D/C| = 0.4 exceeds 0.01"
        )

    def test_stl_direct_anechoic_issues_no_warning(self):
        spectra = noisy_spectra(FrequencyGrid.from_range(100.0, 2000.0, 10.0), 1)  # |D/C| about 0.22
        amplitudes = decompose_four_mic(spectra, GEOMETRY, AIR)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stl_direct_anechoic(amplitudes)

    def test_worst_quality_is_each_rows_largest_finite_ratio(self):
        grid = FrequencyGrid.from_range(100.0, 2500.0, 5.0)  # both pairs are blind at 2 145 Hz
        one = noisy_spectra(grid, 1)
        # no downstream pressure, so |D/C| is 0/0 at every bin
        silent = MicSpectra(grid, [*noisy_spectra(grid, 2).pressures[:2], *np.zeros((2, len(grid)))])
        for spectra, n_rows in ((one, 1), (stacked([one, noisy_spectra(grid, 3), silent]), 3)):
            analysis = analyze_four_mic(spectra, GEOMETRY, AIR)
            ratio = anechoic_quality(analysis.amplitudes).reshape(n_rows, -1).tolist()
            assert analysis.worst_quality.shape == (n_rows,)
            assert analysis.worst_quality.tolist() == [
                max((q for q in row if math.isfinite(q)), default=-math.inf) for row in ratio
            ]
        assert analysis.worst_quality[-1] == -np.inf

    def test_dual_path_consistency(self):
        # matrix route and direct route agree on clean anechoic fields
        grid = FrequencyGrid.from_range(100.0, 2000.0, 10.0)
        sample = LayerModel.limp_mass(1.135).matrix_on(grid, AIR)
        d = GEOMETRY.sample_thickness
        indicators = acoustic_indicators(sample, d, AIR)
        t_sample, r_sample = indicators.transmission, indicators.reflection
        spectra = four_mic_spectra(grid, GEOMETRY, 1.0, r_sample, t_sample, 0.0)
        amps = decompose_four_mic(spectra, geometry=GEOMETRY, air=AIR)
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
        numerator = 2.0 * np.exp(1j * (2.0 * math.pi * matrix.grid.frequencies / air.sound_speed) * thickness)
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


def _stages(spectra, thickness=GEOMETRY.sample_thickness):
    """Every stage's arrays for one set of spectra: amplitudes, the closed form, faces, matrix, indicators."""
    amplitudes = decompose_four_mic(spectra, GEOMETRY, AIR)
    closed = _closed_form_indicators(amplitudes, thickness, AIR)
    faces = boundary_states(amplitudes, thickness, AIR)
    matrix = reconstruct_one_load(amplitudes.grid, *faces)
    indicators = acoustic_indicators(matrix, thickness, AIR)
    out = {name: getattr(amplitudes, name) for name in "abcd"}
    out.update((f"closed {name}", getattr(closed, name)) for name in ("transmission", "reflection", "stl_db"))
    out.update(zip(("p0", "v0", "pd", "vd"), faces))
    out.update((name, getattr(matrix, name)) for name in ("t11", "t12", "t21", "t22"))
    out.update((name, getattr(indicators, name)) for name in ("transmission", "reflection", "stl_db"))
    out["stl_direct_db"] = stl_direct_anechoic(amplitudes)
    return out


@functools.cache
def _scaled_file():
    """The 40 dB-SNR limp-mass file of 19 001 bins, 8 of them blind spots, and its analysis."""
    spectra = noisy_spectra(WIDE_GRID, 1)
    return spectra, analyze_four_mic(spectra, GEOMETRY, AIR)


class TestBitsOfABin:
    """A bin's bits depend on its own inputs only: not on the grid's length, not on other rows."""

    def test_whole_file_and_its_slices_agree_in_every_stage(self):
        spectra = noisy_spectra(WIDE_GRID, 2)
        whole = _stages(spectra)
        for lo, hi, part in row_slices(spectra):
            for name, values in _stages(part).items():
                assert values.tobytes() == whole[name][lo:hi].tobytes(), (name, lo)

    @pytest.mark.parametrize("thickness", [0.0, GEOMETRY.sample_thickness])
    @pytest.mark.parametrize("grid", [FrequencyGrid.from_range(100.0, 2000.0, 10.0), WIDE_GRID], ids=["191", "19001"])
    def test_rows_of_one_batch_agree_with_each_file_alone(self, grid, thickness):
        measurements = [noisy_spectra(grid, seed) for seed in range(3)]
        batch = _stages(stacked(measurements), thickness)
        for row, spectra in enumerate(measurements):
            for name, values in _stages(spectra, thickness).items():
                assert batch[name].shape == (3, len(grid)), name
                assert batch[name][row].tobytes() == values.tobytes(), (name, row)

    # Stated before the first run: pressures times 2^k, exact on both parts, give the loss of k = 0 bit
    # for bit at every k from -997 to 1020 on this file. The range ends where that scaling is no longer
    # exact: below -997 the file's smallest pressure part (4.7e-8 Pa, above 2^-25) turns subnormal and
    # loses bits, and above 1020 its largest amplitude part (9.3 Pa, below 2^4) overflows, so the
    # decomposition refuses the file. The matrix route dropped every bin at k = +-520.
    SCALES = (-997, 1020)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(k=st.integers(*SCALES))
    @example(k=SCALES[0])
    @example(k=SCALES[1])
    @example(k=-520)
    @example(k=520)
    def test_the_loss_does_not_depend_on_the_pressures_scale(self, k):
        spectra, analysis = _scaled_file()
        scaled = np.empty_like(spectra.pressures)
        scaled.real, scaled.imag = np.ldexp(spectra.pressures.real, k), np.ldexp(spectra.pressures.imag, k)
        got = analyze_four_mic(MicSpectra(spectra.grid, scaled), GEOMETRY, AIR).indicators.stl_db
        assert np.isfinite(got).sum() == 18993
        assert _bits(got) == _bits(analysis.indicators.stl_db)

    def test_the_scale_range_ends_where_the_scaling_stops_being_exact(self):
        spectra, analysis = _scaled_file()
        parts = np.abs(spectra.pressures.view(float))
        assert np.frexp(parts[parts > 0.0].min())[1] == -1021 - self.SCALES[0]  # 2^(-25 - 997) = 2^-1022
        amplitudes = np.stack([getattr(analysis.amplitudes, name) for name in "abcd"])
        assert np.frexp(np.nanmax(np.abs(amplitudes.view(float))))[1] == 1024 - self.SCALES[1]

    def test_synth_of_a_whole_grid_and_its_slices_agree(self):
        scenario = SynthScenario(LayerModel.limp_mass(1.135), GEOMETRY, AIR, termination_ratio=0.2 + 0.1j)
        whole = synth_mic_pressures(scenario, WIDE_GRID)
        for lo, hi, part in row_slices(whole):
            alone = synth_mic_pressures(scenario, part.grid).pressures
            for mic, values in enumerate(whole.pressures):
                assert alone[mic].tobytes() == values[lo:hi].tobytes(), (mic, lo)


# one bin of a passive measurement: (f in Hz, |A|, |B/A|, |C/A|, |D/C|, and the phases of A, B/A,
# C/A and D/C); the sample reflects and transmits no more than reaches it, the termination reflects
# no more than reaches it. A ratio is 0 or at least 1e-100: the route's matrix entries grow as 1 / |T|,
# so below |T| of about 1e-306 they overflow, or its denominator P0 Vd + Pd V0 turns subnormal, and it drops
# or loses a bin that the closed form keeps.
RATIOS = st.one_of(st.just(0.0), st.floats(1e-100, 1.0))
PASSIVE_BINS = st.tuples(
    st.floats(20.0, 6000.0), st.floats(1e-3, 1e3), *[RATIOS] * 3, *[st.floats(-math.pi, math.pi)] * 4
)


def _passive_amplitudes(bins) -> PlaneWaveAmplitudes:
    f, size, b_a, c_a, d_c, *phases = map(np.array, zip(*sorted(bins)))
    a, b_a, c_a, d_c = (ratio * np.exp(1j * phase) for ratio, phase in zip((size, b_a, c_a, d_c), phases))
    return PlaneWaveAmplitudes(FrequencyGrid(f), a, a * b_a, a * c_a, a * c_a * d_c)


class TestClosedForm:
    """The closed form ``analyze_four_mic`` runs, against the matrix route as the reference:
    ``boundary_states`` -> ``reconstruct_one_load`` -> ``acoustic_indicators``."""

    # The tolerance, stated before the test first ran: with cond the closed form's condition factor,
    # |T - T_route| <= 32 eps cond |T_route| and |R - R_route| <= 32 eps cond (1 + |R_route|). R's error is
    # bounded absolutely as well, as the route takes R's numerator from matrix entries of the size of T's
    # denominator terms. Both keep every bin where cond < 1e9 (the route's own rule drops a bin at a
    # relative 1e-12); where cond is larger either side may drop it. Where T's numerator AC - BDE vanishes
    # (no downstream wave) cond is NaN: the route drops the bin, and the closed form keeps it with T = 0.
    TOLERANCE = 32 * np.finfo(float).eps
    WELL_DEFINED = 1e9

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(bins=st.lists(PASSIVE_BINS, min_size=1, max_size=8, unique_by=lambda b: b[0]), thickness=st.floats(0.0, 0.5))
    def test_the_route_agrees_with_the_closed_form(self, bins, thickness):
        amplitudes = _passive_amplitudes(bins)
        faces = boundary_states(amplitudes, thickness, AIR)
        route = acoustic_indicators(reconstruct_one_load(amplitudes.grid, *faces), thickness, AIR)
        got = _closed_form_indicators(amplitudes, thickness, AIR)
        cond = closed_form_condition(amplitudes, thickness, AIR)
        one_side = (route.valid & ~np.isfinite(cond)) | (~(route.valid & got.valid) & (cond < self.WELL_DEFINED))
        for i in np.flatnonzero(one_side):
            raise AssertionError(
                f"bin {i} ({amplitudes.grid.frequencies[i]} Hz) kept by one side only: route T "
                f"{route.transmission[i]}, R {route.reflection[i]}; closed form T {got.transmission[i]}, "
                f"R {got.reflection[i]}, cond {cond[i]}"
            )
        assert (got.transmission[got.valid & ~np.isfinite(cond)] == 0.0).all()
        kept = route.valid & got.valid
        t, r, c = route.transmission[kept], route.reflection[kept], cond[kept]
        t_error = abs(got.transmission[kept] - t)
        r_error = abs(got.reflection[kept] - r)
        assert (t_error <= self.TOLERANCE * c * abs(t)).all(), (t_error, c, t)
        assert (r_error <= self.TOLERANCE * c * (1.0 + abs(r))).all(), (r_error, c, r)

    def test_a_transmission_below_1e_306_keeps_its_bin(self):
        # the matrix route's entries grow as 1 / |T| and overflow here, so it drops this bin
        amplitudes = make_amplitudes(FrequencyGrid([500.0]), 1.0, 0.5, 1e-306, 0.3e-306)
        got = _closed_form_indicators(amplitudes, 0.01, AIR)
        e = cmath.exp(2j * amplitudes.grid.wavenumbers(AIR)[0] * 0.01)
        assert got.valid.tolist() == [True]
        assert got.transmission[0] == pytest.approx(1e-306 * (1.0 - 0.15 * e), rel=4 * np.finfo(float).eps)
        assert abs(got.transmission[0]) == pytest.approx(8.5e-307, rel=0.01)
        assert got.reflection[0] == 0.5

    @pytest.mark.parametrize("thickness", [0.0, 0.01])
    def test_no_downstream_wave_transmits_nothing_and_reflects_b_over_a(self, thickness):
        a, b = 0.8 - 0.6j, -0.3 + 0.55j
        got = _closed_form_indicators(make_amplitudes(FrequencyGrid([1000.0]), a, b, 0.0, 0.0), thickness, AIR)
        assert got.valid.tolist() == [True]
        assert got.transmission[0] == 0.0 and got.stl_db[0] == np.inf
        assert got.reflection[0] == pytest.approx(b / a, rel=4 * np.finfo(float).eps)


# real and imaginary parts: signed zeros, infinities, NaN, the smallest subnormal, magnitudes whose
# squares and products underflow or overflow, and ordinary values
EDGE_PARTS = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    *(sign * size for sign in (1.0, -1.0) for size in (1e160, 1e-160, 1e300, 1e-300)),
)
PART = st.one_of(st.sampled_from(EDGE_PARTS), st.floats(-1e3, 1e3))


@st.composite
def per_bin_arrays(draw, count: int) -> tuple:
    """A grid of n bins and ``count`` complex arrays of one drawn shape, ``(n,)`` or ``(R, n)``.

    Every part comes from a drawn alphabet of one to four values, so that all
    the entries of a bin often share one regime (all subnormal, say). Each
    array is built from its real and imaginary parts, so no arithmetic (and
    no numpy warning) touches a drawn value before the route does.
    """
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from([(n,), (draw(st.integers(1, 3)), n)]))
    size = math.prod(shape)
    alphabet = st.sampled_from(draw(st.lists(PART, min_size=1, max_size=4)))
    arrays = []
    for _ in range(count):
        parts = draw(st.lists(alphabet, min_size=2 * size, max_size=2 * size))
        values = np.empty(shape, dtype=complex)
        values.real = np.reshape(parts[:size], shape)
        values.imag = np.reshape(parts[size:], shape)
        arrays.append(values)
    return FrequencyGrid(100.0 * np.arange(1.0, n + 1.0)), arrays


def _bits(values: np.ndarray) -> list:
    return np.ascontiguousarray(values).view(np.int64).tolist()


def _one_bin(*entries) -> tuple:
    return FrequencyGrid([100.0]), [np.array([value], dtype=complex) for value in entries]


class TestDropPathBits:
    """Each stage's outputs equal, bit for bit, those of the ``np.where`` drop path in ``helpers``."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(drawn=per_bin_arrays(4))
    def test_reconstruct_one_load(self, drawn):
        grid, faces = drawn
        matrix = reconstruct_one_load(grid, *faces)
        for name, want in zip(("t11", "t12", "t21", "t22"), drop_route_reconstruct(*faces)):
            assert _bits(getattr(matrix, name)) == _bits(want), name

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(drawn=per_bin_arrays(4))
    # a subnormal denominator passes its check, but T = 2 / den overflows while R = 1 stays finite
    @example(drawn=_one_bin(5e-324, 0.0, 0.0, 0.0))
    # a vanishing denominator, where R's quotient is not NaN itself
    @example(drawn=_one_bin(1.0, 0.0, 0.0, -1.0))
    def test_acoustic_indicators(self, drawn):
        grid, entries = drawn
        matrix = TransferMatrix(grid, *entries)
        for thickness in (0.0, 0.01, 1e300):
            got = acoustic_indicators(matrix, thickness, AIR)
            for name, want in zip(("transmission", "reflection", "stl_db"), drop_route_indicators(matrix, thickness)):
                assert _bits(getattr(got, name)) == _bits(want), (name, thickness)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(drawn=per_bin_arrays(4))
    def test_stl_direct_anechoic(self, drawn):
        grid, waves = drawn
        amplitudes = PlaneWaveAmplitudes(grid, *waves)
        assert _bits(stl_direct_anechoic(amplitudes)) == _bits(drop_route_stl_direct(amplitudes))
