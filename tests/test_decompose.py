import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubeloss import (
    SINGULARITY_TOLERANCE,
    FrequencyGrid,
    MicSpectra,
    PlaneWaveAmplitudes,
    TubeGeometry,
    decompose_four_mic,
    decompose_pair,
)
from tubeloss.io_files import read_mic_spectra, write_mic_spectra

from helpers import AIR, GEOMETRY, WIDE_GRID, field_spectrum, four_mic_spectra, noisy_spectra, row_slices, stacked

finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def test_pure_forward_wave():
    grid = FrequencyGrid([400.0, 800.0, 1200.0])
    k = grid.wavenumbers(AIR)
    p_a = field_spectrum(grid, -0.30, 1.0, 0.0)
    p_b = field_spectrum(grid, -0.25, 1.0, 0.0)
    forward, backward = decompose_pair(p_a, p_b, -0.30, -0.25, k)
    assert np.isfinite(forward).all()
    assert np.allclose(forward, 1.0, atol=1e-12)
    assert np.allclose(backward, 0.0, atol=1e-12)


def test_pure_backward_wave():
    grid = FrequencyGrid([400.0, 800.0, 1200.0])
    k = grid.wavenumbers(AIR)
    p_a = field_spectrum(grid, -0.30, 0.0, 1.0)
    p_b = field_spectrum(grid, -0.25, 0.0, 1.0)
    forward, backward = decompose_pair(p_a, p_b, -0.30, -0.25, k)
    assert np.allclose(forward, 0.0, atol=1e-12)
    assert np.allclose(backward, 1.0, atol=1e-12)


def test_round_trip_800_hz_random_amplitudes():
    rng = np.random.default_rng(8001)
    grid = FrequencyGrid([800.0])
    k = grid.wavenumbers(AIR)
    for _ in range(20):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        p_a = field_spectrum(grid, -0.30, a, b)
        p_b = field_spectrum(grid, -0.25, a, b)
        forward, backward = decompose_pair(p_a, p_b, -0.30, -0.25, k)
        assert abs(forward[0] - a) <= 1e-10 * max(abs(a), 1.0)
        assert abs(backward[0] - b) <= 1e-10 * max(abs(b), 1.0)


def test_reconstruction_residual_bound():
    # The recovered pair must reproduce the input pressure to 1e-9 relative.
    rng = np.random.default_rng(42)
    grid = FrequencyGrid.from_range(100.0, 2000.0, 50.0)
    k = grid.wavenumbers(AIR)
    a = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
    b = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
    p_a = field_spectrum(grid, -0.30, a, b)
    p_b = field_spectrum(grid, -0.25, a, b)
    forward, backward = decompose_pair(p_a, p_b, -0.30, -0.25, k)
    keep = np.isfinite(forward)
    rebuilt = forward * np.exp(-1j * k * -0.30) + backward * np.exp(1j * k * -0.30)
    assert np.all(
        np.abs(p_a[keep] - rebuilt[keep]) <= 1e-9 * np.maximum(np.abs(p_a[keep]), 1e-30)
    )


def test_four_mic_recovery():
    grid = FrequencyGrid.from_range(100.0, 2000.0, 100.0)
    spectra = four_mic_spectra(grid, GEOMETRY, 1.0, 0.3j, 0.5, 0.0)
    amps = decompose_four_mic(spectra, geometry=GEOMETRY, air=AIR)
    assert not (amps.upstream_singular | amps.downstream_singular).any()
    assert np.allclose(amps.a, 1.0, atol=1e-10)
    assert np.allclose(amps.b, 0.3j, atol=1e-10)
    assert np.allclose(amps.c, 0.5, atol=1e-10)
    assert np.allclose(amps.d, 0.0, atol=1e-10)


def test_half_wavelength_singularity_excluded():
    # 0.1 m spacing is blind at c / (2 * 0.1) = 1716 Hz.
    geometry = TubeGeometry((-0.35, -0.25, 0.25, 0.35), 0.001, 0.0998)
    grid = FrequencyGrid([1000.0, 1716.0, 2000.0])
    spectra = four_mic_spectra(grid, geometry, 1.0, 0.2, 0.8, 0.1)
    amps = decompose_four_mic(spectra, geometry=geometry, air=AIR)
    assert amps.upstream_singular.tolist() == [False, True, False]
    assert amps.downstream_singular.tolist() == [False, True, False]
    assert np.isnan(amps.a[1])
    # the sound bins survive
    assert np.isfinite(amps.a[[0, 2]]).all()


def test_pair_masks_are_read_from_the_nans():
    grid = FrequencyGrid([500.0, 900.0, 1300.0])
    amplitudes = {name: np.full(3, 0.5 + 0.25j) for name in "abcd"}
    amplitudes["b"][1] = complex(np.nan, np.nan)
    amplitudes["c"][2] = complex(np.inf, 0.0)
    amps = PlaneWaveAmplitudes(grid, **amplitudes)
    assert amps.upstream_singular.tolist() == [False, True, False]
    assert amps.downstream_singular.tolist() == [False, False, True]


def test_overflowing_pressures_raise_one_value_error_without_numpy_warnings(tmp_path):
    # 1.7e308 Pa of opposite signs at the two microphones of a pair: their difference overflows
    grid = FrequencyGrid([500.0, 900.0])
    big, negative = [1.7e308, 1.7e308], [-1.7e308, -1.7e308]
    path = tmp_path / "huge.csv"
    write_mic_spectra(path, MicSpectra(grid, [big, negative, big, negative]), GEOMETRY, AIR)
    spectra, geometry, air = read_mic_spectra(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^amplitudes must be finite at every retained frequency$"):
            decompose_four_mic(spectra, geometry=geometry, air=air)


def test_all_zero_pressures_give_zero_amplitudes():
    grid = FrequencyGrid([500.0, 900.0])
    amps = decompose_four_mic(MicSpectra(grid, np.zeros((4, 2))), geometry=GEOMETRY, air=AIR)
    assert not (amps.upstream_singular | amps.downstream_singular).any()
    for arr in (amps.a, amps.b, amps.c, amps.d):
        assert np.allclose(arr, 0.0)


@settings(max_examples=30, deadline=None)
@given(
    a=finite_complex,
    b=finite_complex,
    alpha=finite_complex,
    beta=finite_complex,
)
def test_linearity(a, b, alpha, beta):
    grid = FrequencyGrid([700.0])
    k = grid.wavenumbers(AIR)
    p = field_spectrum(grid, -0.30, a, b)
    q = field_spectrum(grid, -0.25, a, b)
    other_p = field_spectrum(grid, -0.30, b, a)
    other_q = field_spectrum(grid, -0.25, b, a)

    mix_p = alpha * p + beta * other_p
    mix_q = alpha * q + beta * other_q
    f_mix, b_mix = decompose_pair(mix_p, mix_q, -0.30, -0.25, k)
    f_p, b_p = decompose_pair(p, q, -0.30, -0.25, k)
    f_o, b_o = decompose_pair(other_p, other_q, -0.30, -0.25, k)
    scale = max(abs(alpha), abs(beta), 1.0) * max(abs(a), abs(b), 1.0)
    assert abs(f_mix[0] - (alpha * f_p[0] + beta * f_o[0])) <= 1e-9 * scale
    assert abs(b_mix[0] - (alpha * b_p[0] + beta * b_o[0])) <= 1e-9 * scale


def test_translation_covariance():
    # The same physical pressures expressed in a shifted coordinate frame give
    # amplitudes rotated by e^{-jk shift} (forward) and e^{+jk shift} (backward).
    grid = FrequencyGrid([600.0, 1100.0])
    k = grid.wavenumbers(AIR)
    shift = 0.07
    a, b = 0.8 - 0.1j, 0.25 + 0.4j
    x_a, x_b = -0.30, -0.25

    p_a = field_spectrum(grid, x_a, a, b)
    p_b = field_spectrum(grid, x_b, a, b)
    f1, g1 = decompose_pair(p_a, p_b, x_a, x_b, k)
    # same pressures, coordinates re-expressed relative to a shifted origin
    f2, g2 = decompose_pair(p_a, p_b, x_a - shift, x_b - shift, k)
    assert np.allclose(f2, f1 * np.exp(-1j * k * shift), atol=1e-12)
    assert np.allclose(g2, g1 * np.exp(1j * k * shift), atol=1e-12)


def test_equal_positions_rejected():
    grid = FrequencyGrid([500.0])
    p = field_spectrum(grid, -0.3, 1.0, 0.0)
    with pytest.raises(ValueError):
        decompose_pair(p, p, -0.3, -0.3, grid.wavenumbers(AIR))


def test_wavenumbers_of_another_length_rejected():
    p = q = np.ones((2, 3), dtype=complex)
    for k in (np.array([9.0, 10.0]), np.array([9.0, 10.0, 11.0, 12.0]), np.full((2, 3), 9.0)):
        with pytest.raises(ValueError, match="wavenumber array must match the pressures' last axis"):
            decompose_pair(p, q, -0.3, -0.25, k)


def test_a_bins_amplitudes_do_not_depend_on_the_grids_length():
    # whole, every array is past numpy's in-place threshold; in 1 000-bin slices none is
    spectra = noisy_spectra(WIDE_GRID, 1)
    whole = decompose_four_mic(spectra, GEOMETRY, AIR)
    assert whole.upstream_singular.any()  # the blind spots are in the comparison
    for lo, hi, part in row_slices(spectra):
        amps = decompose_four_mic(part, GEOMETRY, AIR)
        for name in "abcd":
            assert getattr(amps, name).tobytes() == getattr(whole, name)[lo:hi].tobytes(), (name, lo)


@pytest.mark.parametrize("grid", [FrequencyGrid.from_range(100.0, 2000.0, 10.0), WIDE_GRID], ids=["191", "19001"])
def test_repetitions_decompose_on_one_axis_with_each_files_bits(grid):
    measurements = [noisy_spectra(grid, seed) for seed in range(3)]
    batch = decompose_four_mic(stacked(measurements), GEOMETRY, AIR)
    for row, spectra in enumerate(measurements):
        alone = decompose_four_mic(spectra, GEOMETRY, AIR)
        for name in "abcd":
            assert getattr(batch, name).shape == (3, len(grid))
            assert getattr(batch, name)[row].tobytes() == getattr(alone, name).tobytes(), (name, row)
        np.testing.assert_array_equal(batch.upstream_singular[row], alone.upstream_singular)
        np.testing.assert_array_equal(batch.downstream_singular[row], alone.downstream_singular)


def test_one_spectrum_of_rows_among_single_ones_is_rejected():
    grid = FrequencyGrid.from_range(100.0, 500.0, 100.0)
    p1, p2, p3, p4 = four_mic_spectra(grid, GEOMETRY, 1.0, 0.3j, 0.5, 0.0).pressures
    with pytest.raises(ValueError, match="shape"):
        MicSpectra(grid, [np.stack([p1, p1]), p2, p3, p4])



def _pair_with_own_back_phases(p_a, p_b, x_a, x_b, k):
    """``decompose_pair``'s arithmetic at the retained bins, each e^{-jkx} taken from an exponential of its own."""
    forward = np.multiply(p_a, np.exp(1j * k * x_b)) - np.multiply(p_b, np.exp(1j * k * x_a))
    backward = np.multiply(p_b, np.exp(-1j * k * x_a)) - np.multiply(p_a, np.exp(-1j * k * x_b))
    den = 2.0 * np.sin(k * (x_a - x_b))
    return [np.divide(np.multiply(1j, diff), den) for diff in (forward, backward)]


# the corpus and benchmark tube (GEOMETRY's pairs), the other layout the tests use, a microphone at the
# sample face, and positions so small that k x underflows to zero at the low bins
@pytest.mark.parametrize(
    "x_a, x_b",
    [(-0.33, -0.25), (0.25, 0.33), (-0.35, -0.25), (0.25, 0.35), (-0.08, 0.0), (0.0, 0.08), (-0.0, 0.08),
     (5e-324, 0.08), (-0.08, -1e-310)],
)
def test_each_back_phase_is_the_conjugate_of_its_forward_phase_bit_for_bit(x_a, x_b):
    # decompose_pair takes e^{-jkx} from core._phases, conj(e^{jkx}) + 0.0, whose -0j would show where k x is
    # zero and a pressure part is a signed zero. Every grid of the corpus and the benchmark lies on
    # WIDE_GRID's 1 Hz bins, and a 7 Hz sweep runs on to 1 MHz; the parts cycle through +-0, +-0.3 and +-1.
    f = np.concatenate([WIDE_GRID.frequencies, np.arange(19107.0, 1e6, 7.0)])
    k = FrequencyGrid(f).wavenumbers(AIR)
    combos = np.array(list(itertools.product([0.0, -0.0, 0.3, -0.3, 1.0, -1.0], repeat=4)))
    p_a, p_b = np.empty((2, f.size), dtype=complex)
    p_a.real, p_a.imag, p_b.real, p_b.imag = np.resize(combos, (f.size, 4)).T
    retained = np.abs(np.sin(k * (x_a - x_b))) >= SINGULARITY_TOLERANCE
    for got, want in zip(decompose_pair(p_a, p_b, x_a, x_b, k), _pair_with_own_back_phases(p_a, p_b, x_a, x_b, k)):
        assert got[retained].tobytes() == want[retained].tobytes()
