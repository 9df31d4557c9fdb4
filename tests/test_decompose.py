import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubeloss import (
    ComplexSpectrum,
    FrequencyGrid,
    GridMismatchError,
    TubeGeometry,
    decompose_four_mic,
    decompose_pair,
)

from helpers import AIR, GEOMETRY, field_spectrum, four_mic_spectra

finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def test_pure_forward_wave():
    grid = FrequencyGrid([400.0, 800.0, 1200.0])
    k = grid.wavenumbers(AIR)
    p_a = field_spectrum(grid, -0.30, 1.0, 0.0)
    p_b = field_spectrum(grid, -0.25, 1.0, 0.0)
    forward, backward, singular = decompose_pair(p_a, p_b, -0.30, -0.25, k)
    assert not singular.any()
    assert np.allclose(forward, 1.0, atol=1e-12)
    assert np.allclose(backward, 0.0, atol=1e-12)


def test_pure_backward_wave():
    grid = FrequencyGrid([400.0, 800.0, 1200.0])
    k = grid.wavenumbers(AIR)
    p_a = field_spectrum(grid, -0.30, 0.0, 1.0)
    p_b = field_spectrum(grid, -0.25, 0.0, 1.0)
    forward, backward, _ = decompose_pair(p_a, p_b, -0.30, -0.25, k)
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
        forward, backward, _ = decompose_pair(p_a, p_b, -0.30, -0.25, k)
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
    forward, backward, singular = decompose_pair(p_a, p_b, -0.30, -0.25, k)
    keep = ~singular
    rebuilt = forward * np.exp(-1j * k * -0.30) + backward * np.exp(1j * k * -0.30)
    assert np.all(
        np.abs(p_a.values[keep] - rebuilt[keep]) <= 1e-9 * np.maximum(np.abs(p_a.values[keep]), 1e-30)
    )


def test_four_mic_recovery():
    grid = FrequencyGrid.from_range(100.0, 2000.0, 100.0)
    spectra = four_mic_spectra(grid, GEOMETRY, 1.0, 0.3j, 0.5, 0.0)
    amps = decompose_four_mic(*spectra, geometry=GEOMETRY, air=AIR)
    assert amps.valid.all()
    assert np.allclose(amps.a, 1.0, atol=1e-10)
    assert np.allclose(amps.b, 0.3j, atol=1e-10)
    assert np.allclose(amps.c, 0.5, atol=1e-10)
    assert np.allclose(amps.d, 0.0, atol=1e-10)


def test_half_wavelength_singularity_excluded():
    # 0.1 m spacing is blind at c / (2 * 0.1) = 1716 Hz.
    geometry = TubeGeometry((-0.35, -0.25, 0.25, 0.35), 0.001, 0.0998)
    grid = FrequencyGrid([1000.0, 1716.0, 2000.0])
    spectra = four_mic_spectra(grid, geometry, 1.0, 0.2, 0.8, 0.1)
    amps = decompose_four_mic(*spectra, geometry=geometry, air=AIR)
    assert amps.upstream_singular.tolist() == [False, True, False]
    assert amps.downstream_singular.tolist() == [False, True, False]
    assert np.isnan(amps.a[1])
    recorded = amps.singular_frequencies()
    assert recorded["upstream"].tolist() == [1716.0]
    assert recorded["downstream"].tolist() == [1716.0]
    # the sound bins survive
    assert np.isfinite(amps.a[[0, 2]]).all()


def test_all_zero_pressures_give_zero_amplitudes():
    grid = FrequencyGrid([500.0, 900.0])
    zero = ComplexSpectrum(grid, [0.0, 0.0])
    amps = decompose_four_mic(zero, zero, zero, zero, geometry=GEOMETRY, air=AIR)
    assert amps.valid.all()
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

    mix_p = ComplexSpectrum(grid, alpha * p.values + beta * other_p.values)
    mix_q = ComplexSpectrum(grid, alpha * q.values + beta * other_q.values)
    f_mix, b_mix, _ = decompose_pair(mix_p, mix_q, -0.30, -0.25, k)
    f_p, b_p, _ = decompose_pair(p, q, -0.30, -0.25, k)
    f_o, b_o, _ = decompose_pair(other_p, other_q, -0.30, -0.25, k)
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
    f1, g1, _ = decompose_pair(p_a, p_b, x_a, x_b, k)
    # same pressures, coordinates re-expressed relative to a shifted origin
    f2, g2, _ = decompose_pair(p_a, p_b, x_a - shift, x_b - shift, k)
    assert np.allclose(f2, f1 * np.exp(-1j * k * shift), atol=1e-12)
    assert np.allclose(g2, g1 * np.exp(1j * k * shift), atol=1e-12)


def test_equal_positions_rejected():
    grid = FrequencyGrid([500.0])
    p = field_spectrum(grid, -0.3, 1.0, 0.0)
    with pytest.raises(ValueError):
        decompose_pair(p, p, -0.3, -0.3, grid.wavenumbers(AIR))


def test_grid_mismatch_rejected():
    p = ComplexSpectrum(FrequencyGrid([500.0]), [1.0])
    q = ComplexSpectrum(FrequencyGrid([600.0]), [1.0])
    with pytest.raises(GridMismatchError):
        decompose_pair(p, q, -0.3, -0.25, np.array([9.0]))
