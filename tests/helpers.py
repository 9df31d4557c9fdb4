"""Shared test fixtures and independent oracles.

The forward field model here is written with plain per-bin arithmetic on
purpose: it is the reference the vectorized package code is checked against.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from tubeloss import (
    AirProperties,
    BandTable,
    FrequencyGrid,
    LayerModel,
    MicSpectra,
    SynthScenario,
    TransferMatrix,
    TubeGeometry,
    stl,
    synth_mic_pressures,
)

AIR = AirProperties()

# Example geometry used throughout the tests. Spacing 0.08 m keeps the first
# half-wavelength singularity (c / 0.16 = 2145 Hz) above a 100..2000 Hz grid.
GEOMETRY = TubeGeometry(
    mic_positions=(-0.33, -0.25, 0.25, 0.33),
    sample_thickness=0.00089,
    tube_diameter=0.0998,
)


def determinant(matrix: TransferMatrix) -> np.ndarray:
    """t11 t22 - t12 t21 of every bin."""
    return matrix.t11 * matrix.t22 - matrix.t12 * matrix.t21


def pressure_at(x: float, k: float, forward: complex, backward: complex) -> complex:
    """Duct pressure F e^{-jkx} + G e^{jkx} at one position and wavenumber."""
    return forward * cmath.exp(-1j * k * x) + backward * cmath.exp(1j * k * x)


def field_spectrum(grid: FrequencyGrid, x: float, forward, backward, air: AirProperties = AIR) -> np.ndarray:
    """Complex pressure spectrum of a two-wave field at position x, bin by bin."""
    forward = np.broadcast_to(np.asarray(forward, dtype=complex), (len(grid),))
    backward = np.broadcast_to(np.asarray(backward, dtype=complex), (len(grid),))
    values = [
        pressure_at(x, 2.0 * math.pi * f / air.sound_speed, fw, bw)
        for f, fw, bw in zip(grid.frequencies, forward, backward)
    ]
    return np.array(values, dtype=complex)


def four_mic_spectra(grid, geometry: TubeGeometry, a, b, c, d, air: AirProperties = AIR) -> MicSpectra:
    """Forward-model spectra at the four microphones for given amplitudes."""
    x1, x2, x3, x4 = geometry.mic_positions
    waves = ((x1, a, b), (x2, a, b), (x3, c, d), (x4, c, d))
    return MicSpectra(grid, [field_spectrum(grid, x, fw, bw, air) for x, fw, bw in waves])


#: 19 001 bins (100-19 100 Hz): each complex array of one measurement on it passes the
#: 256 KiB from which numpy computes an operator on a temporary in place
WIDE_GRID = FrequencyGrid.from_range(100.0, 19100.0, 1.0)


def noisy_spectra(grid: FrequencyGrid, seed: int) -> MicSpectra:
    """Seeded synthetic pressures of a 1.135 kg/m^2 limp mass at 40 dB SNR, termination D/C 0.2+0.1j."""
    scenario = SynthScenario(
        LayerModel.limp_mass(1.135), GEOMETRY, AIR, termination_ratio=0.2 + 0.1j, snr_db=40.0, seed=seed
    )
    return synth_mic_pressures(scenario, grid)


def row_slices(spectra: MicSpectra, rows: int = 1000):
    """``(lo, hi, spectra)``: consecutive slices of ``rows`` bins, each on a grid of its own."""
    grid = spectra.grid
    for lo in range(0, len(grid), rows):
        hi = min(lo + rows, len(grid))
        part = FrequencyGrid(grid.frequencies[lo:hi])
        yield lo, hi, MicSpectra(part, spectra.pressures[..., lo:hi])


def stacked(measurements) -> MicSpectra:
    """The ``(4, R, n)`` spectra of R measurements on one grid, one row each."""
    return MicSpectra(measurements[0].grid, np.stack([m.pressures for m in measurements], axis=1))


def limp_mass_stl_oracle(f, m_s: float, air: AirProperties = AIR):
    """Closed-form normal-incidence loss of a limp layer: 10 log10(1 + (w m / 2 rho c)^2)."""
    w = 2.0 * np.pi * np.asarray(f, dtype=float)
    return 10.0 * np.log10(1.0 + (w * m_s / (2.0 * air.impedance)) ** 2)


def air_layer_matrix_oracle(f: float, thickness: float, air: AirProperties = AIR):
    """Analytic air-layer matrix at a single frequency, as a 2x2 list."""
    k = 2.0 * math.pi * f / air.sound_speed
    z = air.impedance
    kl = k * thickness
    return [
        [cmath.cos(kl), 1j * z * cmath.sin(kl)],
        [1j * cmath.sin(kl) / z, cmath.cos(kl)],
    ]


def closed_form_condition(amplitudes, thickness: float, air: AirProperties = AIR) -> np.ndarray:
    """The condition factor of the one-load route's closed form, per bin.

    With E = e^{2jkd}, the route gives T = (AC - BDE) / (A^2 - D^2 E) and
    R = (AB - CD) / (A^2 - D^2 E). The condition factor is
    (|AC| + |BDE|) / |AC - BDE| + (|A^2| + |D^2 E|) / |A^2 - D^2 E|: the
    rounding of T's numerator and of the shared denominator, relative to their
    values. A bin where a difference vanishes has an infinite or NaN condition.
    """
    a, b, c, d = amplitudes.a, amplitudes.b, amplitudes.c, amplitudes.d
    e = np.exp(2j * amplitudes.grid.wavenumbers(air) * thickness)
    ac, bde, aa, dde = a * c, b * d * e, a * a, d * d * e
    with np.errstate(divide="ignore", invalid="ignore"):
        return (abs(ac) + abs(bde)) / abs(ac - bde) + (abs(aa) + abs(dde)) / abs(aa - dde)


# A reference drop path for the one-load route: each quotient goes through np.where, and T and R
# get a second NaN write. The route, which forms one kept mask per stage, must match it bit for bit.
_NAN = complex(np.nan, np.nan)


def _nonvanishing(den: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Bins where ``den`` is finite and above 1e-12 times its ``scale``."""
    with np.errstate(invalid="ignore"):
        return np.isfinite(den) & (scale > 0.0) & (np.abs(den) > 1e-12 * scale)


def _quotient(num, den: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """``num / den`` at the ``ok`` bins, complex NaN elsewhere, by ``np.where``."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(ok, np.divide(num, den), _NAN)


def drop_route_reconstruct(p0, v0, pd, vd) -> tuple:
    """``reconstruct_one_load``'s four entries by the ``np.where`` route: one quotient, then one where, per entry."""
    with np.errstate(over="ignore", invalid="ignore"):
        den = p0 * vd + pd * v0
        scale = np.abs(p0) * np.abs(vd) + np.abs(pd) * np.abs(v0)
        ok = _nonvanishing(den, scale)
        t11 = _quotient(p0 * v0 + pd * vd, den, ok)
        t12 = _quotient(p0 * p0 - pd * pd, den, ok)
        t21 = _quotient(v0 * v0 - vd * vd, den, ok)
    return t11, t12, t21, t11


def drop_route_indicators(matrix: TransferMatrix, thickness: float, air: AirProperties = AIR) -> tuple:
    """``acoustic_indicators``' T, R and loss by the ``np.where`` route, with a second NaN write for T and R."""
    z = air.impedance
    t11, t12, t21, t22 = matrix.t11, matrix.t12, matrix.t21, matrix.t22
    with np.errstate(over="ignore", invalid="ignore"):
        front = t11 + t12 / z
        back = z * t21
        den = front + back + t22
        ok = _nonvanishing(den, np.abs(t11) + np.abs(t12) / z + z * np.abs(t21) + np.abs(t22))
        phase = 1.0 if thickness == 0.0 else np.exp(1j * matrix.grid.wavenumbers(air) * thickness)
        transmission = _quotient(np.multiply(2.0, phase), den, ok)
        reflection = _quotient(front - back - t22, den, ok)
    dropped = ~(np.isfinite(transmission) & np.isfinite(reflection))
    transmission[dropped] = _NAN
    reflection[dropped] = _NAN
    return transmission, reflection, stl(transmission)


def drop_route_stl_direct(amplitudes) -> np.ndarray:
    """``stl_direct_anechoic`` by the ``np.where`` route, taking |A| twice."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = 20.0 * np.log10(np.abs(amplitudes.a) / np.abs(amplitudes.c))
    return np.where(np.abs(amplitudes.a) == 0.0, np.nan, out)


def _series_impedance(grid, resistance, mass):
    """Passive series element: a limp mass with viscous damping, [[1, r + jwm], [0, 1]]."""
    omega = 2.0 * np.pi * grid.frequencies
    n = len(grid)
    return TransferMatrix(
        grid,
        np.ones(n, dtype=complex),
        resistance + 1j * omega * mass,
        np.zeros(n, dtype=complex),
        np.ones(n, dtype=complex),
    )


def _shunt_admittance(grid, conductance, compliance):
    """Passive shunt element: [[1, 0], [g + jwC, 1]]."""
    omega = 2.0 * np.pi * grid.frequencies
    n = len(grid)
    return TransferMatrix(
        grid,
        np.ones(n, dtype=complex),
        np.zeros(n, dtype=complex),
        conductance + 1j * omega * compliance,
        np.ones(n, dtype=complex),
    )


def build_passive_cascade(rng: np.random.Generator, grid) -> tuple[TransferMatrix, float]:
    """Random cascade of passive circuit elements; returns (matrix, gap thickness).

    Every element has unit determinant and non-negative real part in its
    impedance/admittance, so the scattered power can never exceed the
    incident power.
    """
    n_layers = int(rng.integers(1, 6))
    matrix = None
    thickness = 0.0
    for _ in range(n_layers):
        kind = rng.integers(0, 3)
        if kind == 0:
            gap = float(rng.uniform(0.001, 0.05))
            layer = LayerModel.air_gap(gap).matrix_on(grid, AIR)
            thickness += gap
        elif kind == 1:
            layer = _series_impedance(grid, float(rng.uniform(0.0, 800.0)), float(rng.uniform(0.0, 2.5)))
        else:
            layer = _shunt_admittance(grid, float(rng.uniform(0.0, 0.004)), float(rng.uniform(0.0, 6e-7)))
        matrix = layer if matrix is None else matrix @ layer
    return matrix, thickness


def synth_room_levels(source_spectrum: BandTable, transmission: BandTable) -> tuple[BandTable, BandTable]:
    """Idealized two-room receiver levels before and after installation.

    The receiver level simply drops by the transmission table per band; no
    flanking, no room correction. The insertion-loss oracle: ``il`` on the two
    tables must give back the transmission table.
    """
    if source_spectrum.bands != transmission.bands:
        raise ValueError("source spectrum and transmission use different band sets")
    l_r0 = source_spectrum
    l_rs = BandTable(
        l_r0.bands,
        l_r0.values - transmission.values,
        np.minimum(l_r0.coverage, transmission.coverage),
    )
    return l_r0, l_rs


# Surface densities (kg/m^2) and thicknesses (mm) of the measured curtain and
# sheet materials the toolkit is exercised against.
MATERIALS = (
    ("woolen_felt_soft", 1.235, 0.213),
    ("woolen_felt_stiff", 1.922, 0.252),
    ("tango_curtain", 0.57, 0.224),
    ("polyester_hospital_curtain", 0.6, 0.229),
    ("elephant_mat_type1", 2.276, 0.318),
    ("elephant_mat_type2", 1.682, 0.366),
    ("textured_soft_liner", 1.65, 0.644),
    ("pvc_coated_pe_fabric", 0.89, 1.135),
    ("pure_pvc_sheet", 1.012, 1.216),
)
