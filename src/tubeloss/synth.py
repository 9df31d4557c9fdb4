"""Synthetic four-microphone benches and idealized two-room level tables.

Given a known sample model, the bench solves the duct boundary-value problem
for the wave amplitudes, evaluates the pressures the four microphones would
see, and optionally adds seeded circular complex noise. It is the independent
oracle for end-to-end verification of the measurement pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bands import BandTable
from .core import AirProperties, ComplexSpectrum, FrequencyGrid, TubeGeometry
from .errors import BandMismatchError, NumericalValidityError
from .models import LayerModel, cascade

__all__ = ["SynthScenario", "synth_mic_pressures", "synth_room_levels"]


@dataclass(frozen=True)
class SynthScenario:
    """Everything needed to generate one synthetic measurement.

    The termination is parameterized by the downstream amplitude ratio D/C;
    0 is a perfect anechoic end, and any magnitude below 1 models an
    imperfect absorber. Noise is independent circular complex Gaussian per
    microphone per bin, with amplitude set by ``snr_db`` relative to the
    incident amplitude; ``None`` disables it.
    """

    sample: tuple[LayerModel, ...]
    geometry: TubeGeometry
    air: AirProperties
    incident_amplitude: complex = 1.0 + 0.0j
    termination_ratio: complex = 0.0 + 0.0j
    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        layers = (self.sample,) if isinstance(self.sample, LayerModel) else tuple(self.sample)
        if not layers or not all(isinstance(l, LayerModel) for l in layers):
            raise ValueError("sample must be one or more LayerModels")
        object.__setattr__(self, "sample", layers)
        ratio = complex(self.termination_ratio)
        if abs(ratio) >= 1.0:
            raise ValueError("termination ratio magnitude must be below 1")
        object.__setattr__(self, "termination_ratio", ratio)
        object.__setattr__(self, "incident_amplitude", complex(self.incident_amplitude))
        if self.snr_db is not None and not np.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite or None")


def synth_mic_pressures(
    scenario: SynthScenario,
    grid: FrequencyGrid,
) -> tuple[ComplexSpectrum, ComplexSpectrum, ComplexSpectrum, ComplexSpectrum]:
    """Microphone pressures for a known sample under a given termination.

    The downstream field is C e^{-jkx} + D e^{jkx} with D = ratio * C; the
    upstream amplitudes follow from propagating the exit state through the
    sample matrix, so the generated field is exactly consistent with the
    sample at every frequency. For an anechoic termination this reduces to
    B = R A and C = T A with R, T the sample's anechoic coefficients.

    Parameters
    ----------
    scenario : SynthScenario
        Sample, geometry, air, termination, and noise settings.
    grid : FrequencyGrid
        Evaluation grid.

    Returns
    -------
    tuple of ComplexSpectrum
        Pressures at the four microphone positions, noise included when
        configured. Identical scenario and seed give bit-identical spectra.

    Raises
    ------
    NumericalValidityError
        The sample and termination leave the incident wave per unit transmitted
        wave zero or non-finite at some bin, so the field cannot be solved.
    """
    geometry = scenario.geometry
    air = scenario.air
    matrix = cascade(scenario.sample, grid, air)
    k = grid.wavenumbers(air)
    z = air.impedance
    d = geometry.sample_thickness
    ratio = scenario.termination_ratio
    a_inc = scenario.incident_amplitude

    # Exit-face state for a unit downstream forward wave, then the matching
    # entry-face state through the sample matrix.
    phase_out = np.exp(-1j * k * d)
    phase_back = np.exp(1j * k * d)
    pd_unit = phase_out + ratio * phase_back
    vd_unit = (phase_out - ratio * phase_back) / z
    p0_unit = matrix.t11 * pd_unit + matrix.t12 * vd_unit
    v0_unit = matrix.t21 * pd_unit + matrix.t22 * vd_unit

    forward_unit = 0.5 * (p0_unit + z * v0_unit)  # incident amplitude per unit C
    if np.any(~np.isfinite(forward_unit)) or np.any(forward_unit == 0.0):
        raise NumericalValidityError("sample/termination combination is singular on this grid")
    c = a_inc / forward_unit
    b = 0.5 * (p0_unit - z * v0_unit) * c
    d_amp = ratio * c

    x1, x2, x3, x4 = geometry.mic_positions
    pressures = [
        a_inc * np.exp(-1j * k * x1) + b * np.exp(1j * k * x1),
        a_inc * np.exp(-1j * k * x2) + b * np.exp(1j * k * x2),
        c * np.exp(-1j * k * x3) + d_amp * np.exp(1j * k * x3),
        c * np.exp(-1j * k * x4) + d_amp * np.exp(1j * k * x4),
    ]

    if scenario.snr_db is not None:
        sigma = abs(a_inc) * 10.0 ** (-scenario.snr_db / 20.0)
        rng = np.random.default_rng(scenario.seed)
        draws = rng.standard_normal((4, len(grid), 2))
        noise = sigma * (draws[..., 0] + 1j * draws[..., 1]) / np.sqrt(2.0)
        pressures = [p + n for p, n in zip(pressures, noise)]

    return tuple(ComplexSpectrum(grid, p) for p in pressures)


def synth_room_levels(
    source_spectrum: BandTable,
    transmission: BandTable,
) -> tuple[BandTable, BandTable]:
    """Idealized two-room receiver levels before and after installation.

    The receiver level simply drops by the transmission table per band; no
    flanking, no room correction. Meant to wire-test the insertion-loss
    pipeline, not to model rooms.
    """
    if not source_spectrum.same_bands(transmission):
        raise BandMismatchError("source spectrum and transmission use different band sets")
    l_r0 = source_spectrum
    l_rs = BandTable(
        l_r0.bands,
        l_r0.values - transmission.values,
        np.minimum(l_r0.coverage, transmission.coverage),
    )
    return l_r0, l_rs
