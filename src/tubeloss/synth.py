"""Synthetic four-microphone benches.

Given a known sample model, the bench solves the duct boundary-value problem
for the wave amplitudes, evaluates the pressures the four microphones would
see, and optionally adds seeded circular complex noise. It is the independent
oracle for end-to-end verification of the measurement pipeline.
"""
from __future__ import annotations

import numpy as np

from .core import AirProperties, FrequencyGrid, MicSpectra, Record, TubeGeometry, _frozen, _phases
from .errors import NumericalValidityError
from .models import LayerModel, cascade

__all__ = ["SynthScenario", "synth_mic_pressures"]


class SynthScenario(Record):
    """Everything needed to generate one synthetic measurement.

    The termination is parameterized by the downstream amplitude ratio D/C;
    0 is a perfect anechoic end, and any magnitude below 1 models an
    imperfect absorber. Noise is independent circular complex Gaussian per
    microphone per bin, with amplitude set by ``snr_db`` relative to the
    incident amplitude; ``None`` disables it.
    """

    __slots__ = ("sample", "geometry", "air", "incident_amplitude", "termination_ratio", "snr_db", "seed")

    def __init__(
        self,
        sample: tuple[LayerModel, ...],
        geometry: TubeGeometry,
        air: AirProperties,
        incident_amplitude: complex = 1.0 + 0.0j,
        termination_ratio: complex = 0.0 + 0.0j,
        snr_db: float | None = None,
        seed: int = 0,
    ) -> None:
        layers = (sample,) if isinstance(sample, LayerModel) else tuple(sample)
        if not layers or not all(isinstance(l, LayerModel) for l in layers):
            raise ValueError("sample must be one or more LayerModels")
        ratio = complex(termination_ratio)
        if not abs(ratio) < 1.0:  # NaN fails this test too
            raise ValueError("termination ratio magnitude must be below 1")
        incident = complex(incident_amplitude)
        if not np.isfinite(incident):
            raise ValueError("incident amplitude must be finite")
        if snr_db is not None and not np.isfinite(snr_db):
            raise ValueError("snr_db must be finite or None")
        try:  # a float power past the float range raises OverflowError; it does not give inf
            finite = snr_db is None or np.isfinite(abs(incident) * 10.0 ** (-snr_db / 20.0))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"noise amplitude at snr_db = {snr_db:g} must be finite")
        if seed < 0:  # numpy's generator rejects it, but only once noise is drawn
            raise ValueError(f"seed must be a non-negative integer, not {seed}")
        self._set(layers, geometry, air, incident, ratio, snr_db, seed)


def synth_mic_pressures(
    scenario: SynthScenario,
    grid: FrequencyGrid,
) -> MicSpectra:
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
    MicSpectra
        ``(4, n)`` pressures at the four microphone positions, noise included
        when configured. Identical scenario and seed give bit-identical spectra.

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
    # entry-face state through the sample matrix. Every product or quotient
    # with a temporary operand is an explicit ufunc call, so numpy never
    # computes it in place into the temporary (which it does from 256 KiB, and
    # which can round differently): a bin's bits depend on its own inputs only.
    # Each e^{-jkx} is the conjugate of its e^{jkx} (core._phases): 5 exponentials in all.
    phase_back, phase_out = _phases(k, d)
    # an overflow leaves forward_unit or a pressure non-finite, refused below without a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        pd_unit = phase_out + ratio * phase_back
        vd_unit = np.divide(phase_out - ratio * phase_back, z)
        p0_unit = matrix.t11 * pd_unit + matrix.t12 * vd_unit
        v0_unit = matrix.t21 * pd_unit + matrix.t22 * vd_unit

        forward_unit = 0.5 * (p0_unit + z * v0_unit)  # incident amplitude per unit C
        if np.any(~np.isfinite(forward_unit)) or np.any(forward_unit == 0.0):
            raise NumericalValidityError("sample/termination combination is singular on this grid")
        c = a_inc / forward_unit
        b = np.multiply(0.5 * (p0_unit - z * v0_unit), c)
        d_amp = ratio * c

        # the upstream mics see the waves A and B, the downstream mics C and D
        waves = ((a_inc, b), (a_inc, b), (c, d_amp), (c, d_amp))
        pressures = np.stack([
            np.multiply(forward, out) + np.multiply(backward, back)
            for (forward, backward), (back, out) in zip(waves, (_phases(k, x) for x in geometry.mic_positions))
        ])
        if scenario.snr_db is not None:
            sigma = abs(a_inc) * 10.0 ** (-scenario.snr_db / 20.0)
            rng = np.random.default_rng(scenario.seed)
            draws = rng.standard_normal((4, len(grid), 2))
            pressures += np.divide(sigma * (draws[..., 0] + 1j * draws[..., 1]), np.sqrt(2.0))

    try:
        return MicSpectra(grid, *_frozen(pressures))
    except ValueError:  # the shape fits the grid by construction, so the pressures overflowed
        raise ValueError(f"incident_amplitude = {a_inc:g} makes the microphone pressures overflow") from None
