"""Plane-wave decomposition of four-microphone pressure spectra.

A 1-D duct field ``P(x) = F e^{-jkx} + G e^{jkx}`` is split into its forward
and backward amplitudes from two pressure readings. Bins where the microphone
spacing hits a half-wavelength multiple are blind spots of the two-microphone
method; they are excluded and recorded, never interpolated.
"""
from __future__ import annotations

import numpy as np

from .core import AirProperties, MicSpectra, PerBinArrays, TubeGeometry, _drop, _frozen, _phases

__all__ = [
    "SINGULARITY_TOLERANCE",
    "PlaneWaveAmplitudes",
    "decompose_pair",
    "decompose_four_mic",
]

#: |sin(k dx)| below this marks a bin as singular (half-wavelength spacing).
SINGULARITY_TOLERANCE = 1e-6


def decompose_pair(
    p_a: np.ndarray,
    p_b: np.ndarray,
    x_a: float,
    x_b: float,
    k: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Recover (forward, backward) wave amplitudes from one microphone pair.

    Parameters
    ----------
    p_a, p_b : ndarray
        Complex pressures at the two microphones, on one grid; each ``(n,)``
        or ``(R, n)``, one repetition per row.
    x_a, x_b : float
        Microphone coordinates in m along the tube axis; must differ.
    k : ndarray
        Real wavenumber per frequency in rad/m, shape ``(n,)``.

    Returns
    -------
    forward, backward : ndarray
        Complex amplitudes per frequency, the pressures' broadcast shape,
        NaN exactly at the singular bins, where
        ``|sin k (x_a - x_b)| < SINGULARITY_TOLERANCE``: written once from
        that one ``(n,)`` mask, the NaN is the one record of a dropped bin. A
        bin's bits depend on its own inputs only, not on the grid's length
        or on the other rows.

    Raises
    ------
    ValueError
        If an amplitude is not finite at a retained bin (the decomposition
        overflowed): such input is refused, not dropped bin by bin.
    """
    if x_a == x_b:
        raise ValueError("microphone positions must differ")
    k = np.asarray(k, dtype=float)
    if k.shape != np.shape(p_a)[-1:]:
        raise ValueError("wavenumber array must match the pressures' last axis")

    # Every complex product and quotient is an explicit ufunc call: an operator on a
    # temporary of 256 KiB or more computes in place, which can round differently.
    # An overflow leaves a retained amplitude non-finite, which the check below rejects.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # the mask and the phases depend on the grid alone: one (n,) array each for all rows;
        # each back phase is the conjugate of its forward phase, bit for bit (core._phases)
        s = np.sin(k * (x_a - x_b))
        singular = np.abs(s) < SINGULARITY_TOLERANCE
        den = 2.0 * s
        (phase_a, back_a), (phase_b, back_b) = _phases(k, x_a), _phases(k, x_b)
        forward = np.multiply(p_a, phase_b) - np.multiply(p_b, phase_a)
        backward = np.multiply(p_b, back_a) - np.multiply(p_a, back_b)
        forward, backward = (np.divide(np.multiply(1j, diff), den) for diff in (forward, backward))
    _drop(singular, forward, backward)
    if not ((np.isfinite(forward) & np.isfinite(backward)) | singular).all():
        raise ValueError("amplitudes must be finite at every retained frequency")
    return forward, backward


class PlaneWaveAmplitudes(PerBinArrays):
    """Forward/backward amplitudes on both sides of the sample, in Pa.

    ``a``/``b`` travel toward/away from the sample on the source side,
    ``c``/``d`` away from/toward it on the termination side. Each array is
    ``(n,)``, or ``(R, n)`` with one repetition per row; all four share one
    shape. A bin a microphone pair dropped is NaN in that pair's two arrays;
    the per-pair masks are derived from those NaNs, not stored.
    """

    _per_bin = {"a": complex, "b": complex, "c": complex, "d": complex}
    __slots__ = ("grid", *_per_bin)

    @property
    def upstream_singular(self) -> np.ndarray:
        """Bins the upstream pair dropped: ``a`` or ``b`` is not finite."""
        return ~(np.isfinite(self.a) & np.isfinite(self.b))

    @property
    def downstream_singular(self) -> np.ndarray:
        """Bins the downstream pair dropped: ``c`` or ``d`` is not finite."""
        return ~(np.isfinite(self.c) & np.isfinite(self.d))


def decompose_four_mic(spectra: MicSpectra, geometry: TubeGeometry, air: AirProperties) -> PlaneWaveAmplitudes:
    """Recover (A, B) from the upstream pair and (C, D) from the downstream pair.

    Parameters
    ----------
    spectra : MicSpectra
        Pressures at x1..x4: ``(4, n)``, or ``(4, R, n)`` for R repetitions
        analysed at once.
    geometry : TubeGeometry
        Supplies the microphone coordinates.
    air : AirProperties
        Supplies the sound speed for the wavenumber.

    Returns
    -------
    PlaneWaveAmplitudes
        Amplitudes of one microphone's shape, NaN in a pair's two arrays at
        each bin that pair dropped.
    """
    x1, x2, x3, x4 = geometry.mic_positions
    p1, p2, p3, p4 = spectra.pressures
    k = spectra.grid.wavenumbers(air)
    a, b = decompose_pair(p1, p2, x1, x2, k)
    c, d = decompose_pair(p3, p4, x3, x4, k)
    return PlaneWaveAmplitudes(spectra.grid, *_frozen(a, b, c, d))
