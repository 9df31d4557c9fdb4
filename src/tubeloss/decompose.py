"""Plane-wave decomposition of four-microphone pressure spectra.

A 1-D duct field ``P(x) = F e^{-jkx} + G e^{jkx}`` is split into its forward
and backward amplitudes from two pressure readings. Bins where the microphone
spacing hits a half-wavelength multiple are blind spots of the two-microphone
method; they are excluded and recorded, never interpolated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AirProperties, ComplexSpectrum, FrequencyGrid, PerBinArrays, TubeGeometry, _frozen

__all__ = [
    "SINGULARITY_TOLERANCE",
    "PlaneWaveAmplitudes",
    "decompose_pair",
    "decompose_four_mic",
]

#: |sin(k dx)| below this marks a bin as singular (half-wavelength spacing).
SINGULARITY_TOLERANCE = 1e-6

_NAN = complex(np.nan, np.nan)


def decompose_pair(
    p_a: ComplexSpectrum,
    p_b: ComplexSpectrum,
    x_a: float,
    x_b: float,
    k: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover (forward, backward) wave amplitudes from one microphone pair.

    Parameters
    ----------
    p_a, p_b : ComplexSpectrum
        Complex pressures at the two microphones, sharing one grid.
    x_a, x_b : float
        Microphone coordinates in m along the tube axis; must differ.
    k : ndarray
        Real wavenumber per frequency in rad/m.

    Returns
    -------
    forward, backward : ndarray
        Complex amplitudes per frequency, NaN at singular bins.
    singular : ndarray
        Boolean mask of the excluded bins, where
        ``|sin k (x_a - x_b)| < SINGULARITY_TOLERANCE``.
    """
    if x_a == x_b:
        raise ValueError("microphone positions must differ")
    p_a.grid.require_matches(p_b.grid, "decompose_pair")
    k = np.asarray(k, dtype=float)
    if k.shape != (len(p_a.grid),):
        raise ValueError("wavenumber array must match the grid length")

    s = np.sin(k * (x_a - x_b))
    singular = np.abs(s) < SINGULARITY_TOLERANCE
    den = 2.0 * s
    with np.errstate(divide="ignore", invalid="ignore"):
        forward = 1j * (p_a.values * np.exp(1j * k * x_b) - p_b.values * np.exp(1j * k * x_a)) / den
        backward = 1j * (p_b.values * np.exp(-1j * k * x_a) - p_a.values * np.exp(-1j * k * x_b)) / den
    forward = np.where(singular, _NAN, forward)
    backward = np.where(singular, _NAN, backward)
    return forward, backward, singular


@dataclass(frozen=True)
class PlaneWaveAmplitudes(PerBinArrays):
    """Forward/backward amplitudes on both sides of the sample, in Pa.

    ``a``/``b`` travel toward/away from the sample on the source side,
    ``c``/``d`` away from/toward it on the termination side. Singular bins
    carry NaN and are listed in the per-pair masks.
    """

    grid: FrequencyGrid
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    upstream_singular: np.ndarray
    downstream_singular: np.ndarray

    _per_bin = {
        "a": complex, "b": complex, "c": complex, "d": complex,
        "upstream_singular": bool, "downstream_singular": bool,
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (
            np.all(np.isfinite(self.a[~self.upstream_singular]))
            and np.all(np.isfinite(self.b[~self.upstream_singular]))
            and np.all(np.isfinite(self.c[~self.downstream_singular]))
            and np.all(np.isfinite(self.d[~self.downstream_singular]))
        ):
            raise ValueError("amplitudes must be finite at every retained frequency")

    @property
    def valid(self) -> np.ndarray:
        """Bins where both microphone pairs decomposed cleanly."""
        return ~(self.upstream_singular | self.downstream_singular)

    def singular_frequencies(self) -> dict[str, np.ndarray]:
        """Excluded frequencies in Hz, keyed by microphone pair."""
        f = self.grid.frequencies
        return {
            "upstream": f[self.upstream_singular].copy(),
            "downstream": f[self.downstream_singular].copy(),
        }


def decompose_four_mic(
    p1: ComplexSpectrum,
    p2: ComplexSpectrum,
    p3: ComplexSpectrum,
    p4: ComplexSpectrum,
    geometry: TubeGeometry,
    air: AirProperties,
) -> PlaneWaveAmplitudes:
    """Recover (A, B) from the upstream pair and (C, D) from the downstream pair.

    Parameters
    ----------
    p1, p2, p3, p4 : ComplexSpectrum
        Pressures at x1..x4, all on one grid.
    geometry : TubeGeometry
        Supplies the microphone coordinates.
    air : AirProperties
        Supplies the sound speed for the wavenumber.

    Returns
    -------
    PlaneWaveAmplitudes
        Amplitudes with per-pair singularity records.
    """
    grid = p1.grid
    for name, spectrum in (("p2", p2), ("p3", p3), ("p4", p4)):
        grid.require_matches(spectrum.grid, f"decompose_four_mic({name})")
    x1, x2, x3, x4 = geometry.mic_positions
    k = grid.wavenumbers(air)
    a, b, upstream_singular = _frozen(*decompose_pair(p1, p2, x1, x2, k))
    c, d, downstream_singular = _frozen(*decompose_pair(p3, p4, x3, x4, k))
    return PlaneWaveAmplitudes(
        grid=grid,
        a=a,
        b=b,
        c=c,
        d=d,
        upstream_singular=upstream_singular,
        downstream_singular=downstream_singular,
    )
