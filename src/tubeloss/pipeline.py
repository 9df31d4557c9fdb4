"""Four-microphone spectra to acoustic indicators in one call."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AirProperties, ComplexSpectrum, DEFAULT_AIR, TubeGeometry
from .decompose import PlaneWaveAmplitudes, decompose_four_mic
from .transfer import (
    _QUALITY_THRESHOLD,
    AcousticIndicators,
    TransferMatrix,
    acoustic_indicators,
    boundary_states,
    reconstruct_one_load,
    stl_direct_anechoic,
)

__all__ = ["TubeAnalysis", "analyze_four_mic"]


@dataclass(frozen=True)
class TubeAnalysis:
    """All intermediate and final products of one tube measurement, or of R repetitions.

    Every per-bin array is ``(n,)``, or ``(R, n)`` with one repetition per row.
    The termination quality ``|D/C|`` is :func:`anechoic_quality` of ``amplitudes``.
    """

    amplitudes: PlaneWaveAmplitudes
    matrix: TransferMatrix
    indicators: AcousticIndicators
    stl_direct_db: np.ndarray


def analyze_four_mic(
    p1: ComplexSpectrum,
    p2: ComplexSpectrum,
    p3: ComplexSpectrum,
    p4: ComplexSpectrum,
    geometry: TubeGeometry,
    air: AirProperties = DEFAULT_AIR,
    quality_threshold: float = _QUALITY_THRESHOLD,
) -> TubeAnalysis:
    """Run decomposition, matrix reconstruction, and indicator extraction.

    The matrix route is the primary result; the direct anechoic route
    20 log10 |A/C| is carried along as a cross-check and warns when the
    termination quality assumption is violated.

    The four spectra share one grid and one shape: ``(n,)`` for one
    measurement, or ``(R, n)`` for R repetitions, one per row. Repetitions
    are analysed on that axis in one pass, and each row gets the bits it
    would get alone; the direct route warns once per row over the
    threshold, in row order.
    """
    amplitudes = decompose_four_mic(p1, p2, p3, p4, geometry, air)
    faces = boundary_states(amplitudes, geometry.sample_thickness, air)
    matrix = reconstruct_one_load(amplitudes.grid, *faces)
    indicators = acoustic_indicators(matrix, geometry.sample_thickness, air)
    direct = stl_direct_anechoic(amplitudes, quality_threshold)
    return TubeAnalysis(
        amplitudes=amplitudes,
        matrix=matrix,
        indicators=indicators,
        stl_direct_db=direct,
    )
