"""Four-microphone spectra to acoustic indicators in one call: the decomposition, then T and R in closed form."""
from __future__ import annotations

import numpy as np

from .core import AirProperties, DEFAULT_AIR, MicSpectra, Record, TubeGeometry, _frozen
from .decompose import PlaneWaveAmplitudes, decompose_four_mic
from .transfer import AcousticIndicators, _closed_form_indicators, anechoic_quality, stl_direct_anechoic

__all__ = ["TubeAnalysis", "analyze_four_mic"]


class TubeAnalysis(Record):
    """All intermediate and final products of one tube measurement, or of R repetitions.

    Every per-bin array is ``(n,)``, or ``(R, n)`` with one repetition per row.
    The termination quality ``|D/C|`` is :func:`anechoic_quality` of
    ``amplitudes``; ``worst_quality`` holds each row's largest finite |D/C|,
    shape ``(R,)`` (``(1,)`` for one measurement), -inf for a row without one.
    Every array reachable from an analysis is read-only.
    """

    __slots__ = ("amplitudes", "indicators", "stl_direct_db", "worst_quality")

    def __init__(
        self,
        amplitudes: PlaneWaveAmplitudes,
        indicators: AcousticIndicators,
        stl_direct_db: np.ndarray,
        worst_quality: np.ndarray,
    ) -> None:
        self._set(amplitudes, indicators, stl_direct_db, worst_quality)


def analyze_four_mic(
    spectra: MicSpectra,
    geometry: TubeGeometry,
    air: AirProperties = DEFAULT_AIR,
) -> TubeAnalysis:
    """Decompose the spectra, then take the one-load route's T, R and loss in closed form.

    No transfer matrix is built, and the indicators do not depend on the
    pressures' scale. The direct anechoic route 20 log10 |A/C| is carried
    along as a cross-check, valid only while the termination is close to
    anechoic.

    ``spectra`` holds ``(4, n)`` pressures for one measurement, or
    ``(4, R, n)`` for R repetitions, one per row. Repetitions are analysed
    on that axis in one pass, and each row gets the bits it would get alone.
    Nothing is judged here: ``worst_quality`` carries each row's largest
    |D/C| for the caller to judge against :data:`tubeloss.cli.QUALITY_THRESHOLD`.
    """
    amplitudes = decompose_four_mic(spectra, geometry, air)
    indicators = _closed_form_indicators(amplitudes, geometry.sample_thickness, air)
    ratio = anechoic_quality(amplitudes)
    direct, worst = _frozen(
        stl_direct_anechoic(amplitudes),
        np.atleast_1d(np.where(np.isfinite(ratio), ratio, -np.inf).max(axis=-1)),
    )
    return TubeAnalysis(
        amplitudes=amplitudes,
        indicators=indicators,
        stl_direct_db=direct,
        worst_quality=worst,
    )
