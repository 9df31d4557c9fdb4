"""One-third-octave band machinery, level averaging, and insertion loss."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import FrequencyGrid, locked_array
from .errors import BandMismatchError, NegativeInsertionLossWarning

__all__ = [
    "ThirdOctaveBand",
    "third_octave_bands",
    "band_from_nominal",
    "BandTable",
    "band_average",
    "average_repetitions",
    "energetic_spl_average",
    "insertion_loss",
]

# Renard-series mantissas of the nominal centers, scaled by 100 to stay exact
# in binary floating point (1.25e2 -> 125 and so on).
_NOMINAL_BASE_X100 = (100, 125, 160, 200, 250, 315, 400, 500, 630, 800)


@dataclass(frozen=True, order=True)
class ThirdOctaveBand:
    """One third-octave band, identified by its index relative to 1000 Hz.

    Exact centers follow the base-2 series 1000 * 2^(index/3); edges sit a
    sixth of an octave away, so adjacent bands tile the axis exactly. The
    nominal label comes from the standard renard series.
    """

    index: int

    @property
    def center(self) -> float:
        """Exact mid-band frequency in Hz."""
        return 1000.0 * 2.0 ** (self.index / 3.0)

    @property
    def nominal(self) -> float:
        """Standard nominal label in Hz."""
        decade, pos = divmod(self.index, 10)
        return _NOMINAL_BASE_X100[pos] * 10.0 ** (3 + decade) / 100.0

    @property
    def lower(self) -> float:
        return self.center * 2.0 ** (-1.0 / 6.0)

    @property
    def upper(self) -> float:
        return self.center * 2.0 ** (1.0 / 6.0)


def third_octave_bands(f_min: float, f_max: float) -> tuple[ThirdOctaveBand, ...]:
    """All bands whose nominal centers lie in [f_min, f_max].

    Parameters
    ----------
    f_min, f_max : float
        Inclusive nominal-frequency range in Hz; ``f_min == f_max`` selects a
        single band when it hits a nominal center.

    Returns
    -------
    tuple of ThirdOctaveBand
        Ascending and contiguous in index.
    """
    if not 0.0 < f_min <= f_max < math.inf:
        raise ValueError("need 0 < f_min <= f_max < inf")
    lo = math.floor(3.0 * math.log2(f_min / 1000.0)) - 2
    hi = math.ceil(3.0 * math.log2(f_max / 1000.0)) + 2
    bands = tuple(
        ThirdOctaveBand(i) for i in range(lo, hi + 1) if f_min <= ThirdOctaveBand(i).nominal <= f_max
    )
    if not bands:
        raise ValueError(f"no third-octave nominal centers inside [{f_min}, {f_max}] Hz")
    return bands


def band_from_nominal(nominal: float) -> ThirdOctaveBand:
    """Band whose standard nominal label matches the given frequency."""
    if nominal <= 0.0 or not math.isfinite(nominal):
        raise ValueError(f"nominal frequency must be positive, got {nominal}")
    guess = round(3.0 * math.log2(nominal / 1000.0))
    for index in (guess - 1, guess, guess + 1):
        band = ThirdOctaveBand(index)
        if abs(band.nominal - nominal) <= 1e-3 * band.nominal:
            return band
    raise ValueError(f"{nominal} Hz is not a standard third-octave nominal center")


@dataclass(frozen=True)
class BandTable:
    """Per-band dB values with a coverage fraction for each band.

    NaN values mark absent bands (no valid narrowband bin landed there);
    coverage is the share of in-band narrowband bins that were valid, or 0
    for tables that never saw narrowband data problems.
    """

    bands: tuple[ThirdOctaveBand, ...]
    values: np.ndarray
    coverage: np.ndarray

    def __post_init__(self) -> None:
        bands = tuple(self.bands)
        if not bands:
            raise ValueError("band table needs at least one band")
        if any(b.index >= nxt.index for b, nxt in zip(bands, bands[1:])):
            raise ValueError("bands must be strictly ascending")
        object.__setattr__(self, "bands", bands)
        values = locked_array(self.values, float, (len(bands),), "band values")
        coverage = locked_array(self.coverage, float, (len(bands),), "band coverage")
        if not np.all(np.isfinite(coverage)) or np.any((coverage < 0.0) | (coverage > 1.0)):
            raise ValueError("coverage must lie in [0, 1]")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "coverage", coverage)

    def same_bands(self, other: "BandTable") -> bool:
        return len(self.bands) == len(other.bands) and all(
            a.index == b.index for a, b in zip(self.bands, other.bands)
        )

    @classmethod
    def from_values(cls, bands, values, coverage=None) -> "BandTable":
        bands = tuple(bands)
        if coverage is None:
            coverage = np.ones(len(bands))
        return cls(bands, np.asarray(values, dtype=float), coverage)


def band_average(
    grid: FrequencyGrid,
    values_db,
    bands,
    mode: str = "power",
) -> BandTable:
    """Aggregate a narrowband dB curve into third-octave bands.

    Parameters
    ----------
    grid : FrequencyGrid
        Narrowband frequency axis.
    values_db : ndarray
        dB curve; NaN entries count as invalid bins.
    bands : sequence of ThirdOctaveBand
        Target bands; bins are assigned by half-open edge intervals
        [lower, upper).
    mode : {"power", "db"}, optional
        "power" converts each dB value to a linear transmission factor
        10^(-L/10), averages, and converts back; "db" averages the dB values
        arithmetically.

    Returns
    -------
    BandTable
        Per-band values; bands without a single valid bin are absent (NaN)
        with coverage reflecting the exclusions.
    """
    if mode not in ("power", "db"):
        raise ValueError(f"unknown band averaging mode '{mode}'")
    values = np.asarray(values_db, dtype=float)
    if values.shape != (len(grid),):
        raise ValueError("narrowband curve must match the grid length")
    usable = ~np.isnan(values)

    bands = tuple(bands)
    f = grid.frequencies
    out = np.full(len(bands), np.nan)
    coverage = np.zeros(len(bands))
    # A band of +inf losses (nothing transmitted) averages to log10(0) = -inf
    # in power mode, so its value is +inf by design, not a divide error.
    with np.errstate(divide="ignore"):
        for i, band in enumerate(bands):
            in_band = (f >= band.lower) & (f < band.upper)
            n_in = int(np.count_nonzero(in_band))
            if n_in == 0:
                continue
            use = in_band & usable
            n_use = int(np.count_nonzero(use))
            coverage[i] = n_use / n_in
            if n_use == 0:
                continue
            if mode == "power":
                out[i] = -10.0 * np.log10(np.mean(10.0 ** (-values[use] / 10.0)))
            else:
                out[i] = float(np.mean(values[use]))
    return BandTable(bands, out, coverage)


def average_repetitions(runs, mode: str = "db") -> tuple[np.ndarray, np.ndarray]:
    """Mean and sample standard deviation across repeated runs, per frequency.

    Parameters
    ----------
    runs : array_like
        ``(n_runs, n_bins)`` array with at least one run: one per-frequency
        curve per row. Non-finite entries (NaN, +-inf) mark bins a run could
        not deliver and are left out of that bin's statistics.
    mode : {"db", "power"}, optional
        "db" takes the plain arithmetic mean of the values (the usual dB
        reporting protocol, and the mean ``stl`` also uses for reflectance
        and the direct route); "power" averages linear transmission factors
        10^(-L/10). The spread is always the sample standard deviation of
        the values: 0 for a single run, NaN where no run delivered the bin.

    Returns
    -------
    (mean, spread) : ndarray
        Per-frequency curves; NaN where no run delivered the bin.
    """
    if mode not in ("db", "power"):
        raise ValueError(f"unknown repetition averaging mode '{mode}'")
    runs = np.asarray(runs, dtype=float)
    if runs.ndim != 2 or runs.shape[0] < 1:
        raise ValueError("runs must be a (n_runs, n_bins) array with n_runs >= 1")
    finite = np.isfinite(runs)
    counts = finite.sum(axis=0)

    db_mean = np.full(runs.shape[1], np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(
            np.where(finite, runs, 0.0).sum(axis=0), counts, out=db_mean, where=counts > 0
        )
        if mode == "db":
            mean = db_mean
        else:
            linear = np.where(finite, 10.0 ** (-runs / 10.0), 0.0).sum(axis=0)
            lin_mean = np.full(runs.shape[1], np.nan)
            np.divide(linear, counts, out=lin_mean, where=counts > 0)
            mean = -10.0 * np.log10(lin_mean)

        dev2 = np.where(finite, (runs - db_mean) ** 2, 0.0).sum(axis=0)
        spread = np.full(runs.shape[1], np.nan)
        np.divide(dev2, counts - 1, out=spread, where=counts > 1)
        np.sqrt(spread, out=spread, where=counts > 1)
    spread[counts == 1] = 0.0
    return mean, spread


def energetic_spl_average(levels) -> float:
    """Energetic mean of sound pressure levels: 10 log10(mean 10^(L/10))."""
    arr = np.asarray(levels, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one level")
    if not np.all(np.isfinite(arr)):
        raise ValueError("levels must be finite")
    return float(10.0 * np.log10(np.mean(10.0 ** (arr / 10.0))))


def insertion_loss(l_r0: BandTable, l_rs: BandTable) -> BandTable:
    """Per-band insertion loss: receiver level before minus after installation.

    Negative values are physically suspicious but not invalid; they are kept
    and flagged with a :class:`NegativeInsertionLossWarning`.
    """
    if not l_r0.same_bands(l_rs):
        a = {b.nominal for b in l_r0.bands}
        b = {b.nominal for b in l_rs.bands}
        only_first = sorted(a - b)
        only_second = sorted(b - a)
        raise BandMismatchError(
            "band sets differ: "
            f"only in first table {only_first}, only in second table {only_second}"
        )
    values = l_r0.values - l_rs.values
    coverage = np.minimum(l_r0.coverage, l_rs.coverage)
    with np.errstate(invalid="ignore"):
        negative = values < 0.0
    if np.any(negative):
        where = [b.nominal for b, neg in zip(l_r0.bands, negative) if neg]
        warnings.warn(
            f"insertion loss negative in bands {where} Hz",
            NegativeInsertionLossWarning,
            stacklevel=2,
        )
    return BandTable(l_r0.bands, values, coverage)
