"""One-third-octave band machinery, level averaging, and insertion loss."""
from __future__ import annotations

import math
import warnings

import numpy as np

from .core import FrequencyGrid, Record, _frozen, locked_array
from .errors import BandMismatchError, NegativeInsertionLossWarning

__all__ = [
    "ThirdOctaveBand",
    "third_octave_bands",
    "band_from_nominal",
    "BandTable",
    "band_average",
    "average_repetitions",
    "insertion_loss",
]

# Renard-series mantissas of the nominal centers, scaled by 100 to stay exact
# in binary floating point (1.25e2 -> 125 and so on).
_NOMINAL_BASE_X100 = (100, 125, 160, 200, 250, 315, 400, 500, 630, 800)

# a band's lower and upper edge over its center: a sixth of an octave each way
_EDGE_RATIOS = (2.0 ** (-1.0 / 6.0), 2.0 ** (1.0 / 6.0))


class ThirdOctaveBand(Record):
    """One third-octave band, identified by its index relative to 1000 Hz.

    Exact centers follow the base-2 series 1000 * 2^(index/3); edges sit a
    sixth of an octave away, so adjacent bands tile the axis exactly. The
    nominal label comes from the standard renard series.
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self._set(index)

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
        return self.center * _EDGE_RATIOS[0]

    @property
    def upper(self) -> float:
        return self.center * _EDGE_RATIOS[1]


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


class BandTable(Record):
    """Per-band dB values with a coverage fraction for each band.

    NaN values mark absent bands (no valid narrowband bin landed there);
    coverage is the share of in-band narrowband bins that were valid, or 0
    for tables that never saw narrowband data problems.
    """

    __slots__ = ("bands", "values", "coverage")

    def __init__(self, bands: tuple[ThirdOctaveBand, ...], values: np.ndarray, coverage: np.ndarray) -> None:
        bands = tuple(bands)
        if not bands:
            raise ValueError("band table needs at least one band")
        if any(b.index >= nxt.index for b, nxt in zip(bands, bands[1:])):
            raise ValueError("bands must be strictly ascending")
        values = locked_array(values, float, (len(bands),), "band values")
        coverage = locked_array(coverage, float, (len(bands),), "band coverage")
        if not (coverage.min() >= 0.0 and coverage.max() <= 1.0):  # a NaN fails too
            raise ValueError("coverage must lie in [0, 1]")
        self._set(bands, values, coverage)

    @classmethod
    def from_values(cls, bands, values) -> "BandTable":
        """A table of ``values`` with full coverage in every band."""
        bands = tuple(bands)
        return cls(bands, np.asarray(values, dtype=float), np.ones(len(bands)))


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

    Notes
    -----
    The whole-curve work runs once per curve, over the span of bins the bands
    cover: the NaN mask, the exact integer count of usable bins per band (one
    cumulative sum of the mask, or the band widths when no bin is NaN), the
    power terms, and, after the bands, the means, the dB conversion and the
    coverage. Only each band's sum stays per band: one ``np.add.reduce`` of
    its contiguous terms, which adds them pairwise, as ``np.mean`` of the band
    alone does, so every value keeps the bits the band gets on its own.
    ``np.add.reduceat`` and a cumulative sum are not pairwise and change
    those bits.
    """
    return _band_averager(grid, bands, mode)(values_db)


def _band_averager(grid: FrequencyGrid, bands, mode: str = "power"):
    """:func:`band_average` on ``grid``, ``bands`` and ``mode`` as a function of the curve alone.

    The band spans (the edges, their bins on the grid and the band widths)
    are found once here, so many curves of one grid share them; each call
    returns the table ``band_average(grid, values_db, bands, mode)`` would,
    bit for bit.
    """
    if mode not in ("power", "db"):
        raise ValueError(f"unknown band averaging mode '{mode}'")
    n = len(grid)
    bands = tuple(bands)
    # On the sorted grid, [lo, hi) holds exactly the bins with lower <= f < upper;
    # the edges are the ones ThirdOctaveBand.lower and .upper give.
    edges = np.multiply.outer(_EDGE_RATIOS, [b.center for b in bands])
    lo, hi = np.searchsorted(grid.frequencies, edges)
    first, last = lo.min(initial=n), hi.max(initial=0)
    band_starts, band_stops = lo - first, hi - first
    widths = band_stops - band_starts

    def average(values_db) -> BandTable:
        values = np.asarray(values_db, dtype=float)
        if values.shape != (n,):
            raise ValueError("narrowband curve must match the grid length")
        kept, starts, stops = values[first:last], band_starts, band_stops
        is_nan = np.isnan(kept)
        if is_nan.any():
            # band i's usable bins are kept[starts[i]:stops[i]] once the NaN bins are dropped
            usable = ~is_nan
            ends = np.concatenate(([0], np.cumsum(usable)))
            kept, starts, stops = kept[usable], ends[starts], ends[stops]
        counts = stops - starts
        out = np.full(len(bands), np.nan)
        coverage = np.zeros(len(bands))
        np.divide(counts, widths, out=coverage, where=widths > 0)
        # A band of +inf losses (nothing transmitted) averages to log10(0) = -inf
        # in power mode, so its value is +inf by design, not a divide error.
        # 10^(-L/10) overflows below about L = -3083 dB; such a band is averaged
        # again relative to its lowest value, which keeps it finite.
        with np.errstate(divide="ignore", over="ignore"):
            # x / -10 has the bits of -x / 10, in one pass instead of two
            terms = 10.0 ** (kept / -10.0) if mode == "power" else kept
            bounds = list(zip(starts.tolist(), stops.tolist()))
            sums = np.array([np.add.reduce(terms[start:stop]) for start, stop in bounds])
            np.divide(sums, counts, out=out, where=counts > 0)
            if mode == "power":
                out = -10.0 * np.log10(out)
                for i in np.flatnonzero(out == -np.inf).tolist():
                    use = kept[slice(*bounds[i])]
                    if np.isfinite(low := use.min()):
                        out[i] = low - 10.0 * np.log10(np.mean(10.0 ** (-(use - low) / 10.0)))
        return BandTable(bands, *_frozen(out, coverage))

    return average


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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
            # 10^(-L/10) overflows below about L = -3083 dB; such a bin is averaged
            # again relative to its lowest value, which keeps it finite
            overflowed = mean == -np.inf
            if overflowed.any():
                low = np.where(finite, runs, np.inf).min(axis=0)
                shifted = np.where(finite, 10.0 ** (-(runs - low) / 10.0), 0.0).sum(axis=0)
                mean[overflowed] = (low - 10.0 * np.log10(shifted / counts))[overflowed]

        dev2 = np.where(finite, (runs - db_mean) ** 2, 0.0).sum(axis=0)
        spread = np.full(runs.shape[1], np.nan)
        np.divide(dev2, counts - 1, out=spread, where=counts > 1)
        np.sqrt(spread, out=spread, where=counts > 1)
    spread[counts == 1] = 0.0
    return mean, spread


def insertion_loss(l_r0: BandTable, l_rs: BandTable) -> BandTable:
    """Per-band insertion loss: receiver level before minus after installation.

    Negative values are physically suspicious but not invalid; they are kept
    and flagged with a :class:`NegativeInsertionLossWarning`. Two finite levels
    whose difference overflows raise ``ValueError`` naming their bands.
    """
    if l_r0.bands != l_rs.bands:
        a = {b.nominal for b in l_r0.bands}
        b = {b.nominal for b in l_rs.bands}
        only_first = sorted(a - b)
        only_second = sorted(b - a)
        raise BandMismatchError(
            "band sets differ: "
            f"only in first table {only_first}, only in second table {only_second}"
        )
    with np.errstate(over="ignore"):  # an overflow is raised below as such, not warned about
        values = l_r0.values - l_rs.values
    overflowed = np.isinf(values) & np.isfinite(l_r0.values) & np.isfinite(l_rs.values)
    if np.any(overflowed):
        where = [b.nominal for b, over in zip(l_r0.bands, overflowed) if over]
        raise ValueError(f"level difference overflows in bands {where} Hz")
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
