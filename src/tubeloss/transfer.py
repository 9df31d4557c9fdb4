"""Per-frequency transfer matrices and the acoustic indicators derived from them.

The sample is modeled as a 2x2 complex matrix linking (pressure, velocity) at
its two faces. A single measurement with one termination determines the matrix
once the passive-sample closure (equal diagonal, unit determinant) is imposed;
transmission, reflection, impedance, and transmission loss follow from it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import AirProperties, FrequencyGrid, PerBinArrays, _frozen, locked_array
from .decompose import PlaneWaveAmplitudes
from .errors import AnechoicQualityWarning

__all__ = [
    "TransferMatrix",
    "AcousticIndicators",
    "boundary_states",
    "reconstruct_one_load",
    "surface_impedance_anechoic",
    "rigid_backing_reflection",
    "stl",
    "anechoic_quality",
    "stl_direct_anechoic",
    "acoustic_indicators",
]

#: Relative floor below which a shared denominator counts as vanishing.
_DENOMINATOR_RTOL = 1e-12

_NAN = complex(np.nan, np.nan)


def _nonvanishing(den: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Bins where ``den`` is finite and above ``_DENOMINATOR_RTOL`` times its ``scale``."""
    with np.errstate(invalid="ignore"):
        return np.isfinite(den) & (scale > 0.0) & (np.abs(den) > _DENOMINATOR_RTOL * scale)


def _quotient(num, den: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """``num / den`` at the ``ok`` bins, complex NaN elsewhere; an overflow stays non-finite."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(ok, num / den, _NAN)


@dataclass(frozen=True)
class TransferMatrix(PerBinArrays):
    """2x2 complex matrix per frequency linking (P, V) across the sample.

    A dropped bin (a singular reconstruction, or a product with one) is NaN in
    all four entries; :attr:`valid` is derived from the entries, not stored.
    """

    grid: FrequencyGrid
    t11: np.ndarray
    t12: np.ndarray
    t21: np.ndarray
    t22: np.ndarray

    _per_bin = {"t11": complex, "t12": complex, "t21": complex, "t22": complex}

    @property
    def valid(self) -> np.ndarray:
        """Bins where all four entries are finite."""
        return np.isfinite(self.t11) & np.isfinite(self.t12) & np.isfinite(self.t21) & np.isfinite(self.t22)

    def determinant(self) -> np.ndarray:
        return self.t11 * self.t22 - self.t12 * self.t21

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        """Per-frequency matrix product; left operand sits on the incident side."""
        self.grid.require_matches(other.grid, "transfer-matrix product")
        # overflowing entries stay non-finite; the coefficient guards drop those bins
        with np.errstate(over="ignore", invalid="ignore"):
            entries = (
                self.t11 * other.t11 + self.t12 * other.t21,
                self.t11 * other.t12 + self.t12 * other.t22,
                self.t21 * other.t11 + self.t22 * other.t21,
                self.t21 * other.t12 + self.t22 * other.t22,
            )
        return TransferMatrix(self.grid, *_frozen(*entries))


@dataclass(frozen=True)
class AcousticIndicators(PerBinArrays):
    """Per-frequency sample indicators from one reconstructed matrix.

    ``transmission``/``reflection`` are the anechoic-termination coefficients
    and ``stl_db`` the normal-incidence transmission loss (+inf where nothing
    is transmitted). A dropped bin is NaN in all three; :attr:`valid` is
    derived from the coefficients, not stored. Surface impedance and
    rigid-backing reflection are not fields: :func:`surface_impedance_anechoic`
    and :func:`rigid_backing_reflection` compute them on request.
    """

    grid: FrequencyGrid
    transmission: np.ndarray
    reflection: np.ndarray
    stl_db: np.ndarray

    _per_bin = {"transmission": complex, "reflection": complex, "stl_db": float}

    @property
    def valid(self) -> np.ndarray:
        """Bins where both coefficients are finite."""
        return np.isfinite(self.transmission) & np.isfinite(self.reflection)

    @property
    def reflectance(self) -> np.ndarray:
        """|R|^2, the reflected power fraction under anechoic termination."""
        return np.abs(self.reflection) ** 2


def boundary_states(
    amplitudes: PlaneWaveAmplitudes,
    thickness: float,
    air: AirProperties,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pressure (Pa) and particle velocity (m/s) at the sample faces x = 0 and x = d.

    Parameters
    ----------
    amplitudes : PlaneWaveAmplitudes
        Wave amplitudes on both sides of the sample.
    thickness : float
        Sample thickness d in m (0 allowed for a degenerate layer).
    air : AirProperties
        Supplies rho0 c and the wavenumber.

    Returns
    -------
    (p0, v0, pd, vd) : tuple of ndarray
        Entry-face, then exit-face pressure and velocity per bin; NaN at the
        bins the decomposition dropped.
    """
    if thickness < 0.0:
        raise ValueError("thickness must be non-negative")
    z = air.impedance
    k = amplitudes.grid.wavenumbers(air)
    p0 = amplitudes.a + amplitudes.b
    v0 = (amplitudes.a - amplitudes.b) / z
    phase_out = np.exp(-1j * k * thickness)
    phase_back = np.exp(1j * k * thickness)
    pd = amplitudes.c * phase_out + amplitudes.d * phase_back
    vd = (amplitudes.c * phase_out - amplitudes.d * phase_back) / z
    return p0, v0, pd, vd


def reconstruct_one_load(grid: FrequencyGrid, p0, v0, pd, vd) -> TransferMatrix:
    """Build the transfer matrix from the pressure and velocity at both sample faces.

    One termination gives two equations for four unknowns; the system is
    closed with the passive-sample constraints T11 = T22 and det T = 1,
    which yields

        T11 = T22 = (P0 V0 + Pd Vd) / (P0 Vd + Pd V0)
        T12 = (P0^2 - Pd^2) / (P0 Vd + Pd V0)
        T21 = (V0^2 - Vd^2) / (P0 Vd + Pd V0)

    The symmetric quotient forms stay well defined when Pd or Vd alone
    vanishes; only the shared denominator matters. det T = 1 holds exactly
    by construction. Bins where ``P0 Vd + Pd V0`` is not finite or below
    ``_DENOMINATOR_RTOL`` times its magnitude scale are NaN in all entries.

    Parameters
    ----------
    grid : FrequencyGrid
    p0, v0, pd, vd : array_like
        Entry-face, then exit-face pressure and velocity from
        :func:`boundary_states`, one value per bin (``ValueError`` otherwise).

    Returns
    -------
    TransferMatrix
        Symmetric unit-determinant matrix, NaN at the dropped bins.
    """
    p0, v0, pd, vd = (locked_array(a, complex, (len(grid),), "face array") for a in (p0, v0, pd, vd))
    den = p0 * vd + pd * v0
    scale = np.abs(p0) * np.abs(vd) + np.abs(pd) * np.abs(v0)
    ok = _nonvanishing(den, scale)
    t11 = _quotient(p0 * v0 + pd * vd, den, ok)
    t12 = _quotient(p0 * p0 - pd * pd, den, ok)
    t21 = _quotient(v0 * v0 - vd * vd, den, ok)
    return TransferMatrix(grid, *_frozen(t11, t12, t21, t11))


def surface_impedance_anechoic(reflection: np.ndarray, air: AirProperties) -> np.ndarray:
    """Surface impedance rho0 c (1 + R) / (1 - R) in Pa s/m.

    R = 1 (a rigid face) maps to an infinite-impedance marker rather than an
    error; NaN reflections stay NaN.
    """
    r = np.asarray(reflection, dtype=complex)
    one_minus = 1.0 - r
    with np.errstate(divide="ignore", invalid="ignore"):
        z = air.impedance * (1.0 + r) / one_minus
    return np.where(one_minus == 0.0, complex(np.inf, 0.0), z)


def rigid_backing_reflection(matrix: TransferMatrix, air: AirProperties) -> np.ndarray:
    """Reflection coefficient with a rigid plate behind the sample.

        R_h = (T11 - rho0 c T21) / (T11 + rho0 c T21)
    """
    z = air.impedance
    den = matrix.t11 + z * matrix.t21
    scale = np.abs(matrix.t11) + z * np.abs(matrix.t21)
    ok = _nonvanishing(den, scale)
    return _quotient(matrix.t11 - z * matrix.t21, den, ok)


def stl(transmission: np.ndarray) -> np.ndarray:
    """Sound transmission loss 10 log10(1/|T|^2) in dB.

    Zero transmission yields +inf, not an error; NaN marks invalid bins.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return -10.0 * np.log10(np.abs(np.asarray(transmission, dtype=complex)) ** 2)


def anechoic_quality(amplitudes: PlaneWaveAmplitudes) -> np.ndarray:
    """|D/C| per frequency, the backward-to-forward ratio behind the sample."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(amplitudes.d) / np.abs(amplitudes.c)


def stl_direct_anechoic(
    amplitudes: PlaneWaveAmplitudes,
    quality_threshold: float = 0.01,
) -> np.ndarray:
    """Transmission loss 20 log10 |A/C| assuming a clean anechoic termination.

    Valid only while the backward wave behind the sample is negligible; if
    ``|D/C|`` exceeds ``quality_threshold`` anywhere, the result is still
    returned but an :class:`AnechoicQualityWarning` is emitted.
    """
    ratio = anechoic_quality(amplitudes)
    finite = np.isfinite(ratio)
    if np.any(ratio[finite] > quality_threshold):
        worst = float(np.max(ratio[finite]))
        warnings.warn(
            f"anechoic assumption violated: max |D/C| = {worst:.4g} "
            f"exceeds {quality_threshold:.4g}",
            AnechoicQualityWarning,
            stacklevel=2,
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 20.0 * np.log10(np.abs(amplitudes.a) / np.abs(amplitudes.c))
    out = np.where(amplitudes.valid, out, np.nan)
    return np.where(np.abs(amplitudes.a) == 0.0, np.nan, out)


def acoustic_indicators(
    matrix: TransferMatrix,
    thickness: float,
    air: AirProperties,
) -> AcousticIndicators:
    """Evaluate all per-frequency indicators of a reconstructed matrix.

    With z = rho0 c scaling both off-diagonal terms, the only dimensionally
    consistent normalization, the anechoic coefficients are

        T = 2 e^{jkd} / (T11 + T12/z + z T21 + T22)
        R = (T11 + T12/z - z T21 - T22) / (T11 + T12/z + z T21 + T22)

    Parameters
    ----------
    matrix : TransferMatrix
        Sample matrix, typically from :func:`reconstruct_one_load`.
    thickness : float
        Sample thickness d in m, used in the transmission phase reference.
    air : AirProperties
        Ambient air.

    Returns
    -------
    AcousticIndicators
        Indicators that are NaN in ``transmission``, ``reflection`` and
        ``stl_db`` at every bin where T or R is not finite: a non-finite
        entry, a vanishing denominator or an overflowing quotient.
    """
    z = air.impedance
    t11, t12, t21, t22 = matrix.t11, matrix.t12, matrix.t21, matrix.t22
    # an overflow here fails the denominator check or leaves T or R non-finite; both drop the bin
    with np.errstate(over="ignore", invalid="ignore"):
        front = t11 + t12 / z
        back = z * t21
        den = front + back + t22
        ok = _nonvanishing(den, np.abs(t11) + np.abs(t12) / z + z * np.abs(t21) + np.abs(t22))
        # e^{jk 0} is exactly 1, so a zero thickness needs no phase exponential
        numerator = 2.0 if thickness == 0.0 else 2.0 * np.exp(1j * matrix.grid.wavenumbers(air) * thickness)
        transmission = _quotient(numerator, den, ok)
        reflection = _quotient(front - back - t22, den, ok)
    dropped = ~(np.isfinite(transmission) & np.isfinite(reflection))
    transmission[dropped] = _NAN
    reflection[dropped] = _NAN
    return AcousticIndicators(matrix.grid, *_frozen(transmission, reflection, stl(transmission)))
