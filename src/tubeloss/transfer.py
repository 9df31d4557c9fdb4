"""Per-frequency transfer matrices and the acoustic indicators derived from them.

The sample is modeled as a 2x2 complex matrix linking (pressure, velocity) at
its two faces. A single measurement with one termination determines the matrix
once the passive-sample closure (equal diagonal, unit determinant) is imposed;
transmission, reflection, impedance, and transmission loss follow from it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import AirProperties, FrequencyGrid, PerBinArrays
from .decompose import PlaneWaveAmplitudes
from .errors import AnechoicQualityWarning

__all__ = [
    "BoundaryState",
    "TransferMatrix",
    "AcousticIndicators",
    "boundary_states",
    "reconstruct_one_load",
    "transmission_coefficient",
    "reflection_coefficient_anechoic",
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


def _nonvanishing(den: np.ndarray, scale: np.ndarray, valid=True) -> np.ndarray:
    """Bins of ``valid`` where ``den`` is finite and above ``_DENOMINATOR_RTOL`` times its ``scale``."""
    with np.errstate(invalid="ignore"):
        return valid & np.isfinite(den) & (scale > 0.0) & (np.abs(den) > _DENOMINATOR_RTOL * scale)


def _quotient(num, den: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """``num / den`` at the ``ok`` bins, complex NaN elsewhere."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ok, num / den, _NAN)


@dataclass(frozen=True)
class BoundaryState(PerBinArrays):
    """Pressure (Pa) and particle velocity (m/s) at one face of the sample.

    NaN entries mark bins already excluded upstream in the pipeline.
    """

    grid: FrequencyGrid
    pressure: np.ndarray
    velocity: np.ndarray

    _per_bin = {"pressure": complex, "velocity": complex}


@dataclass(frozen=True)
class TransferMatrix(PerBinArrays):
    """2x2 complex matrix per frequency linking (P, V) across the sample.

    ``valid`` marks bins where the matrix is meaningful; invalid bins carry
    NaN entries and are skipped by downstream band averaging.
    """

    grid: FrequencyGrid
    t11: np.ndarray
    t12: np.ndarray
    t21: np.ndarray
    t22: np.ndarray
    valid: np.ndarray = field(default=None)  # type: ignore[assignment]

    _per_bin = {"t11": complex, "t12": complex, "t21": complex, "t22": complex, "valid": bool}

    def __post_init__(self) -> None:
        if self.valid is None:
            object.__setattr__(self, "valid", np.ones(len(self.grid), dtype=bool))
        super().__post_init__()

    def determinant(self) -> np.ndarray:
        return self.t11 * self.t22 - self.t12 * self.t21

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        """Per-frequency matrix product; left operand sits on the incident side."""
        self.grid.require_matches(other.grid, "transfer-matrix product")
        # overflowing entries stay non-finite; the coefficient guards drop those bins
        with np.errstate(over="ignore", invalid="ignore"):
            return TransferMatrix(
                self.grid,
                self.t11 * other.t11 + self.t12 * other.t21,
                self.t11 * other.t12 + self.t12 * other.t22,
                self.t21 * other.t11 + self.t22 * other.t21,
                self.t21 * other.t12 + self.t22 * other.t22,
                self.valid & other.valid,
            )


@dataclass(frozen=True)
class AcousticIndicators(PerBinArrays):
    """Per-frequency sample indicators from one reconstructed matrix.

    ``transmission``/``reflection`` are the anechoic-termination coefficients,
    ``surface_impedance`` the anechoic surface impedance (inf marks a rigid
    face), ``rigid_reflection`` the rigid-backing reflection, and ``stl_db``
    the normal-incidence transmission loss (+inf where nothing is transmitted).
    """

    grid: FrequencyGrid
    transmission: np.ndarray
    reflection: np.ndarray
    surface_impedance: np.ndarray
    rigid_reflection: np.ndarray
    stl_db: np.ndarray
    valid: np.ndarray

    _per_bin = {
        "transmission": complex, "reflection": complex, "surface_impedance": complex,
        "rigid_reflection": complex, "stl_db": float, "valid": bool,
    }

    @property
    def reflectance(self) -> np.ndarray:
        """|R|^2, the reflected power fraction under anechoic termination."""
        return np.abs(self.reflection) ** 2


def boundary_states(
    amplitudes: PlaneWaveAmplitudes,
    thickness: float,
    air: AirProperties,
) -> tuple[BoundaryState, BoundaryState]:
    """Pressure and velocity at the sample faces x = 0 and x = thickness.

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
    (BoundaryState, BoundaryState)
        States at the entry face and at the exit face.
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
    grid = amplitudes.grid
    return BoundaryState(grid, p0, v0), BoundaryState(grid, pd, vd)


def reconstruct_one_load(
    state_in: BoundaryState,
    state_out: BoundaryState,
) -> TransferMatrix:
    """Build the transfer matrix from one pair of boundary states.

    One termination gives two equations for four unknowns; the system is
    closed with the passive-sample constraints T11 = T22 and det T = 1,
    which yields

        T11 = T22 = (P0 V0 + Pd Vd) / (P0 Vd + Pd V0)
        T12 = (P0^2 - Pd^2) / (P0 Vd + Pd V0)
        T21 = (V0^2 - Vd^2) / (P0 Vd + Pd V0)

    The symmetric quotient forms stay well defined when Pd or Vd alone
    vanishes; only the shared denominator matters. det T = 1 holds exactly
    by construction. Bins where ``|P0 Vd + Pd V0|`` falls below
    ``_DENOMINATOR_RTOL`` times its magnitude scale are marked invalid.

    Parameters
    ----------
    state_in, state_out : BoundaryState
        States at the entry and exit faces.

    Returns
    -------
    TransferMatrix
        Symmetric unit-determinant matrix, invalid bins masked.
    """
    state_in.grid.require_matches(state_out.grid, "reconstruct_one_load")
    p0, v0 = state_in.pressure, state_in.velocity
    pd, vd = state_out.pressure, state_out.velocity

    den = p0 * vd + pd * v0
    scale = np.abs(p0) * np.abs(vd) + np.abs(pd) * np.abs(v0)
    ok = _nonvanishing(den, scale)
    t11 = _quotient(p0 * v0 + pd * vd, den, ok)
    t12 = _quotient(p0 * p0 - pd * pd, den, ok)
    t21 = _quotient(v0 * v0 - vd * vd, den, ok)
    return TransferMatrix(state_in.grid, t11, t12, t21, t11, ok)


def _anechoic_denominator(matrix: TransferMatrix, air: AirProperties) -> tuple[np.ndarray, np.ndarray]:
    """Shared denominator of the anechoic coefficients, with its validity mask."""
    z = air.impedance
    with np.errstate(over="ignore", invalid="ignore"):  # _nonvanishing drops a non-finite den
        den = matrix.t11 + matrix.t12 / z + z * matrix.t21 + matrix.t22
    scale = (
        np.abs(matrix.t11)
        + np.abs(matrix.t12) / z
        + z * np.abs(matrix.t21)
        + np.abs(matrix.t22)
    )
    return den, _nonvanishing(den, scale, matrix.valid)


def transmission_coefficient(
    matrix: TransferMatrix,
    k: np.ndarray,
    thickness: float,
    air: AirProperties,
) -> np.ndarray:
    """Anechoic transmission coefficient per frequency.

        T = 2 e^{jkd} / (T11 + T12/(rho0 c) + rho0 c T21 + T22)

    Both off-diagonal terms are scaled by rho0 c, the only dimensionally
    consistent normalization. Bins with a vanishing denominator come back NaN.
    """
    den, ok = _anechoic_denominator(matrix, air)
    return _quotient(2.0 * np.exp(1j * np.asarray(k, dtype=float) * thickness), den, ok)


def reflection_coefficient_anechoic(matrix: TransferMatrix, air: AirProperties) -> np.ndarray:
    """Anechoic reflection coefficient per frequency.

        R = (T11 + T12/(rho0 c) - rho0 c T21 - T22) / (T11 + T12/(rho0 c) + rho0 c T21 + T22)
    """
    z = air.impedance
    den, ok = _anechoic_denominator(matrix, air)
    with np.errstate(over="ignore", invalid="ignore"):  # only read where ok
        num = matrix.t11 + matrix.t12 / z - z * matrix.t21 - matrix.t22
    return _quotient(num, den, ok)


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
    ok = _nonvanishing(den, scale, matrix.valid)
    return _quotient(matrix.t11 - z * matrix.t21, den, ok)


def stl(transmission: np.ndarray) -> np.ndarray:
    """Sound transmission loss 10 log10(1/|T|^2) in dB.

    Zero transmission yields +inf, not an error; NaN marks invalid bins.
    """
    mag2 = np.abs(np.asarray(transmission, dtype=complex)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return -10.0 * np.log10(mag2)


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
        Indicators with a combined validity mask.
    """
    k = matrix.grid.wavenumbers(air)
    transmission = transmission_coefficient(matrix, k, thickness, air)
    reflection = reflection_coefficient_anechoic(matrix, air)
    impedance = surface_impedance_anechoic(reflection, air)
    rigid = rigid_backing_reflection(matrix, air)
    loss = stl(transmission)
    valid = matrix.valid & np.isfinite(transmission) & np.isfinite(reflection)
    return AcousticIndicators(
        grid=matrix.grid,
        transmission=transmission,
        reflection=reflection,
        surface_impedance=impedance,
        rigid_reflection=rigid,
        stl_db=loss,
        valid=valid,
    )
