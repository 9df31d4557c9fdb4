"""Per-frequency transfer matrices and the acoustic indicators derived from them.

The sample is modeled as a 2x2 complex matrix linking (pressure, velocity) at
its two faces. A single measurement with one termination determines the matrix
once the passive-sample closure (equal diagonal, unit determinant) is imposed;
transmission, reflection, impedance, and transmission loss follow from it.

:func:`analyze_four_mic <tubeloss.pipeline.analyze_four_mic>` takes this
route's T and R in closed form from the wave amplitudes; the tests keep the
route as its reference. A complex product or quotient of a temporary is an
explicit ufunc call: an operator would compute in place into a temporary of
256 KiB or more, which can round differently, so a bin's bits depend on its
own inputs only. Each stage forms one kept mask and writes NaN once. Every
phase e^{jkd}, and each e^{-jkd} as its conjugate, comes from ``core._phase``:
1.0 at d = 0, and NaN without a warning where k d overflows, which drops the bin.
"""
from __future__ import annotations

import numpy as np

from .core import AirProperties, FrequencyGrid, PerBinArrays, _drop, _frozen, _per_bin_shape, _phase, _phases
from .decompose import PlaneWaveAmplitudes

__all__ = [
    "TransferMatrix",
    "AcousticIndicators",
    "boundary_states",
    "reconstruct_one_load",
    "stl",
    "anechoic_quality",
    "stl_direct_anechoic",
    "acoustic_indicators",
]

#: Relative floor below which a shared denominator counts as vanishing.
_DENOMINATOR_RTOL = 1e-12


class TransferMatrix(PerBinArrays):
    """2x2 complex matrix per frequency linking (P, V) across the sample.

    Each entry is ``(n,)``, or ``(R, n)`` with one repetition per row; all
    four share one shape. A dropped bin (a singular reconstruction, or a
    product with one) is NaN in all four entries; :attr:`valid` is derived
    from the entries, not stored.
    """

    _per_bin = {"t11": complex, "t12": complex, "t21": complex, "t22": complex}
    __slots__ = ("grid", *_per_bin)

    @property
    def valid(self) -> np.ndarray:
        """Bins where all four entries are finite."""
        return np.isfinite(self.t11) & np.isfinite(self.t12) & np.isfinite(self.t21) & np.isfinite(self.t22)

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        """Per-frequency matrix product; left operand sits on the incident side."""
        self.grid.require_matches(other.grid, "transfer-matrix product")
        # overflowing entries stay non-finite; the coefficient guards drop those bins
        with np.errstate(over="ignore", invalid="ignore"):
            entries = _product((self.t11, self.t12, self.t21, self.t22), (other.t11, other.t12, other.t21, other.t22))
        return TransferMatrix(self.grid, *_frozen(*entries))


def _product(left: tuple, right: tuple) -> tuple:
    """The entries (t11, t12, t21, t22) of ``left @ right`` from each operand's four; each sum is taken in place."""
    l11, l12, l21, l22 = left
    r11, r12, r21, r22 = right
    t11, t12, t21, t22 = l11 * r11, l11 * r12, l21 * r11, l21 * r12
    t11 += l12 * r21
    t12 += l12 * r22
    t21 += l22 * r21
    t22 += l22 * r22
    return t11, t12, t21, t22


class AcousticIndicators(PerBinArrays):
    """Per-frequency sample indicators from one reconstructed matrix.

    ``transmission``/``reflection`` are the anechoic-termination coefficients
    and ``stl_db`` the normal-incidence transmission loss (+inf where nothing
    is transmitted). Each is ``(n,)``, or ``(R, n)`` with one repetition per
    row, all three of one shape. A dropped bin is NaN in all three;
    :attr:`valid` is derived from the coefficients, not stored.
    """

    _per_bin = {"transmission": complex, "reflection": complex, "stl_db": float}
    __slots__ = ("grid", *_per_bin)

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
        Wave amplitudes on both sides of the sample, ``(n,)`` or ``(R, n)``.
    thickness : float
        Sample thickness d in m (0 allowed for a degenerate layer).
    air : AirProperties
        Supplies rho0 c and the wavenumber.

    Returns
    -------
    (p0, v0, pd, vd) : tuple of ndarray
        Entry-face, then exit-face pressure and velocity per bin, of the
        amplitudes' shape; NaN at the bins the decomposition dropped, and,
        without a warning, where k d overflows (e^{-jkd} is conj(e^{jkd})).
    """
    if thickness < 0.0:
        raise ValueError("thickness must be non-negative")
    z = air.impedance
    # (n,) phases, shared by every row; each quotient an explicit call (see the module docstring)
    phase_back, phase_out = _phases(amplitudes.grid.wavenumbers(air), thickness)
    # an overflow leaves a non-finite face value, whose bin the reconstruction drops
    with np.errstate(over="ignore", invalid="ignore"):
        p0 = amplitudes.a + amplitudes.b
        v0 = np.divide(amplitudes.a - amplitudes.b, z)
        pd = amplitudes.c * phase_out + amplitudes.d * phase_back
        vd = np.divide(amplitudes.c * phase_out - amplitudes.d * phase_back, z)
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
    ``_DENOMINATOR_RTOL`` times its magnitude scale are dropped: one kept
    mask marks them, and all entries are NaN there, written once. An
    overflowing numerator at a kept bin stays non-finite.

    Parameters
    ----------
    grid : FrequencyGrid
    p0, v0, pd, vd : array_like
        Entry-face, then exit-face pressure and velocity from
        :func:`boundary_states`, one value per bin: all four ``(n,)``, or all
        four ``(R, n)`` for R repetitions (``ValueError`` otherwise).

    Returns
    -------
    TransferMatrix
        Symmetric unit-determinant matrix, NaN at the dropped bins.
    """
    shape = _per_bin_shape(p0, len(grid), "face array")
    p0, v0, pd, vd = faces = [np.asarray(a, dtype=complex) for a in (p0, v0, pd, vd)]
    for a in faces:
        if a.shape != shape:
            raise ValueError(f"face array must have shape {shape}, got {a.shape}")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        den = p0 * vd + pd * v0
        scale = np.abs(p0) * np.abs(vd) + np.abs(pd) * np.abs(v0)
        kept = np.abs(den) > _DENOMINATOR_RTOL * scale  # a non-finite den fails; a zero scale forces den = 0
        t11 = np.divide(p0 * v0 + pd * vd, den)
        t12 = np.divide(p0 * p0 - pd * pd, den)
        t21 = np.divide(v0 * v0 - vd * vd, den)
    _drop(~kept, t11, t12, t21)
    return TransferMatrix(grid, *_frozen(t11, t12, t21, t11))


def stl(transmission: np.ndarray) -> np.ndarray:
    """Sound transmission loss 10 log10(1/|T|^2) in dB.

    Zero transmission yields +inf, not an error; NaN marks invalid bins. A
    finite |T| above about 1.3e154, where |T|^2 overflows, gets the finite
    -20 log10 |T|.
    """
    magnitude = np.abs(np.asarray(transmission, dtype=complex))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = -10.0 * np.log10(magnitude ** 2)
        overflowed = out == -np.inf
        if overflowed.any():
            out = np.where(overflowed, -20.0 * np.log10(magnitude), out)
    return out


def anechoic_quality(amplitudes: PlaneWaveAmplitudes) -> np.ndarray:
    """|D/C| per frequency, the backward-to-forward ratio behind the sample."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(amplitudes.d) / np.abs(amplitudes.c)


def stl_direct_anechoic(amplitudes: PlaneWaveAmplitudes) -> np.ndarray:
    """Transmission loss 20 log10 |A/C| assuming a clean anechoic termination.

    Valid only while the backward wave behind the sample is negligible, which
    :func:`anechoic_quality` measures; this function only computes the curve.
    """
    # a dropped bin is NaN in a or c, so it is NaN here too; no incident wave is NaN as well
    magnitude = np.abs(amplitudes.a)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = 20.0 * np.log10(magnitude / np.abs(amplitudes.c))
    out[magnitude == 0.0] = np.nan
    return out


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
        Sample matrix, typically from :func:`reconstruct_one_load`; ``(n,)`` or
        ``(R, n)`` entries.
    thickness : float
        Sample thickness d in m, used in the transmission phase reference
        e^{jkd}: exactly 1.0 at d = 0; a bin where k d overflows is dropped.
    air : AirProperties
        Ambient air.

    Returns
    -------
    AcousticIndicators
        Indicators that are NaN in ``transmission``, ``reflection`` and
        ``stl_db`` at every dropped bin: where the denominator is not finite
        or vanishes as in :func:`reconstruct_one_load`, or where T or R is
        not finite (a non-finite entry or an overflowing quotient). One kept
        mask holds all of these, and NaN is written into T and R once.
    """
    z = air.impedance
    t11, t12, t21, t22 = matrix.t11, matrix.t12, matrix.t21, matrix.t22
    # an overflow here fails the denominator check or leaves T or R non-finite; both drop the bin
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        front = t11 + t12 / z
        back = z * t21
        den = front + back + t22
        scale = np.abs(t11) + np.abs(t12) / z + z * np.abs(t21) + np.abs(t22)
        kept = np.abs(den) > _DENOMINATOR_RTOL * scale  # a non-finite den fails; a zero scale forces den = 0
        # the (n,) phase serves every row, and needs no k at d = 0; its product with 2 is an explicit call
        numerator = np.multiply(2.0, _phase(matrix.grid.wavenumbers(air), thickness) if thickness else 1.0)
        transmission = np.divide(numerator, den)
        reflection = np.divide(front - back - t22, den)
    kept &= np.isfinite(transmission) & np.isfinite(reflection)
    _drop(~kept, transmission, reflection)
    return AcousticIndicators(matrix.grid, *_frozen(transmission, reflection, stl(transmission)))


def _closed_form_indicators(amplitudes: PlaneWaveAmplitudes, thickness: float, air: AirProperties):
    """T, R and the loss of the one-load route, in closed form from the amplitudes.

    With E = e^{2jkd}, the route gives T = (AC - BDE) / (A^2 - D^2 E), R = (AB - CD) / (A^2 - D^2 E).
    Each bin's amplitudes are first scaled by the power of two that brings their largest part into
    [0.5, 1): an exact step, so T and R do not depend on the amplitudes' scale and no product overflows.
    A bin is kept where the denominator is above ``_DENOMINATOR_RTOL`` (|A^2| + |D^2 E|) (it is NaN,
    and fails, where k d overflows) and T and R are finite; T and R are NaN elsewhere, written once.
    """
    # a complex array's float view holds each value's two parts side by side: one shift serves both
    views = [wave.view(float) for wave in (amplitudes.a, amplitudes.b, amplitudes.c, amplitudes.d)]
    largest = np.abs(views[0])
    for view in views[1:]:
        np.maximum(largest, np.abs(view), out=largest)
    _, exponent = np.frexp(np.maximum(largest[..., ::2], largest[..., 1::2]))
    shift = np.repeat(np.negative(exponent), 2, axis=-1)
    a, b, c, d = (np.ldexp(view, shift).view(complex) for view in views)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e = _phase(amplitudes.grid.wavenumbers(air), 2.0 * thickness)
        a_squared, d_squared_e = np.multiply(a, a), np.multiply(np.multiply(d, d), e)
        den = a_squared - d_squared_e
        transmission = np.divide(np.multiply(a, c) - np.multiply(np.multiply(b, d), e), den)
        reflection = np.divide(np.multiply(a, b) - np.multiply(c, d), den)
        kept = np.abs(den) > _DENOMINATOR_RTOL * (np.abs(a_squared) + np.abs(d_squared_e))
    kept &= np.isfinite(transmission) & np.isfinite(reflection)
    _drop(~kept, transmission, reflection)
    return AcousticIndicators(amplitudes.grid, *_frozen(transmission, reflection, stl(transmission)))
