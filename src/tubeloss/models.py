"""Closed-form layer models, mass-law predictors, and transfer-matrix cascades.

These serve double duty: quick engineering predictions for single layers and
stacks, and exact analytic oracles for verifying the measurement pipeline.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .bands import BandTable, _band_averager
from .core import AirProperties, DEFAULT_AIR, FrequencyGrid, Record, _frozen
from .transfer import (
    AcousticIndicators,
    TransferMatrix,
    _indicators,
    _transmission_phase,
    acoustic_indicators,
)

__all__ = [
    "LayerModel",
    "mass_law_constant_db",
    "mass_law_stl",
    "cascade",
    "stack_thickness",
    "stack_indicators",
]

#: Additive constants for the mass-law predictor, dB. "paper" is the widely
#: quoted field-incidence rule of thumb from the sound-insulation literature;
#: "normal" is the analytic normal-incidence asymptote, which depends on air.
MASS_LAW_CONSTANTS = ("paper", "normal")

_FIELD_INCIDENCE_CONSTANT_DB = -48.0


def mass_law_constant_db(constant: str = "paper", air: AirProperties = DEFAULT_AIR) -> float:
    """Additive constant of the mass law in dB for the chosen variant."""
    if constant == "paper":
        return _FIELD_INCIDENCE_CONSTANT_DB
    if constant == "normal":
        # 20 log10(pi / rho0 c): exact high-frequency asymptote of a limp layer
        # at normal incidence, about -42.4 dB for default air.
        return 20.0 * math.log10(math.pi / air.impedance)
    raise ValueError(f"unknown mass-law constant '{constant}', expected one of {MASS_LAW_CONSTANTS}")


def mass_law_stl(f, m_s: float, constant: str = "paper", air: AirProperties = DEFAULT_AIR):
    """Mass-law transmission loss 20 log10(f m_s) + constant, in dB.

    Parameters
    ----------
    f : float or ndarray
        Frequency in Hz.
    m_s : float or ndarray
        Surface density in kg/m^2; broadcasts against ``f``.
    constant : {"paper", "normal"}, optional
        Which additive constant to use; the two are never mixed.
    air : AirProperties, optional
        Only consulted for the "normal" constant.

    Returns
    -------
    float or ndarray
        Predicted loss; may be negative at low f * m_s, in which case the
        prediction is below the validity of the rule and callers should flag
        it rather than clip it.

    Raises
    ------
    ValueError
        Unless every f * m_s is positive and finite; the message says so when
        finite inputs make the product overflow.
    """
    f, m_s = np.asarray(f, dtype=float), np.asarray(m_s, dtype=float)
    with np.errstate(over="ignore"):  # an overflow is raised below as such, not warned about
        product = f * m_s
    if product.size == 0 or not np.all(np.isfinite(product)) or np.any(product <= 0.0):
        if np.isinf(product).any() and np.isfinite(f).all() and np.isfinite(m_s).all():
            raise ValueError("f * m_s overflows")
        raise ValueError("f * m_s must be positive")
    out = 20.0 * np.log10(product) + mass_law_constant_db(constant, air)
    if out.ndim == 0:
        return float(out)
    return out


class LayerModel(Record):
    """One layer of a stack: a limp mass, an air gap, or an explicit matrix.

    ``matrix`` holds a frequency-independent 2x2 as (t11, t12, t21, t22);
    flag it ``passive_symmetric`` to enforce the equal-diagonal,
    unit-determinant shape expected of passive symmetric samples.
    """

    __slots__ = ("kind", "surface_density", "thickness", "matrix", "passive_symmetric")

    def __init__(
        self,
        kind: str,
        surface_density: float | None = None,
        thickness: float = 0.0,
        matrix: tuple[complex, complex, complex, complex] | None = None,
        passive_symmetric: bool = False,
    ) -> None:
        if kind == "limp-mass":
            if surface_density is None or surface_density < 0.0:
                raise ValueError("limp-mass layer needs a non-negative surface_density")
        elif kind == "air-gap":
            if thickness < 0.0:
                raise ValueError("air-gap layer needs a non-negative thickness")
        elif kind == "identity":
            pass
        elif kind == "matrix":
            if matrix is None or len(matrix) != 4:
                raise ValueError("matrix layer needs four complex entries")
            matrix = tuple(complex(v) for v in matrix)
            if passive_symmetric:
                t11, t12, t21, t22 = matrix
                det = t11 * t22 - t12 * t21
                if t11 != t22 or abs(det - 1.0) > 1e-9:
                    raise ValueError(
                        "passive-symmetric matrix must have equal diagonal and unit determinant"
                    )
        else:
            raise ValueError(f"unknown layer kind '{kind}'")
        if thickness < 0.0:
            raise ValueError("layer thickness must be non-negative")
        # NaN passes the sign checks above; an infinite parameter would drop every bin of the layer.
        # A surface density of None (any kind but limp-mass) is not checked.
        parameters = {"surface_density": surface_density or 0.0, "thickness": thickness}
        if kind == "matrix":
            parameters.update(zip(("t11", "t12", "t21", "t22"), matrix))
        for name, value in parameters.items():
            if not cmath.isfinite(value):
                raise ValueError(f"layer {name} must be finite")
        self._set(kind, surface_density, thickness, matrix, passive_symmetric)

    @classmethod
    def limp_mass(cls, m_s: float) -> "LayerModel":
        return cls(kind="limp-mass", surface_density=m_s)

    @classmethod
    def air_gap(cls, thickness: float) -> "LayerModel":
        return cls(kind="air-gap", thickness=thickness)

    @classmethod
    def identity(cls) -> "LayerModel":
        return cls(kind="identity")

    @classmethod
    def explicit(
        cls,
        t11: complex,
        t12: complex,
        t21: complex,
        t22: complex,
        passive_symmetric: bool = False,
        thickness: float = 0.0,
    ) -> "LayerModel":
        return cls(
            kind="matrix",
            matrix=(t11, t12, t21, t22),
            passive_symmetric=passive_symmetric,
            thickness=thickness,
        )

    def matrix_on(self, grid: FrequencyGrid, air: AirProperties = DEFAULT_AIR) -> TransferMatrix:
        """Evaluate this layer's transfer matrix on a grid.

        A limp mass is [[1, j omega m_s], [0, 1]], an air gap of thickness L [[cos kL, j rho0 c sin kL],
        [(j / rho0 c) sin kL, cos kL]]; any other layer holds its constant entries at every bin.
        """
        return self._matrix_and_phase(grid, air)[0]

    def _matrix_and_phase(
        self, grid: FrequencyGrid, air: AirProperties,
    ) -> tuple[TransferMatrix, np.ndarray | float | None]:
        """This layer's matrix and, for an air gap, the e^{jkL} it is built from (None for other kinds).

        An air gap's cos kL and sin kL are the real and imaginary parts of
        its transmission phase, so the gap's exponential serves its matrix and
        its indicators. With numpy 2.4 on x86-64 Linux, np.exp(1j x) has the
        bits of np.cos(x) and np.sin(x) at every bin checked, so the matrix
        keeps the bits it had when it was built from np.cos and np.sin.
        """
        if self.kind == "air-gap":
            z = air.impedance
            # a thickness so large that k L overflows leaves NaN entries; the indicators drop those bins
            phase = _transmission_phase(grid, self.thickness, air)
            gap = np.broadcast_to(phase, (len(grid),))  # the phase of a zero thickness is the scalar 1.0
            cos, sin = gap.real.astype(complex), gap.imag
            return TransferMatrix(grid, *_frozen(cos, 1j * z * sin, 1j * sin / z, cos)), phase
        t11, t12, t21, t22 = (np.full(len(grid), t, dtype=complex) for t in self.matrix or (1, 0, 0, 1))
        if self.kind == "limp-mass":
            omega = 2.0 * math.pi * grid.frequencies
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowing m_s leaves a non-finite t12
                t12 = 1j * omega * float(self.surface_density)
        return TransferMatrix(grid, *_frozen(t11, t12, t21, t22)), None

    def describe(self) -> dict:
        """Loggable parameter summary."""
        out: dict = {"kind": self.kind}
        if self.kind == "limp-mass":
            out["surface_density"] = self.surface_density
        elif self.kind == "air-gap":
            out["thickness"] = self.thickness
        elif self.kind == "matrix":
            out["matrix"] = [[v.real, v.imag] for v in self.matrix]  # type: ignore[union-attr]
            out["passive_symmetric"] = self.passive_symmetric
            if self.thickness:
                out["thickness"] = self.thickness
        return out


def cascade(
    layers,
    grid: FrequencyGrid,
    air: AirProperties = DEFAULT_AIR,
) -> TransferMatrix:
    """Ordered product of layer matrices, incident side first.

    Parameters
    ----------
    layers : sequence of LayerModel
        Stack from the incident face to the back face; must be non-empty.
    grid : FrequencyGrid
        Evaluation grid.
    air : AirProperties, optional
        Ambient air for the air-gap layers.

    Returns
    -------
    TransferMatrix
        The stack matrix; its determinant stays 1 when every layer has
        determinant 1.
    """
    layers = tuple(layers)
    if not layers:
        raise ValueError("cascade needs at least one layer")
    # A loop, not functools.reduce: reduce keeps the previous two operands
    # alive while it builds the next layer's matrix, which costs time.
    result = layers[0].matrix_on(grid, air)
    for layer in layers[1:]:
        result = result @ layer.matrix_on(grid, air)
    return result


def stack_thickness(layers) -> float:
    """Total geometric thickness of a stack in m."""
    return float(sum(layer.thickness for layer in layers))


def stack_indicators(
    layers,
    grid: FrequencyGrid,
    air: AirProperties = DEFAULT_AIR,
    *,
    bands,
    mode: str = "power",
) -> tuple[AcousticIndicators, tuple[BandTable, ...]]:
    """Indicators of a whole stack and each layer's own banded loss, in one pass over the layers.

    Each layer matrix is built once. Its own indicators, phase-referenced to
    its own thickness, are banded at once into that layer's table; then it is
    multiplied into the running product in :func:`cascade`'s order, so the
    stack gets the bits of ``cascade``. No per-bin curve outlives its layer,
    so memory grows with the grid plus layers times bands, not layers times
    bins.

    Parameters
    ----------
    layers : sequence of LayerModel
        Stack from the incident face to the back face; must be non-empty.
    grid : FrequencyGrid
        Evaluation grid.
    air : AirProperties, optional
        Ambient air.
    bands : sequence of ThirdOctaveBand
        Bands of each layer's table.
    mode : {"power", "db"}, optional
        Band averaging mode, as in :func:`~tubeloss.bands.band_average`.

    Returns
    -------
    (AcousticIndicators, tuple of BandTable)
        The stack's indicators, phase-referenced to its total thickness, and
        one read-only table per layer: table i equals ``band_average(grid,
        acoustic_indicators(layers[i].matrix_on(grid, air),
        layers[i].thickness, air).stl_db, bands, mode=mode)`` bit for bit.
    """
    layers = tuple(layers)
    if not layers:
        raise ValueError("stack_indicators needs at least one layer")
    average = _band_averager(grid, bands, mode)
    tables = []
    product = None
    for layer in layers:
        matrix, phase = layer._matrix_and_phase(grid, air)
        tables.append(average(_indicators(matrix, layer.thickness, air, phase).stl_db))
        product = matrix if product is None else product @ matrix
    return acoustic_indicators(product, stack_thickness(layers), air), tuple(tables)
