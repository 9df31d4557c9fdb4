"""Closed-form layer models, mass-law predictors, and transfer-matrix cascades.

These serve double duty: quick engineering predictions for single layers and
stacks, and exact analytic oracles for verifying the measurement pipeline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AirProperties, DEFAULT_AIR, FrequencyGrid
from .transfer import AcousticIndicators, TransferMatrix, acoustic_indicators

__all__ = [
    "MASS_LAW_CONSTANTS",
    "mass_law_constant_db",
    "mass_law_stl",
    "limp_mass_matrix",
    "air_gap_matrix",
    "identity_matrix",
    "LayerModel",
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
    """
    product = np.asarray(f, dtype=float) * np.asarray(m_s, dtype=float)
    if product.size == 0 or not np.all(np.isfinite(product)) or np.any(product <= 0.0):
        raise ValueError("f * m_s must be positive")
    out = 20.0 * np.log10(product) + mass_law_constant_db(constant, air)
    if out.ndim == 0:
        return float(out)
    return out


def limp_mass_matrix(grid: FrequencyGrid, m_s: float) -> TransferMatrix:
    """Impervious inertia-only layer: [[1, j omega m_s], [0, 1]].

    ``m_s = 0`` degenerates to the identity.
    """
    if m_s < 0.0:
        raise ValueError("surface density must be non-negative")
    omega = 2.0 * math.pi * grid.frequencies
    one = np.ones(len(grid), dtype=complex)
    zero = np.zeros(len(grid), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing m_s leaves a non-finite t12
        t12 = 1j * omega * m_s
    return TransferMatrix(grid, one, t12, zero, one)


def air_gap_matrix(grid: FrequencyGrid, thickness: float, air: AirProperties = DEFAULT_AIR) -> TransferMatrix:
    """Plain air layer of the given thickness in m.

        [[cos kL, j rho0 c sin kL], [(j / rho0 c) sin kL, cos kL]]
    """
    if thickness < 0.0:
        raise ValueError("gap thickness must be non-negative")
    k_l = grid.wavenumbers(air) * thickness
    z = air.impedance
    cos = np.cos(k_l).astype(complex)
    sin = np.sin(k_l)
    return TransferMatrix(grid, cos, 1j * z * sin, 1j * sin / z, cos)


def identity_matrix(grid: FrequencyGrid) -> TransferMatrix:
    """Degenerate no-sample layer."""
    one = np.ones(len(grid), dtype=complex)
    zero = np.zeros(len(grid), dtype=complex)
    return TransferMatrix(grid, one, zero, zero, one)


@dataclass(frozen=True)
class LayerModel:
    """One layer of a stack: a limp mass, an air gap, or an explicit matrix.

    ``matrix`` holds a frequency-independent 2x2 as (t11, t12, t21, t22);
    flag it ``passive_symmetric`` to enforce the equal-diagonal,
    unit-determinant shape expected of passive symmetric samples.
    """

    kind: str
    surface_density: float | None = None
    thickness: float = 0.0
    matrix: tuple[complex, complex, complex, complex] | None = None
    passive_symmetric: bool = False

    def __post_init__(self) -> None:
        if self.kind == "limp-mass":
            if self.surface_density is None or self.surface_density < 0.0:
                raise ValueError("limp-mass layer needs a non-negative surface_density")
        elif self.kind == "air-gap":
            if self.thickness < 0.0:
                raise ValueError("air-gap layer needs a non-negative thickness")
        elif self.kind == "identity":
            pass
        elif self.kind == "matrix":
            if self.matrix is None or len(self.matrix) != 4:
                raise ValueError("matrix layer needs four complex entries")
            entries = tuple(complex(v) for v in self.matrix)
            object.__setattr__(self, "matrix", entries)
            if self.passive_symmetric:
                t11, t12, t21, t22 = entries
                det = t11 * t22 - t12 * t21
                if t11 != t22 or abs(det - 1.0) > 1e-9:
                    raise ValueError(
                        "passive-symmetric matrix must have equal diagonal and unit determinant"
                    )
        else:
            raise ValueError(f"unknown layer kind '{self.kind}'")
        if self.thickness < 0.0:
            raise ValueError("layer thickness must be non-negative")

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
        """Evaluate this layer's transfer matrix on a grid."""
        if self.kind == "limp-mass":
            return limp_mass_matrix(grid, float(self.surface_density))
        if self.kind == "air-gap":
            return air_gap_matrix(grid, self.thickness, air)
        if self.kind == "identity":
            return identity_matrix(grid)
        t11, t12, t21, t22 = self.matrix  # type: ignore[misc]
        n = len(grid)
        return TransferMatrix(
            grid,
            np.full(n, t11, dtype=complex),
            np.full(n, t12, dtype=complex),
            np.full(n, t21, dtype=complex),
            np.full(n, t22, dtype=complex),
        )

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
) -> AcousticIndicators:
    """Indicators of a whole stack, phase-referenced to its total thickness."""
    layers = tuple(layers)
    matrix = cascade(layers, grid, air)
    return acoustic_indicators(matrix, stack_thickness(layers), air)
