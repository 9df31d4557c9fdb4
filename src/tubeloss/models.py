"""Closed-form layer models, mass-law predictors, and transfer-matrix cascades.

These serve double duty: quick engineering predictions for single layers and
stacks, and exact analytic oracles for verifying the measurement pipeline.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .bands import BandTable, _band_averager
from .core import AirProperties, DEFAULT_AIR, FrequencyGrid, Record, _drop, _frozen, _phase
from .transfer import AcousticIndicators, TransferMatrix, acoustic_indicators, stl

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


#: each layer kind's parameters; a kind leaves every other one at its default, as neither file
#: format can give it one, describe() would not report it, and == would count it
_KIND_PARAMETERS = {
    "limp-mass": ("surface_density",),
    "air-gap": ("thickness",),
    "identity": (),
    "matrix": ("matrix", "passive_symmetric", "thickness"),
}


class LayerModel(Record):
    """One layer of a stack: a limp mass, an air gap, or an explicit matrix.

    ``matrix`` holds a frequency-independent 2x2 as (t11, t12, t21, t22);
    flag it ``passive_symmetric`` to enforce the equal-diagonal,
    unit-determinant shape expected of passive symmetric samples. Each kind
    takes only the parameters :data:`_KIND_PARAMETERS` gives it.
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
        if not isinstance(kind, str) or kind not in _KIND_PARAMETERS:
            raise ValueError(f"unknown layer kind '{kind}'")
        given = {"thickness": thickness != 0.0, "surface_density": surface_density is not None,
                 "matrix": matrix is not None, "passive_symmetric": passive_symmetric}
        for name, is_given in given.items():
            if is_given and name not in _KIND_PARAMETERS[kind]:
                raise ValueError(f"{kind} layer takes no {name}")
        if kind == "limp-mass" and (surface_density is None or surface_density < 0.0):
            raise ValueError("limp-mass layer needs a non-negative surface_density")
        if thickness < 0.0:
            raise ValueError(f"{kind} layer needs a non-negative thickness")
        if kind == "matrix":
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
        if self.kind == "air-gap":
            # a thickness so large that k L overflows leaves NaN entries; the indicators drop those bins
            return _gap_matrix(grid, _phase(grid.wavenumbers(air), self.thickness), air.impedance)
        if self.kind == "limp-mass":
            omega = 2.0 * math.pi * grid.frequencies
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowing m_s leaves a non-finite t12
                return _limp_mass_matrix(grid, 1j * omega * float(self.surface_density))
        t11, t12, t21, t22 = (np.full(len(grid), t, dtype=complex) for t in self.matrix or (1, 0, 0, 1))
        return TransferMatrix(grid, *_frozen(t11, t12, t21, t22))

    def _loss_and_factor(
        self, grid: FrequencyGrid, air: AirProperties, omega: np.ndarray, k: np.ndarray,
    ) -> tuple[np.ndarray, TransferMatrix | np.ndarray]:
        """This layer's own ``stl_db`` and its factor in a stack's product, given the grid's 2 pi f and k.

        The kind alone picks the route. A limp mass and an air gap take the
        parameter path: the anechoic denominator comes from w = omega m_s or
        e^{jkL} and z = rho0 c with the IEEE operations that
        :func:`acoustic_indicators` performs on the nonzero parts of the
        layer's matrix, and the loss is one quotient, ``stl(2 e^{jkL} / den)``.
        A limp mass drops the bins where w / z or w (1 / z) is not finite, as
        there the general path's denominator or its scale is not finite; a
        gap's NaN phase, where k L overflows, gives a NaN loss. No other
        vanishing-denominator guard can fire: a limp mass has |den| >= 2 against
        a scale 2 + |w| / z <= 2 |den|, and a gap's den = (2 cos kL, 2 sin kL) up
        to rounding has a modulus of about 2 against a scale of at most about 2
        (|cos kL| + |sin kL|). ``matrix`` and ``identity`` layers take the general
        path, ``acoustic_indicators(self.matrix_on(grid, air), self.thickness, air)``.
        Both give the same bits, each bin from that bin alone.

        The factor of a limp mass is the t12 = j omega m_s of its [[1, t12], [0, 1]];
        any other layer's is its matrix.
        """
        z = air.impedance
        if self.kind == "limp-mass":
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowing w drops its bin below
                w = omega * float(self.surface_density)
                w_z = w * (1.0 / z)
                # den = (1 + t12 / z) + z 0 + 1 with t12 = j w; the numerator 2 e^{j k 0} is 2
                transmission = np.divide(2.0, _complex(2.0, w_z))
                _drop(~(np.isfinite(w_z) & np.isfinite(w / z)), transmission)
                return stl(transmission), 1j * w
        if self.kind == "air-gap":
            phase = np.broadcast_to(_phase(k, self.thickness), k.shape)  # the phase of L = 0 is the scalar 1.0
            # t11 = t22 = c, t12 = j z s and t21 = j s / z, without the matrix's zero parts
            c, s = phase.real, phase.imag
            den = _complex(c + c, (z * s) * (1.0 / z) + z * (s * (1.0 / z)))
            with np.errstate(invalid="ignore"):  # a NaN phase, where k L overflows, gives a NaN loss
                transmission = np.divide(np.multiply(2.0, phase), den)
            return stl(transmission), _gap_matrix(grid, phase, z)
        matrix = self.matrix_on(grid, air)
        return acoustic_indicators(matrix, self.thickness, air).stl_db, matrix

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


def _limp_mass_matrix(grid: FrequencyGrid, t12: np.ndarray) -> TransferMatrix:
    """The limp mass [[1, t12], [0, 1]]."""
    n = len(grid)
    return TransferMatrix(grid, *_frozen(np.full(n, 1 + 0j), t12, np.full(n, 0j), np.full(n, 1 + 0j)))


def _gap_matrix(grid: FrequencyGrid, phase, z: float) -> TransferMatrix:
    """An air gap's [[cos kL, j z sin kL], [(j / z) sin kL, cos kL]] from its phase e^{jkL}."""
    gap = np.broadcast_to(phase, (len(grid),))  # the phase of a zero thickness is the scalar 1.0
    cos, sin = gap.real.astype(complex), gap.imag
    return TransferMatrix(grid, *_frozen(cos, 1j * z * sin, 1j * sin / z, cos))


def _complex(real, imag: np.ndarray) -> np.ndarray:
    """The complex array ``real + j imag``, each part copied in as it is."""
    out = np.empty(imag.shape, dtype=complex)
    out.real, out.imag = real, imag
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

    Each layer is evaluated once. Its own loss, phase-referenced to its own
    thickness, is banded at once into that layer's table; then the layer is
    multiplied into the running product in :func:`cascade`'s order. No
    per-bin curve outlives its layer, so memory grows with the grid plus
    layers times bands, not layers times bins.

    A limp mass and an air gap take a parameter path: their own loss is one
    quotient, 2 e^{jkL} over an anechoic denominator built from omega m_s or
    e^{jkL} alone, skipping the matrix entries that are known zeros and the
    reflection quotient, and a limp mass enters the product in 2 complex
    products instead of 8. ``matrix`` and ``identity`` layers take the general
    path, :func:`acoustic_indicators` of :meth:`LayerModel.matrix_on`. Each
    bin is kept or dropped from its own values alone, and both paths give the
    same bits: the tables and the stack's indicators equal those of the
    general path; the running product equals :func:`cascade`'s in value at
    the bins where that is finite, though a zero may take the other sign.

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
    product, tables = _layer_pass(layers, grid, air, _band_averager(grid, bands, mode))
    return acoustic_indicators(product, stack_thickness(layers), air), tables


def _layer_pass(layers, grid: FrequencyGrid, air: AirProperties, average) -> tuple[TransferMatrix, tuple]:
    """The running product of ``layers`` and the ``average`` of each one's own loss."""
    omega = 2.0 * math.pi * grid.frequencies  # the bits of the limp mass's 2 pi f
    # k overflows under the least sound speeds; a gap's phase and loss are NaN there
    k = grid.wavenumbers(air)
    tables = []
    product = None
    for layer in layers:
        loss, factor = layer._loss_and_factor(grid, air, omega, k)
        tables.append(average(loss))
        if isinstance(factor, TransferMatrix):
            product = factor if product is None else product @ factor
        elif product is None:
            product = _limp_mass_matrix(grid, factor)
        else:
            product = _times_limp_mass(product, factor)
    return product, tuple(tables)


def _times_limp_mass(product: TransferMatrix, t12: np.ndarray) -> TransferMatrix:
    """``product @ [[1, t12], [0, 1]]`` in 2 complex products: t11 and t21 carry over.

    Where ``product`` is finite this equals the 8-product ``@`` in value; a
    zero may take the other sign, and an infinite entry is not turned into
    NaN by a product with 0. Either way the stack's indicators keep their bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t12, t22 = product.t11 * t12 + product.t12, product.t21 * t12 + product.t22
    return TransferMatrix(product.grid, product.t11, *_frozen(t12), product.t21, *_frozen(t22))
