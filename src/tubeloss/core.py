"""Shared domain types: air state, tube geometry, frequency grids, spectra."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "AirProperties",
    "DEFAULT_AIR",
    "TubeGeometry",
    "FrequencyGrid",
    "ComplexSpectrum",
    "MaterialSpec",
    "wavenumber",
    "plane_wave_cutoff",
    "surface_density",
]


@dataclass(frozen=True)
class AirProperties:
    """Ambient air state of a measurement.

    Only ``density`` and ``sound_speed`` enter the acoustics. Temperature and
    relative humidity are informational metadata; no psychro-acoustic model is
    applied to derive one field from another.
    """

    density: float = 1.204
    sound_speed: float = 343.2
    temperature: float | None = None
    relative_humidity: float | None = None

    def __post_init__(self) -> None:
        if not self.density > 0.0:
            raise ValueError(f"air density must be positive, got {self.density}")
        if not self.sound_speed > 0.0:
            raise ValueError(f"sound speed must be positive, got {self.sound_speed}")

    @property
    def impedance(self) -> float:
        """Characteristic impedance rho0 * c in Pa s/m."""
        return self.density * self.sound_speed


#: Dry air near 20 degC; override through the config file when the lab
#: conditions matter.
DEFAULT_AIR = AirProperties()


@dataclass(frozen=True)
class TubeGeometry:
    """Microphone layout and sample extent along the tube axis.

    ``mic_positions`` is ``(x1, x2, x3, x4)`` in m in the frame where the
    sample spans ``[0, sample_thickness]``: x1 < x2 on the source side,
    x3 < x4 on the termination side.
    """

    mic_positions: tuple[float, float, float, float]
    sample_thickness: float
    tube_diameter: float

    def __post_init__(self) -> None:
        pos = tuple(float(x) for x in self.mic_positions)
        if len(pos) != 4:
            raise ValueError("exactly four microphone positions are required")
        object.__setattr__(self, "mic_positions", pos)
        x1, x2, x3, x4 = pos
        if not x1 < x2:
            raise ValueError(f"upstream pair must satisfy x1 < x2, got {x1}, {x2}")
        if not x3 < x4:
            raise ValueError(f"downstream pair must satisfy x3 < x4, got {x3}, {x4}")
        if not self.sample_thickness > 0.0:
            raise ValueError("sample thickness must be positive")
        if not self.tube_diameter > 0.0:
            raise ValueError("tube diameter must be positive")

    @property
    def upstream_spacing(self) -> float:
        return self.mic_positions[1] - self.mic_positions[0]

    @property
    def downstream_spacing(self) -> float:
        return self.mic_positions[3] - self.mic_positions[2]


#: Cap on the bins of a regular grid (about 50 times the benchmark's 19 001-bin
#: grids), so a tiny step fails as bad input instead of exhausting memory.
_MAX_BINS = 1_000_000


class FrequencyGrid:
    """Strictly increasing frequency axis in Hz.

    Wavenumbers are derived on demand from an :class:`AirProperties`; nothing
    frequency-dependent is cached against a stale air state.
    """

    __slots__ = ("_frequencies",)

    def __init__(self, frequencies) -> None:
        f = np.array(frequencies, dtype=float)
        if f.ndim != 1 or f.size == 0:
            raise ValueError("frequency grid must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(f)):
            raise ValueError("frequencies must be finite")
        if np.any(f <= 0.0):
            raise ValueError("frequencies must be positive")
        if np.any(np.diff(f) <= 0.0):
            raise ValueError("frequencies must be strictly increasing")
        f.flags.writeable = False
        self._frequencies = f

    @classmethod
    def from_range(cls, f_min: float, f_max: float, step: float) -> "FrequencyGrid":
        """Regular grid from ``f_min`` to ``f_max`` inclusive (when it lands on the step)."""
        if not all(math.isfinite(v) for v in (f_min, f_max, step)):
            raise ValueError("f_min, f_max and step must be finite")
        if step <= 0.0:
            raise ValueError("step must be positive")
        if f_max < f_min:
            raise ValueError("f_max must not be below f_min")
        if (f_max - f_min) / step >= _MAX_BINS:
            raise ValueError(f"grid would have more than {_MAX_BINS} bins")
        return cls(np.arange(f_min, f_max + 0.5 * step, step))

    @property
    def frequencies(self) -> np.ndarray:
        return self._frequencies

    def __len__(self) -> int:
        return int(self._frequencies.size)

    def __repr__(self) -> str:
        f = self._frequencies
        return f"FrequencyGrid({f[0]:g}..{f[-1]:g} Hz, {f.size} bins)"

    def matches(self, other: "FrequencyGrid") -> bool:
        return self is other or np.array_equal(self._frequencies, other._frequencies)

    def require_matches(self, other: "FrequencyGrid", context: str = "operation") -> None:
        if not self.matches(other):
            raise GridMismatchError(f"{context}: operands use different frequency grids")

    def wavenumbers(self, air: AirProperties) -> np.ndarray:
        return wavenumber(self._frequencies, air)


def locked_array(values, dtype, shape: tuple, what: str) -> np.ndarray:
    """Read-only private copy of ``values`` as ``dtype``; ValueError unless it has ``shape``."""
    arr = np.array(values, dtype=dtype)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    arr.flags.writeable = False
    return arr


class PerBinArrays:
    """Mixin for frozen dataclasses whose array fields hold one entry per bin of ``self.grid``.

    ``_per_bin`` maps each such field to its dtype; construction replaces every
    one with a :func:`locked_array` copy.
    """

    _per_bin: dict = {}

    def __post_init__(self) -> None:
        shape = (len(self.grid),)
        for name, dtype in self._per_bin.items():
            arr = locked_array(getattr(self, name), dtype, shape, f"field '{name}'")
            object.__setattr__(self, name, arr)


class ComplexSpectrum:
    """Complex values on a frequency grid (Pa for pressures, 1 for coefficients).

    Immutable.
    """

    __slots__ = ("_grid", "_values")

    def __init__(self, grid: FrequencyGrid, values) -> None:
        v = locked_array(values, complex, (len(grid),), "spectrum values")
        if not np.all(np.isfinite(v)):
            raise ValueError("spectrum values must be finite")
        self._grid = grid
        self._values = v

    @property
    def grid(self) -> FrequencyGrid:
        return self._grid

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __len__(self) -> int:
        return len(self._grid)


@dataclass(frozen=True)
class MaterialSpec:
    """Material record as ingested from a data sheet (mm at the boundary).

    When a bulk density is supplied, the stored surface density must agree
    with thickness times density within 1 percent.
    """

    name: str
    thickness_mm: float
    surface_density: float
    bulk_density: float | None = None

    def __post_init__(self) -> None:
        if not self.thickness_mm > 0.0:
            raise ValueError(f"{self.name}: thickness must be positive")
        if not self.surface_density > 0.0:
            raise ValueError(f"{self.name}: surface density must be positive")
        if self.bulk_density is not None:
            implied = surface_density(self.thickness_mm / 1000.0, self.bulk_density)
            if abs(implied - self.surface_density) > 0.01 * self.surface_density:
                raise ValueError(
                    f"{self.name}: surface density {self.surface_density} kg/m^2 is "
                    f"inconsistent with thickness x bulk density = {implied:.6g} kg/m^2"
                )

    @property
    def thickness_m(self) -> float:
        return self.thickness_mm / 1000.0


def wavenumber(f, air: AirProperties):
    """Lossless real wavenumber k = 2 pi f / c in rad/m.

    Parameters
    ----------
    f : float or ndarray
        Frequency in Hz, strictly positive.
    air : AirProperties
        Supplies the sound speed.

    Returns
    -------
    float or ndarray
        Wavenumber per input frequency.
    """
    arr = np.asarray(f, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("frequency must be positive and finite")
    k = 2.0 * math.pi * arr / air.sound_speed
    if arr.ndim == 0:
        return float(k)
    return k


def plane_wave_cutoff(geometry: TubeGeometry, air: AirProperties) -> float:
    """First non-planar mode of a circular duct: 1.841 c / (pi diameter), Hz.

    Results above this frequency are flagged by the analysis commands, never
    rejected.
    """
    return 1.841 * air.sound_speed / (math.pi * geometry.tube_diameter)


def surface_density(thickness: float, density: float) -> float:
    """Mass per unit area in kg/m^2 from thickness (m) and bulk density (kg/m^3)."""
    if not thickness > 0.0 or not density > 0.0:
        raise ValueError("thickness and density must be positive")
    return thickness * density
