"""Shared domain types: air state, tube geometry, frequency grids, spectra."""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

__all__ = [
    "AirProperties",
    "DEFAULT_AIR",
    "TubeGeometry",
    "FrequencyGrid",
    "MicSpectra",
    "MaterialSpec",
    "plane_wave_cutoff",
]


class Record:
    """Immutable base of the toolkit's records.

    A subclass lists its fields in ``__slots__``, in the order of its
    ``__init__`` parameters, which sets each field once (:meth:`_set` sets
    them all in that order) through ``object.__setattr__``. ``repr``,
    ``==`` and ``hash`` read the fields in that order, as a frozen dataclass
    does; assigning or deleting a field raises ``AttributeError``. ``==``
    compares an ndarray field by value, NaN equal to NaN; ``hash`` of a
    record holding one raises ``TypeError``, as a frozen dataclass's does.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            a is b or (np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b)
            for a, b in zip(self._fields(), other._fields())
        )

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):  # copy and pickle go through __init__, as assignment is refused
        return type(self), self._fields()

    def replace(self, **changes):
        """A copy with ``changes`` applied to its fields, validated again by ``__init__``."""
        return type(self)(**dict(zip(self.__slots__, self._fields()), **changes))


class AirProperties(Record):
    """Ambient air state of a measurement.

    Only ``density`` and ``sound_speed`` enter the acoustics. Temperature and
    relative humidity are informational metadata; no psychro-acoustic model is
    applied to derive one field from another. The models divide by rho0 c and
    multiply by its inverse, so both must be positive and finite.
    """

    __slots__ = ("density", "sound_speed", "temperature", "relative_humidity")

    def __init__(
        self,
        density: float = 1.204,
        sound_speed: float = 343.2,
        temperature: float | None = None,
        relative_humidity: float | None = None,
    ) -> None:
        if not 0.0 < density < math.inf:
            raise ValueError(f"air density must be positive and finite, got {density}")
        if not 0.0 < sound_speed < math.inf:
            raise ValueError(f"sound speed must be positive and finite, got {sound_speed}")
        z = density * sound_speed
        if not 0.0 < z < math.inf or 1.0 / z == math.inf:
            raise ValueError(f"air impedance density * sound_speed = {z!r}: it and its inverse must be positive and finite")
        self._set(density, sound_speed, temperature, relative_humidity)

    @property
    def impedance(self) -> float:
        """Characteristic impedance rho0 * c in Pa s/m."""
        return self.density * self.sound_speed


#: Dry air near 20 degC; override through the config file when the lab
#: conditions matter.
DEFAULT_AIR = AirProperties()


class TubeGeometry(Record):
    """Microphone layout and sample extent along the tube axis.

    ``mic_positions`` is ``(x1, x2, x3, x4)`` in m in the frame where the
    sample spans ``[0, sample_thickness]``: x1 < x2 on the source side,
    x3 < x4 on the termination side.
    """

    __slots__ = ("mic_positions", "sample_thickness", "tube_diameter")

    def __init__(
        self, mic_positions: tuple[float, float, float, float], sample_thickness: float, tube_diameter: float
    ) -> None:
        pos = tuple(float(x) for x in mic_positions)
        if len(pos) != 4:
            raise ValueError("exactly four microphone positions are required")
        if not all(map(math.isfinite, pos)):
            raise ValueError(f"microphone positions must be finite, got {pos}")
        x1, x2, x3, x4 = pos
        if not x1 < x2:
            raise ValueError(f"upstream pair must satisfy x1 < x2, got {x1}, {x2}")
        if not x3 < x4:
            raise ValueError(f"downstream pair must satisfy x3 < x4, got {x3}, {x4}")
        if not 0.0 < sample_thickness < math.inf:
            raise ValueError("sample thickness must be positive and finite")
        if not 0.0 < tube_diameter < math.inf:
            raise ValueError("tube diameter must be positive and finite")
        self._set(pos, sample_thickness, tube_diameter)


#: Cap on the bins of a regular grid (about 50 times the benchmark's 19 001-bin
#: grids), so a tiny step fails as bad input instead of exhausting memory.
_MAX_BINS = 1_000_000


class FrequencyGrid(Record):
    """Strictly increasing frequency axis in Hz.

    Wavenumbers are derived on demand from an :class:`AirProperties`; nothing
    frequency-dependent is cached against a stale air state.
    """

    __slots__ = ("frequencies",)

    def __init__(self, frequencies) -> None:
        f = np.array(frequencies, dtype=float)
        if f.ndim != 1 or f.size == 0:
            raise ValueError("frequency grid must be a non-empty 1-D sequence")
        fault = _frequency_fault(f)
        if fault is not None:
            raise ValueError(fault[0])
        f.flags.writeable = False
        self._set(f)

    @classmethod
    def from_range(cls, f_min: float, f_max: float, step: float) -> "FrequencyGrid":
        """Regular grid of the bins ``f_min + step * i`` with ``i < (f_max - f_min) / step + 1 / 2``."""
        if not all(math.isfinite(v) for v in (f_min, f_max, step)):
            raise ValueError("f_min, f_max and step must be finite")
        if step <= 0.0:
            raise ValueError("step must be positive")
        if f_max < f_min:
            raise ValueError("f_max must not be below f_min")
        n = (f_max - f_min) / step + 0.5  # f_max + step / 2 itself can round down to f_max
        if n > _MAX_BINS:
            raise ValueError(f"grid would have more than {_MAX_BINS} bins")
        if f_max > f_min and step < math.ulp(f_max):
            raise ValueError(f"step {step!r} is below the spacing of doubles at f_max ({math.ulp(f_max)!r})")
        f = f_min + step * np.arange(math.ceil(n))
        if not (f[1:] > f[:-1]).all():  # a step of one spacing can round two ties to one even double
            spacing = math.ulp(f_max)
            raise ValueError(f"step {step!r} rounds two bins onto one double; doubles at f_max are {spacing!r} apart")
        return cls(f)

    def __len__(self) -> int:
        return int(self.frequencies.size)

    def __repr__(self) -> str:
        f = self.frequencies
        return f"FrequencyGrid({f[0]:g}..{f[-1]:g} Hz, {f.size} bins)"

    def require_matches(self, other: "FrequencyGrid", context: str = "operation") -> None:
        if self is not other and self != other:
            raise ValueError(f"{context}: operands use different frequency grids")

    def wavenumbers(self, air: AirProperties) -> np.ndarray:
        """Lossless real wavenumber k = 2 pi f / c in rad/m of every bin; inf, without a warning, where it overflows."""
        with np.errstate(over="ignore"):
            return 2.0 * math.pi * self.frequencies / air.sound_speed


def _phase(k: np.ndarray, x: float):
    """e^{jkx} on every bin of ``k``: the exact scalar 1.0 at x = 0, NaN without a warning where k x overflows.

    Every phase of the program is computed here; :func:`_phases` adds its conjugate. The phase is
    cos(kx) + j sin(kx) of one float kx, both parts written into one complex array: the bits of
    ``np.exp(1j * (k * x))``, at less cost. ``+ 0.0`` turns a kx that underflowed to -0 into +0, as
    exp's imaginary part is +0 there and sin(-0) is -0.
    """
    if x == 0.0:
        return 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        kx = k * x + 0.0
        phase = np.empty(kx.shape, dtype=complex)
        np.cos(kx, out=phase.real)
        np.sin(kx, out=phase.imag)
    return phase


def _phases(k: np.ndarray, x: float) -> tuple:
    """(e^{jkx}, e^{-jkx}), the second conj(e^{jkx}) bit for bit: + 0.0 turns conj's -0j at k x = 0 into +0j."""
    phase = _phase(k, x)
    return phase, np.conj(phase) + 0.0


def _frequency_fault(f: np.ndarray) -> tuple[str, int] | None:
    """The first of a frequency axis's rules that the 1-D ``f`` breaks, and the first bin breaking it.

    The rules are checked one at a time, in this order: every bin finite,
    then positive, then above the bin before it. None if ``f`` keeps all three.
    """
    message, bad, offset = "frequencies must be finite", ~np.isfinite(f), 0
    if not bad.any():
        message, bad = "frequencies must be positive", f <= 0.0
    if not bad.any():  # bin i + 1 breaks it when it is not above bin i
        message, bad, offset = "frequencies must be strictly increasing", f[1:] <= f[:-1], 1
    return (message, offset + int(np.flatnonzero(bad)[0])) if bad.any() else None


def locked_array(values, dtype, shape: tuple, what: str) -> np.ndarray:
    """Read-only C-contiguous array of ``values`` as ``dtype``; ValueError unless it has ``shape``.

    An ndarray of exactly that dtype and shape that owns its data, is
    C-contiguous and is already read-only is returned as is; anything else is
    copied first, so no caller keeps a writeable handle on the result.
    """
    if (
        type(values) is np.ndarray
        and values.dtype == np.dtype(dtype)
        and values.shape == shape
        and values.flags.owndata
        and values.flags.c_contiguous
        and not values.flags.writeable
    ):
        return values
    arr = np.array(values, dtype=dtype, order="C")
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    arr.flags.writeable = False
    return arr


def _per_bin_shape(values, n: int, what: str) -> tuple:
    """The shape of ``values`` if it holds one entry per bin of an ``n``-bin grid.

    That is ``(n,)`` for one measurement or ``(R, n)`` for R >= 1 of them
    (repetitions, one per row); any other shape, 3-D or larger included, is a
    ValueError.
    """
    shape = np.shape(values)
    if len(shape) in (1, 2) and shape[-1] == n and shape[0] > 0:
        return shape
    raise ValueError(f"{what} must have shape ({n},) or (R, {n}), got {shape}")


_NAN = complex(np.nan, np.nan)


def _drop(dropped: np.ndarray, *arrays: np.ndarray) -> None:
    """Write complex NaN, in place, at the ``dropped`` bins of each array: one ``(n,)`` mask serves every row."""
    for arr in arrays:
        arr[..., dropped] = _NAN


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Lock arrays a producer has just computed, in place, so :func:`locked_array` keeps them."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


class PerBinArrays(Record):
    """Base of the records whose array fields hold one entry per bin of ``self.grid``.

    ``_per_bin`` maps each such field to its dtype, and a subclass declares
    ``__slots__ = ("grid", *_per_bin)``, the order of its parameters. The
    fields share one shape, ``(n,)`` or ``(R, n)`` (:func:`_per_bin_shape`),
    the first field's; construction stores each one's :func:`locked_array`:
    an array a producer locked with :func:`_frozen` is kept, any other is
    copied.
    """

    __slots__ = ()
    _per_bin: dict = {}

    def __init__(self, grid: FrequencyGrid, *arrays, **named) -> None:
        if named:  # keyword arrays: bind them in field order, or refuse the call below
            bound = dict(zip(self._per_bin, arrays), **named)
            fits = len(bound) == len(arrays) + len(named) and bound.keys() == self._per_bin.keys()
            arrays = tuple(bound[name] for name in self._per_bin) if fits else ()
        if len(arrays) != len(self._per_bin):
            raise TypeError(f"{type(self).__name__} takes grid, {', '.join(self._per_bin)}")
        object.__setattr__(self, "grid", grid)
        shape = None
        for (name, dtype), values in zip(self._per_bin.items(), arrays):
            what = f"field '{name}'"
            if shape is None:
                shape = _per_bin_shape(values, len(grid), what)
            object.__setattr__(self, name, locked_array(values, dtype, shape, what))


class MicSpectra(Record):
    """Complex pressures in Pa at the four microphones x1..x4, on one frequency grid.

    ``pressures`` has shape ``(4, n)`` for one measurement or ``(4, R, n)``
    for R repetitions on the grid, so ``pressures[i]`` is microphone i + 1's
    ``(n,)`` or ``(R, n)`` spectrum. It is read-only, C-contiguous and finite.
    Immutable.
    """

    __slots__ = ("grid", "pressures")

    def __init__(self, grid: FrequencyGrid, pressures) -> None:
        shape, n = np.shape(pressures), len(grid)
        if not (len(shape) in (2, 3) and shape[0] == 4 and shape[-1] == n and 0 not in shape):
            raise ValueError(f"mic pressures must have shape (4, {n}) or (4, R, {n}), got {shape}")
        p = locked_array(pressures, complex, shape, "mic pressures")
        if not np.all(np.isfinite(p)):
            raise ValueError("spectrum values must be finite")
        self._set(grid, p)

    def __iter__(self):  # x1..x4 as ``.values``, the way bench/harness/workloads.py reads them
        return (SimpleNamespace(values=p) for p in self.pressures)


class MaterialSpec(Record):
    """Material record as ingested from a data sheet (mm at the boundary).

    When a bulk density is supplied, the stored surface density must agree
    with thickness times density within 1 percent.
    """

    __slots__ = ("name", "thickness_mm", "surface_density", "bulk_density")

    def __init__(
        self, name: str, thickness_mm: float, surface_density: float, bulk_density: float | None = None
    ) -> None:
        if not 0.0 < thickness_mm < math.inf:  # NaN fails this test too
            raise ValueError(f"{name}: thickness must be positive and finite")
        if not 0.0 < surface_density < math.inf:
            raise ValueError(f"{name}: surface density must be positive and finite")
        if bulk_density is not None:
            if not bulk_density > 0.0:  # NaN fails this test too
                raise ValueError(f"{name}: bulk density must be positive")
            implied = thickness_mm / 1000.0 * bulk_density
            if abs(implied - surface_density) > 0.01 * surface_density:
                raise ValueError(
                    f"{name}: surface density {surface_density} kg/m^2 is "
                    f"inconsistent with thickness x bulk density = {implied:.6g} kg/m^2"
                )
        self._set(name, thickness_mm, surface_density, bulk_density)


def plane_wave_cutoff(geometry: TubeGeometry, air: AirProperties) -> float:
    """First non-planar mode of a circular duct: 1.841 c / (pi diameter), Hz.

    Results above this frequency are flagged by the analysis commands, never
    rejected.
    """
    return 1.841 * air.sound_speed / (math.pi * geometry.tube_diameter)
