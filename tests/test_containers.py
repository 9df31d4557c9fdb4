"""Contract shared by the per-frequency containers: shape-checked, private, read-only arrays."""
import numpy as np
import pytest

from tubeloss import (
    AcousticIndicators,
    BandTable,
    ComplexSpectrum,
    FrequencyGrid,
    PlaneWaveAmplitudes,
    TransferMatrix,
    third_octave_bands,
)

GRID = FrequencyGrid.from_range(100.0, 500.0, 100.0)
BANDS = third_octave_bands(100.0, 500.0)

# name -> (entries per array, constructor from the array dict, {array field: dtype})
CONTAINERS = {
    "PlaneWaveAmplitudes": (
        len(GRID),
        lambda arrays: PlaneWaveAmplitudes(GRID, **arrays),
        {"a": complex, "b": complex, "c": complex, "d": complex,
         "upstream_singular": bool, "downstream_singular": bool},
    ),
    "TransferMatrix": (
        len(GRID),
        lambda arrays: TransferMatrix(GRID, **arrays),
        {"t11": complex, "t12": complex, "t21": complex, "t22": complex},
    ),
    "AcousticIndicators": (
        len(GRID),
        lambda arrays: AcousticIndicators(GRID, **arrays),
        {"transmission": complex, "reflection": complex, "stl_db": float, "valid": bool},
    ),
    "ComplexSpectrum": (
        len(GRID),
        lambda arrays: ComplexSpectrum(GRID, arrays["values"]),
        {"values": complex},
    ),
    "BandTable": (
        len(BANDS),
        lambda arrays: BandTable(BANDS, arrays["values"], arrays["coverage"]),
        {"values": float, "coverage": float},
    ),
}


def inputs(n: int, fields: dict) -> dict:
    """Finite per-bin arrays of each field's dtype, with entries x where 1 - x != x."""
    out = {}
    for name, dtype in fields.items():
        if dtype is bool:
            out[name] = np.zeros(n, dtype=bool)
        else:
            out[name] = np.full(n, 0.25, dtype=dtype) + (0.25j if dtype is complex else 0.0)
    return out


@pytest.mark.parametrize("name", list(CONTAINERS))
def test_wrong_length_rejected(name):
    n, build, fields = CONTAINERS[name]
    for field in fields:
        arrays = inputs(n, fields)
        arrays[field] = arrays[field][:-1]
        with pytest.raises(ValueError):
            build(arrays)


@pytest.mark.parametrize("name", list(CONTAINERS))
def test_stored_arrays_are_read_only(name):
    n, build, fields = CONTAINERS[name]
    obj = build(inputs(n, fields))
    for field in fields:
        stored = getattr(obj, field)
        assert stored.shape == (n,)
        assert not stored.flags.writeable, field
        with pytest.raises(ValueError):
            stored[0] = stored[1]


@pytest.mark.parametrize("name", list(CONTAINERS))
def test_stored_arrays_are_private_copies(name):
    n, build, fields = CONTAINERS[name]
    arrays = inputs(n, fields)
    obj = build(arrays)
    before = {field: getattr(obj, field).copy() for field in fields}
    for field, arr in arrays.items():
        arr[0] = 1 - arr[0]
    for field in fields:
        np.testing.assert_array_equal(getattr(obj, field), before[field], err_msg=field)
